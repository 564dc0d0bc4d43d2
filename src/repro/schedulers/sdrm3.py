"""SDRM3 (Kim et al., ASPLOS'24): MapScore = Urgency + alpha x Fairness.

Following the paper's setup (Sec 6.1): MapScore is the weighted sum of
Urgency and Fairness with the accelerator-preference weight Pref fixed to 1
(single accelerator).  Urgency grows as a request's deadline approaches;
Fairness boosts requests that have received less than their fair processing
share.  With fairness in the driving seat the policy approximates processor
sharing, which keeps every request slow under load — the paper measures
SDRM3 at FCFS-level ANTT with *worse* violations (Table 5).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.lut import ModelInfoLUT
from repro.schedulers.base import INF, Scheduler, register_scheduler
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request


@register_scheduler("sdrm3")
class SDRM3Scheduler(Scheduler):
    """Urgency + fairness MapScore scheduling (select the max score).

    Args:
        alpha: Weight of the fairness term relative to urgency (SDRM3's
            tunable alpha; the paper tunes it per SDRM3's methodology).
    """

    batch_columns = ("est_remaining", "deadline", "arrival", "executed_time")
    single_drain_safe = True

    def __init__(self, lut: ModelInfoLUT, alpha: float = 2.0):
        super().__init__(lut)
        self.alpha = alpha

    def _urgency(self, req: Request, now: float) -> float:
        """Remaining work over remaining time-to-deadline (clamped)."""
        remaining = self.estimated_remaining(req)
        slack_window = req.deadline - now
        if slack_window <= 0:
            return 10.0  # already violating: maximally urgent, but bounded
        return min(remaining / slack_window, 10.0)

    def _fairness(self, req: Request, now: float) -> float:
        """1 - received processing share since arrival (higher = more starved)."""
        age = now - req.arrival
        if age <= 0:
            return 0.0
        share = req.executed_time / age
        return 1.0 - min(share, 1.0)

    def select(self, queue: Sequence[Request], now: float) -> Request:
        return max(
            queue,
            key=lambda r: (
                self._urgency(r, now) + self.alpha * self._fairness(r, now),
                -r.rid,
            ),
        )

    # -- vectorized fast path ----------------------------------------------
    # Both kernels score -MapScore with ties to the smaller rid: exactly
    # the spec's max over (MapScore, -rid), as negation is exact.

    select_single = Scheduler.select_first

    def inc_best(self, queue: "ReadyQueue", idxs: Sequence[int],
                 now: float) -> Tuple[int, float]:
        alpha = self.alpha
        rem_l = queue.ls_est_remaining
        dl_l = queue.ls_deadline
        arr_l = queue.ls_arrival
        ex_l = queue.ls_executed_time
        rid_l = queue.ls_rid
        best = -1
        b_score = b_rid = INF
        for i in idxs:
            window = dl_l[i] - now
            if window <= 0:
                urgency = 10.0
            else:
                urgency = rem_l[i] / window
                if urgency > 10.0:
                    urgency = 10.0
            age = now - arr_l[i]
            if age <= 0:
                fairness = 0.0
            else:
                share = ex_l[i] / age
                if share > 1.0:
                    share = 1.0
                fairness = 1.0 - share
            score = -(urgency + alpha * fairness)
            rid = rid_l[i]
            if score < b_score or (score == b_score and rid < b_rid):
                best, b_score, b_rid = i, score, rid
        return best, b_score

    def np_scores(self, queue: "ReadyQueue", now: float):
        n = queue._n
        window = queue.np_deadline[:n] - now
        safe_w = np.where(window > 0, window, 1.0)
        urgency = np.where(
            window <= 0, 10.0,
            np.minimum(queue.np_est_remaining[:n] / safe_w, 10.0),
        )
        age = now - queue.np_arrival[:n]
        safe_age = np.where(age > 0, age, 1.0)
        fairness = np.where(
            age <= 0, 0.0,
            1.0 - np.minimum(queue.np_executed_time[:n] / safe_age, 1.0),
        )
        return np.negative(urgency + self.alpha * fairness), (queue.np_rid[:n],)
