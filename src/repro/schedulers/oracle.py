"""Oracle scheduler: Dysta's scoring with perfect latency knowledge.

The Oracle reads each request's ground-truth remaining time (including every
not-yet-executed layer's true sparse latency) instead of a prediction.  It
upper-bounds what any monitored-sparsity predictor can achieve and is the
reference curve of Figs 14/15.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.lut import ModelInfoLUT
from repro.schedulers.base import INF, Scheduler, register_scheduler
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request


@register_scheduler("oracle")
class OracleScheduler(Scheduler):
    """Dysta dynamic scoring (Algorithm 2) with exact remaining times.

    Args:
        eta: Weight of the slack + penalty terms, as in Dysta.
    """

    batch_columns = ("true_remaining", "true_isolated", "deadline", "last_run_end")
    single_drain_safe = True
    supports_incremental = True

    def __init__(self, lut: ModelInfoLUT, eta: float = 0.02):
        super().__init__(lut)
        self.eta = eta
        # Dysta-shaped score: slack decays at most at rate 1 while the
        # (unclamped, but structurally non-negative: last_run_end <= now)
        # waiting penalty only grows, so eta bounds an untouched row's
        # score decay per simulated second.
        self.inc_decay_rate = eta
        self.inc_margin = 1e-9

    def select(self, queue: Sequence[Request], now: float) -> Request:
        n_queue = len(queue)

        def score(req: Request) -> float:
            remaining = req.true_remaining
            isolated = max(req.isolated_latency, 1e-12)
            # Same hopeless-job clamp as Dysta: expired deadlines must not
            # monopolize the accelerator.
            slack = max(req.deadline - now - remaining, -isolated)
            penalty = ((now - req.last_run_end) / isolated) / n_queue
            return remaining + self.eta * (slack + penalty)

        return min(queue, key=lambda r: (score(r), r.rid))

    # -- vectorized fast path ----------------------------------------------

    select_single = Scheduler.select_first

    def inc_best(self, queue: "ReadyQueue", idxs, now: float):
        eta = self.eta
        rem_l = queue.ls_true_remaining
        iso_l = queue.ls_true_isolated
        dl_l = queue.ls_deadline
        lre_l = queue.ls_last_run_end
        rid_l = queue.ls_rid
        n = queue._n
        best = -1
        b_score = b_rid = INF
        for i in idxs:
            iso = iso_l[i]
            if iso < 1e-12:
                iso = 1e-12
            rem = rem_l[i]
            slack = dl_l[i] - now - rem
            neg_iso = -iso
            if slack < neg_iso:
                slack = neg_iso
            score = rem + eta * (slack + ((now - lre_l[i]) / iso) / n)
            rid = rid_l[i]
            if score < b_score or (score == b_score and rid < b_rid):
                best, b_score, b_rid = i, score, rid
        return best, b_score

    def np_scores(self, queue: "ReadyQueue", now: float):
        n = queue._n
        eta = self.eta
        rem = queue.np_true_remaining[:n]
        iso = np.maximum(queue.np_true_isolated[:n], 1e-12)
        slack = np.maximum(queue.np_deadline[:n] - now - rem, -iso)
        penalty = ((now - queue.np_last_run_end[:n]) / iso) / n
        return rem + eta * (slack + penalty), (queue.np_rid[:n],)
