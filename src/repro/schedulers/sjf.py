"""Shortest-Job First (paper baseline ii, and the running example of Fig 5).

Preemptive at layer boundaries: picks the request with the smallest
*estimated remaining* time, where the estimate comes from offline per-layer
average latencies (the "without sparsity info" setting of Fig 5(a)) — SJF is
sparsity-oblivious, so a high-sparsity fast sample and a low-sparsity slow
sample of the same model look identical to it.

The vectorized path reads the ready queue's incrementally maintained
``est_remaining`` column (refreshed on layer completion from the cached LUT
suffix array) instead of re-deriving the estimate per request per decision.
The selection key ``(est_remaining, arrival, rid)`` is static — a row's key
never changes while it sits untouched in the queue — so the incremental
selection cache runs with zero decay and exact (stored-bit) bound
comparisons.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.schedulers.base import INF, Scheduler, register_scheduler
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request


@register_scheduler("sjf")
class SJFScheduler(Scheduler):
    """Shortest estimated-remaining-time first (static estimates)."""

    batch_columns = ("est_remaining", "arrival")
    single_drain_safe = True
    supports_incremental = True

    def select(self, queue: Sequence[Request], now: float) -> Request:
        return min(queue, key=lambda r: (self.estimated_remaining(r), r.arrival, r.rid))

    select_single = Scheduler.select_first

    def inc_best(self, queue: "ReadyQueue", idxs: Sequence[int],
                 now: float) -> Tuple[int, float]:
        rem_l = queue.ls_est_remaining
        arr_l = queue.ls_arrival
        rid_l = queue.ls_rid
        best = -1
        b_rem = b_arr = b_rid = INF
        for i in idxs:
            rem = rem_l[i]
            if rem > b_rem:
                continue
            arr = arr_l[i]
            rid = rid_l[i]
            if rem < b_rem or arr < b_arr or (arr == b_arr and rid < b_rid):
                best, b_rem, b_arr, b_rid = i, rem, arr, rid
        return best, b_rem

    def np_scores(self, queue: "ReadyQueue", now: float):
        n = queue._n
        return queue.np_est_remaining[:n], (queue.np_arrival[:n], queue.np_rid[:n])
