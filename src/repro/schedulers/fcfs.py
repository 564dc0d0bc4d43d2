"""First-Come First-Served: non-preemptive, arrival order (paper baseline i)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.lut import ModelInfoLUT
from repro.schedulers.base import INF, Scheduler, register_scheduler
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request


@register_scheduler("fcfs")
class FCFSScheduler(Scheduler):
    """Run the earliest-arrived request to completion before the next one."""

    batch_columns = ("arrival",)
    single_drain_safe = True
    supports_incremental = True  # static key (arrival, rid): zero decay

    def __init__(self, lut: ModelInfoLUT):
        super().__init__(lut)
        self.reset()

    def reset(self) -> None:
        self._current: Optional[Request] = None

    def inc_best(self, queue: "ReadyQueue", idxs, now: float):
        arr_l = queue.ls_arrival
        rid_l = queue.ls_rid
        best = -1
        b_arr = b_rid = INF
        for i in idxs:
            arr = arr_l[i]
            if arr > b_arr:
                continue
            rid = rid_l[i]
            if arr < b_arr or rid < b_rid:
                best, b_arr, b_rid = i, arr, rid
        return best, b_arr

    def np_scores(self, queue: "ReadyQueue", now: float):
        n = queue._n
        return queue.np_arrival[:n], (queue.np_rid[:n],)

    def select(self, queue: Sequence[Request], now: float) -> Request:
        if self._current is not None and not self._current.is_done and self._current in queue:
            return self._current
        self._current = min(queue, key=lambda r: (r.arrival, r.rid))
        return self._current

    def select_single(self, queue: "ReadyQueue", now: float) -> Request:
        # A singleton queue: the lone request is both the earliest arrival
        # and (if valid) the current one.
        self._current = queue[0]
        return self._current

    def select_batch(self, queue: "ReadyQueue", now: float) -> Request:
        cur = self._current
        if cur is not None and not cur.is_done and cur in queue:
            return cur
        self._current = Scheduler.select_batch(self, queue, now)
        return self._current
