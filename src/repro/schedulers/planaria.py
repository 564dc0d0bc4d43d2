"""Planaria (Ghodrati et al., MICRO'20), temporal-sharing reduction.

Planaria's scheduler is SLO-driven: it estimates whether each task can still
meet its deadline and dispatches the feasible task with the least *slack*
(time to deadline minus remaining work), deprioritizing tasks that are
already lost causes.  On a spatially-fissioned accelerator it also sizes pod
allocations; following the paper's setup (Sec 6.1) the resource requirement
is fixed to 1 (pure time-sharing), which reduces the policy to
feasibility-triaged least-slack-first.

This is exactly why Planaria posts strong violation rates but poor ANTT
(Table 5): slack order ignores job length relative to its own isolated time,
so a long job close to its deadline blocks short newcomers whose deadlines
are comfortably far in *absolute* terms but tight relative to their tiny
isolated latency.

The ready-queue kernels read the ``est_remaining`` and ``deadline`` columns
and return the lexicographic minimum of (infeasible, slack, rid), computing
``now + rem <= deadline`` and ``deadline - now - rem`` exactly as the
scalar spec does.  The selection cache stays off: its scalar bound cannot
cover a feasibility flag that flips as time passes.  A one-request
``select`` is stateless and there is no monitor hook, so singleton
decisions are skipped and lone requests drain.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.schedulers.base import INF, Scheduler, register_scheduler
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request


@register_scheduler("planaria")
class PlanariaScheduler(Scheduler):
    """Feasibility-triaged least-slack-first under pure time-sharing."""

    batch_columns = ("est_remaining", "deadline")
    single_drain_safe = True

    def _feasible(self, req: Request, now: float) -> bool:
        """Can the task still meet its SLO if dispatched immediately?

        Uses the offline latency estimate, like the original (Planaria also
        assumes a predictable, profile-driven workload).
        """
        return now + self.estimated_remaining(req) <= req.deadline

    def select(self, queue: Sequence[Request], now: float) -> Request:
        feasible = [r for r in queue if self._feasible(r, now)]
        pool = feasible if feasible else list(queue)
        return min(
            pool,
            key=lambda r: (r.deadline - now - self.estimated_remaining(r), r.rid),
        )

    select_single = Scheduler.select_first

    def inc_best(self, queue: "ReadyQueue", idxs: Sequence[int],
                 now: float) -> Tuple[int, float]:
        rem_l = queue.ls_est_remaining
        dl_l = queue.ls_deadline
        rid_l = queue.ls_rid
        best = -1
        b_late = True
        b_slack = b_rid = INF
        for i in idxs:
            rem = rem_l[i]
            dl = dl_l[i]
            late = not now + rem <= dl
            if late and not b_late:
                continue
            slack = dl - now - rem
            rid = rid_l[i]
            if (b_late and not late) or slack < b_slack or (
                slack == b_slack and rid < b_rid
            ):
                best, b_late, b_slack, b_rid = i, late, slack, rid
        return best, b_slack

    def np_scores(self, queue: "ReadyQueue", now: float):
        n = queue._n
        rem = queue.np_est_remaining[:n]
        dl = queue.np_deadline[:n]
        return ~(now + rem <= dl), (dl - now - rem, queue.np_rid[:n])
