"""PREMA (Choi & Rhu, HPCA'20): predictive token-based preemptive scheduling.

PREMA accumulates *tokens* on waiting tasks proportional to their priority
and experienced slowdown, then among the tasks whose token count passes a
threshold, dispatches the one with the shortest estimated (remaining) time.
Following the paper's setup (Sec 6.1), the candidate criterion is
``Token_i >= Threshold`` (their modification of PREMA's line 9), and latency
estimates come from the offline profile — PREMA assumes a *static* workload,
which is precisely the limitation Dysta addresses.

On an engine's ready queue the token state lives in aux columns (kept in
the parked row while a dispatched request runs its layer block on a pool),
so token accumulation is one array expression instead of a dict crawl;
without a bound queue (the reference loop) the original dict-based
bookkeeping runs.  Both accumulate at
the same decision instants with the same arithmetic, so token trajectories
— and therefore schedules — are identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.lut import ModelInfoLUT
from repro.schedulers.base import Scheduler, register_scheduler
from repro.sim.ready_queue import ReadyQueue, np_lexmin
from repro.sim.request import Request

_AUX_TOKENS = "prema_tokens"
_AUX_LAST_UPDATE = "prema_last_update"


@register_scheduler("prema")
class PREMAScheduler(Scheduler):
    """Token-based preemptive scheduling with SJF among urgent candidates.

    Args:
        threshold: Token level at which a task becomes a dispatch candidate.
        priority: Static priority multiplier per request (uniform by default,
            as the paper's workloads carry no per-task priority classes).
    """

    batch_columns = ("est_isolated", "est_remaining", "arrival", "priority")
    # Token accumulation happens per selection, so skipping singleton
    # boundaries would change the token trajectory: not drain-safe.
    single_drain_safe = False

    def __init__(self, lut: ModelInfoLUT, threshold: float = 3.0, priority: float = 1.0):
        super().__init__(lut)
        self.threshold = threshold
        self.priority = priority
        self.reset()

    def reset(self) -> None:
        self._tokens: Dict[int, float] = {}
        self._last_update: Dict[int, float] = {}

    def bind_queue(self, queue: Optional[ReadyQueue]) -> None:
        super().bind_queue(queue)
        if queue is not None:
            queue.register_aux(_AUX_TOKENS, 0.0)
            queue.register_aux(_AUX_LAST_UPDATE, 0.0)

    def on_arrival(self, request: Request, now: float) -> None:
        queue = self._bound
        if queue is not None:
            # Bound queue: the aux columns are the only token store (the
            # scalar dicts would go permanently stale — select_batch never
            # accumulates them).
            i = queue.index_of(request)
            if i >= 0:
                queue.aux_set(_AUX_TOKENS, i, 0.0)
                queue.aux_set(_AUX_LAST_UPDATE, i, now)
            return
        self._tokens[request.rid] = 0.0
        self._last_update[request.rid] = now

    def on_complete(self, request: Request, now: float) -> None:
        if self._bound is not None:
            return
        self._tokens.pop(request.rid, None)
        self._last_update.pop(request.rid, None)

    def _accumulate(self, queue: Sequence[Request], now: float) -> None:
        """Tokens grow with priority x normalized waiting time.

        The per-request ``priority`` field carries PREMA's task priority
        classes (high-priority tasks reach the threshold sooner); the
        scheduler-level ``priority`` scalar is a global multiplier.
        """
        for req in queue:
            elapsed = now - self._last_update.get(req.rid, now)
            if elapsed > 0:
                isolated = max(self.estimated_isolated(req), 1e-12)
                self._tokens[req.rid] = self._tokens.get(req.rid, 0.0) + (
                    self.priority * req.priority * elapsed / isolated
                )
                self._last_update[req.rid] = now

    def select(self, queue: Sequence[Request], now: float) -> Request:
        self._accumulate(queue, now)
        candidates = [r for r in queue if self._tokens.get(r.rid, 0.0) >= self.threshold]
        pool = candidates if candidates else list(queue)
        return min(pool, key=lambda r: (self.estimated_remaining(r), r.arrival, r.rid))

    # -- vectorized fast path ----------------------------------------------

    def select_single(self, queue: "ReadyQueue", now: float) -> Request:
        req = queue[0]
        lu_l = queue.aux_list(_AUX_LAST_UPDATE)
        elapsed = now - lu_l[0]
        if elapsed > 0:
            tok_l = queue.aux_list(_AUX_TOKENS)
            isolated = queue.ls_est_isolated[0]
            if isolated < 1e-12:
                isolated = 1e-12
            queue.aux_set(
                _AUX_TOKENS, 0,
                tok_l[0] + (self.priority * req.priority * elapsed / isolated),
            )
            queue.aux_set(_AUX_LAST_UPDATE, 0, now)
        return req

    def select_batch(self, queue: "ReadyQueue", now: float) -> Request:
        n = queue._n
        thr = self.threshold
        if n >= self.numpy_min_queue:
            queue.vectorize()
            tok = queue.aux_np_writable(_AUX_TOKENS)
            lu = queue.aux_np_writable(_AUX_LAST_UPDATE)
            iso = np.maximum(queue.np_est_isolated[:n], 1e-12)
            elapsed = now - lu[:n]
            tok[:n] += self.priority * queue.np_priority[:n] * elapsed / iso
            lu[:n] = now
            rem = queue.np_est_remaining[:n]
            arr = queue.np_arrival[:n]
            rid = queue.np_rid[:n]
            idx = np.flatnonzero(tok[:n] >= thr)
            if 0 < idx.size < n:
                best = np_lexmin(rem[idx], arr[idx], rid[idx])
                return queue[int(idx[best])]
            return queue[np_lexmin(rem, arr, rid)]

        tok_l = queue.aux_list(_AUX_TOKENS)
        lu_l = queue.aux_list(_AUX_LAST_UPDATE)
        iso_l = queue.ls_est_isolated
        pr_l = queue.ls_priority
        rem_l = queue.ls_est_remaining
        arr_l = queue.ls_arrival
        rid_l = queue.ls_rid
        sp = self.priority
        best_c = -1  # best among threshold candidates
        bc_rem = bc_arr = bc_rid = 0.0
        best_a = 0  # best overall (fallback pool)
        ba_rem = ba_arr = ba_rid = None
        for i in range(n):
            elapsed = now - lu_l[i]
            if elapsed > 0:
                iso = iso_l[i]
                if iso < 1e-12:
                    iso = 1e-12
                tokens = tok_l[i] + (sp * pr_l[i] * elapsed / iso)
                tok_l[i] = tokens
                lu_l[i] = now
            else:
                tokens = tok_l[i]
            rem = rem_l[i]
            arr = arr_l[i]
            rid = rid_l[i]
            if ba_rem is None or rem < ba_rem or (
                rem == ba_rem and (arr < ba_arr or (arr == ba_arr and rid < ba_rid))
            ):
                best_a, ba_rem, ba_arr, ba_rid = i, rem, arr, rid
            if tokens >= thr and (
                best_c < 0 or rem < bc_rem or (
                    rem == bc_rem and (arr < bc_arr or (arr == bc_arr and rid < bc_rid))
                )
            ):
                best_c, bc_rem, bc_arr, bc_rid = i, rem, arr, rid
        if queue._vectorized:
            # The loop wrote the lists only: refresh the numpy twins.
            queue.aux_np(_AUX_TOKENS)[:n] = tok_l[:n]
            queue.aux_np(_AUX_LAST_UPDATE)[:n] = lu_l[:n]
        return queue._requests[best_c if best_c >= 0 else best_a]
