"""Dysta: bi-level dynamic and static scheduler (paper Sec 4).

**Static level (Algorithm 1, software).**  On arrival of request
``<Model, Pattern, input, SLO>`` the static scheduler reads the (model,
pattern) LUT entry, estimates latency from the pattern-aware average, and
assigns an initial score ``Score = Lat + beta * T_slack`` that orders
requests before any runtime information exists.

**Dynamic level (Algorithm 2, hardware).**  Whenever a layer completes, the
hardware monitor reveals that layer's measured sparsity; the sparse latency
predictor (Algorithm 3) refines the request's remaining-time estimate, and
every queued request is re-scored:

    Score_i = T_remain_i + eta * (T_slack_i + T_penalty_i)
    T_slack_i = SLO_i - t - T_remain_i
    T_penalty_i = (T_wait_i / T_isol_i) / |Q|

The request with the *lowest* score runs next.  The remaining-time term
favours short jobs (ANTT), the slack term favours tight deadlines (SLO
violations), and the waiting-time penalty discourages excessive preemption —
the currently-running request has zero waiting time, hence the lowest
penalty.

``DystaScheduler(predictor=None)`` (registry name ``dysta_nosparse``) is the
Fig 13 ablation: the dynamic hardware monitor and sparsity support are
disabled, so remaining times fall back to the static LUT averages.

**Vectorized fast path.**  The sparsity-refined remaining estimate only
changes when a layer of that request completes, so on a bound queue it is
computed once per monitor event (``on_layer_complete``) and cached in the
ready queue's ``dysta_rem`` aux column instead of being re-derived for every
queued request at every decision.  Besides the scalar ``dynamic_score``
(the spec), the score exists twice: ``inc_best`` (a loop over the column
list mirrors, which serves shallow queues and the selection cache's
lookups) and ``np_scores`` (one numpy expression, which serves the cache's
full scans and the fp16 mode).  Both replicate the scalar arithmetic
operation-for-operation, so decisions are bit-identical.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.lut import ModelInfoLUT
from repro.core.predictor import (
    _MIN_DENSITY,
    PredictorStrategy,
    SparseLatencyPredictor,
)
from repro.schedulers.base import INF, Scheduler, register_scheduler
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request

_AUX_REM = "dysta_rem"
#: Clamped isolated latency max(Lat_avg, 1e-12) and its negation, fixed per
#: request: precomputed at arrival so the per-decision loop skips the clamp.
_AUX_ISO = "dysta_iso"
_AUX_NEG_ISO = "dysta_neg_iso"


class DystaScheduler(Scheduler):
    """Dysta bi-level scheduler (full version when sparsity-aware).

    Args:
        lut: Offline model-information LUT (populated by the static level).
        beta: Static-score slack weight (Algorithm 1, line 7).
        eta: Dynamic-score weight of slack + penalty (Algorithm 2, line 11).
        sparsity_aware: Enable the hardware monitor + sparse latency
            predictor.  Disabled reproduces the Dysta-w/o-sparse ablation.
        strategy: Sparsity-coefficient strategy (paper ships last-one).
        score_dtype: "fp32" or "fp16" — the hardware scheduler computes
            scores in FP16 (Sec 5.2.2); quantizing here verifies that the
            reduced precision does not change scheduling decisions.
    """

    name = "dysta"
    batch_columns = ("deadline", "last_run_end")
    single_drain_safe = True
    supports_incremental = True

    #: Switch-cost extension hooks (see :class:`DystaSwitchAware`); the base
    #: policy charges nothing and tracks nothing.
    switch_cost = 0.0
    _resident: Optional[int] = None

    def __init__(
        self,
        lut: ModelInfoLUT,
        beta: float = 0.5,
        eta: float = 0.02,
        sparsity_aware: bool = True,
        strategy: PredictorStrategy = PredictorStrategy.LAST_ONE,
        alpha: float = 1.0,
        score_dtype: str = "fp32",
    ):
        super().__init__(lut)
        if score_dtype not in ("fp32", "fp16"):
            raise ValueError(f"score_dtype must be fp32|fp16, got {score_dtype!r}")
        self.beta = beta
        self.eta = eta
        self.sparsity_aware = sparsity_aware
        self.score_dtype = score_dtype
        self.predictor: Optional[SparseLatencyPredictor] = (
            SparseLatencyPredictor(lut, strategy, alpha=alpha) if sparsity_aware else None
        )
        # Hoisted monitor-hook constants (hot path: once per layer event).
        self._fast_last_one = (
            self.predictor is not None
            and self.predictor.strategy is PredictorStrategy.LAST_ONE
        )
        self._pred_alpha = self.predictor.alpha if self.predictor is not None else 1.0
        # Incremental selection: an untouched row's score decays at most at
        # eta per simulated second (the slack term falls at rate <= 1, the
        # waiting penalty only grows with time); the margin absorbs float
        # rounding in the per-lookup recomputation.  FP16 quantization snaps
        # scores to a coarse grid, breaking the smooth-decay bound, so the
        # fp16 mode keeps the numpy full-scan path.
        self.inc_decay_rate = eta
        self.inc_margin = 1e-9
        if score_dtype == "fp16":
            self.incremental = False
            self.numpy_min_queue = 0  # np_scores quantizes; inc_best does not

    def _quantize(self, value: float) -> float:
        """Round a score-path value to the configured hardware precision."""
        if self.score_dtype == "fp16":
            return float(np.float16(value))
        return value

    # -- static level (Algorithm 1) ----------------------------------------

    def static_score(self, request: Request, now: float) -> float:
        """Initial score assigned before execution: Lat + beta * T_slack."""
        lat = self.estimated_isolated(request)
        slack = request.slo - lat
        return lat + self.beta * slack

    def on_arrival(self, request: Request, now: float) -> None:
        # The static level computes the initial score and forwards the model
        # info to the hardware level; the LUT is shared state here.
        self.static_score(request, now)
        queue = self._bound
        if queue is not None:
            i = queue.index_of(request)
            if i >= 0:
                queue.aux_set(_AUX_REM, i, self.remaining_estimate(request))
                isolated = max(self.estimated_isolated(request), 1e-12)
                queue.aux_set(_AUX_ISO, i, isolated)
                queue.aux_set(_AUX_NEG_ISO, i, -isolated)

    # -- dynamic level (Algorithm 2) ----------------------------------------

    def remaining_estimate(self, request: Request) -> float:
        """b_T_Remain: sparsity-refined when monitoring is enabled."""
        if self.predictor is None or request.next_layer == 0:
            return self.estimated_remaining(request)
        return self.predictor.predict_remaining(
            request.key, request.next_layer, request.monitored_sparsities
        )

    def on_layer_complete(self, request: Request, now: float) -> None:
        # Monitor event: refresh the cached remaining estimate.  The scalar
        # path recomputes the estimate at every decision instead, but the
        # value only changes here, so caching is decision-equivalent.
        queue = self._bound
        if queue is None:
            return
        j = request.next_layer
        if j > 0 and self._fast_last_one:
            # Inlined Algorithm-3 last-one update over the cached LUT entry:
            # the same arithmetic as SparseLatencyPredictor.predict_remaining,
            # term for term, without the per-call key lookups.
            entry = request.lut_entry(self.lut)
            mon_density = 1.0 - request.layer_sparsities[j - 1]
            avg_density = 1.0 - entry.avg_layer_sparsities_t[j - 1]
            if mon_density < _MIN_DENSITY:
                mon_density = _MIN_DENSITY
            if avg_density < _MIN_DENSITY:
                avg_density = _MIN_DENSITY
            gamma = 1.0 + entry.density_slope * (mon_density / avg_density - 1.0)
            if gamma < _MIN_DENSITY:
                gamma = _MIN_DENSITY
            value = self._pred_alpha * gamma * entry.remaining_suffix_t[j]
        else:
            value = self.remaining_estimate(request)
        queue.aux_set_for(_AUX_REM, request, value)

    def bind_queue(self, queue: Optional[ReadyQueue]) -> None:
        super().bind_queue(queue)
        if queue is None:
            self._t_rem = None
            return
        queue.register_aux(_AUX_REM, 0.0)
        queue.register_aux(_AUX_ISO, 1e-12)
        queue.register_aux(_AUX_NEG_ISO, -1e-12)
        # The queue's list mirrors are stable objects (mutated in place,
        # never rebound), so bind them once instead of re-fetching per
        # decision.  Safe because Dysta never writes its aux columns through
        # the vectorized (dirty-marking) interface — point writes only.
        self._t_rem = queue.aux_list(_AUX_REM)
        self._t_iso = queue.aux_list(_AUX_ISO)
        self._t_ni = queue.aux_list(_AUX_NEG_ISO)
        self._t_dl = queue.ls_deadline
        self._t_lre = queue.ls_last_run_end
        self._t_rid = queue.ls_rid

    def dynamic_score(self, request: Request, now: float, queue_len: int) -> float:
        remaining = self._quantize(self.remaining_estimate(request))
        isolated = max(self.estimated_isolated(request), 1e-12)
        # A request whose deadline already passed cannot be saved; clamping
        # its (very negative) slack keeps hopeless jobs from monopolizing the
        # accelerator and wrecking every other request's turnaround.
        slack = max(request.deadline - now - remaining, -isolated)
        wait = max(now - request.last_run_end, 0.0)
        penalty = (wait / isolated) / max(queue_len, 1)
        return self._quantize(remaining + self.eta * (slack + penalty))

    def select(self, queue: Sequence[Request], now: float) -> Request:
        n_queue = len(queue)
        return min(queue, key=lambda r: (self.dynamic_score(r, now, n_queue), r.rid))

    # -- vectorized fast path ----------------------------------------------

    select_single = Scheduler.select_first  # no resident tracking

    def inc_guard(self):
        # Switch-aware scores depend on which request is resident, but only
        # through a nonzero switch cost; the base policy charges none.
        return self._resident if self.switch_cost else None

    def inc_best(self, queue: "ReadyQueue", idxs, now: float):
        """List kernel: :meth:`dynamic_score` term for term over the list
        mirrors (fp16 quantization excepted: that mode scores with numpy)."""
        eta = self.eta
        res = self._resident
        swc = self.switch_cost if res is not None else 0.0
        rem_l = self._t_rem
        iso_l = self._t_iso
        ni_l = self._t_ni
        dl_l = self._t_dl
        lre_l = self._t_lre
        rid_l = self._t_rid
        n = queue._n
        best = -1
        b_score = b_rid = INF
        for i in idxs:
            rem = rem_l[i]
            slack = dl_l[i] - now - rem
            neg_iso = ni_l[i]
            if slack < neg_iso:
                slack = neg_iso
            wait = now - lre_l[i]
            if wait < 0.0:
                wait = 0.0
            score = rem + eta * (slack + (wait / iso_l[i]) / n)
            rid = rid_l[i]
            if swc and rid != res:
                score += swc
            if score < b_score or (score == b_score and rid < b_rid):
                best, b_score, b_rid = i, score, rid
        return best, b_score

    def np_scores(self, queue: "ReadyQueue", now: float):
        """Numpy kernel: the same expression tree over the array columns,
        quantized like :meth:`dynamic_score` in fp16 mode."""
        n = queue._n
        rem = queue.aux_np(_AUX_REM)[:n]
        fp16 = self.score_dtype == "fp16"
        if fp16:
            rem = rem.astype(np.float16).astype(np.float64)
        slack = np.maximum(queue.np_deadline[:n] - now - rem,
                           queue.aux_np(_AUX_NEG_ISO)[:n])
        wait = np.maximum(now - queue.np_last_run_end[:n], 0.0)
        score = rem + self.eta * (slack + (wait / queue.aux_np(_AUX_ISO)[:n]) / n)
        if fp16:
            score = score.astype(np.float16).astype(np.float64)
        rid = queue.np_rid[:n]
        if self.switch_cost and self._resident is not None:
            score = np.where(rid != self._resident, score + self.switch_cost, score)
        return score, (rid,)


@register_scheduler("dysta")
class _DystaFull(DystaScheduler):
    """Registry entry for the full sparsity-aware Dysta."""

    def __init__(self, lut: ModelInfoLUT, **kwargs):
        kwargs.setdefault("sparsity_aware", True)
        super().__init__(lut, **kwargs)


@register_scheduler("dysta_nosparse")
class _DystaNoSparse(DystaScheduler):
    """Fig 13 ablation: static scoring only, no sparsity monitor."""

    def __init__(self, lut: ModelInfoLUT, **kwargs):
        kwargs["sparsity_aware"] = False
        super().__init__(lut, **kwargs)


@register_scheduler("dysta_switchaware")
class DystaSwitchAware(DystaScheduler):
    """Dysta extended with an explicit weight-reload cost term.

    When the deployment charges a model-switch cost (engine ``switch_cost``),
    the dynamic score can account for it directly: every candidate that is
    not the currently-resident request carries the reload cost on top of its
    remaining time.  The waiting-time penalty already damps preemption
    statistically; this term makes the damping proportional to the actual
    hardware cost.
    """

    def __init__(self, lut: ModelInfoLUT, switch_cost: float = 0.0, **kwargs):
        super().__init__(lut, **kwargs)
        if switch_cost < 0:
            raise ValueError(f"switch cost must be >= 0, got {switch_cost}")
        self.switch_cost = switch_cost
        self._resident = None

    def reset(self) -> None:
        self._resident = None

    def dynamic_score(self, request: Request, now: float, queue_len: int) -> float:
        score = super().dynamic_score(request, now, queue_len)
        if self._resident is not None and request.rid != self._resident:
            score += self.switch_cost
        return score

    def select(self, queue: Sequence[Request], now: float) -> Request:
        chosen = DystaScheduler.select(self, queue, now)
        self._resident = chosen.rid
        return chosen

    def select_single(self, queue: "ReadyQueue", now: float) -> Request:
        chosen = queue[0]
        self._resident = chosen.rid
        return chosen

    def select_batch(self, queue: "ReadyQueue", now: float) -> Request:
        chosen = Scheduler.select_batch(self, queue, now)
        self._resident = chosen.rid
        return chosen


@register_scheduler("dysta_static")
class DystaStaticOnly(Scheduler):
    """Pure Algorithm-1 scheduling: the arrival-time score is final.

    The strictest reading of the static level: ``Score = Lat + beta*T_slack``
    is computed once when the request arrives and never revised — no
    progress-based remaining-time updates, no slack decay, no waiting
    penalty.  `dysta_nosparse` (which re-evaluates the dynamic formula from
    LUT averages) sits between this and full Dysta; having both brackets the
    contribution of the dynamic level.
    """

    batch_columns = ()
    single_drain_safe = True
    supports_incremental = True  # static key: zero decay, exact bounds

    def __init__(self, lut: ModelInfoLUT, beta: float = 0.5):
        super().__init__(lut)
        self.beta = beta
        self.reset()

    def reset(self) -> None:
        self._scores: dict = {}

    def bind_queue(self, queue: Optional[ReadyQueue]) -> None:
        super().bind_queue(queue)
        if queue is not None:
            queue.register_aux("static_score", 0.0)
            self._t_sc = queue.aux_list("static_score")

    def on_arrival(self, request: Request, now: float) -> None:
        lat = self.estimated_isolated(request)
        score = lat + self.beta * (request.slo - lat)
        self._scores[request.rid] = score
        queue = self._bound
        if queue is not None:
            i = queue.index_of(request)
            if i >= 0:
                queue.aux_set("static_score", i, score)

    def on_complete(self, request: Request, now: float) -> None:
        self._scores.pop(request.rid, None)

    def select(self, queue: Sequence[Request], now: float) -> Request:
        return min(queue, key=lambda r: (self._scores.get(r.rid, 0.0), r.rid))

    select_single = Scheduler.select_first

    def inc_best(self, queue: "ReadyQueue", idxs, now: float):
        sc_l = self._t_sc
        rid_l = queue.ls_rid
        best = -1
        b_score = b_rid = INF
        for i in idxs:
            score = sc_l[i]
            if score > b_score:
                continue
            rid = rid_l[i]
            if score < b_score or rid < b_rid:
                best, b_score, b_rid = i, score, rid
        return best, b_score

    def np_scores(self, queue: "ReadyQueue", now: float):
        n = queue._n
        return queue.aux_np("static_score")[:n], (queue.np_rid[:n],)
