"""Energy-aware scheduling policies: EDP scoring and a rolling power cap.

**``energy_edp``** — power-weighted, reload-averse shortest-remaining-first.
Per-request energy-delay product ``E_i x T_i`` decomposes into the pieces a
scheduler can actually move: the *delay* term (weighted-completion-time
theory: serve high-draw work sooner) and the *weight-load* term — requests
of the same (model, pattern) share resident weights, so every switch to a
different key re-streams weights from DRAM, joules the schedule directly
controls.  The score folds both into equivalent seconds:

    score_i = (T_remain_i + [key_i not resident] x E_load_i / P_i) x (P_bar / P_i)

``T_remain`` comes from the latency LUT suffix; the load energy ``E_load``
and average draw ``P`` from the :class:`~repro.energy.lut.EnergyLUT` —
offline averages only, like every non-Oracle policy.  With uniform per-key
power the score reduces to reload-averse SJF, which *batches by model*:
once a key's weights are hot, its queued requests run back to back
(shortest first) until another key's remaining time undercuts the reload
penalty.  Against sjf and fcfs — which interleave keys obliviously — this
wins EDP by eliminating most DRAM weight traffic while the SJF backbone
keeps SLO violations at baseline level; across keys of different draw the
``P_bar/P`` weighting additionally serves energy-hungry requests first.

**``energy_powercap``** — the same rule under a rolling power cap: the
scheduler meters every completed layer's energy (monitored sparsity x the
compiled energy table — runtime-visible information only) into a sliding
window; while the window's mean draw exceeds ``power_cap_w``, selection
flips to *lowest estimated draw first*, deferring energy-hungry requests
until the window cools.  The cap is work-conserving — the accelerator
never idles while work is queued; it reorders rather than throttles,
trading tail latency on hot windows for a bounded draw.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.lut import ModelInfoLUT
from repro.obs.bus import KIND_POWERCAP
from repro.schedulers.base import INF, Scheduler, register_scheduler
from repro.seqsum import seqsum
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request

from repro.energy.lut import EnergyLUT

_AUX_BASE = "edp_base"  # est_remaining x (P_bar / P_key), cached per event
_AUX_PENALTY = "edp_pen"  # weight-load penalty in weighted seconds (per key)
_AUX_KID = "edp_kid"      # small-integer id of the request's key
_MIN_POWER = 1e-12


@register_scheduler("energy_edp")
class EnergyEDPScheduler(Scheduler):
    """Power-weighted, reload-averse SRPT on offline energy estimates.

    Args:
        lut: Offline latency LUT (remaining-time estimates).
        energy_lut: Offline energy LUT; derived from ``lut`` when omitted.
            Keys outside the model zoo get constant-power proxy entries
            (zero load energy), under which the policy reduces to plain
            SJF.
    """

    batch_columns = ("arrival",)
    single_drain_safe = True
    # Static selection key *given* the resident key id: scores only change
    # when the resident kid does, and the inc_guard forces a re-scan then.
    supports_incremental = True

    def __init__(self, lut: ModelInfoLUT, energy_lut: Optional[EnergyLUT] = None):
        super().__init__(lut)
        self.energy_lut = (
            energy_lut if energy_lut is not None else EnergyLUT.from_model_lut(lut)
        )
        powers = [
            max(self.energy_lut.avg_power(key), _MIN_POWER)
            for key in self.energy_lut.keys
        ]
        self._mean_power = seqsum(powers) / len(powers) if powers else 1.0
        #: key -> (P_bar / P_key, load penalty in weighted seconds, key id).
        self._key_cache: Dict[str, Tuple[float, float, int]] = {}
        self._resident_kid: Optional[int] = None

    def reset(self) -> None:
        self._resident_kid = None

    def _key_terms(self, key: str) -> Tuple[float, float, int]:
        terms = self._key_cache.get(key)
        if terms is None:
            entry = self.energy_lut.entry(key)
            power = max(entry.avg_power_w, _MIN_POWER)
            scale = self._mean_power / power
            penalty = (entry.table.switch_joules / power) * scale
            terms = (scale, penalty, len(self._key_cache))
            self._key_cache[key] = terms
        return terms

    def base_score(self, request: Request) -> float:
        """Power-weighted remaining seconds (the hot-weights score)."""
        return self.estimated_remaining(request) * self._key_terms(request.key)[0]

    def edp_score(self, request: Request) -> float:
        """Full score: base plus the weight-load penalty for cold keys."""
        scale, penalty, kid = self._key_terms(request.key)
        score = self.estimated_remaining(request) * scale
        if kid != self._resident_kid:
            score += penalty
        return score

    def select(self, queue: Sequence[Request], now: float) -> Request:
        chosen = min(queue, key=lambda r: (self.edp_score(r), r.arrival, r.rid))
        self._resident_kid = self._key_terms(chosen.key)[2]
        return chosen

    # -- vectorized fast path ----------------------------------------------
    # The base term only changes when a layer of that request completes, so
    # it is cached in an aux column with the same arithmetic as
    # `edp_score`, making batch decisions bit-identical to scalar ones; the
    # load penalty and key id are constant per request and applied at
    # selection.

    def bind_queue(self, queue: Optional[ReadyQueue]) -> None:
        super().bind_queue(queue)
        if queue is not None:
            queue.register_aux(_AUX_BASE, 0.0)
            queue.register_aux(_AUX_PENALTY, 0.0)
            queue.register_aux(_AUX_KID, -1.0)

    def on_arrival(self, request: Request, now: float) -> None:
        queue = self._bound
        if queue is not None:
            i = queue.index_of(request)
            if i >= 0:
                scale, penalty, kid = self._key_terms(request.key)
                queue.aux_set(_AUX_BASE, i, self.estimated_remaining(request) * scale)
                queue.aux_set(_AUX_PENALTY, i, penalty)
                queue.aux_set(_AUX_KID, i, float(kid))

    def on_layer_complete(self, request: Request, now: float) -> None:
        queue = self._bound
        if queue is not None:
            queue.aux_set_for(_AUX_BASE, request, self.base_score(request))

    def select_single(self, queue: "ReadyQueue", now: float) -> Request:
        chosen = queue[0]
        self._resident_kid = self._key_terms(chosen.key)[2]
        return chosen

    def inc_guard(self):
        return self._resident_kid

    def inc_best(self, queue: "ReadyQueue", idxs, now: float):
        base_l = queue.aux_list(_AUX_BASE)
        pen_l = queue.aux_list(_AUX_PENALTY)
        kid_l = queue.aux_list(_AUX_KID)
        arr_l = queue.ls_arrival
        rid_l = queue.ls_rid
        res_f = -1.0 if self._resident_kid is None else float(self._resident_kid)
        best = -1
        b_sc = b_arr = b_rid = INF
        for i in idxs:
            sc = base_l[i]
            if kid_l[i] != res_f:
                sc = sc + pen_l[i]
            if sc > b_sc:
                continue
            arr = arr_l[i]
            rid = rid_l[i]
            if sc < b_sc or arr < b_arr or (arr == b_arr and rid < b_rid):
                best, b_sc, b_arr, b_rid = i, sc, arr, rid
        return best, b_sc

    def np_scores(self, queue: "ReadyQueue", now: float):
        n = queue._n
        res = self._resident_kid
        score = queue.aux_np(_AUX_BASE)[:n] + np.where(
            queue.aux_np(_AUX_KID)[:n] != (-1.0 if res is None else float(res)),
            queue.aux_np(_AUX_PENALTY)[:n],
            0.0,
        )
        return score, (queue.np_arrival[:n], queue.np_rid[:n])

    def select_batch(self, queue: "ReadyQueue", now: float) -> Request:
        chosen = Scheduler.select_batch(self, queue, now)
        self._resident_kid = self._key_terms(chosen.key)[2]
        return chosen


@register_scheduler("energy_powercap")
class PowerCappedEDPScheduler(EnergyEDPScheduler):
    """EDP scheduling under a rolling power cap (work-conserving).

    Args:
        power_cap_w: Mean-draw ceiling over the sliding window, watts.
        window_s: Sliding-window length, seconds.
    """

    # The rolling-window meter accumulates on every layer completion and the
    # selection rule depends on it, so energy_edp's kernels, cached scores,
    # singleton drain and incremental selection are all off: every decision
    # is the checked spec, and no ready-queue state is kept.
    select_single = select_batch = Scheduler.select_checked
    bind_queue = Scheduler.bind_queue
    on_arrival = Scheduler.on_arrival
    single_drain_safe = False
    supports_incremental = False

    def __init__(
        self,
        lut: ModelInfoLUT,
        energy_lut: Optional[EnergyLUT] = None,
        power_cap_w: float = 1.0,
        window_s: float = 0.25,
    ):
        super().__init__(lut, energy_lut)
        if power_cap_w <= 0:
            raise ValueError(f"power cap must be positive, got {power_cap_w}")
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s}")
        self.power_cap_w = power_cap_w
        self.window_s = window_s
        self._events: Deque[Tuple[float, float]] = deque()
        self._window_joules = 0.0
        #: rid -> layers already metered (the engines call the monitor hook
        #: once per *block*, so a hook may have several layers to meter).
        self._metered: Dict[int, int] = {}

    def reset(self) -> None:
        super().reset()
        self._events.clear()
        self._window_joules = 0.0
        self._metered = {}

    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        events = self._events
        while events and events[0][0] < horizon:
            self._window_joules -= events.popleft()[1]

    def rolling_power(self, now: float) -> float:
        """Mean metered draw over the trailing window, watts."""
        self._evict(now)
        return self._window_joules / self.window_s

    def on_layer_complete(self, request: Request, now: float) -> None:
        done = request.next_layer
        start = self._metered.get(request.rid, 0)
        if done > start:
            # Meter every layer the block finished, from runtime-visible
            # state only: monitored sparsities through the compiled energy
            # table, LUT-average layer latencies for the static share.
            table = self.energy_lut.entry(request.key).table
            lat_entry = request.lut_entry(self.lut)
            joules = 0.0
            for j in range(start, done):
                joules += table.dynamic_at(j, request.layer_sparsities[j])
                if lat_entry is not None:
                    joules += table.static_power_w * float(
                        lat_entry.avg_layer_latencies[j]
                    )
            self._metered[request.rid] = done
            self._events.append((now, joules))
            self._window_joules += joules

    def on_complete(self, request: Request, now: float) -> None:
        self._metered.pop(request.rid, None)

    def draw_estimate(self, request: Request) -> float:
        """Estimated mean draw of the request: avg joules / avg seconds."""
        return self.energy_lut.avg_power(request.key)

    def select(self, queue: Sequence[Request], now: float) -> Request:
        self._evict(now)
        if self._window_joules / self.window_s > self.power_cap_w:
            # Over cap: defer energy-hungry work — run the coolest request.
            chosen = min(
                queue, key=lambda r: (self.draw_estimate(r), r.arrival, r.rid)
            )
            self._resident_kid = self._key_terms(chosen.key)[2]
            if self.trace_bus is not None:
                self.trace_bus.emit(
                    KIND_POWERCAP, now, rid=chosen.rid,
                    args={
                        "watts": self._window_joules / self.window_s,
                        "cap_w": self.power_cap_w,
                        "deferred": len(queue) - 1,
                    },
                )
            return chosen
        return super().select(queue, now)
