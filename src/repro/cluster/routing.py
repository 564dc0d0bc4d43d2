"""Request routing: which pool serves an incoming request.

Router objects mirror the scheduler registry idiom: a small ABC, a
``@register_router`` decorator, and ``make_router(name, **kwargs)``.  The
router sees the pools' placement-visible state (queue depths, in-flight
requests, per-model service speeds) but never a request's ground-truth
latencies — the same information boundary the schedulers obey.

Three built-in policies:

* **round-robin** — cycle over pools regardless of state; the baseline every
  load balancer starts from.
* **jsq** (join-shortest-queue, alias ``least-loaded``) — pick the pool with
  the fewest outstanding requests per accelerator.  Optimal for homogeneous
  pools, blind to heterogeneity: it happily sends an AttNN to a CNN pool
  that serves it 4x slower.
* **predictive** — sparsity-aware latency routing via
  :class:`~repro.core.predictor.SparseLatencyPredictor`: estimate each
  pool's outstanding work from the predictor's remaining-latency estimates
  (which sharpen as in-flight requests reveal monitored sparsity), add the
  new request's predicted service time at that pool's effective speed, and
  join the pool with the earliest predicted finish.
"""

from __future__ import annotations

import abc
import itertools
from typing import Callable, Dict, List, Sequence

from repro.core.lut import ModelInfoLUT
from repro.core.predictor import (
    _MIN_DENSITY,
    PredictorStrategy,
    SparseLatencyPredictor,
)
from repro.errors import SchedulingError
from repro.seqsum import seqsum
from repro.sim.request import Request

from repro.cluster.pool import Pool


def predicted_remaining(
    predictor: SparseLatencyPredictor, request: Request
) -> float:
    """Sparsity-corrected remaining-latency estimate for one request.

    For the LAST_ONE strategy this inlines the Algorithm-3 estimate over the
    request's cached LUT entry — the same arithmetic as
    ``predictor.predict_remaining``, term for term, without the per-call
    string-key lookups.  The predictive router evaluates it for every
    queued + in-flight request of every pool on every arrival (and the
    predictive autoscale policy on every tick), so it dominates
    streaming-replay cost.  Requests whose (model, pattern) is missing from
    the LUT fall back to a neutral estimate of zero.
    """
    entry = request.lut_entry(predictor.lut)
    if entry is None:
        return 0.0
    j = request.next_layer
    if predictor.strategy is PredictorStrategy.LAST_ONE:
        if j == 0:
            gamma = 1.0
        else:
            mon_density = 1.0 - request.layer_sparsities[j - 1]
            avg_density = 1.0 - entry.avg_layer_sparsities_t[j - 1]
            if mon_density < _MIN_DENSITY:
                mon_density = _MIN_DENSITY
            if avg_density < _MIN_DENSITY:
                avg_density = _MIN_DENSITY
            gamma = 1.0 + entry.density_slope * (mon_density / avg_density - 1.0)
            if gamma < _MIN_DENSITY:
                gamma = _MIN_DENSITY
        return predictor.alpha * gamma * entry.remaining_suffix_t[j]
    return predictor.predict_remaining(request.key, j, request.monitored_sparsities)


class Router(abc.ABC):
    """Base class for cluster routing policies."""

    #: Registry / display name; subclasses override via ``@register_router``.
    name: str = "base"

    #: Routers that maintain incremental per-pool work estimates set this
    #: True; the cluster engine then calls the ``note_*`` observer hooks on
    #: every pool-membership / progress transition.  Stateless routers keep
    #: the default and pay zero hook overhead (the engine skips the calls).
    tracks_work: bool = False

    def reset(self, pools: Sequence[Pool]) -> None:
        """Clear per-run state; called by the cluster engine before a run."""

    # -- engine observer hooks (called only when ``tracks_work``) ------------

    def note_enqueue(self, pool: Pool, request: Request) -> None:
        """``request`` was admitted into ``pool``'s ready queue."""

    def note_progress(self, pool: Pool, request: Request) -> None:
        """``request`` finished a layer block in ``pool`` but is not done."""

    def note_complete(self, pool: Pool, request: Request) -> None:
        """``request`` finished its last layer and left ``pool``."""

    @abc.abstractmethod
    def route(self, request: Request, pools: Sequence[Pool], now: float) -> Pool:
        """Pick the pool that will serve ``request``.  ``pools`` is the
        non-empty pool list in construction order."""


_REGISTRY: Dict[str, Callable[..., Router]] = {}
_ALIASES = {"rr": "round-robin", "least-loaded": "jsq"}


def register_router(name: str) -> Callable[[type], type]:
    """Class decorator adding a router to the registry under ``name``."""

    def deco(cls: type) -> type:
        if name in _REGISTRY:
            raise SchedulingError(f"router {name!r} registered twice")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def available_routers() -> List[str]:
    """Registered router names (aliases excluded)."""
    return sorted(_REGISTRY)


def make_router(name: str, **kwargs) -> Router:
    """Instantiate a registered router by name (aliases accepted)."""
    canonical = _ALIASES.get(name, name)
    try:
        factory = _REGISTRY[canonical]
    except KeyError:
        raise SchedulingError(
            f"unknown router {name!r}; available: {available_routers()}"
        ) from None
    return factory(**kwargs)


@register_router("round-robin")
class RoundRobinRouter(Router):
    """Cycle over pools in construction order, ignoring their state."""

    def __init__(self):
        self._cycle = itertools.count()

    def reset(self, pools: Sequence[Pool]) -> None:
        self._cycle = itertools.count()

    def route(self, request: Request, pools: Sequence[Pool], now: float) -> Pool:
        return pools[next(self._cycle) % len(pools)]


@register_router("jsq")
class JoinShortestQueueRouter(Router):
    """Join the pool with the fewest outstanding requests per accelerator."""

    def route(self, request: Request, pools: Sequence[Pool], now: float) -> Pool:
        # min() keeps the first pool on ties: deterministic tie-breaking in
        # construction order.  max(.., 1) guards the instant where an
        # autoscaled pool's last drain retired while replacements still warm.
        return min(pools, key=lambda p: p.backlog() / max(p.num_accelerators, 1))


@register_router("predictive")
class PredictiveRouter(Router):
    """Join the pool with the earliest predicted completion for the request.

    For each pool: predicted outstanding work (sum of sparsity-corrected
    remaining-latency estimates of queued + in-flight requests, at each
    request's effective service speed) spread over the pool's accelerators,
    plus the incoming request's predicted service time there.  Requests whose
    (model, pattern) is missing from the LUT fall back to a neutral estimate
    of zero — the router then degrades toward least-loaded behaviour.

    A request's remaining-latency estimate changes only when a layer block
    completes, so the per-pool outstanding-work sums are maintained
    *incrementally* through the engine observer hooks (``tracks_work``):
    enqueue adds a request's contribution, each block completion replaces
    it, and request completion retires it.  ``route`` is then O(pools)
    instead of O(total pending requests) — the arrival-rate term that
    dominated streaming-replay cost.  The incremental sums equal the fresh
    per-arrival sums up to float addition order.

    The incoming request's own service estimate is memoized by its
    (model, pattern) key: on arrival ``next_layer == 0``, so the estimate
    is ``alpha * remaining_suffix_t[0]`` — a pure function of the key.
    """

    tracks_work = True

    def __init__(
        self,
        lut: ModelInfoLUT,
        *,
        strategy: PredictorStrategy = PredictorStrategy.LAST_ONE,
        alpha: float = 1.0,
        n: int = 3,
    ):
        self.predictor = SparseLatencyPredictor(lut, strategy, alpha=alpha, n=n)
        self.reset(())

    def reset(self, pools: Sequence[Pool]) -> None:
        #: id(pool) -> incrementally maintained outstanding-work sum.
        self._work: Dict[int, float] = {id(p): 0.0 for p in pools}
        #: rid -> its current contribution to the owning pool's work sum.
        self._contrib: Dict[int, float] = {}
        #: (model, pattern) key -> memoized arrival-time service estimate.
        self._svc0: Dict[str, float] = {}

    def _contribution(self, pool: Pool, request: Request) -> float:
        return predicted_remaining(self.predictor, request) / pool.service_speed(request)

    def note_enqueue(self, pool: Pool, request: Request) -> None:
        c = self._contribution(pool, request)
        self._contrib[request.rid] = c
        self._work[id(pool)] = self._work.get(id(pool), 0.0) + c

    def note_progress(self, pool: Pool, request: Request) -> None:
        c = self._contribution(pool, request)
        pid = id(pool)
        self._work[pid] = self._work.get(pid, 0.0) - self._contrib[request.rid] + c
        self._contrib[request.rid] = c

    def note_complete(self, pool: Pool, request: Request) -> None:
        pid = id(pool)
        self._work[pid] = self._work.get(pid, 0.0) - self._contrib.pop(request.rid)

    def predicted_finish(self, request: Request, pool: Pool) -> float:
        """Predicted completion delay of ``request`` if routed to ``pool``.

        Reference (fresh-sum) form — also used by tooling that probes a
        hypothetical placement outside an engine run.
        """
        predictor = self.predictor
        outstanding = seqsum(
            predicted_remaining(predictor, r) / pool.service_speed(r)
            for r in pool.pending()
        )
        service = predicted_remaining(predictor, request) / pool.service_speed(request)
        return outstanding / max(pool.num_accelerators, 1) + service

    def route(self, request: Request, pools: Sequence[Pool], now: float) -> Pool:
        svc0 = self._svc0
        key = request.key
        service = svc0.get(key)
        if service is None:
            service = predicted_remaining(self.predictor, request)
            svc0[key] = service
        work = self._work
        best = None
        best_finish = float("inf")
        for pool in pools:
            w = work.get(id(pool))
            if w is None:
                # Pool unseen by the hooks (direct route() probe): fall back
                # to the reference sum for it.
                finish = self.predicted_finish(request, pool)
            else:
                if w < 0.0:  # float cancellation slop on an empty pool
                    w = 0.0
                finish = (w / max(pool.num_accelerators, 1)
                          + service / pool.service_speed(request))
            if finish < best_finish:
                best, best_finish = pool, finish
        return best
