"""Scheduler interface and registry.

A scheduler is invoked by the engine at every layer boundary (paper
Sec 4.2.2: execution proceeds per layer / layer block) and picks the request
to run next from the ready queue.  Schedulers estimate latencies exclusively
through the offline :class:`~repro.core.lut.ModelInfoLUT` plus whatever
runtime information the engine has revealed (executed layers' monitored
sparsities); only the Oracle may touch ground truth.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.lut import ModelInfoLUT
from repro.errors import SchedulingError
from repro.sim.ready_queue import np_lexmin
from repro.sim.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.ready_queue import ReadyQueue

#: Start value of every list kernel's running best (a module global is
#: cheaper than a ``float("inf")`` call per selection).
INF = float("inf")


class Scheduler(abc.ABC):
    """Base class for all scheduling policies.

    Policies implement the scalar :meth:`select`, which is the spec.  The
    engines decide through :meth:`select_single` and :meth:`select_batch`
    over their :class:`~repro.sim.ready_queue.ReadyQueue`.  Converted
    policies back these with two kernels over its columns: :meth:`inc_best`
    (a loop over the list mirrors for a set of rows) and :meth:`np_scores`
    (one numpy pass over the whole queue), on which the shared
    :meth:`select_batch` and :meth:`inc_full_scan` run; a policy without
    kernels decides through :meth:`select_checked`.  All paths must make
    bit-identical decisions (the golden schedule-equivalence tests enforce
    it), which the kernels achieve by replicating the scalar arithmetic
    operation-for-operation.
    """

    #: Registry / display name; subclasses override.
    name: str = "base"

    #: Ready-queue columns the kernels read (see
    #: :data:`repro.sim.ready_queue.KNOWN_COLUMNS`).
    batch_columns: Tuple[str, ...] = ()

    #: True when (a) ``select`` on a singleton queue is stateless or
    #: idempotent and (b) ``on_layer_complete`` only overwrites per-request
    #: state (never accumulates).  The engine may then run a lone request
    #: for several consecutive layer blocks without re-invoking selection.
    single_drain_safe: bool = False

    #: Queue depth at which ``select_batch`` leaves the list kernel
    #: (:meth:`inc_best` over every row) for the selection cache, or the
    #: numpy kernel (:meth:`np_scores`) without one: both cost more below
    #: it.  Tests drop it to 0 to force the cache on tiny queues.
    numpy_min_queue: int = 32

    #: Derived per class: ``select_single`` is :meth:`select_first`, so the
    #: engine skips the call entirely on singleton queues.
    trivial_single: bool

    #: Trace bus attached by the engine for the current run (``None`` when
    #: tracing is off).  Policies that make observable control decisions
    #: beyond plain selection (e.g. powercap deferrals) emit on it, always
    #: behind an ``is not None`` check.
    trace_bus = None

    #: Policies whose argmin can be maintained incrementally (see
    #: :mod:`repro.sim.select_cache`) set True (+ implement
    #: :meth:`inc_guard` when selection depends on per-select mutable
    #: state); the cache runs on the same two kernels.
    supports_incremental: bool = False

    #: Instance-level master switch for the incremental layer.  The
    #: randomized lockstep parity tests and A/B benches set it False to
    #: force the full-scan batch path.
    incremental: bool = True

    #: Upper bound on how fast an *untouched* row's score can decrease per
    #: unit of simulated time (``eta`` for the Dysta family, whose slack
    #: term decays at most at rate 1).  0 promises a static selection key:
    #: an untouched row's score depends on neither time nor queue size, so
    #: the cache may answer across arrivals (a nonzero rate refuses once
    #: the queue has grown, as Dysta's penalty shrinks with queue size).
    inc_decay_rate: float = 0.0

    #: Float-rounding slack subtracted from the acceptance bound.  Static-
    #: key policies compare stored bits and keep 0; decaying scores are
    #: recomputed per lookup and need a hair of headroom.
    inc_margin: float = 0.0

    def __init__(self, lut: ModelInfoLUT):
        self.lut = lut
        self._bound: "ReadyQueue" = None  # type: ignore[assignment]
        self._cache = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Decided once per class: no inc_best and no own select_batch.
        if (cls.inc_best is Scheduler.inc_best
                and cls.select_batch is Scheduler.select_batch):
            cls.select_batch = Scheduler.select_checked
        cls.trivial_single = cls.select_single is Scheduler.select_first

    def bind_queue(self, queue: Optional["ReadyQueue"]) -> None:
        """Attach the engine's ready queue for this run (``None`` from
        :func:`~repro.sim.engine.simulate_reference`).

        Subclasses that keep per-request aux state register their columns
        here (and must call ``super().bind_queue(queue)``).  Policies that
        support incremental selection get a fresh
        :class:`~repro.sim.select_cache.SelectionCache` per bind.
        """
        self._bound = queue
        if queue is not None and self.supports_incremental and self.incremental:
            from repro.sim.select_cache import SelectionCache

            self._cache = SelectionCache(self, queue)
        else:
            self._cache = None

    # -- incremental selection hooks (supports_incremental policies) --------

    def inc_guard(self):
        """Per-select mutable state the cached bound depends on.

        The cache re-scans whenever this differs from its scan-time value
        (e.g. the resident request/kind for switch-cost-aware scores).
        ``None`` when selection has no such state.
        """
        return None

    def inc_best(self, queue: "ReadyQueue", idxs: Sequence[int],
                 now: float) -> Tuple[int, float]:
        """List kernel: exact-score the candidate rows ``idxs``; return
        (index, primary score) of the native-tie-broken best (or
        ``(-1, inf)``)."""
        raise SchedulingError(
            f"scheduler {self.name!r} does not implement inc_best"
        )

    def np_scores(self, queue: "ReadyQueue", now: float):
        """Numpy kernel over the whole queue: ``(score, tie_columns)``,
        where ``tie_columns`` (ending in the rid column) break ties in
        :func:`~repro.sim.ready_queue.np_lexmin`.  Its callers run
        ``queue.vectorize()`` first, so the ``np_*`` columns are filled."""
        raise SchedulingError(
            f"scheduler {self.name!r} does not implement np_scores"
        )

    def inc_full_scan(self, queue: "ReadyQueue", now: float, cache) -> Request:
        """Full numpy scan that also resets ``cache``'s runner-up bound."""
        queue.vectorize()
        score, ties = self.np_scores(queue, now)
        chosen = queue._requests[np_lexmin(score, *ties)]
        cache.rebuild(score, now)
        return chosen

    def select_checked(self, queue: Sequence[Request], now: float) -> Request:
        """:meth:`select`, checked to pick a member of ``queue``: how the
        engines decide for a policy without kernels."""
        chosen = self.select(queue, now)
        if chosen not in queue:
            raise SchedulingError(
                f"scheduler {self.name!r} selected a request outside the queue"
            )
        return chosen

    def select_first(self, queue: Sequence[Request], now: float) -> Request:
        """``queue[0]``: ``select_single`` without per-select state."""
        return queue[0]

    #: One-request selection; the default is the checked spec.  Converted
    #: policies use :meth:`select_first` or update per-select state first.
    #: The pool's continuation passes a one-element tuple, not the queue.
    select_single = select_checked

    def select_batch(self, queue: "ReadyQueue", now: float) -> Request:
        """Vectorized selection over the ready queue's columns: the list
        kernel over every row below ``numpy_min_queue`` rows, else the
        selection cache, else the numpy kernel."""
        n = queue._n
        if n < self.numpy_min_queue:
            return queue._requests[self.inc_best(queue, range(n), now)[0]]
        cache = self._cache
        if cache is not None:
            return cache.lookup(now)
        queue.vectorize()
        score, ties = self.np_scores(queue, now)
        return queue._requests[np_lexmin(score, *ties)]

    def reset(self) -> None:
        """Clear any cross-run state; called by the engine before a run."""

    def on_arrival(self, request: Request, now: float) -> None:
        """New request admitted to the ready queue."""

    def on_layer_complete(self, request: Request, now: float) -> None:
        """One layer of ``request`` finished; its monitored sparsity is now
        visible via ``request.monitored_sparsities``."""

    def on_complete(self, request: Request, now: float) -> None:
        """``request`` finished all layers and left the queue."""

    @abc.abstractmethod
    def select(self, queue: Sequence[Request], now: float) -> Request:
        """Choose the next request to run one layer of.  ``queue`` is
        non-empty and every entry is unfinished.

        The order of ``queue`` is unspecified (the ready queue swap-removes
        rows), so a policy must break score ties explicitly; every
        built-in policy ends its key in the unique rid.
        """

    # -- shared estimate helpers -------------------------------------------

    def estimated_isolated(self, request: Request) -> float:
        """Offline-average isolated latency of the request's (model, pattern)."""
        entry = request.lut_entry(self.lut)
        if entry is None:
            raise SchedulingError(f"no LUT entry for {request.key!r}")
        return entry.avg_total_latency

    def estimated_remaining(self, request: Request) -> float:
        """Offline-average remaining latency given executed-layer progress."""
        entry = request.lut_entry(self.lut)
        if entry is None:
            raise SchedulingError(f"no LUT entry for {request.key!r}")
        return entry.remaining_suffix_t[request.next_layer]


_REGISTRY: Dict[str, Callable[..., Scheduler]] = {}


def register_scheduler(name: str) -> Callable[[type], type]:
    """Class decorator adding a scheduler to the registry under ``name``."""

    def deco(cls: type) -> type:
        if name in _REGISTRY:
            raise SchedulingError(f"scheduler {name!r} registered twice")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def available_schedulers() -> List[str]:
    """Registered scheduler names (imports the built-in policies lazily)."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def make_scheduler(name: str, lut: ModelInfoLUT, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    _ensure_builtins()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SchedulingError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(lut, **kwargs)


def _ensure_builtins() -> None:
    """Import built-in scheduler modules so their decorators run."""
    from repro import schedulers as _pkg  # noqa: F401  (self import anchor)
    from repro.schedulers import (  # noqa: F401
        fcfs,
        oracle,
        planaria,
        prema,
        sdrm3,
        sjf,
        textbook,
    )
    from repro.core import dysta  # noqa: F401
    from repro.energy import schedulers as _energy  # noqa: F401
    from repro.hw import hwloop  # noqa: F401
