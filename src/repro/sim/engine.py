"""Layer-granularity preemptive scheduling engine (paper Fig 7, Phase 2).

The engine replays a request stream against a scheduling policy on a single
time-shared accelerator.  Execution is per layer: the scheduler picks a
request, the engine advances simulated time by that request's true latency
for its next layer, then re-invokes the scheduler — giving every policy the
chance to preempt at each layer boundary, exactly as the Dysta hardware
scheduler is triggered (Algorithm 2, line 6).  Arrivals are admitted at layer
boundaries (the hardware scheduler cannot interrupt a running layer).

The engine keeps the ready queue in a
:class:`~repro.sim.ready_queue.ReadyQueue` and decides through the
policy's ``select_single`` / ``select_batch`` (its kernels, or the checked
``select`` for a policy without them).  When a lone request is the only
work and no arrival is due, drain-safe schedulers run it for consecutive
blocks without re-entering selection (each skipped boundary still counts
as a scheduler invocation — the decision is forced).

:func:`simulate_reference` is the same semantics as a plain loop over a
list queue with ``select`` at every boundary: the spec the equivalence
tests hold the engines to, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.obs import Observability
from repro.obs.bus import (
    KIND_ARRIVE,
    KIND_COMPLETE,
    KIND_EXECUTE,
    KIND_PREEMPT,
    KIND_QUEUE,
    KIND_SELECT,
    KIND_SWITCH,
    KIND_VIOLATE,
)
from repro.obs.profile import (
    PHASE_ARRIVALS,
    PHASE_EXECUTE,
    PHASE_QUEUE_UPDATE,
    PHASE_SELECT,
)
from repro.sim.metrics import summarize
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request, check_unique_rids

if TYPE_CHECKING:  # avoid a runtime circular import with repro.schedulers
    from repro.energy.accounting import EnergyAccountant
    from repro.schedulers.base import Scheduler

_EPS = 1e-12


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    requests: List[Request]
    makespan: float
    num_preemptions: int = 0
    num_scheduler_invocations: int = 0
    #: Largest ready-queue occupancy seen at any scheduling decision — the
    #: quantity the hardware scheduler's FIFO depth must cover (Sec 5.2.1).
    max_queue_length: int = 0
    metrics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.metrics:
            self.metrics = summarize(self.requests)

    @property
    def antt(self) -> float:
        return self.metrics["antt"]

    @property
    def violation_rate(self) -> float:
        return self.metrics["violation_rate"]

    @property
    def stp(self) -> float:
        return self.metrics["stp"]

    @property
    def p50(self) -> float:
        """Median normalized turnaround."""
        return self.metrics["p50"]

    @property
    def p95(self) -> float:
        """95th-percentile normalized turnaround."""
        return self.metrics["p95"]

    @property
    def p99(self) -> float:
        """99th-percentile normalized turnaround (the tail SLOs care about)."""
        return self.metrics["p99"]

    # Energy metrics exist when the run was given an EnergyAccountant.

    @property
    def energy_per_request(self) -> float:
        """Mean joules per completed inference (energy runs only)."""
        return self.metrics["energy_per_request"]

    @property
    def total_joules(self) -> float:
        """Joules drawn by all executed work (energy runs only)."""
        return self.metrics["total_joules"]

    @property
    def edp(self) -> float:
        """Mean per-request energy-delay product, J*s (energy runs only)."""
        return self.metrics["edp"]


def _validate(requests, switch_cost: float, block_size: int) -> None:
    if not requests:
        raise SchedulingError("cannot simulate an empty workload")
    # Written so that NaN fails it, as an infinite cost does.
    if not 0 <= switch_cost < math.inf:
        raise SchedulingError(
            f"switch cost must be >= 0 and finite, got {switch_cost}"
        )
    if block_size < 1:
        raise SchedulingError(f"block size must be >= 1, got {block_size}")
    for req in requests:
        if req.next_layer != 0 or req.finish_time is not None:
            raise SchedulingError(f"request {req.rid} was already (partially) executed")
    check_unique_rids(requests)


def simulate(
    requests: Sequence[Request],
    scheduler: "Scheduler",
    *,
    switch_cost: float = 0.0,
    block_size: int = 1,
    energy: Optional["EnergyAccountant"] = None,
    obs: Optional[Observability] = None,
) -> SimResult:
    """Run the full request stream to completion under ``scheduler``.

    Requests are mutated in place (progress + finish times) and returned in
    completion order inside the result.  Their rids must be unique.  Every
    policy runs the one path described in the module docstring, and the
    completion schedule is :func:`simulate_reference`'s, bit for bit.

    Args:
        energy: Optional :class:`~repro.energy.accounting.EnergyAccountant`;
            when given, the result's metrics additionally carry
            ``energy_per_request`` / ``total_joules`` / ``edp``.  Accounting
            is passive — the schedule is bit-identical with or without it.
        switch_cost: Time charged whenever the accelerator switches to a
            *different model instance* than the one whose weights are
            resident (weight reload from off-chip memory).  The paper's
            evaluation assumes pure time-sharing with negligible swap cost
            (default 0); the knob enables the preemption-cost ablation.
        block_size: Scheduling granularity in layers.  The paper's execution
            is "per-layer or per-layer-block" (Sec 4.2.2); 1 = per layer
            (default).  Larger blocks mean fewer scheduler invocations and
            coarser preemption points.
        obs: Optional :class:`~repro.obs.Observability` bundle.  Tracing,
            telemetry and profiling are all passive — the schedule is
            bit-identical with or without them — and a fully-disabled
            bundle is normalized away, so the disabled path is literally
            the ``obs=None`` path.
    """
    _validate(requests, switch_cost, block_size)
    obs = Observability.active(obs)
    pending = sorted(requests, key=lambda r: (r.arrival, r.rid))
    scheduler.reset()
    scheduler.trace_bus = obs.bus if obs is not None else None
    prof = obs.profiler if obs is not None else None
    t_begin = perf_counter() if prof is not None else 0.0
    result = _simulate_loop(pending, scheduler, switch_cost, block_size, obs)
    if prof is not None:
        prof.wall_s += perf_counter() - t_begin
    if obs is not None and obs.telemetry is not None:
        obs.telemetry.finish(result.makespan)
    if energy is not None:
        # Extend the already-computed latency summary with the energy keys
        # only (no second summarize pass over the request list).
        from repro.energy.accounting import energy_summary

        result.metrics.update(energy_summary(result.requests, energy))
    return result


def simulate_reference(
    requests: Sequence[Request],
    scheduler: "Scheduler",
    *,
    switch_cost: float = 0.0,
    block_size: int = 1,
) -> SimResult:
    """The schedule spec: :func:`simulate`'s semantics as a plain loop.

    The ready queue is a list and ``scheduler.select`` runs at every block
    boundary: no ready-queue columns, kernels, singleton drain or
    observability.  :func:`simulate` and the cluster pools must reproduce
    its completion schedule; the equivalence tests compare against it and
    ``repro perf`` times it as the speedup denominator.
    """
    _validate(requests, switch_cost, block_size)
    pending = sorted(requests, key=lambda r: (r.arrival, r.rid))
    scheduler.reset()
    scheduler.trace_bus = None
    scheduler.bind_queue(None)
    queue: List[Request] = []
    completed: List[Request] = []
    now = 0.0
    i = 0
    n = len(pending)
    preemptions = 0
    invocations = 0
    max_queue = 0
    last_running = None
    resident_request = None  # whose weights currently sit in the accelerator
    resident_key = None  # which (model, pattern) weights are resident

    while i < n or queue:
        while i < n and pending[i].arrival <= now + _EPS:
            queue.append(pending[i])
            scheduler.on_arrival(pending[i], now)
            i += 1
        if not queue:
            # Accelerator idle: fast-forward to the next arrival.
            now = pending[i].arrival
            continue

        chosen = scheduler.select(queue, now)
        invocations += 1
        max_queue = max(max_queue, len(queue))
        if chosen not in queue:
            raise SchedulingError(
                f"scheduler {scheduler.name!r} selected a request outside the queue"
            )
        if last_running is not None and chosen is not last_running and not last_running.is_done:
            preemptions += 1
        last_running = chosen

        if chosen.first_dispatch_time is None:
            chosen.first_dispatch_time = now
        if chosen is not resident_request:
            if switch_cost > 0.0:
                now += switch_cost
            resident_request = chosen
            if chosen._key != resident_key:
                chosen.num_weight_loads += 1
                resident_key = chosen._key
        # Execute one scheduling block: up to `block_size` consecutive layers.
        layers = min(block_size, chosen.num_layers - chosen.next_layer)
        for _ in range(layers):
            dt = chosen.layer_latencies[chosen.next_layer]
            now += dt
            chosen.next_layer += 1
            chosen.executed_time += dt
        chosen.last_run_end = now
        scheduler.on_layer_complete(chosen, now)
        if chosen.is_done:
            chosen.finish_time = now
            queue.remove(chosen)
            completed.append(chosen)
            scheduler.on_complete(chosen, now)

    return SimResult(
        requests=completed,
        makespan=now,
        num_preemptions=preemptions,
        num_scheduler_invocations=invocations,
        max_queue_length=max_queue,
    )


def _simulate_loop(pending, scheduler, switch_cost, block_size, obs=None) -> SimResult:
    """The event loop: array-backed queue, kernel scoring, singleton drain."""
    queue = ReadyQueue(scheduler.lut, columns=scheduler.batch_columns)
    scheduler.bind_queue(queue)
    drain_ok = scheduler.single_drain_safe
    trivial_single = scheduler.trivial_single
    has_switch_cost = switch_cost > 0.0
    arrivals = [r.arrival for r in pending]

    completed: List[Request] = []
    now = 0.0
    i = 0
    n = len(pending)
    preemptions = 0
    invocations = 0
    max_queue = 0
    last_running = None
    resident_request = None
    resident_key = None

    tracer = obs.bus if obs is not None else None
    telem = obs.telemetry if obs is not None else None
    prof = obs.profiler if obs is not None else None
    c_completed = c_violations = None
    if telem is not None:
        telem.registry.gauge("queue_depth", lambda: queue._n)
        c_completed = telem.registry.counter("completed")
        c_violations = telem.registry.counter("violations")

    # Local bindings for the hot loop.
    on_arrival = scheduler.on_arrival
    on_layer_complete = scheduler.on_layer_complete
    on_complete = scheduler.on_complete
    select_single = scheduler.select_single
    select_batch = scheduler.select_batch
    q_add = queue.add
    q_update = queue.update_progress

    while i < n or queue._n:
        if telem is not None:
            telem.poll(now)
        if prof is not None:
            t0 = perf_counter()
        while i < n and arrivals[i] <= now + _EPS:
            req = pending[i]
            q_add(req)
            on_arrival(req, now)
            if tracer is not None:
                tracer.emit(KIND_ARRIVE, req.arrival, rid=req.rid)
            i += 1
        if prof is not None:
            prof.add(PHASE_ARRIVALS, perf_counter() - t0)
        nq = queue._n
        if not nq:
            now = arrivals[i]
            continue

        if prof is not None:
            t0 = perf_counter()
        if nq == 1:
            chosen = queue._requests[0] if trivial_single else select_single(queue, now)
        else:
            chosen = select_batch(queue, now)
        if prof is not None:
            prof.add(PHASE_SELECT, perf_counter() - t0)
        if tracer is not None:
            tracer.emit(KIND_SELECT, now, rid=chosen.rid, args={"depth": nq})
        invocations += 1
        if nq > max_queue:
            max_queue = nq
        if (
            last_running is not None
            and chosen is not last_running
            and last_running.next_layer < last_running._num_layers
        ):
            preemptions += 1
        last_running = chosen

        if chosen.first_dispatch_time is None:
            chosen.first_dispatch_time = now
            if tracer is not None:
                tracer.emit(KIND_QUEUE, chosen.arrival, now - chosen.arrival,
                            rid=chosen.rid)
        elif (tracer is not None and chosen.next_layer > 0
                and now > chosen.last_run_end):
            # Stall span: gap since this rid's previous execute span ended.
            tracer.emit(KIND_PREEMPT, chosen.last_run_end,
                        now - chosen.last_run_end, npu=0, rid=chosen.rid)
        if prof is not None:
            t0 = perf_counter()
        exec_start = now
        if chosen is not resident_request:
            if has_switch_cost:
                if tracer is not None:
                    tracer.emit(KIND_SWITCH, now, switch_cost, npu=0,
                                rid=chosen.rid, args={"key": chosen._key})
                now += switch_cost
            resident_request = chosen
            if chosen._key != resident_key:
                chosen.num_weight_loads += 1
                resident_key = chosen._key

        lats = chosen.layer_latencies
        num_layers = chosen._num_layers
        nl = chosen.next_layer
        nl_start = nl
        et = chosen.executed_time
        if block_size == 1:
            dt = lats[nl]
            now += dt
            nl += 1
            et += dt
        else:
            for _ in range(min(block_size, num_layers - nl)):
                dt = lats[nl]
                now += dt
                nl += 1
                et += dt
        if drain_ok and nl < num_layers and nq == 1:
            # Lone request, nothing else to schedule: keep executing blocks
            # until it finishes or an arrival lands at a boundary.  Each
            # skipped boundary is a forced decision and still counts as an
            # invocation; `on_layer_complete` only needs the final call for
            # drain-safe schedulers (overwrite-only monitor updates).
            if block_size == 1:
                next_arrival = arrivals[i] if i < n else None
                while nl < num_layers and (next_arrival is None or next_arrival > now + _EPS):
                    dt = lats[nl]
                    now += dt
                    nl += 1
                    et += dt
                    invocations += 1
            else:
                while nl < num_layers and (i >= n or arrivals[i] > now + _EPS):
                    for _ in range(min(block_size, num_layers - nl)):
                        dt = lats[nl]
                        now += dt
                        nl += 1
                        et += dt
                    invocations += 1
        chosen.next_layer = nl
        chosen.executed_time = et
        chosen.last_run_end = now
        if prof is not None:
            prof.add(PHASE_EXECUTE, perf_counter() - t0)
            t0 = perf_counter()
        if tracer is not None:
            # One span per contiguous run on the accelerator (drained
            # blocks included), not per layer — same lanes, fewer events.
            tracer.emit(KIND_EXECUTE, exec_start, now - exec_start, npu=0,
                        rid=chosen.rid,
                        args={"layers": nl - nl_start, "key": chosen._key})
        if nl >= num_layers:
            if telem is not None:
                # Sample the grid points this block (or drained stretch)
                # crossed before its completion counts: pre-event state.
                telem.poll(now)
            chosen.finish_time = now
            queue.remove(chosen)
            completed.append(chosen)
            on_layer_complete(chosen, now)
            on_complete(chosen, now)
            if tracer is not None:
                tracer.emit(
                    KIND_VIOLATE if chosen.violated else KIND_COMPLETE,
                    now, rid=chosen.rid,
                )
            if c_completed is not None:
                c_completed.inc()
                if chosen.violated:
                    c_violations.inc()
        else:
            q_update(chosen)
            on_layer_complete(chosen, now)
        if prof is not None:
            prof.add(PHASE_QUEUE_UPDATE, perf_counter() - t0)

    return SimResult(
        requests=completed,
        makespan=now,
        num_preemptions=preemptions,
        num_scheduler_invocations=invocations,
        max_queue_length=max_queue,
    )
