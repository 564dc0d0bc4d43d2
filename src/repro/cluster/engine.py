"""Event-driven cluster simulator: router → pools → per-pool schedulers.

Named heterogeneous pools sit behind a routing policy with optional
admission control; each pool schedules its own queue with an unmodified
``Scheduler``.  This event loop is also the multi-NPU engine:
:func:`repro.sim.multi.simulate_multi` is a run of one pool behind the
round-robin router.  With one pool of one accelerator and an always-admit
controller the simulation makes :func:`repro.sim.engine.simulate`'s
decisions, with bit-identical finish times at block size 1 (tested).

Requests may be a list or any iterator sorted by arrival time; combined with
``retain_requests=False`` and :func:`repro.sim.workload.iter_workload`, the
engine replays 100k+ request streams in bounded memory — every finished
request is folded into :class:`~repro.cluster.metrics.StreamingMetrics` and
dropped.

With an :class:`~repro.cluster.autoscale.Autoscaler` the cluster is
elastic: the engine fires a policy tick at a fixed interval, applies the
resulting capacity changes (scale-ups serve only after their warm-up
delay; scale-downs drain before removing), and accounts the cost —
accelerator-seconds provisioned vs used, scale events, and sheds that
happened while capacity was still warming — into the result summary.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import SchedulingError
from repro.obs import Observability
from repro.obs.bus import KIND_ARRIVE, KIND_ROUTE, KIND_SCALE, KIND_SHED
from repro.obs.metrics import earliest_reaching
from repro.obs.profile import (
    PHASE_ARRIVALS,
    PHASE_EVENT_HEAP,
    PHASE_METRICS,
    PHASE_ROUTE,
)
from repro.sim.metrics import summarize
from repro.sim.request import Request, check_unique_rids

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.energy.accounting import EnergyAccountant
    from repro.faults.spec import FaultSpec

from repro.cluster.admission import AdmissionController
from repro.cluster.autoscale import Autoscaler, ScaleEvent, cost_summary
from repro.cluster.metrics import StreamingMetrics
from repro.cluster.pool import Pool, check_unique_names
from repro.cluster.routing import Router, make_router

_EPS = 1e-12
_INF = float("inf")

# Event kinds on the cluster-wide heap (tiebroken by a unique counter, so
# the kind itself is never compared).
_BLOCK = 0   # a layer block finished on (pool, npu)
_WAKE = 1    # an idle accelerator wakes for a pending arrival
_TICK = 2    # autoscaler decision point
_WARM = 3    # scaled-up capacity finished warming in a pool
_FAULT = 4   # an injected-fault boundary is due (FaultInjector.advance)


@dataclass(frozen=True)
class PoolStats:
    """Per-pool accounting of one cluster run."""

    name: str
    #: Warm accelerators at the end of the run (the initial size for fixed
    #: pools; whatever the autoscaler converged to for elastic ones).
    num_accelerators: int
    dispatched: int
    completed: int
    shed: int
    preemptions: int
    invocations: int
    max_queue_length: int
    busy_time: float
    #: Fraction of provisioned accelerator-seconds spent serving.
    utilization: float
    #: Blocks a lone request continued on the same accelerator without the
    #: ready-queue round trip (a subset of ``in_place_blocks``; 0 unless
    #: the policy is ``single_drain_safe``).
    continued_blocks: int = 0
    #: Blocks started by a decision the pool took itself at a settled block
    #: boundary, instead of in the engine's dispatch pass.
    in_place_blocks: int = 0
    #: Highest provisioned capacity reached during the run.
    peak_accelerators: int = 0
    #: Integral of provisioned capacity over the run, in accelerator-seconds.
    acc_seconds_provisioned: float = 0.0
    scale_ups: int = 0
    scale_downs: int = 0
    #: Requests shed from this pool while it had capacity warming.
    shed_during_scale_lag: int = 0
    #: Joules drawn by executed work in this pool (0.0 without an
    #: energy accountant).
    joules_busy: float = 0.0
    #: Idle-power joules over provisioned-but-unused accelerator-seconds.
    joules_idle: float = 0.0
    #: In-flight layer blocks killed by injected outages (work redone).
    fault_kills: int = 0
    #: Integral of failed capacity over time — provisioned, paid for, and
    #: serving nothing (0.0 without fault injection).
    acc_seconds_lost: float = 0.0

    @property
    def joules_total(self) -> float:
        """What this pool's meter would read: busy plus idle joules."""
        return self.joules_busy + self.joules_idle


@dataclass
class ClusterResult:
    """Outcome of one cluster run.

    ``requests``/``shed_requests`` hold the finished/shed request objects
    when the run retained them; under streaming replay they stay empty and
    ``metrics`` (computed incrementally) is the only record of the stream.
    """

    requests: List[Request]
    shed_requests: List[Request]
    makespan: float
    num_completed: int
    num_shed: int
    shed_reasons: Dict[str, int]
    num_preemptions: int
    num_scheduler_invocations: int
    max_queue_length: int
    pool_stats: Dict[str, PoolStats]
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Blocks continued on the same accelerator across all pools.
    num_continued_blocks: int = 0
    #: Blocks started by a pool's in-place decision across all pools.
    num_in_place_blocks: int = 0
    #: Applied capacity changes, in time order (empty without an autoscaler).
    scale_events: List[ScaleEvent] = field(default_factory=list)

    @property
    def num_offered(self) -> int:
        return self.num_completed + self.num_shed

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
    def shed_rate(self) -> float:
        return self.metrics["shed_rate"]

    @property
    def p50(self) -> float:
        return self.metrics["p50"]

    @property
    def p95(self) -> float:
        return self.metrics["p95"]

    @property
    def p99(self) -> float:
        return self.metrics["p99"]

    @property
    def acc_seconds_provisioned(self) -> float:
        return self.metrics["acc_seconds_provisioned"]

    @property
    def acc_seconds_used(self) -> float:
        return self.metrics["acc_seconds_used"]

    @property
    def provisioned_utilization(self) -> float:
        return self.metrics["provisioned_utilization"]

    @property
    def shed_under_scale_lag(self) -> int:
        return int(self.metrics["shed_under_scale_lag"])

    # Energy metrics exist when the run was given an EnergyAccountant.

    @property
    def energy_per_request(self) -> float:
        """Mean joules per completed inference (energy runs only)."""
        return self.metrics["energy_per_request"]

    @property
    def total_joules(self) -> float:
        """Joules drawn by all completed work (energy runs only)."""
        return self.metrics["total_joules"]

    @property
    def edp(self) -> float:
        """Mean per-request energy-delay product, J*s (energy runs only)."""
        return self.metrics["edp"]

    @property
    def joules_used(self) -> float:
        """Busy joules across all pools — the twin of acc_seconds_used."""
        return self.metrics["joules_used"]

    @property
    def joules_provisioned(self) -> float:
        """Busy plus idle joules — the twin of acc_seconds_provisioned."""
        return self.metrics["joules_provisioned"]


def _request_stream(requests: Union[Sequence[Request], Iterable[Request]]) -> Iterator[Request]:
    """Arrival-ordered request iterator.

    A sequence is checked for repeated rids and sorted.  A streamed
    iterator is checked for arrival order only: a rid check would need a
    set that grows with the stream.
    """
    if isinstance(requests, Sequence):
        check_unique_rids(requests)
        yield from sorted(requests, key=lambda r: (r.arrival, r.rid))
        return
    last_arrival = -float("inf")
    for req in requests:
        if req.arrival < last_arrival - _EPS:
            raise SchedulingError(
                f"streamed requests must arrive in order: request {req.rid} "
                f"at {req.arrival} after {last_arrival}"
            )
        last_arrival = req.arrival
        yield req


def simulate_cluster(
    requests: Union[Sequence[Request], Iterable[Request]],
    pools: Sequence[Pool],
    router: Union[Router, str] = "round-robin",
    *,
    admission: Optional[AdmissionController] = None,
    autoscaler: Optional[Autoscaler] = None,
    retain_requests: bool = True,
    energy: Optional["EnergyAccountant"] = None,
    obs: Optional[Observability] = None,
    faults: Optional["FaultSpec"] = None,
) -> ClusterResult:
    """Replay a request stream against a cluster of accelerator pools.

    Args:
        requests: The stream, as a list (sorted internally; a repeated rid
            is rejected before the run) or an iterator already ordered by
            arrival (consumed lazily — pair with
            :func:`repro.sim.workload.iter_workload` for bounded memory; its
            rids are not checked, since that needs a set as long as the
            stream).
        pools: Pools in router-visible order; names must be unique.
        router: A :class:`Router` instance, or a registry name for routers
            without constructor arguments (``"round-robin"``, ``"jsq"``).
        admission: Optional load-shedding policy; default admits everything.
        autoscaler: Optional elastic-capacity controller; its policy is
            ticked at a fixed interval and pool sizes follow its decisions
            (subject to warm-up latency and drain-before-remove).  ``None``
            keeps every pool at its constructed size.
        retain_requests: Keep finished/shed request objects on the result.
            ``False`` drops each request after folding it into the streaming
            metrics, so arbitrarily long replays use bounded memory.
        energy: Optional :class:`~repro.energy.accounting.EnergyAccountant`.
            Pools then integrate busy joules per executed block (plus weight
            reloads), the result metrics gain ``energy_per_request`` /
            ``total_joules`` / ``edp`` and the joule-denominated capacity
            cost (``joules_used`` / ``joules_idle`` / ``joules_provisioned``
            — idle power charged for provisioned-but-unused seconds), and
            every ``PoolStats`` carries its per-pool joules.  Accounting is
            passive: schedules are bit-identical with or without it.
        obs: Optional :class:`~repro.obs.Observability` bundle.  Trace
            spans carry (pool, npu) lanes; routing, shedding and autoscaler
            scale decisions appear as instants; telemetry samples per-pool
            queue depth / occupancy (and metered joules under ``energy``).
            Passive, like ``energy``.
        faults: Optional :class:`~repro.faults.spec.FaultSpec` timeline.
            Its boundaries fire as first-class events: outages kill the
            in-flight blocks of failed accelerators (each request's parked
            row re-enters the ready queue with its scheduler state),
            slowdown windows stretch service time, blackout windows shed
            arrivals at admission (reason ``fault_blackout``), and
            revocations remove capacity via the graceful drain path.  The
            result metrics gain ``num_faults`` /
            ``requests_requeued_by_fault`` / ``requests_shed_by_blackout``,
            and ``fault``/``recover`` spans land on the trace bus.  Faults fire only while the workload is
            live — boundaries after the last completion are discarded, so
            a timeline never stretches the makespan.
    """
    pools = list(pools)
    check_unique_names(pools)
    if isinstance(router, str):
        router = make_router(router)
    obs = Observability.active(obs)
    tracer = obs.bus if obs is not None else None
    telem = obs.telemetry if obs is not None else None
    prof = obs.profiler if obs is not None else None
    t_begin = perf_counter() if prof is not None else 0.0
    for pool in pools:
        pool.reset()
        pool.bind_energy(energy)
        pool.bind_obs(tracer, prof)
        pool.bind_router(router)
    router.reset(pools)
    track_work = router.tracks_work
    if autoscaler is not None:
        autoscaler.reset(pools)
    injector = None
    blackout_reason = None
    if faults is not None and len(faults):
        from repro.faults.inject import SHED_FAULT_BLACKOUT, FaultInjector

        injector = FaultInjector(faults)
        injector.reset(pools, tracer)
        blackout_reason = SHED_FAULT_BLACKOUT

    c_completed = c_violations = c_shed = None
    if telem is not None:
        for pool in pools:
            telem.registry.gauge(
                f"{pool.name}_queue_depth",
                (lambda p: lambda: len(p.queue))(pool),
            )
            telem.registry.gauge(
                f"{pool.name}_busy_npus",
                (lambda p: lambda: len(p.running))(pool),
            )
            telem.registry.gauge(
                f"{pool.name}_provisioned",
                (lambda p: lambda: p.provision_target)(pool),
            )
            if energy is not None:
                telem.registry.gauge(
                    f"{pool.name}_joules_busy",
                    (lambda p: lambda: p.joules_busy)(pool),
                )
            if injector is not None:
                telem.registry.gauge(
                    f"{pool.name}_failed",
                    (lambda p: lambda: p.num_failed)(pool),
                )
        c_completed = telem.registry.counter("completed")
        c_violations = telem.registry.counter("violations")
        c_shed = telem.registry.counter("shed")

    metrics = StreamingMetrics()
    completed: List[Request] = []
    shed: List[Request] = []
    scale_events: List[ScaleEvent] = []
    events: List = []  # (time, tiebreak, kind, pool, npu, request, layers, dt, epoch)
    counter = itertools.count()
    stream = _request_stream(requests)
    now = 0.0
    # ``earliest_reaching(next_req.arrival, _EPS)``: the horizon's arrival
    # term, formed once per request (``inf`` once the stream is spent).
    arrival_bound = _INF

    def fetch() -> Optional[Request]:
        nonlocal arrival_bound
        req = next(stream, None)
        if req is None:
            arrival_bound = _INF
        elif req.next_layer != 0 or req.finish_time is not None:
            raise SchedulingError(
                f"request {req.rid} was already (partially) executed"
            )
        else:
            arrival_bound = earliest_reaching(req.arrival, _EPS)
        return req

    next_req = fetch()
    if next_req is None:
        raise SchedulingError("cannot simulate an empty workload")

    if injector is None:
        def push_event(time: float, pool: Pool, npu: int, req: Request,
                       layers: int, dt: float) -> None:
            heapq.heappush(
                events, (time, next(counter), _BLOCK, pool, npu, req, layers, dt, 0)
            )
    else:
        # Block events carry the dispatch-time kill epoch so a completion
        # whose accelerator failed mid-block is discarded when it pops.
        def push_event(time: float, pool: Pool, npu: int, req: Request,
                       layers: int, dt: float) -> None:
            heapq.heappush(
                events, (time, next(counter), _BLOCK, pool, npu, req, layers,
                         dt, pool.block_epoch(npu))
            )

    def push_control(time: float, kind: int, pool: Optional[Pool] = None) -> None:
        heapq.heappush(events, (time, next(counter), kind, pool, -1, None, 0, 0.0, 0))

    def horizon() -> float:
        """The earliest time anything but a pool's own block could happen.

        A pool deciding in place folds a block ending at ``t`` only below it
        (see :meth:`Pool.complete_block`), i.e. while the block's event
        would pop next and change nothing else: ``t < heap top`` (an event
        already queued at ``t`` pops first), no arrival is due
        (``arrival > t + _EPS``, in_place's test) and ``Telemetry.poll(t)``
        samples nothing.  The last two bounds are formed when the next
        arrival or grid point moves, not per read.
        """
        h = events[0][0] if events else _INF
        if telem is not None:
            return min(h, arrival_bound, telem.next_poll_time)
        return min(h, arrival_bound)

    # Run-level phase accumulators (flushed into the profiler once at the
    # end of the run: per-event ``PhaseProfiler.add`` calls would cost more
    # than the engine scaffolding they measure).
    p_route_s = p_arrive_s = p_heap_s = p_metrics_s = 0.0
    p_route_c = p_arrive_c = p_heap_c = p_metrics_c = 0

    def admit_arrivals(now: float) -> None:
        """Route (and possibly shed) every request that has arrived by now."""
        nonlocal next_req, p_route_s, p_route_c, p_arrive_s, p_arrive_c
        route_s = 0.0
        if prof is not None:
            t_adm = perf_counter()
        while next_req is not None and next_req.arrival <= now + _EPS:
            req, next_req = next_req, fetch()
            if tracer is not None:
                tracer.emit(KIND_ARRIVE, req.arrival, rid=req.rid)
            if prof is not None:
                t0 = perf_counter()
            pool = router.route(req, pools, now)
            if prof is not None:
                route_s += perf_counter() - t0
                p_route_c += 1
            if pool not in pools:
                raise SchedulingError(
                    f"router {router.name!r} returned a pool outside the cluster"
                )
            if tracer is not None:
                tracer.emit(KIND_ROUTE, now, pool=pool.name, rid=req.rid,
                            args={"router": router.name})
            reason = admission.admit(req, pool, now) if admission is not None else None
            if (reason is None and injector is not None
                    and injector.in_blackout(req.arrival, pool.name)):
                # Admission blackout: the decision keys on the *arrival*
                # time (half-open window), so it is independent of which
                # event's admit pass happened to process this request.
                reason = blackout_reason
                injector.note_blackout()
            if reason is not None:
                pool.shed += 1
                if pool.num_warming:
                    pool.shed_during_scale_lag += 1
                metrics.observe_shed(req, reason)
                if tracer is not None:
                    tracer.emit(KIND_SHED, now, pool=pool.name, rid=req.rid,
                                args={"reason": reason})
                if c_shed is not None:
                    c_shed.inc()
                if retain_requests:
                    shed.append(req)
            else:
                pool.enqueue(req, now)
                if track_work:
                    router.note_enqueue(pool, req)
        if prof is not None:
            # Routing is attributed separately; the remainder is admission
            # bookkeeping.
            p_route_s += route_s
            p_arrive_s += (perf_counter() - t_adm) - route_s
            p_arrive_c += 1

    def dispatch_all(now: float) -> None:
        for pool in pools:
            # Guard inline: on a saturated cluster most pools have no idle
            # accelerator at most events, and the no-op call overhead (x
            # pools x events) is measurable.
            if pool.idle and pool.queue:
                pool.dispatch(now, push_event)

    def work_remains() -> bool:
        return next_req is not None or any(
            pool.queue or pool.running for pool in pools
        )

    def run_autoscaler(now: float) -> None:
        """One policy tick: apply decisions, arm warm-ups and the next tick."""
        for event in autoscaler.tick(pools, now):
            scale_events.append(event)
            if tracer is not None:
                tracer.emit(KIND_SCALE, event.time, pool=event.pool,
                            args={
                                "delta": event.delta,
                                "capacity_after": event.capacity_after,
                                "ready_at": event.ready_at,
                            })
            if event.ready_at is not None:
                pool = next(p for p in pools if p.name == event.pool)
                push_control(event.ready_at, _WARM, pool)
        if work_remains():
            push_control(now + autoscaler.interval, _TICK)

    next_wake: Optional[float] = None

    def arm_wake() -> None:
        """Ensure an idle accelerator wakes at the next pending arrival."""
        nonlocal next_wake
        if (
            next_req is not None
            and any(pool.idle for pool in pools)
            and (next_wake is None or next_req.arrival < next_wake)
        ):
            next_wake = next_req.arrival
            push_control(next_wake, _WAKE)

    if telem is not None:
        telem.poll(0.0)
    admit_arrivals(0.0)
    dispatch_all(0.0)
    arm_wake()
    if autoscaler is not None:
        push_control(autoscaler.interval, _TICK)
    if injector is not None:
        for t_fault in injector.boundary_times():
            push_control(t_fault, _FAULT)

    # The loop's brackets are chained: each closing ``perf_counter`` read
    # doubles as the next segment's opening stamp, so profiler bookkeeping
    # between brackets stays attributed instead of leaking into the
    # coverage gap.
    t_heap = perf_counter() if prof is not None else 0.0
    t_seg = 0.0
    skip_admit = False
    # True while every pool is dispatched to a fixed point and arm_wake has
    # nothing left to arm — i.e. the last event ran the full admit/dispatch
    # tail.  Only then may a pool decide the finished block's accelerator
    # itself, since that skips the tail.  Blocks it folds before the
    # horizon skip the heap as well: the events they stand for would each
    # have been decided in place again with ``settled`` still True.
    settled = True
    while events:
        time, _, kind, pool, npu, req, layers, dt, epoch = heapq.heappop(events)
        if kind in (_TICK, _WARM, _FAULT) and not work_remains():
            # The stream is exhausted and every request served: discard
            # trailing control events instead of stretching the makespan.
            if prof is not None:
                t_seg = perf_counter()
                p_heap_s += t_seg - t_heap
                p_heap_c += 1
                t_heap = t_seg
            continue
        now = time
        if telem is not None:
            telem.poll(now)
        if prof is not None:
            # Pop, unpack and the event-kind dispatch scaffolding.
            t_seg = perf_counter()
            p_heap_s += t_seg - t_heap
            p_heap_c += 1
        if kind == _WAKE:
            next_wake = None
        elif kind == _WARM:
            pool.activate_ready(now)
        elif kind == _TICK:
            admit_arrivals(now)  # measure the queues the tick acts on
            run_autoscaler(now)
        elif kind == _FAULT:
            # A boundary that changed nothing must also skip the trailing
            # admit/dispatch pass: the fault-free run has no event at this
            # timestamp, and admitting arrivals here would perturb
            # admission-controller / work-estimating-router decisions (the
            # instantly-recovered lockstep guarantee).
            skip_admit = not injector.advance(now)
        elif injector is not None and not pool.block_live(npu, epoch):
            # Stale completion: the accelerator failed mid-block and the
            # request was already requeued.  Nothing to fold.
            pass
        else:
            # The pool may decide ``npu`` in place only when the skipped
            # tail would have had nothing else to do; it reads the horizon
            # only once it has decided in place.
            in_place = settled and (next_req is None or next_req.arrival > now + _EPS)
            done = pool.complete_block(now, npu, req, layers, dt,
                                       t_entry=t_seg if prof is not None else None,
                                       push_event=push_event if in_place else None,
                                       horizon=horizon)
            if prof is not None:
                # The pool's closing read opens the next segment.
                t_seg = pool._t_exit
            if done:
                if track_work:
                    # The pool reports unfinished blocks itself (it folds
                    # some in place); completions are reported here.
                    router.note_complete(pool, req)
                    if prof is not None:
                        t_rt = perf_counter()
                        p_route_s += t_rt - t_seg
                        p_route_c += 1
                        t_seg = t_rt
                # Per-request joules fold into the streaming aggregates only
                # on the bounded-memory path; with retained requests the
                # batch summary computes them once at the end instead.
                metrics.observe(
                    req,
                    energy_joules=(
                        energy.request_energy(req)
                        if energy is not None and not retain_requests else None
                    ),
                )
                if c_completed is not None:
                    c_completed.inc()
                    if req.violated:
                        c_violations.inc()
                if retain_requests:
                    completed.append(req)
                if prof is not None:
                    t_met = perf_counter()
                    p_metrics_s += t_met - t_seg
                    p_metrics_c += 1
                    t_seg = t_met
            if in_place and npu in pool.running:
                # The pool decided ``npu`` itself: no arrival is due, every
                # other pool is settled and the wake is armed, so the tail
                # is a no-op.
                if prof is not None:
                    t_heap = t_seg
                continue
        if skip_admit:
            # No-op fault boundary: leave queues, admission and wake state
            # exactly as the fault-free run would at this timestamp.
            skip_admit = False
            settled = False
            if prof is not None:
                t_heap = perf_counter()
            continue
        # Same inline guard as dispatch_all: most events have no pending
        # arrival, and the no-op admit pass is pure call overhead.
        if next_req is not None and next_req.arrival <= now + _EPS:
            admit_arrivals(now)
        dispatch_all(now)
        settled = True
        if prof is not None:
            t_aw = perf_counter()
            arm_wake()
            # The closing read opens the next iteration's heap segment.
            t_heap = perf_counter()
            p_heap_s += t_heap - t_aw
            p_heap_c += 1
        else:
            arm_wake()

    if next_req is not None or any(pool.queue or pool.running for pool in pools):
        raise SchedulingError("simulation ended with unserved requests in the cluster")

    makespan = now
    for pool in pools:
        pool.finalize_cost(makespan)
    if prof is not None:
        if p_route_c:
            prof.add(PHASE_ROUTE, p_route_s, p_route_c)
        if p_arrive_c:
            prof.add(PHASE_ARRIVALS, p_arrive_s, p_arrive_c)
        if p_heap_c:
            prof.add(PHASE_EVENT_HEAP, p_heap_s, p_heap_c)
        if p_metrics_c:
            prof.add(PHASE_METRICS, p_metrics_s, p_metrics_c)
        for pool in pools:
            pool.flush_profile()
        prof.wall_s += perf_counter() - t_begin
    if telem is not None:
        telem.finish(makespan)

    if retain_requests and completed:
        # Exact batch metrics when the requests are on hand; the streaming
        # aggregates are identical for ANTT/violations/STP and within the
        # histogram's resolution for the percentiles.
        summary = dict(summarize(completed, energy=energy))
        summary["shed_rate"] = metrics.shed_rate
    else:
        summary = metrics.summary()
    summary.update(cost_summary(pools, scale_events))
    if injector is not None:
        summary.update(injector.summary())
    pool_joules_idle: Dict[str, float] = {p.name: 0.0 for p in pools}
    if energy is not None:
        from repro.energy.accounting import energy_cost_summary, pool_idle_joules

        summary.update(energy_cost_summary(pools, energy))
        pool_joules_idle = {
            p.name: pool_idle_joules(p, energy.idle_power_w) for p in pools
        }

    pool_stats = {
        p.name: PoolStats(
            name=p.name,
            num_accelerators=p.num_accelerators,
            dispatched=p.dispatched,
            completed=p.completed,
            shed=p.shed,
            preemptions=p.preemptions,
            invocations=p.invocations,
            max_queue_length=p.max_queue_length,
            busy_time=p.busy_time,
            utilization=(
                p.busy_time / p.acc_seconds_provisioned
                if p.acc_seconds_provisioned > 0 else 0.0
            ),
            continued_blocks=p.continued_blocks,
            in_place_blocks=p.in_place_blocks,
            peak_accelerators=p.peak_accelerators,
            acc_seconds_provisioned=p.acc_seconds_provisioned,
            scale_ups=p.scale_ups,
            scale_downs=p.scale_downs,
            shed_during_scale_lag=p.shed_during_scale_lag,
            joules_busy=p.joules_busy,
            joules_idle=pool_joules_idle[p.name],
            fault_kills=p.fault_kills,
            acc_seconds_lost=p.acc_seconds_lost,
        )
        for p in pools
    }
    return ClusterResult(
        requests=completed,
        shed_requests=shed,
        makespan=makespan,
        num_completed=metrics.completed,
        num_shed=metrics.shed,
        shed_reasons=dict(metrics.shed_reasons),
        num_preemptions=sum(p.preemptions for p in pools),
        num_scheduler_invocations=sum(p.invocations for p in pools),
        max_queue_length=max(p.max_queue_length for p in pools),
        pool_stats=pool_stats,
        metrics=summary,
        num_continued_blocks=sum(p.continued_blocks for p in pools),
        num_in_place_blocks=sum(p.in_place_blocks for p in pools),
        scale_events=scale_events,
    )
