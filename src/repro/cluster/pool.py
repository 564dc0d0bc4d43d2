"""Accelerator pools: the unit of placement in the cluster tier.

A pool is N accelerators of one type behind one ready queue with its own
scheduler instance (any policy from :mod:`repro.schedulers` — the
``Scheduler`` interface is reused unmodified).  Within a pool, scheduling
is layer-block-granularity preemption with per-NPU resident-weights switch
cost.  :meth:`Pool.dispatch` and :meth:`Pool.complete_block` are the only
multi-NPU dispatch loop: :func:`repro.sim.multi.simulate_multi` runs one
pool through the cluster engine.

Capacity is **elastic**: :meth:`Pool.add_accelerators` provisions new
accelerators that become schedulable only after a warm-up delay (cold
capacity is provisioned — and paid for — but cannot serve), and
:meth:`Pool.remove_accelerators` retires capacity with drain-before-remove
semantics: warming capacity is cancelled first, then idle accelerators
retire instantly, and busy accelerators are marked draining and retire at
their next layer-block boundary — the in-flight request re-enters the ready
queue (or finishes) and is never killed.  The pool integrates provisioned
accelerator-seconds over time (``acc_seconds_provisioned``) so the cost of
elasticity is a first-class metric next to ``busy_time`` (used seconds).

Heterogeneity is expressed through service speed: ``speed`` scales the whole
pool relative to the latencies recorded in the request traces, and
``affinity`` maps model names to per-model factors (e.g. an Eyeriss pool
runs CNNs at native speed but pays a penalty hosting an AttNN whose trace
was profiled on Sanger).  Effective execution time of a layer is
``true_latency / (speed * affinity[model])``.

Pools share the vectorized scheduling core: every pool backs its queue with
an array-backed :class:`~repro.sim.ready_queue.ReadyQueue` and dispatches
through ``select_single`` / ``select_batch``, which is what keeps 100k-request
streaming replays fast — per-decision work stays O(queue) arithmetic in
numpy (or a tight loop at small depths) instead of O(queue) Python
property/dict traffic.  At a settled block boundary (nothing else due, so
the engine's dispatch pass would serve the finished block's accelerator
alone) :meth:`Pool.complete_block` takes that decision itself, and folds
the blocks that end before the engine's *horizon* in place, without the
event heap.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from time import perf_counter

from repro.errors import SchedulingError
from repro.obs.bus import (
    KIND_COMPLETE,
    KIND_EXECUTE,
    KIND_PREEMPT,
    KIND_QUEUE,
    KIND_SELECT,
    KIND_SWITCH,
    KIND_VIOLATE,
)
from repro.obs.profile import (
    PHASE_DISPATCH,
    PHASE_EVENT_HEAP,
    PHASE_EXECUTE,
    PHASE_QUEUE_UPDATE,
    PHASE_SELECT,
)
from repro.seqsum import seqsum
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request

if TYPE_CHECKING:  # avoid a runtime circular import with repro.schedulers
    from repro.schedulers.base import Scheduler


class Pool:
    """One homogeneous accelerator pool with its own queue and scheduler.

    Args:
        name: Unique pool name (e.g. ``"eyeriss"``).
        scheduler: Per-pool scheduling policy instance (not shared between
            pools — schedulers carry per-run state).
        num_accelerators: Initial number of identical accelerators; an
            autoscaler may grow or shrink the pool during a run.
        speed: Pool-wide service-speed factor relative to the trace
            latencies (2.0 = twice as fast).  Fixed after construction.
        affinity: Optional per-model speed factors multiplied with ``speed``;
            models absent from the mapping run at factor 1.0.  Copied and
            fixed after construction.
        switch_cost: Weight-reload cost on a model switch, per accelerator.
        block_size: Scheduling granularity in layers.
    """

    def __init__(
        self,
        name: str,
        scheduler: "Scheduler",
        num_accelerators: int = 1,
        *,
        speed: float = 1.0,
        affinity: Optional[Mapping[str, float]] = None,
        switch_cost: float = 0.0,
        block_size: int = 1,
    ):
        if not name:
            raise SchedulingError("pool name must be non-empty")
        if num_accelerators <= 0:
            raise SchedulingError(
                f"pool {name!r}: need >= 1 accelerator, got {num_accelerators}"
            )
        # Each knob test is written so that NaN fails it, as infinity does.
        if not 0 < speed < math.inf:
            raise SchedulingError(
                f"pool {name!r}: speed must be positive and finite, got {speed}"
            )
        if not 0 <= switch_cost < math.inf:
            raise SchedulingError(
                f"pool {name!r}: switch cost must be >= 0 and finite, "
                f"got {switch_cost}"
            )
        if block_size < 1:
            raise SchedulingError(
                f"pool {name!r}: block size must be >= 1, got {block_size}"
            )
        self.name = name
        self.scheduler = scheduler
        self._initial_accelerators = num_accelerators
        self.speed = speed
        self.affinity: Dict[str, float] = dict(affinity or {})
        for model, factor in self.affinity.items():
            if not 0 < factor < math.inf:
                raise SchedulingError(
                    f"pool {name!r}: affinity factor for {model!r} must be "
                    f"positive and finite, got {factor}"
                )
        #: ``speed * affinity[model]``, formed once per model (the same
        #: product service_speed formed per call); other models run at
        #: ``speed``, which equals ``speed * 1.0`` exactly.
        self._speeds: Dict[str, float] = {
            model: speed * factor for model, factor in self.affinity.items()
        }
        self.switch_cost = switch_cost
        self.block_size = block_size
        # Only drain-safe schedulers make a forced decision exact without
        # the ready-queue round trip (see complete_block).
        self._can_continue = scheduler.single_drain_safe
        #: Energy accountant bound by the cluster engine for this run
        #: (survives reset(); ``None`` disables joule accounting).
        self._energy = None
        #: Trace bus / phase profiler bound by the cluster engine for this
        #: run (survive reset(); ``None`` disables emission).
        self._tracer = None
        self._prof = None
        #: The bound router's ``note_progress`` when it tracks work (see
        #: bind_router), else ``None``.
        self._note_progress = None
        self.reset()

    # -- run state ----------------------------------------------------------

    def reset(self) -> None:
        """Clear all per-run state; called by the cluster engine."""
        self.scheduler.reset()
        self.queue = ReadyQueue(
            self.scheduler.lut, columns=self.scheduler.batch_columns
        )
        self.scheduler.bind_queue(self.queue)
        n = self._initial_accelerators
        self.idle: List[int] = list(range(n))
        heapq.heapify(self.idle)
        self.running: Dict[int, Request] = {}  # npu -> in-flight request
        self._last_on_npu: Dict[int, Optional[Request]] = {i: None for i in range(n)}
        self._resident: Dict[int, Optional[Request]] = {i: None for i in range(n)}
        # Which (model, pattern) weights each NPU holds (weight-load counting).
        self._resident_key: Dict[int, Optional[str]] = {i: None for i in range(n)}
        self._next_npu = n
        self._warming: List[Tuple[float, int]] = []  # (ready_at, npu)
        self._draining: Set[int] = set()
        self.preemptions = 0
        self.invocations = 0
        #: Blocks started by a decision the pool took itself at a settled
        #: boundary (complete_block) instead of in the engine's dispatch pass.
        self.in_place_blocks = 0
        #: The subset of in_place_blocks that continued a lone request
        #: without the ready-queue round trip.
        self.continued_blocks = 0
        self.max_queue_length = 0
        self.dispatched = 0  # requests first-dispatched in this pool
        self.completed = 0
        self.shed = 0
        self.enqueued = 0  # requests admitted into the pool (policy rate signal)
        self.busy_time = 0.0
        # -- cost accounting: integral of provisioned capacity over time ----
        self._provisioned = n  # warm (incl. draining-busy) + warming
        self._cost_clock = 0.0
        self.acc_seconds_provisioned = 0.0
        self.peak_accelerators = n
        self.scale_ups = 0
        self.scale_downs = 0
        self.shed_during_scale_lag = 0
        #: Joules drawn by executed work (per-block dynamic + static energy,
        #: plus weight reloads); 0.0 unless an accountant is bound.
        self.joules_busy = 0.0
        # -- fault injection (armed by FaultInjector.reset) ------------------
        # All of this is inert on fault-free runs: _fault_mode stays False,
        # _slowdown stays 1.0, and the dicts stay empty.
        self._fault_mode = False
        self._slowdowns: List[float] = []
        self._slowdown = 1.0
        self._block_epoch: Dict[int, int] = {}
        self._inflight_charge: Dict[int, float] = {}
        self._failed: Dict[int, float] = {}  # npu -> time it went down
        self.fault_kills = 0  # in-flight blocks killed by outages
        self.acc_seconds_lost = 0.0  # integral of failed capacity over time

    def bind_energy(self, accountant) -> None:
        """Attach (or detach, with ``None``) an
        :class:`~repro.energy.accounting.EnergyAccountant` for this run."""
        self._energy = accountant

    def bind_obs(self, tracer, prof) -> None:
        """Attach (or detach, with ``None``) the cluster run's trace bus and
        phase profiler.  The scheduler gets the bus too, so policy-level
        events (powercap deferrals) land in the same trace."""
        self._tracer = tracer
        self._prof = prof
        self.scheduler.trace_bus = tracer
        # Per-phase accumulators flushed once per run (flush_profile):
        # folding per-decision deltas into ``PhaseProfiler.add`` from the hot
        # loops would cost more than the phases being measured.
        self._p_select_s = self._p_dispatch_s = self._p_heap_s = 0.0
        self._p_execute_s = self._p_queue_s = 0.0
        self._p_select_c = self._p_dispatch_c = self._p_heap_c = 0
        self._p_execute_c = self._p_queue_c = 0
        #: The last clock read of complete_block or dispatch, which the
        #: engine's next bracket opens with.
        self._t_exit = 0.0

    def bind_router(self, router) -> None:
        """Attach the cluster run's router.  A work-tracking router hears of
        every block the pool folds while the request is unfinished (the
        engine reports enqueues and completions)."""
        self._note_progress = router.note_progress if router.tracks_work else None

    def flush_profile(self) -> None:
        """Fold the accumulated phase deltas into the bound profiler."""
        prof = self._prof
        if prof is None:
            return
        if self._p_select_c:
            prof.add(PHASE_SELECT, self._p_select_s, self._p_select_c)
        if self._p_dispatch_c:
            prof.add(PHASE_DISPATCH, self._p_dispatch_s, self._p_dispatch_c)
        if self._p_heap_c:
            prof.add(PHASE_EVENT_HEAP, self._p_heap_s, self._p_heap_c)
        if self._p_execute_c:
            prof.add(PHASE_EXECUTE, self._p_execute_s, self._p_execute_c)
        if self._p_queue_c:
            prof.add(PHASE_QUEUE_UPDATE, self._p_queue_s, self._p_queue_c)
        self._p_select_s = self._p_dispatch_s = self._p_heap_s = 0.0
        self._p_execute_s = self._p_queue_s = 0.0
        self._p_select_c = self._p_dispatch_c = self._p_heap_c = 0
        self._p_execute_c = self._p_queue_c = 0

    # -- elastic capacity (driven by the autoscaler) -------------------------

    @property
    def num_accelerators(self) -> int:
        """Warm (schedulable or serving) accelerators, including draining
        ones that are still finishing their current layer block."""
        return len(self.idle) + len(self.running)

    @property
    def num_warming(self) -> int:
        """Provisioned accelerators still inside their warm-up delay."""
        return len(self._warming)

    @property
    def num_draining(self) -> int:
        """Busy accelerators marked for removal at their next block boundary."""
        return len(self._draining)

    @property
    def provision_target(self) -> int:
        """Capacity the pool is converging to: warm - draining + warming."""
        return self.num_accelerators - len(self._draining) + len(self._warming)

    def _accrue_cost(self, now: float) -> None:
        """Advance the provisioned accelerator-seconds integral to ``now``."""
        if now > self._cost_clock:
            self.acc_seconds_provisioned += self._provisioned * (now - self._cost_clock)
            self._cost_clock = now

    def add_accelerators(self, n: int, now: float, ready_at: float) -> int:
        """Provision ``n`` accelerators; they serve only from ``ready_at``.

        Draining accelerators are rescued first (cancelling a decommission
        is instant warm capacity); the rest enter warm-up.  Cost accrues for
        the full warm-up — provisioned-but-cold capacity is paid for.
        Returns the number that actually entered warm-up (0 when every slot
        was covered by rescued drains, in which case no warm-up event is
        needed).
        """
        if n <= 0:
            raise SchedulingError(f"pool {self.name!r}: add {n} accelerators")
        if ready_at < now:
            raise SchedulingError(
                f"pool {self.name!r}: capacity cannot be ready in the past"
            )
        self._accrue_cost(now)
        # Deterministic rescue order: highest npu id first, the inverse of
        # the drain-marking order in remove_accelerators.
        while n > 0 and self._draining:
            self._draining.remove(max(self._draining))
            n -= 1
        for _ in range(n):
            npu = self._next_npu
            self._next_npu += 1
            self._warming.append((ready_at, npu))
        self._provisioned += n
        self.scale_ups += 1
        if self._provisioned > self.peak_accelerators:
            self.peak_accelerators = self._provisioned
        return n

    def remove_accelerators(self, n: int, now: float) -> None:
        """Retire ``n`` accelerators without killing in-flight work.

        Preference order: cancel warming capacity (latest-ready first — the
        least sunk cost), retire idle accelerators instantly, then mark busy
        accelerators draining — they finish their current layer block, the
        request rejoins the queue (or completes), and only then does the
        accelerator leave the pool.  The pool never shrinks its target below
        one accelerator.
        """
        if n <= 0:
            raise SchedulingError(f"pool {self.name!r}: remove {n} accelerators")
        n = min(n, self.provision_target - 1)
        if n <= 0:
            return
        self._accrue_cost(now)
        while n > 0 and self._warming:
            self._warming.sort()
            _, npu = self._warming.pop()
            self._provisioned -= 1
            n -= 1
        while n > 0 and self.idle:
            npu = heapq.heappop(self.idle)
            self._last_on_npu.pop(npu, None)
            self._resident.pop(npu, None)
            self._resident_key.pop(npu, None)
            self._provisioned -= 1
            n -= 1
        if n > 0:
            candidates = sorted(
                (npu for npu in self.running if npu not in self._draining),
                reverse=True,
            )
            self._draining.update(candidates[:n])
        self.scale_downs += 1

    def activate_ready(self, now: float) -> int:
        """Move warm-up capacity whose ready time has passed into service."""
        due = [(t, npu) for t, npu in self._warming if t <= now + 1e-12]
        if not due:
            return 0
        self._warming = [(t, npu) for t, npu in self._warming if t > now + 1e-12]
        for _, npu in sorted(due, key=lambda pair: pair[1]):
            self._last_on_npu[npu] = None
            self._resident[npu] = None
            self._resident_key[npu] = None
            heapq.heappush(self.idle, npu)
        return len(due)

    def finalize_cost(self, now: float) -> None:
        """Close the provisioned-capacity integral at the end of a run."""
        self._accrue_cost(now)
        # Close the downtime integral for accelerators still failed at the
        # end of the run (their outage window outlived the workload).
        for failed_at in self._failed.values():
            self.acc_seconds_lost += now - failed_at
        self._failed.clear()

    # -- fault injection (driven by repro.faults.FaultInjector) --------------

    def enable_fault_mode(self) -> None:
        """Arm the per-dispatch bookkeeping kills and slowdowns need.

        Called by the injector after reset; fault-free runs never pay for
        it (the flag gates one dict write per dispatch).
        """
        self._fault_mode = True

    @property
    def num_failed(self) -> int:
        """Accelerators currently down from an injected outage."""
        return len(self._failed)

    def block_epoch(self, npu: int) -> int:
        """Kill-generation of one accelerator (stamped into block events)."""
        return self._block_epoch.get(npu, 0)

    def block_live(self, npu: int, epoch: int) -> bool:
        """Whether a block event stamped at ``epoch`` is still valid — a
        mid-block kill bumps the epoch so the stale completion event is
        discarded when it pops."""
        return self._block_epoch.get(npu, 0) == epoch

    def push_slowdown(self, factor: float) -> None:
        """Enter a straggler window: service time multiplied by ``factor``
        for blocks dispatched while it is active (windows stack)."""
        self._slowdowns.append(factor)
        self._recompute_slowdown()

    def pop_slowdown(self, factor: float) -> None:
        """Leave a straggler window (in-flight blocks keep their speed)."""
        self._slowdowns.remove(factor)
        self._recompute_slowdown()

    def _recompute_slowdown(self) -> None:
        combined = 1.0
        for factor in self._slowdowns:
            combined *= factor
        self._slowdown = combined

    def fail_accelerators(
        self, now: float, count: Optional[int] = None
    ) -> Tuple[List[int], List[Tuple[int, Request]]]:
        """Take warm accelerators down hard (injected outage).

        Unlike :meth:`remove_accelerators` (graceful drain), a failure
        kills the in-flight layer block: the request re-enters the ready
        queue with its scheduler row (parked at dispatch, swapped back in
        by the re-append; no completion callbacks fire), the optimistic
        ``busy_time`` charge is rolled back, and the stale block event is
        invalidated via the kill epoch.  A drain-safe scheduler then
        re-runs ``on_layer_complete`` for the request: blocks continued
        since that dispatch never refreshed the parked row, and the
        callback is overwrite-only, so the replay is idempotent and leaves
        the row as a dispatch at the last boundary would have.  Failed capacity
        stays provisioned — the bill keeps running — but is invisible to
        dispatch and to :meth:`remove_accelerators` until recovery.

        Victims are the highest-id warm accelerators (deterministic, and
        the inverse of NPU allocation order).  Draining victims retire
        permanently instead of entering the failed set.  Returns
        ``(failed_npus, killed)`` where ``failed_npus`` lists accelerators
        to hand back to :meth:`recover_accelerators` and ``killed`` pairs
        each killed npu with the request it was serving.
        """
        warm = sorted(set(self.idle) | set(self.running), reverse=True)
        if count is not None:
            warm = warm[:count]
        if not warm:
            return [], []
        self._accrue_cost(now)
        victims = set(warm)
        self.idle = [npu for npu in self.idle if npu not in victims]
        heapq.heapify(self.idle)
        failed: List[int] = []
        killed: List[Tuple[int, Request]] = []
        for npu in warm:
            request = self.running.pop(npu, None)
            if request is not None:
                self._block_epoch[npu] = self._block_epoch.get(npu, 0) + 1
                self.busy_time -= self._inflight_charge.pop(npu, 0.0)
                self.queue.append(request)
                if self._can_continue:
                    self.scheduler.on_layer_complete(request, now)
                self.fault_kills += 1
                killed.append((npu, request))
            self._last_on_npu.pop(npu, None)
            self._resident.pop(npu, None)
            self._resident_key.pop(npu, None)
            if npu in self._draining:
                # The drain completes by dying: the accelerator leaves the
                # pool for good and never enters the failed set.
                self._draining.discard(npu)
                self._provisioned -= 1
            else:
                self._failed[npu] = now
                failed.append(npu)
        return failed, killed

    def recover_accelerators(self, npus: Sequence[int], now: float) -> int:
        """Bring failed accelerators back into service (outage ended).

        Recovered accelerators come back cold (no resident weights) and
        idle; the downtime integral ``acc_seconds_lost`` absorbs their
        outage.  Returns how many actually came back (an npu may have
        left the failed set, e.g. via a run that ended first).
        """
        restored = 0
        for npu in sorted(npus):
            failed_at = self._failed.pop(npu, None)
            if failed_at is None:
                continue
            self.acc_seconds_lost += now - failed_at
            self._last_on_npu[npu] = None
            self._resident[npu] = None
            self._resident_key[npu] = None
            heapq.heappush(self.idle, npu)
            restored += 1
        return restored

    # -- placement-visible state (read by routers / admission) --------------

    def service_speed(self, request: Request) -> float:
        """Effective speed factor this pool serves ``request`` at."""
        return self._speeds.get(request.model_name, self.speed)

    def backlog(self) -> int:
        """Outstanding (queued + in-flight) requests in the pool."""
        return len(self.queue) + len(self.running)

    def pending(self) -> Iterator[Request]:
        """Queued plus in-flight requests (router/admission work estimates)."""
        yield from self.queue
        yield from self.running.values()

    # -- engine hooks -------------------------------------------------------

    def enqueue(self, request: Request, now: float) -> None:
        """Admit one routed request into the pool's ready queue."""
        self.queue.append(request)
        self.enqueued += 1
        self.scheduler.on_arrival(request, now)

    def dispatch(self, now: float, push_event: Callable[..., None]) -> None:
        """Hand queued requests to idle accelerators (lowest NPU id first).

        ``push_event(end_time, pool, npu, request, n_layers, dt)`` schedules
        the block-completion event on the cluster-wide event heap.
        """
        # Scoring lands in ``select`` and the completion-event push in
        # ``event_heap`` (timed inside _choose and _start_block); the rest
        # of the call — placement bookkeeping, entry and loop checks — in
        # ``dispatch``.
        prof = self._prof
        if prof is not None:
            t_in = perf_counter()
            sel_s0, heap_s0 = self._p_select_s, self._p_heap_s
        queue = self.queue
        while self.idle and queue:
            npu = heapq.heappop(self.idle)
            nq = len(queue)
            chosen = self._choose(now, nq)
            # Park the winner's row while it runs.
            queue.remove(chosen, requeue=True)
            self._start_block(now, npu, chosen, nq, push_event)
        if prof is not None:
            t_out = self._t_exit = perf_counter()
            self._p_dispatch_s += ((t_out - t_in)
                                   - (self._p_select_s - sel_s0)
                                   - (self._p_heap_s - heap_s0))
            self._p_dispatch_c += 1

    def _choose(self, now: float, nq: int) -> Request:
        """Decide among the ``nq`` queued requests through the scheduler's
        ``select_single`` / ``select_batch``; the winner's row stays live."""
        queue = self.queue
        scheduler = self.scheduler
        if self._prof is not None:
            t1 = perf_counter()
        if nq == 1:
            chosen = scheduler.select_single(queue, now)
        else:
            chosen = scheduler.select_batch(queue, now)
        if self._prof is not None:
            self._p_select_s += perf_counter() - t1
            self._p_select_c += 1
        return chosen

    def _start_block(self, now: float, npu: int, chosen: Request, nq: int,
                     push_event: Optional[Callable[..., None]],
                     ) -> Optional[Tuple[float, int, float]]:
        """Start half of the block lifecycle: run ``chosen`` on ``npu``.

        ``chosen`` was decided at queue depth ``nq``; nothing reads its
        ready-queue row until the block ends.  Counts the decision, books
        preemption and weight switches, charges the block's time, emits the
        select and execute spans and pushes the block-completion event.
        Shared by :meth:`dispatch` and the in-place decisions of
        :meth:`complete_block`, which pass no ``push_event`` and get the
        block's ``(end, layers, dt)`` back, to fold in place or push.
        """
        tracer = self._tracer
        self.invocations += 1
        if nq > self.max_queue_length:
            self.max_queue_length = nq
        if tracer is not None:
            tracer.emit(KIND_SELECT, now, pool=self.name, npu=npu,
                        rid=chosen.rid, args={"depth": nq})
        previous = self._last_on_npu[npu]
        if previous is not None and chosen is not previous and not previous.is_done:
            self.preemptions += 1
        self._last_on_npu[npu] = chosen
        if chosen.first_dispatch_time is None:
            chosen.first_dispatch_time = now
            self.dispatched += 1
            if tracer is not None:
                tracer.emit(KIND_QUEUE, chosen.arrival,
                            now - chosen.arrival, pool=self.name,
                            rid=chosen.rid)
        elif (tracer is not None and chosen.next_layer > 0
                and now > chosen.last_run_end):
            # Stall span: gap since this rid's previous execute span
            # ended (emitted retroactively at re-dispatch).
            tracer.emit(KIND_PREEMPT, chosen.last_run_end,
                        now - chosen.last_run_end, pool=self.name,
                        npu=npu, rid=chosen.rid)
        start = now
        if chosen is not self._resident[npu]:
            if self.switch_cost > 0.0:
                if tracer is not None:
                    tracer.emit(KIND_SWITCH, now, self.switch_cost,
                                pool=self.name, npu=npu, rid=chosen.rid,
                                args={"key": chosen._key})
                start += self.switch_cost
            self._resident[npu] = chosen
            if chosen.key != self._resident_key[npu]:
                chosen.num_weight_loads += 1
                self._resident_key[npu] = chosen.key
                if self._energy is not None:
                    self.joules_busy += self._energy.switch_energy(chosen.key)
        nl = chosen.next_layer
        layers = min(self.block_size, chosen.num_layers - nl)
        speed = self._speeds.get(chosen.model_name, self.speed)
        if self._slowdown != 1.0:
            # Straggler window: multiplicative service-*time* factor.
            speed /= self._slowdown
        if layers == 1:
            dt = chosen.layer_latencies[nl] / speed
        else:
            dt = seqsum(chosen.layer_latencies[nl:nl + layers]) / speed
        self.running[npu] = chosen
        self.busy_time += (start - now) + dt
        if self._fault_mode:
            # Remember the optimistic charge so a mid-block kill can
            # subtract the work that never happened.
            self._inflight_charge[npu] = (start - now) + dt
        if tracer is not None:
            # Span from decision to block end: switch cost included.
            tracer.emit(KIND_EXECUTE, now, (start + dt) - now,
                        pool=self.name, npu=npu, rid=chosen.rid,
                        args={"layers": layers, "key": chosen._key})
        if self._prof is None and push_event is not None:
            push_event(start + dt, self, npu, chosen, layers, dt)
        elif push_event is None:
            return start + dt, layers, dt
        else:
            t_push = perf_counter()
            push_event(start + dt, self, npu, chosen, layers, dt)
            self._p_heap_s += perf_counter() - t_push
            self._p_heap_c += 1

    def complete_block(self, now: float, npu: int, request: Request,
                       layers: int, dt: float,
                       t_entry: Optional[float] = None,
                       push_event: Optional[Callable[..., None]] = None,
                       horizon: Optional[Callable[[], float]] = None,
                       ) -> bool:
        """Fold one finished layer block back into the pool.

        Returns True when the request finished all its layers (the caller
        owns completion accounting), else False.  ``t_entry`` lets a
        profiling caller hand over its last clock read so the call
        transition is attributed instead of falling between brackets; the
        pool leaves its own last read in ``_t_exit`` for the caller's next
        bracket to open with.

        A caller passes ``push_event`` only at a *settled* boundary: no
        arrival is due at ``now``, no other pool is left undispatched and
        the wake is armed, so its dispatch pass would serve ``npu`` alone.
        The pool then takes that decision itself, and ``npu`` is busy again
        on return exactly when the caller's pass has nothing left to do:

        * An unfinished request on ``npu`` (not draining, no lower idle id)
          re-enters the queue, ``on_layer_complete`` and the router's
          ``note_progress`` run, and ``npu`` is decided through the steps
          :meth:`dispatch` uses: select, ``remove(requeue=True)``,
          :meth:`_start_block`.  A lone request under a drain-safe
          scheduler needs no round trip: :meth:`_continue_lone` runs its
          forced blocks without the ready queue and the overwrite-only
          ``on_layer_complete`` (which writes nothing while its row is
          parked; :meth:`fail_accelerators` repairs the parked row this
          leaves stale).
        * A finished request frees ``npu``; with requests queued, the pool
          dispatches it at once.  This boundary folds nothing further: the
          caller's completion accounting must come before later blocks'
          ``note_progress``.

        ``horizon()`` is the earliest time anything else could happen (the
        caller's heap top, next arrival and next telemetry sample, each
        with the tie rule the caller's loop applies), read once per
        stretch.  A block decided in place that ends before it and leaves
        its request unfinished is folded in place and ``npu`` is decided
        again, so a stretch of settled boundaries costs one heap event: the
        pool pushes the first block that ends at or past the horizon or
        finishes its request.  Nothing the decisions read changes before
        the horizon: no arrival joins the queue, no autoscaler tick marks
        ``npu`` draining and no other accelerator frees up.  Every block
        keeps its own fold, decision, router ``note_progress``, counts,
        charges and spans, in the order the heap would have produced them.
        Nothing reads the ready queue between a decision and the next
        boundary either, so a winner that is the request that just ran
        keeps its row live and has it refreshed at the next boundary; the
        row is parked only when the stretch pushes its block, which leaves
        the live rows as a park and re-admit would.
        """
        prof = self._prof
        if prof is not None:
            t_ex = t_entry if t_entry is not None else perf_counter()
        queue = self.queue
        until = None
        live = False  # whether ``request``'s row is live (a re-winner's)
        while True:
            # Fold half of the block lifecycle: the block of ``layers``
            # that ``request`` ran on ``npu`` ended at ``now``.
            if self._energy is not None:
                self.joules_busy += self._energy.block_energy(
                    request, request.next_layer, layers, dt
                )
            request.next_layer += layers
            request.executed_time += dt
            request.last_run_end = now
            # A re-decided npu is re-inserted too: float sums over pending()
            # follow ``running``'s insertion order, which must match
            # dispatch's.
            del self.running[npu]
            if (push_event is None or request.next_layer >= request._num_layers
                    or npu in self._draining
                    or (self.idle and self.idle[0] < npu)):
                break
            if until is None:
                if prof is not None:
                    t0 = perf_counter()
                    self._p_execute_s += t0 - t_ex
                    self._p_execute_c += 1
                    sel_s0, heap_s0 = self._p_select_s, self._p_heap_s
                until = horizon()
            if self._can_continue and not queue._n:
                # The queue stays empty up to the horizon, so every
                # decision of the stretch is forced.
                chosen = request
                end, layers, dt = self._continue_lone(now, npu, request, until)
            else:
                if live:
                    queue.update_progress(request)
                else:
                    # Re-admit before the monitor callback so converted
                    # schedulers can refresh the request's row.
                    queue.append(request)
                self.scheduler.on_layer_complete(request, now)
                if self._note_progress is not None:
                    self._note_progress(self, request)
                nq = queue._n
                chosen = self._choose(now, nq)
                live = chosen is request
                if not live:
                    queue.remove(chosen, requeue=True)
                self.in_place_blocks += 1
                end, layers, dt = self._start_block(now, npu, chosen, nq, None)
                if end < until and chosen.next_layer + layers < chosen._num_layers:
                    now, request = end, chosen
                    continue
                if live:
                    queue.remove(chosen, requeue=True)
            if prof is None:
                push_event(end, self, npu, chosen, layers, dt)
                return False
            t_push = perf_counter()
            push_event(end, self, npu, chosen, layers, dt)
            t1 = self._t_exit = perf_counter()
            self._p_heap_s += t1 - t_push
            self._p_heap_c += 1
            self._p_dispatch_s += ((t1 - t0) - (self._p_select_s - sel_s0)
                                   - (self._p_heap_s - heap_s0))
            self._p_dispatch_c += 1
            return False
        if npu in self._draining:
            # Drain-before-remove: the block finished, the request lives on
            # (requeued or complete below); only the accelerator retires.
            self._draining.discard(npu)
            self._accrue_cost(now)
            self._provisioned -= 1
            self._last_on_npu.pop(npu, None)
            self._resident.pop(npu, None)
            self._resident_key.pop(npu, None)
        else:
            heapq.heappush(self.idle, npu)
        if prof is not None:
            t0 = perf_counter()
            self._p_execute_s += t0 - t_ex
            self._p_execute_c += 1
        if request.is_done:
            queue.forget(request.rid)
            self.scheduler.on_layer_complete(request, now)
            request.finish_time = now
            self.completed += 1
            self.scheduler.on_complete(request, now)
            if self._tracer is not None:
                self._tracer.emit(
                    KIND_VIOLATE if request.violated else KIND_COMPLETE,
                    now, pool=self.name, npu=npu, rid=request.rid,
                )
            if prof is not None:
                t1 = self._t_exit = perf_counter()
                self._p_queue_s += t1 - t0
                self._p_queue_c += 1
            if push_event is not None and queue and self.idle:
                # Settled, so the queue was waiting on a busy pool: the
                # freed npu is the only idle one and the next decision.
                self.in_place_blocks += 1
                self.dispatch(now, push_event)
            return True
        # Re-admit before the monitor callback so converted schedulers can
        # refresh the request's row (parked at dispatch, aux state intact).
        queue.append(request)
        self.scheduler.on_layer_complete(request, now)
        if self._note_progress is not None:
            self._note_progress(self, request)
        if prof is not None:
            t1 = self._t_exit = perf_counter()
            self._p_queue_s += t1 - t0
            self._p_queue_c += 1
        return False

    def _continue_lone(self, now: float, npu: int, request: Request,
                       until: float) -> Tuple[float, int, float]:
        """Run the forced blocks of ``request``, alone in the pool and
        resident on ``npu``, from ``now`` on.

        Each block is the decision and start :meth:`_start_block` makes for
        a singleton queue (no preemption, switch, queue wait or stall, as
        ``request`` last ran on ``npu``, and no new maximum depth): the
        router's ``note_progress``, the select span at depth 1, the execute
        span, ``busy_time`` and the invocation, continued and in-place
        counts.  A block that ends before ``until`` and leaves the
        request unfinished is folded here as :meth:`complete_block` would
        (energy, then progress); the first one that does not stays running
        on ``npu``, and its ``(end, layers, dt)`` is returned for the
        caller to push.  Nothing reads the floats and counts carried in
        locals before the horizon, so they are written back once.  A
        non-trivial ``select_single`` runs once per stretch: it is
        idempotent on a singleton (``single_drain_safe``).
        """
        scheduler = self.scheduler
        if not scheduler.trivial_single:
            # Per-select state (the current or resident request) must
            # follow the forced decisions as a dispatch would.
            scheduler.select_single((request,), now)
        energy = self._energy
        note_progress = self._note_progress
        tracer = self._tracer
        block_size = self.block_size
        lats = request.layer_latencies
        num_layers = request._num_layers
        speed = self._speeds.get(request.model_name, self.speed)
        if self._slowdown != 1.0:
            speed /= self._slowdown
        nl = request.next_layer
        executed = request.executed_time
        busy = self.busy_time
        joules = self.joules_busy
        blocks = 0
        while True:
            blocks += 1
            if note_progress is not None:
                note_progress(self, request)
            layers = num_layers - nl
            if layers > block_size:
                layers = block_size
            if layers == 1:
                dt = lats[nl] / speed
            else:
                dt = seqsum(lats[nl:nl + layers]) / speed
            busy += dt
            end = now + dt
            if tracer is not None:
                tracer.emit(KIND_SELECT, now, pool=self.name, npu=npu,
                            rid=request.rid, args={"depth": 1})
                tracer.emit(KIND_EXECUTE, now, end - now, pool=self.name,
                            npu=npu, rid=request.rid,
                            args={"layers": layers, "key": request._key})
            if end >= until or nl + layers >= num_layers:
                break
            if energy is not None:
                joules += energy.block_energy(request, nl, layers, dt)
            nl += layers
            request.next_layer = nl
            executed += dt
            now = end
        request.executed_time = executed
        request.last_run_end = now
        self.busy_time = busy
        self.joules_busy = joules
        self.invocations += blocks
        self.continued_blocks += blocks
        self.in_place_blocks += blocks
        self.running[npu] = request
        if self._fault_mode:
            self._inflight_charge[npu] = dt
        return end, layers, dt


def check_unique_names(pools: List[Pool]) -> None:
    """Validate a pool list for the cluster engine."""
    if not pools:
        raise SchedulingError("cannot simulate a cluster without pools")
    names = [p.name for p in pools]
    if len(set(names)) != len(names):
        raise SchedulingError(f"pool names must be unique, got {names}")
    # Schedulers carry per-run state and a binding to one pool's ready
    # queue, so instances must not be shared between pools — a shared
    # instance would score one pool's queue with another pool's cached
    # state.
    seen: Dict[int, str] = {}
    for pool in pools:
        owner = seen.setdefault(id(pool.scheduler), pool.name)
        if owner != pool.name:
            raise SchedulingError(
                f"pools {owner!r} and {pool.name!r} share one scheduler "
                "instance; construct a separate scheduler per pool"
            )
