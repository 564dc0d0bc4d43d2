"""Golden schedule-equivalence tests: every engine against the reference.

The engines run every policy on one path: the array-backed ready queue,
with decisions through ``select_single``/``select_batch`` (a converted
policy's kernels and singleton drain, or the checked ``select`` for a policy
without kernels).  They must produce the *identical completion schedule* —
same completion order, bit-identical finish times, same makespan/preemption/
invocation counts — as the list-queue references: ``simulate_reference``
for ``simulate``, and the test-side ``ReferencePool`` for the pools.  The
kernels replicate the scalar arithmetic operation-for-operation, so these
tests require exact equality, not approximation.

Covered: every registered policy, the fp16 score-quantization mode, the
switch-cost-aware Dysta variant, switch_cost/block_size engine variants, the
small-queue tight loop *and* the large-queue numpy path (forced via
``numpy_min_queue``), mixed attnn+cnn workloads on real profiled traces, the
multi-accelerator engine, and the cluster tier.
"""

import dataclasses

import pytest

from repro.cluster import (
    AdmissionController,
    Autoscaler,
    Pool,
    build_router,
    make_autoscaler,
    simulate_cluster,
)
from repro.cluster.policies import AutoscalePolicy
from repro.energy import EnergyAccountant
from repro.errors import HardwareModelError, SchedulingError
from repro.core.lut import ModelInfoLUT
from repro.faults import FaultEvent, FaultSpec
from repro.faults.spec import KIND_OUTAGE
from repro.obs import ListSink, Observability
from repro.obs.bus import ENGINE_LANE
from repro.profiling.profiler import benchmark_suite
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.engine import simulate, simulate_reference
from repro.sim.multi import simulate_multi
from repro.sim.ready_queue import ReadyQueue
from repro.sim.workload import WorkloadSpec, generate_workload

from conftest import ReferencePool, make_request

#: Policies with a vectorized select (dysta_switchaware gets switch_cost).
CONVERTED = (
    "dysta",
    "dysta_nosparse",
    "dysta_switchaware",
    "dysta_static",
    "sjf",
    "fcfs",
    "prema",
    "sdrm3",
    "oracle",
    "energy_edp",
    "planaria",
)


#: Converted policies that pools may continue in place (single_drain_safe).
DRAIN_SAFE = tuple(name for name in CONVERTED if name != "prema")


def scheduler_for(name, lut, **extra):
    kwargs = {"switch_cost": 0.002} if name == "dysta_switchaware" else {}
    kwargs.update(extra)
    return make_scheduler(name, lut, **kwargs)


def toy_workload(toy_traces, n=120, rate=150.0, seed=0):
    """Overloaded toy stream: queues build up, so selection really decides."""
    spec = WorkloadSpec(rate, n_requests=n, slo_multiplier=5.0, seed=seed)
    return generate_workload(toy_traces, spec)


def reference_multi(requests, scheduler, *, num_accelerators=2, **kw):
    """``simulate_multi`` on the reference pool."""
    pool = ReferencePool(ENGINE_LANE, scheduler, num_accelerators, **kw)
    return simulate_cluster(requests, [pool], "round-robin")


class HeapOnlyPool(Pool):
    """The production pool with every block boundary taken through the
    event heap and the engine's dispatch pass: each decision parks its
    winner's row and each boundary re-admits it, so no row stays live
    across a block and no forced block skips the ready queue."""

    def complete_block(self, now, npu, request, layers, dt, t_entry=None,
                       push_event=None, horizon=None):
        return super().complete_block(now, npu, request, layers, dt, t_entry)


def counting_appends(pool_cls):
    """``pool_cls`` with a count of its ready queue's ``append`` calls."""

    class Counting(pool_cls):
        def reset(self):
            super().reset()
            self.appends = 0
            append = self.queue.append

            def counted(request):
                self.appends += 1
                return append(request)

            self.queue.append = counted

    return Counting


def assert_identical(a, b):
    assert [r.rid for r in a.requests] == [r.rid for r in b.requests]
    assert [r.finish_time for r in a.requests] == [r.finish_time for r in b.requests]
    assert a.makespan == b.makespan
    assert a.num_preemptions == b.num_preemptions
    assert a.num_scheduler_invocations == b.num_scheduler_invocations
    assert a.max_queue_length == b.max_queue_length


class TestSingleEngineEquivalence:
    @pytest.mark.parametrize("name", CONVERTED)
    def test_tight_loop_matches_scalar(self, toy_traces, toy_lut, name):
        scalar = simulate_reference(toy_workload(toy_traces),
                                    scheduler_for(name, toy_lut))
        batch = simulate(toy_workload(toy_traces), scheduler_for(name, toy_lut))
        assert_identical(scalar, batch)

    @pytest.mark.parametrize("name", CONVERTED)
    def test_numpy_path_matches_scalar(self, toy_traces, toy_lut, name):
        scalar = simulate_reference(toy_workload(toy_traces),
                                    scheduler_for(name, toy_lut))
        sched = scheduler_for(name, toy_lut)
        # Force the numpy branch at any depth (the cache would take it).
        sched.numpy_min_queue = 2
        sched.incremental = False
        batch = simulate(toy_workload(toy_traces), sched)
        assert_identical(scalar, batch)

    @pytest.mark.parametrize("name", ("dysta", "sjf", "prema"))
    @pytest.mark.parametrize("engine_kw", (
        {"switch_cost": 0.001},
        {"block_size": 3},
        {"switch_cost": 0.0005, "block_size": 2},
    ))
    def test_engine_variants(self, toy_traces, toy_lut, name, engine_kw):
        scalar = simulate_reference(toy_workload(toy_traces),
                                    scheduler_for(name, toy_lut), **engine_kw)
        batch = simulate(toy_workload(toy_traces), scheduler_for(name, toy_lut),
                         **engine_kw)
        assert_identical(scalar, batch)

    def test_fp16_score_quantization(self, toy_traces, toy_lut):
        # The hardware scheduler computes scores in FP16 (Sec 5.2.2); the
        # vectorized path must quantize at the same points as the scalar one.
        scalar = simulate_reference(
            toy_workload(toy_traces),
            make_scheduler("dysta", toy_lut, score_dtype="fp16"))
        batch = simulate(toy_workload(toy_traces),
                         make_scheduler("dysta", toy_lut, score_dtype="fp16"))
        assert_identical(scalar, batch)

    def test_switchaware_with_engine_switch_cost(self, toy_traces, toy_lut):
        kw = {"switch_cost": 0.002}
        scalar = simulate_reference(toy_workload(toy_traces),
                                    scheduler_for("dysta_switchaware", toy_lut),
                                    **kw)
        batch = simulate(toy_workload(toy_traces),
                         scheduler_for("dysta_switchaware", toy_lut), **kw)
        assert_identical(scalar, batch)


class TestMultiEngineEquivalence:
    @pytest.mark.parametrize("name", ("dysta", "prema", "sdrm3", "fcfs", "oracle"))
    def test_two_accelerators(self, toy_traces, toy_lut, name):
        scalar = reference_multi(toy_workload(toy_traces),
                                 scheduler_for(name, toy_lut),
                                 num_accelerators=2)
        batch = simulate_multi(toy_workload(toy_traces),
                               scheduler_for(name, toy_lut),
                               num_accelerators=2)
        assert_identical(scalar, batch)

    def test_switch_cost_and_blocks(self, toy_traces, toy_lut):
        kw = {"num_accelerators": 3, "switch_cost": 0.001, "block_size": 2}
        scalar = reference_multi(toy_workload(toy_traces),
                                 scheduler_for("dysta", toy_lut), **kw)
        batch = simulate_multi(toy_workload(toy_traces),
                               scheduler_for("dysta", toy_lut), **kw)
        assert_identical(scalar, batch)


def two_bursts(toy_traces, n=80, rate=2000.0):
    """Two overloaded bursts, the second 10 s after the first's last
    arrival: the queue goes deep, drains to empty, and goes deep again."""
    first = toy_workload(toy_traces, n=n, rate=rate, seed=1)
    spec = WorkloadSpec(rate, n_requests=n, slo_multiplier=5.0, seed=2,
                        start_time=first[-1].arrival + 10.0)
    return first + [dataclasses.replace(r, rid=r.rid + n)
                    for r in generate_workload(toy_traces, spec)]


class TestLazyVectorization:
    """The ready queue fills its numpy columns only when a numpy kernel
    reads them (``ReadyQueue.vectorize``), and leaves that mode when the
    live queue empties; the schedule must not notice either."""

    @staticmethod
    def runs(toy_lut, name, workload):
        """``(reference, result, scheduler)`` on ``simulate`` and on a
        two-NPU pool."""
        for engine, reference in ((simulate, simulate_reference),
                                  (simulate_multi, reference_multi)):
            sched = scheduler_for(name, toy_lut)
            result = engine(workload(), sched)
            yield reference(workload(), scheduler_for(name, toy_lut)), result, sched

    @pytest.mark.parametrize("name", CONVERTED)
    def test_shallow_run_makes_no_copy(self, toy_traces, toy_lut, name):
        def workload():
            return toy_workload(toy_traces, n=60, rate=60.0)

        for ref, result, sched in self.runs(toy_lut, name, workload):
            assert_identical(ref, result)
            assert result.max_queue_length < sched.numpy_min_queue
            assert sched._bound.num_vectorized == 0

    @pytest.mark.parametrize("name", CONVERTED)
    def test_deep_drain_deep_copies_twice(self, toy_traces, toy_lut, name):
        def workload():
            return two_bursts(toy_traces)

        for ref, result, sched in self.runs(toy_lut, name, workload):
            assert_identical(ref, result)
            assert result.max_queue_length >= sched.numpy_min_queue
            assert sched._bound.num_vectorized >= 2

    def test_prema_list_kernel_keeps_numpy_twins(self, toy_lut):
        # A vectorized queue that falls below the numpy gate runs prema's
        # list kernel, whose token writes must reach the numpy twins the
        # next numpy decision reads.
        sched = make_scheduler("prema", toy_lut)
        queue = ReadyQueue(toy_lut, columns=sched.batch_columns)
        sched.bind_queue(queue)
        requests = [make_request(rid=i) for i in range(40)]
        for request in requests:
            queue.add(request)
            sched.on_arrival(request, 0.0)
        sched.select_batch(queue, 0.001)  # numpy branch
        for request in requests[10:]:
            queue.remove(request)
        sched.select_batch(queue, 0.002)  # list kernel, still vectorized
        assert queue.num_vectorized == 1
        for name in ("prema_tokens", "prema_last_update"):
            assert list(queue.aux_np(name)[:10]) == queue.aux_list(name)[:10]


def schedule(result):
    """Completion schedule plus the decision counters, order-free."""
    return (sorted((r.rid, r.finish_time) for r in result.requests),
            result.num_preemptions, result.num_scheduler_invocations,
            result.max_queue_length)


class TestEveryPolicy:
    @pytest.mark.parametrize("name", available_schedulers())
    @pytest.mark.parametrize("block_size, switch_cost", ((1, 0.0), (2, 0.002)))
    def test_engines_match_reference(self, toy_traces, toy_lut, name,
                                     block_size, switch_cost):
        kw = {"block_size": block_size, "switch_cost": switch_cost}

        def run(engine, **extra):
            return schedule(engine(toy_workload(toy_traces),
                                   scheduler_for(name, toy_lut), **kw, **extra))

        assert run(simulate) == run(simulate_reference)
        for n in (1, 2):
            assert (run(simulate_multi, num_accelerators=n)
                    == run(reference_multi, num_accelerators=n))

    @pytest.mark.parametrize("name", CONVERTED)
    def test_converted_policies_never_call_select(self, toy_traces, toy_lut,
                                                  name):
        # Every request has a LUT entry, so each decision must come from the
        # kernels; a policy that lost them would still pass the schedule
        # checks above by running its spec.
        for engine, kw in ((simulate, {}), (simulate_multi, {"num_accelerators": 2})):
            sched = scheduler_for(name, toy_lut)
            calls = []
            spec = sched.select

            def counting(queue, now):
                calls.append(now)
                return spec(queue, now)

            sched.select = counting
            result = engine(toy_workload(toy_traces), sched, **kw)
            assert len(result.requests) == 120
            assert calls == [], engine.__name__

    @pytest.mark.parametrize("name", available_schedulers())
    def test_trivial_single_is_derived(self, toy_lut, name):
        sched = scheduler_for(name, toy_lut)
        first = type(sched).select_single is Scheduler.select_first
        assert sched.trivial_single is first
        assert first == (name in TRIVIAL_SINGLE)


#: Policies whose one-request decision is ``Scheduler.select_first``.
TRIVIAL_SINGLE = ("dysta", "dysta_nosparse", "dysta_static", "oracle",
                  "planaria", "sdrm3", "sjf")

#: How a run meets a request whose key the LUTs lack: the error class and
#: message it raises, or None when it completes.
NO_ENTRY = (SchedulingError, "no LUT entry for 'alexnet/dense'")
UNKNOWN_MODEL_OUTCOME = {
    "dysta": NO_ENTRY,
    "dysta_hw": (HardwareModelError, "no LUT entry for 'alexnet/dense'"),
    "dysta_nosparse": NO_ENTRY,
    "dysta_static": NO_ENTRY,
    "dysta_switchaware": NO_ENTRY,
    "edf": None,
    "energy_edp": (SchedulingError, "no energy LUT entry for 'alexnet/dense'"),
    "energy_powercap": (SchedulingError,
                        "no energy LUT entry for 'alexnet/dense'"),
    "fcfs": None,
    "las": None,
    "oracle": None,
    "planaria": NO_ENTRY,
    "prema": NO_ENTRY,
    "round_robin": None,
    "sdrm3": NO_ENTRY,
    "sjf": NO_ENTRY,
    "srpt_oracle": None,
}


class TestUnknownModel:
    """A request whose (model, pattern) key the LUT lacks, mid-stream: each
    policy raises its estimators' error or completes, on every engine."""

    @staticmethod
    def workload(toy_traces):
        spec = WorkloadSpec(150.0, n_requests=30, slo_multiplier=5.0, seed=0)
        requests = generate_workload(toy_traces, spec)
        requests.append(make_request(rid=30, model="alexnet",
                                     arrival=requests[14].arrival))
        return requests

    @pytest.mark.parametrize("engine", ("simulate", "multi", "cluster"))
    @pytest.mark.parametrize("name", available_schedulers())
    def test_outcome(self, toy_traces, toy_lut, name, engine):
        def run():
            requests = self.workload(toy_traces)
            if engine == "simulate":
                return simulate(requests, make_scheduler(name, toy_lut))
            if engine == "multi":
                return simulate_multi(requests, make_scheduler(name, toy_lut),
                                      num_accelerators=2)
            pools = [Pool(p, make_scheduler(name, toy_lut), 1) for p in "ab"]
            return simulate_cluster(requests, pools,
                                    build_router("jsq", toy_lut))

        outcome = UNKNOWN_MODEL_OUTCOME[name]
        if outcome is None:
            assert len(run().requests) == 31
            return
        error, message = outcome
        with pytest.raises(error) as info:
            run()
        assert type(info.value) is error
        assert str(info.value) == message


class TestClusterEquivalence:
    @pytest.mark.parametrize("name", ("dysta", "prema"))
    def test_pool_batch_matches_scalar(self, toy_traces, toy_lut, name):
        def run(pool_cls):
            reqs = toy_workload(toy_traces)
            pools = [
                pool_cls("a", scheduler_for(name, toy_lut), 2),
                pool_cls("b", scheduler_for(name, toy_lut), 1),
            ]
            return simulate_cluster(reqs, pools, "jsq")

        scalar = run(ReferencePool)
        batch = run(Pool)
        assert {r.rid: r.finish_time for r in scalar.requests} == {
            r.rid: r.finish_time for r in batch.requests
        }
        assert scalar.makespan == batch.makespan
        assert scalar.num_preemptions == batch.num_preemptions

    # A pool whose lone request finishes a block starts its next block on
    # the same accelerator (Pool.complete_block); the reference pool never
    # does, so it is the reference for the continuation's two invariants.

    @pytest.mark.parametrize("name", ("dysta", "sjf", "fcfs", "energy_edp"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_continuation_keeps_running_order(self, mixed_world, name, seed):
        # The SLO guard, predictive autoscaler and router sum floats over
        # Pool.pending(), i.e. over ``running`` in insertion order, so an
        # npu decided in place must move to the end exactly as complete +
        # dispatch moves it, whether the queue is empty (a continuation)
        # or not.  Three accelerators: with two, the completing npu has
        # already left ``running`` whenever admission looks.
        traces, lut = mixed_world

        class Recording(AdmissionController):
            def admit(self, request, pool, now):
                self.seen.append((list(pool.running),
                                  sorted(r.rid for r in pool.queue)))
                return None

        def run(pool_cls):
            admission = Recording()
            admission.seen = []
            pool = pool_cls("a", scheduler_for(name, lut), 3)
            spec = WorkloadSpec(9.0, n_requests=150, slo_multiplier=10.0, seed=seed)
            result = simulate_cluster(generate_workload(traces, spec), [pool],
                                      admission=admission)
            return admission.seen, result

        scalar_seen, scalar = run(ReferencePool)
        batch_seen, batch = run(Pool)
        assert batch.num_continued_blocks > 0
        assert batch.num_in_place_blocks > batch.num_continued_blocks
        assert scalar.num_in_place_blocks == scalar.num_continued_blocks == 0
        assert batch_seen == scalar_seen

    @pytest.mark.parametrize("name", DRAIN_SAFE)
    @pytest.mark.parametrize("rate", (3.0, 6.0))
    def test_continuation_matches_scalar_full_stack(self, mixed_world, name, rate):
        # Per-select state (fcfs's current request, energy_edp's resident
        # key, dysta_switchaware's resident rid) must follow every continued
        # decision; everything that reads pool state rides along.
        traces, lut = mixed_world
        accountant = EnergyAccountant.from_model_lut(lut)

        def run(pool_cls):
            pools = [pool_cls(p, scheduler_for(name, lut), 2, switch_cost=0.001)
                     for p in ("a", "b")]
            sink = ListSink()
            spec = WorkloadSpec(rate, n_requests=300, slo_multiplier=10.0, seed=1)
            result = simulate_cluster(
                generate_workload(traces, spec), pools,
                build_router("predictive", lut),
                admission=AdmissionController(slo_guard=True, lut=lut),
                autoscaler=make_autoscaler("predictive", lut=lut),
                energy=accountant, obs=Observability(sinks=[sink]),
            )
            spans = [(e.kind, e.time, e.dur, e.pool, e.npu, e.rid, e.args)
                     for e in sink.events]
            stats = [(s.busy_time, s.joules_busy, s.acc_seconds_provisioned)
                     for s in result.pool_stats.values()]
            return result, spans, stats

        scalar, scalar_spans, scalar_stats = run(ReferencePool)
        batch, batch_spans, batch_stats = run(Pool)
        assert batch.num_continued_blocks > 0
        assert [(r.rid, r.finish_time) for r in batch.requests] == [
            (r.rid, r.finish_time) for r in scalar.requests
        ]
        assert batch_stats == scalar_stats
        assert batch_spans == scalar_spans

    # A continuation folds the blocks that end before the engine's horizon
    # in place.  The horizon's next-arrival and heap-top terms are pinned
    # by the full-stack tests above; the telemetry term and the heap top's
    # tie rule need the two tests below.

    @pytest.mark.parametrize("name", ("dysta", "sjf", "energy_edp"))
    @pytest.mark.parametrize("num_npus", (1, 2))
    def test_fold_stops_at_telemetry_samples(self, mixed_world, name, num_npus):
        # Without an autoscaler no tick stops a stretch at a grid point, so
        # only the telemetry term keeps a sample from reading the metered
        # joules of blocks that end after it.
        traces, lut = mixed_world
        accountant = EnergyAccountant.from_model_lut(lut)

        def run(pool_cls):
            pool = pool_cls("p", scheduler_for(name, lut), num_npus)
            obs = Observability(telemetry=0.05)
            spec = WorkloadSpec(3.0, n_requests=150, slo_multiplier=10.0, seed=1)
            result = simulate_cluster(generate_workload(traces, spec), [pool],
                                      energy=accountant, obs=obs)
            return result, obs.telemetry.to_table()

        scalar, scalar_series = run(ReferencePool)
        batch, batch_series = run(Pool)
        assert batch.num_continued_blocks > 0
        assert schedule(batch) == schedule(scalar)
        assert "p_joules_busy" in batch_series
        assert batch_series == scalar_series

    def test_fold_stops_at_a_tied_heap_top(self, toy_lut):
        # Two clones dispatched together end every block at the same time.
        # An event already on the heap at a block's end pops first, so the
        # second accelerator's block must not fold past the first's event.
        def run(pool_cls):
            requests = [make_request(rid=rid, model="long", slo=10.0,
                                     latencies=(0.01,) * 3,
                                     sparsities=(0.3,) * 3)
                        for rid in (0, 1)]
            sink = ListSink()
            pool = pool_cls("p", scheduler_for("sjf", toy_lut), 2)
            result = simulate_cluster(requests, [pool],
                                      obs=Observability(sinks=[sink]))
            return result, [(e.kind, e.time, e.dur, e.npu, e.rid, e.args)
                            for e in sink.events]

        scalar, scalar_spans = run(ReferencePool)
        batch, batch_spans = run(Pool)
        assert batch.num_continued_blocks == 4
        assert schedule(batch) == schedule(scalar)
        assert batch_spans == scalar_spans

    def test_in_place_folds_skip_the_heap(self, monkeypatch, mixed_world):
        # A lone request's blocks fold in place: fewer block events reach
        # Pool.complete_block than blocks run.
        traces, lut = mixed_world
        calls = []
        complete_block = Pool.complete_block

        def counting(self, *args, **kwargs):
            calls.append(self.name)
            return complete_block(self, *args, **kwargs)

        monkeypatch.setattr(Pool, "complete_block", counting)
        spec = WorkloadSpec(3.0, n_requests=100, slo_multiplier=10.0, seed=1)
        result = simulate_cluster(generate_workload(traces, spec),
                                  [Pool("p", scheduler_for("dysta", lut), 1)])
        assert 0 < len(calls) < result.num_scheduler_invocations

    @pytest.mark.parametrize("name", ("dysta", "energy_edp"))
    def test_faulted_sweep_cell_matches_scalar(self, monkeypatch, name):
        # An outage re-queues a killed request from the stash its last real
        # dispatch left; blocks continued since then never refreshed it.
        # The perfbench sweep configuration hits exactly that.
        import repro.cluster
        from repro.scenarios import SweepConfig
        from repro.scenarios.runner import _run_cell

        config = SweepConfig(
            scenarios=("multi_tenant",), schedulers=(name,), seeds=(2,),
            duration=12.0, n_profile_samples=100, engine="cluster",
            pool_size=2, autoscale="reactive", max_queue_depth=64,
            energy=True, telemetry_interval=1.0, alerts=True, faults="chaos",
        )
        cell = ("multi_tenant", name, 2, config)
        _, batch = _run_cell(cell)

        monkeypatch.setattr(repro.cluster, "Pool", ReferencePool)
        _, scalar = _run_cell(cell)
        assert batch == scalar

    @pytest.mark.parametrize("name", ("fcfs", "energy_edp", "dysta_switchaware"))
    def test_lone_stretch_selects_once(self, mixed_world, name):
        # A policy whose select_single keeps per-select state hears it once
        # per stretch of a lone request's forced blocks (the call is
        # idempotent on a singleton), not once per block.
        traces, lut = mixed_world
        spec = WorkloadSpec(3.0, n_requests=100, slo_multiplier=10.0, seed=1)
        sched = scheduler_for(name, lut)
        calls = []
        select_single = sched.select_single

        def counting(queue, now):
            calls.append(now)
            return select_single(queue, now)

        sched.select_single = counting
        batch = simulate_cluster(generate_workload(traces, spec),
                                 [Pool("p", sched, 1)])
        scalar = simulate_cluster(generate_workload(traces, spec),
                                  [ReferencePool("p", scheduler_for(name, lut), 1)])
        assert 0 < len(calls) < batch.num_continued_blocks
        assert schedule(batch) == schedule(scalar)

    @pytest.mark.parametrize("name", ("dysta", "fcfs", "energy_edp",
                                      "dysta_switchaware"))
    @pytest.mark.parametrize("num_npus", (1, 2))
    def test_lone_stretches_at_block_size_3(self, mixed_world, name, num_npus):
        # Most blocks run in a lone request's stretch: multi-layer blocks
        # (and a shorter last one) sum their latencies and price their
        # energy per block, each block reaches the predictive router (whose
        # work estimates place the next arrival) and emits its own spans,
        # and no telemetry sample may read a block folded past it.
        traces, lut = mixed_world
        accountant = EnergyAccountant.from_model_lut(lut)
        spec = WorkloadSpec(3.0, n_requests=120, slo_multiplier=10.0, seed=4)

        def run(pool_cls):
            pools = [pool_cls(p, scheduler_for(name, lut), num_npus, block_size=3)
                     for p in ("a", "b")]
            sink = ListSink()
            obs = Observability(sinks=[sink], telemetry=0.05)
            result = simulate_cluster(generate_workload(traces, spec), pools,
                                      build_router("predictive", lut),
                                      energy=accountant, obs=obs)
            stats = [(s.busy_time, s.joules_busy)
                     for s in result.pool_stats.values()]
            return result, (schedule(result), stats, spans(sink),
                            obs.telemetry.to_table())

        _, expected = run(ReferencePool)
        batch, got = run(Pool)
        assert 2 * batch.num_continued_blocks > batch.num_scheduler_invocations
        assert got == expected

    @pytest.mark.parametrize("name", CONVERTED)
    @pytest.mark.parametrize("num_npus", (2, 3))
    @pytest.mark.parametrize("rate", (6.0, 12.0))
    def test_live_rewinner_keeps_queue_layout(self, mixed_world, name,
                                              num_npus, rate):
        # A winner that is the request that just ran keeps its row live
        # through an in-place stretch and is parked only when the stretch
        # pushes its block.  Whenever anything outside the pool looks, the
        # live rows must sit in the slots that parking and re-admitting at
        # every boundary gives (parked rows may differ).
        traces, lut = mixed_world

        class Recording(AdmissionController):
            def admit(self, request, pool, now):
                self.seen.append(([r.rid for r in pool.queue],
                                  list(pool.running)))
                return None

        def run(pool_cls):
            admission = Recording()
            admission.seen = []
            pool = counting_appends(pool_cls)("a", scheduler_for(name, lut),
                                              num_npus)
            spec = WorkloadSpec(rate, n_requests=150, slo_multiplier=10.0, seed=1)
            result = simulate_cluster(generate_workload(traces, spec), [pool],
                                      admission=admission)
            return admission.seen, schedule(result), result, pool.appends

        heap_seen, expected, _, heap_appends = run(HeapOnlyPool)
        seen, got, batch, appends = run(Pool)
        # Every boundary the pool skipped re-admitting was a forced block
        # or a live re-winner's refresh; some were the latter.
        assert heap_appends - appends > batch.num_continued_blocks
        assert seen == heap_seen
        assert got == expected

    @pytest.mark.parametrize("name", available_schedulers())
    @pytest.mark.parametrize("num_npus", (2, 3))
    @pytest.mark.parametrize("block_size", (1, 2))
    @pytest.mark.parametrize("switch_cost", (0.0, 0.002))
    def test_in_place_decisions_match_reference(self, toy_traces, toy_lut, name,
                                                num_npus, block_size,
                                                switch_cost):
        # The differential run: queues well past numpy_min_queue, so in-place
        # decisions go through the selection cache, and everything the
        # pool charges, emits or exposes to telemetry must match the spec.
        accountant = EnergyAccountant.from_model_lut(toy_lut)
        spec = WorkloadSpec(400.0, n_requests=150, slo_multiplier=5.0, seed=2)

        def run(pool_cls):
            pool = pool_cls("p", scheduler_for(name, toy_lut), num_npus,
                            block_size=block_size, switch_cost=switch_cost)
            sink = ListSink()
            obs = Observability(sinks=[sink], telemetry=0.05)
            result = simulate_cluster(generate_workload(toy_traces, spec), [pool],
                                      energy=accountant, obs=obs)
            stats = result.pool_stats["p"]
            return (result, [(r.rid, r.finish_time) for r in result.requests],
                    (result.num_scheduler_invocations, result.num_preemptions,
                     stats.busy_time, stats.joules_busy),
                    spans(sink), obs.telemetry.to_table())

        scalar, *expected = run(ReferencePool)
        batch, *got = run(Pool)
        assert batch.max_queue_length >= Scheduler.numpy_min_queue
        assert batch.num_in_place_blocks > 0
        assert got == expected

    def test_shared_scheduler_instance_rejected(self, toy_traces, toy_lut):
        # A scheduler instance binds to one pool's queue (and carries
        # per-run state), so sharing it across pools must fail loudly.
        shared = make_scheduler("dysta", toy_lut)
        pools = [Pool("a", shared, 1), Pool("b", shared, 1)]
        with pytest.raises(SchedulingError, match="share one scheduler"):
            simulate_cluster(toy_workload(toy_traces, n=5), pools, "jsq")


def spans(sink):
    return [(e.kind, e.time, e.dur, e.pool, e.npu, e.rid, e.args)
            for e in sink.events]


def layered(rid, latencies, arrival=0.0):
    """A toy request with the given per-layer latencies."""
    return make_request(rid=rid, model="long", arrival=arrival, slo=10.0,
                        latencies=latencies,
                        sparsities=(0.3,) * len(latencies))


class _ShrinkOnce(AutoscalePolicy):
    """Marks one busy accelerator draining at the first tick."""

    def reset(self, pools):
        self.done = False

    def desired_capacity(self, pool, now, horizon):
        if self.done:
            return pool.provision_target
        self.done = True
        return pool.provision_target - 1


class TestInPlaceStretchStops:
    """A stretch of in-place decisions over a non-empty queue folds blocks
    only while nothing else could happen: each case below puts another
    event at or just after a block end inside such a stretch, and the pool
    must match the spec's heap-and-tail schedule, spans and telemetry."""

    @staticmethod
    def compare(requests, name, lut, num_npus, telemetry=None, **sim_kw):
        def run(pool_cls):
            sink = ListSink()
            obs = Observability(sinks=[sink], telemetry=telemetry)
            pool = pool_cls("p", scheduler_for(name, lut), num_npus)
            result = simulate_cluster(requests(), [pool], obs=obs, **sim_kw)
            table = obs.telemetry.to_table() if telemetry else None
            return result, (schedule(result), spans(sink), table)

        _, expected = run(ReferencePool)
        batch, got = run(Pool)
        # In-place decisions over a non-empty queue did happen.
        assert batch.num_in_place_blocks > batch.num_continued_blocks
        assert got == expected
        return batch

    @pytest.mark.parametrize("name", ("dysta", "fcfs", "prema"))
    def test_arrival_within_eps(self, toy_lut, name):
        # The third request arrives 5e-13 s after the 0.02 boundary: within
        # _EPS, so the engine admits it there and the block ending at 0.02
        # must reach the heap.
        def requests():
            return [layered(0, (0.01,) * 3), layered(1, (0.01,) * 3),
                    layered(2, (0.01,) * 3, arrival=0.02 + 5e-13)]

        self.compare(requests, name, toy_lut, 1)

    @pytest.mark.parametrize("name", ("dysta", "fcfs", "prema"))
    def test_tied_heap_top(self, toy_lut, name):
        # Request 0's second block ends at 0.02, exactly when request 1's
        # one block does; that event is already on the heap and pops first.
        def requests():
            return [layered(0, (0.01,) * 3), layered(1, (0.02,)),
                    layered(2, (0.01,) * 3), layered(3, (0.01,) * 3)]

        self.compare(requests, name, toy_lut, 2)

    @pytest.mark.parametrize("name", ("dysta", "fcfs", "prema"))
    def test_telemetry_sample(self, toy_lut, name):
        # Samples at 0.015, 0.045, ... fall mid-block; the metered joules
        # they read must not include blocks that end after them.
        def requests():
            return [layered(rid, (0.01,) * 3) for rid in range(4)]

        self.compare(requests, name, toy_lut, 1, telemetry=0.015,
                     energy=EnergyAccountant.from_model_lut(toy_lut))

    @pytest.mark.parametrize("name", ("dysta", "fcfs", "prema"))
    def test_autoscaler_tick_marks_npu_draining(self, toy_lut, name):
        # The tick at 0.015 marks accelerator 1 draining mid-stretch: its
        # next boundary must retire it instead of deciding it in place.
        def requests():
            return [layered(rid, (0.01,) * 3) for rid in range(5)]

        batch = self.compare(
            requests, name, toy_lut, 2,
            autoscaler=Autoscaler(_ShrinkOnce(), interval=0.015,
                                  cooldown_down=0.0))
        assert batch.pool_stats["p"].num_accelerators == 1

    @pytest.mark.parametrize("name", ("dysta", "fcfs", "prema"))
    def test_fault_boundary(self, toy_lut, name):
        def requests():
            return [layered(rid, (0.01,) * 3) for rid in range(5)]

        faults = FaultSpec((FaultEvent(KIND_OUTAGE, 0.025, duration=0.01,
                                       pool="p", count=1),))
        batch = self.compare(requests, name, toy_lut, 2, faults=faults)
        assert batch.pool_stats["p"].fault_kills == 1


@pytest.fixture(scope="module")
def mixed_world():
    """Small mixed attnn+cnn profile (module-cached: profiling is the cost)."""
    traces = dict(benchmark_suite("attnn", n_samples=40, seed=0))
    traces.update(benchmark_suite("cnn", n_samples=40, seed=0))
    return traces, ModelInfoLUT(traces)


class TestMixedFamilyWorkloads:
    @pytest.mark.parametrize("name", CONVERTED)
    def test_mixed_attnn_cnn_schedule_identical(self, mixed_world, name):
        traces, lut = mixed_world
        spec = WorkloadSpec(8.0, n_requests=80, slo_multiplier=10.0, seed=3)
        scalar = simulate_reference(generate_workload(traces, spec),
                                    scheduler_for(name, lut))
        batch = simulate(generate_workload(traces, spec),
                         scheduler_for(name, lut))
        assert_identical(scalar, batch)


def cached(sched):
    """Force the selection cache on at any queue depth; a policy without a
    cache keeps its list-to-numpy crossover."""
    if sched.supports_incremental and sched.incremental:
        sched.numpy_min_queue = 0
    return sched


def brute(sched):
    """Disable the incremental layer: full re-scan on every select."""
    sched.incremental = False
    return sched


class TestIncrementalEquivalence:
    """Selection cache vs brute-force full re-scan, whole-run.

    The cache (see :mod:`repro.sim.select_cache`) must be decision-invisible:
    identical completion schedules bit-for-bit, with ``numpy_min_queue=0``
    so shallow phases go through the cache too instead of the list kernel.
    """

    @pytest.mark.parametrize("name", CONVERTED)
    def test_engine_schedule_identical(self, toy_traces, toy_lut, name):
        ref = simulate(toy_workload(toy_traces),
                       brute(scheduler_for(name, toy_lut)))
        sched = cached(scheduler_for(name, toy_lut))
        inc = simulate(toy_workload(toy_traces), sched)
        assert_identical(ref, inc)
        # On one accelerator fcfs consults the cache only once its current
        # request has finished, when the changed rows cannot decide, so
        # every such lookup scans; test_multi_accelerator_identical checks
        # its hits.
        if sched.supports_incremental and name != "fcfs":
            assert sched._cache is not None and sched._cache.num_hits > 0

    @pytest.mark.parametrize("name", ("dysta", "sjf", "oracle"))
    @pytest.mark.parametrize("engine_kw", (
        {"switch_cost": 0.001},
        {"block_size": 3},
    ))
    def test_engine_variants(self, toy_traces, toy_lut, name, engine_kw):
        ref = simulate(toy_workload(toy_traces),
                       brute(scheduler_for(name, toy_lut)), **engine_kw)
        inc = simulate(toy_workload(toy_traces),
                       cached(scheduler_for(name, toy_lut)), **engine_kw)
        assert_identical(ref, inc)

    def test_switchaware_with_engine_switch_cost(self, toy_traces, toy_lut):
        kw = {"switch_cost": 0.002}
        ref = simulate(toy_workload(toy_traces),
                       brute(scheduler_for("dysta_switchaware", toy_lut)), **kw)
        inc = simulate(toy_workload(toy_traces),
                       cached(scheduler_for("dysta_switchaware", toy_lut)), **kw)
        assert_identical(ref, inc)

    def test_fp16_opts_out_but_schedules_identically(self, toy_traces, toy_lut):
        # FP16 score quantization disables the cache instance-wide; the
        # batch path must still match the brute-force reference exactly.
        ref = simulate(toy_workload(toy_traces),
                       brute(make_scheduler("dysta", toy_lut,
                                            score_dtype="fp16")))
        sched = cached(make_scheduler("dysta", toy_lut, score_dtype="fp16"))
        inc = simulate(toy_workload(toy_traces), sched)
        assert_identical(ref, inc)
        assert sched._cache is None

    @pytest.mark.parametrize("name", ("dysta", "oracle", "energy_edp", "fcfs"))
    def test_multi_accelerator_identical(self, toy_traces, toy_lut, name):
        ref = simulate_multi(toy_workload(toy_traces),
                             brute(scheduler_for(name, toy_lut)),
                             num_accelerators=2)
        sched = cached(scheduler_for(name, toy_lut))
        inc = simulate_multi(toy_workload(toy_traces), sched,
                             num_accelerators=2)
        assert_identical(ref, inc)
        assert sched._cache is not None and sched._cache.num_hits > 0

    @pytest.mark.parametrize("name", ("dysta", "sjf"))
    def test_cluster_identical(self, toy_traces, toy_lut, name):
        def run(tune):
            reqs = toy_workload(toy_traces)
            pools = [
                Pool("a", tune(scheduler_for(name, toy_lut)), 2),
                Pool("b", tune(scheduler_for(name, toy_lut)), 1),
            ]
            return simulate_cluster(reqs, pools, "jsq"), pools

        ref, _ = run(brute)
        inc, pools = run(cached)
        assert {r.rid: r.finish_time for r in ref.requests} == {
            r.rid: r.finish_time for r in inc.requests
        }
        assert ref.makespan == inc.makespan
        assert ref.num_preemptions == inc.num_preemptions
        assert any(p.scheduler._cache is not None
                   and p.scheduler._cache.num_hits > 0 for p in pools)
