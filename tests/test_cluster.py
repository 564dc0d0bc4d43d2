"""Tests for the cluster tier: pools, routing, admission, streaming metrics.

The anchor is the equivalence contract: one pool x one accelerator x an
always-admit controller must make the single-NPU engine's decisions in the
same order, with bit-identical finish times at block size 1 (mirroring the
``simulate_multi`` equivalence test), so the cluster engine is a strict
generalization rather than a second simulator.
"""

import inspect
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lut import ModelInfoLUT
from repro.errors import SchedulingError
from repro.schedulers.base import available_schedulers, make_scheduler
from repro.sim.engine import simulate
from repro.sim.workload import WorkloadSpec, generate_workload, iter_workload
from repro.cluster import (
    SHED_QUEUE_DEPTH,
    SHED_SLO_INFEASIBLE,
    AdmissionController,
    Pool,
    StreamingHistogram,
    StreamingMetrics,
    available_routers,
    make_router,
    simulate_cluster,
)

from conftest import build_trace, make_request
from test_property_engine import build_world


def short(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="short", arrival=arrival, slo=slo,
                        latencies=(0.001, 0.002), sparsities=(0.5, 0.5))


def long(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="long", arrival=arrival, slo=slo,
                        latencies=(0.01, 0.01, 0.01), sparsities=(0.3, 0.3, 0.3))


class TestValidation:
    def test_empty_workload_rejected(self, toy_lut):
        with pytest.raises(SchedulingError, match="empty workload"):
            simulate_cluster([], [Pool("a", make_scheduler("fcfs", toy_lut))])

    def test_no_pools_rejected(self, toy_lut):
        with pytest.raises(SchedulingError, match="without pools"):
            simulate_cluster([short(0, 0.0)], [])

    def test_duplicate_pool_names_rejected(self, toy_lut):
        pools = [Pool("a", make_scheduler("fcfs", toy_lut)),
                 Pool("a", make_scheduler("fcfs", toy_lut))]
        with pytest.raises(SchedulingError, match="unique"):
            simulate_cluster([short(0, 0.0)], pools)

    def test_pool_knob_validation(self, toy_lut):
        sched = make_scheduler("fcfs", toy_lut)
        with pytest.raises(SchedulingError):
            Pool("a", sched, 0)
        with pytest.raises(SchedulingError):
            Pool("a", sched, 1, speed=0.0)
        with pytest.raises(SchedulingError):
            Pool("a", sched, 1, switch_cost=-0.1)
        with pytest.raises(SchedulingError):
            Pool("a", sched, 1, block_size=0)
        with pytest.raises(SchedulingError):
            Pool("a", sched, 1, affinity={"short": 0.0})

    # Each knob check is written so that NaN fails it, as infinity does.
    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_non_finite_pool_knobs_rejected(self, toy_lut, bad):
        sched = make_scheduler("fcfs", toy_lut)
        with pytest.raises(SchedulingError, match="switch cost must be >= 0 and finite"):
            Pool("a", sched, 1, switch_cost=bad)
        with pytest.raises(SchedulingError, match="speed must be positive and finite"):
            Pool("a", sched, 1, speed=bad)
        with pytest.raises(SchedulingError, match="affinity factor .* finite"):
            Pool("a", sched, 1, affinity={"short": bad})

    def test_public_pool_methods_resolve_type_hints(self):
        # Annotations are deferred strings: a name the module never imports
        # only fails when something (docs, IDEs, typing tools) resolves it.
        methods = [(name, fn) for name, fn in inspect.getmembers(Pool, inspect.isfunction)
                   if not name.startswith("_")]
        assert any(name == "recover_accelerators" for name, _ in methods)
        for name, fn in methods:
            typing.get_type_hints(fn)

    def test_unknown_router_rejected(self):
        with pytest.raises(SchedulingError, match="unknown router"):
            make_router("teleport")

    def test_router_aliases_resolve(self):
        assert make_router("rr").name == "round-robin"
        assert make_router("least-loaded").name == "jsq"

    def test_round_robin_routes_without_reset(self, toy_lut):
        # Public-API use outside the engine must not require reset() first.
        pools = [Pool("a", make_scheduler("fcfs", toy_lut)),
                 Pool("b", make_scheduler("fcfs", toy_lut))]
        router = make_router("round-robin")
        assert router.route(short(0, 0.0), pools, 0.0) is pools[0]
        assert router.route(short(1, 0.0), pools, 0.0) is pools[1]

    def test_build_router_supplies_lut(self, toy_lut):
        from repro.cluster import build_router

        assert build_router("predictive", toy_lut).name == "predictive"
        assert build_router("jsq", toy_lut).name == "jsq"

    def test_family_affinity_helper(self):
        from repro.cluster import family_affinity

        family_of = {"bert": "attnn", "resnet": "cnn"}
        aff = family_affinity(family_of, "cnn", 4.0)
        assert aff == {"bert": 0.25, "resnet": 1.0}
        with pytest.raises(SchedulingError, match="penalty"):
            family_affinity(family_of, "cnn", 0.0)

    def test_available_routers(self):
        assert {"round-robin", "jsq", "predictive"} <= set(available_routers())

    def test_unsorted_iterator_rejected(self, toy_lut):
        def stream():
            yield short(0, 1.0)
            yield short(1, 0.0)

        with pytest.raises(SchedulingError, match="arrive in order"):
            simulate_cluster(stream(), [Pool("a", make_scheduler("fcfs", toy_lut))])

    def test_partially_executed_request_rejected(self, toy_lut):
        req = short(0, 0.0)
        req.next_layer = 1
        with pytest.raises(SchedulingError, match="already"):
            simulate_cluster([req], [Pool("a", make_scheduler("fcfs", toy_lut))])

    def test_duplicate_rids_rejected_before_the_run(self, toy_lut):
        reqs = [short(0, 0.0), long(1, 0.0), long(0, 0.001), short(1, 0.002)]
        with pytest.raises(SchedulingError, match="request id 0 appears more than once"):
            simulate_cluster(reqs, [Pool("a", make_scheduler("dysta", toy_lut), 2)])
        assert all(r.next_layer == 0 for r in reqs)

    def test_admission_controller_validation(self, toy_lut):
        with pytest.raises(SchedulingError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(SchedulingError, match="needs a ModelInfoLUT"):
            AdmissionController(slo_guard=True)


class TestEngineEquivalence:
    """One pool x one accelerator x always-admit == the single-NPU engine."""

    @pytest.mark.parametrize("scheduler_name", available_schedulers())
    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=8, deadline=None)
    def test_single_pool_matches_engine(self, scheduler_name, seed):
        lut, requests_a = build_world(seed, n_models=2, n_requests=10)
        _, requests_b = build_world(seed, n_models=2, n_requests=10)
        single = simulate(requests_a, make_scheduler(scheduler_name, lut))
        pool = Pool("only", make_scheduler(scheduler_name, lut), 1)
        clustered = simulate_cluster(requests_b, [pool])
        assert [r.rid for r in single.requests] == [r.rid for r in clustered.requests]
        assert [r.finish_time for r in single.requests] == [
            r.finish_time for r in clustered.requests
        ]
        assert single.num_preemptions == clustered.num_preemptions
        assert single.num_scheduler_invocations == clustered.num_scheduler_invocations
        assert single.max_queue_length == clustered.max_queue_length
        assert single.antt == clustered.antt
        assert single.p99 == clustered.p99

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=6, deadline=None)
    def test_single_pool_matches_engine_with_knobs(self, seed):
        lut, requests_a = build_world(seed, n_models=2, n_requests=10)
        _, requests_b = build_world(seed, n_models=2, n_requests=10)
        single = simulate(requests_a, make_scheduler("sjf", lut),
                          switch_cost=0.003, block_size=2)
        pool = Pool("only", make_scheduler("sjf", lut), 1,
                    switch_cost=0.003, block_size=2)
        clustered = simulate_cluster(requests_b, [pool])
        # Approximate: the pool adds a block's summed latency once, while
        # simulate adds one layer at a time, so finish times can differ in
        # the last bits at block sizes above 1.
        assert [r.finish_time for r in single.requests] == pytest.approx(
            [r.finish_time for r in clustered.requests]
        )

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        k=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_cluster_invariants(self, seed, k):
        lut, requests = build_world(seed, n_models=3, n_requests=12)
        pools = [Pool("a", make_scheduler("dysta", lut), k),
                 Pool("b", make_scheduler("dysta", lut), k)]
        result = simulate_cluster(requests, pools, router="jsq")
        assert result.num_completed == len(requests)
        assert result.num_shed == 0
        for req in requests:
            assert req.is_done
            assert req.finish_time >= req.arrival + req.isolated_latency - 1e-9
        stats = result.pool_stats
        assert sum(s.completed for s in stats.values()) == len(requests)
        for s in stats.values():
            assert 0.0 <= s.utilization <= 1.0 + 1e-9


class TestRouting:
    def test_round_robin_cycles(self, toy_lut):
        reqs = [short(i, 0.0) for i in range(6)]
        pools = [Pool("a", make_scheduler("fcfs", toy_lut), 1),
                 Pool("b", make_scheduler("fcfs", toy_lut), 1),
                 Pool("c", make_scheduler("fcfs", toy_lut), 1)]
        result = simulate_cluster(reqs, pools, router="round-robin")
        assert [result.pool_stats[n].completed for n in ("a", "b", "c")] == [2, 2, 2]

    def test_jsq_balances_deterministic_arrivals(self, toy_lut):
        # Identical requests arriving together: JSQ must alternate pools.
        reqs = [long(i, 0.0) for i in range(4)]
        pools = [Pool("a", make_scheduler("fcfs", toy_lut), 1),
                 Pool("b", make_scheduler("fcfs", toy_lut), 1)]
        result = simulate_cluster(reqs, pools, router="jsq")
        assert result.pool_stats["a"].completed == 2
        assert result.pool_stats["b"].completed == 2
        # Two servers, two requests each: both pools finish in parallel.
        assert result.makespan == pytest.approx(2 * reqs[0].isolated_latency)

    def test_jsq_prefers_emptier_pool(self, toy_lut):
        # Pool a is busy with a long request; the short one lands on b.
        reqs = [long(0, 0.0), short(1, 0.001)]
        pools = [Pool("a", make_scheduler("fcfs", toy_lut), 1),
                 Pool("b", make_scheduler("fcfs", toy_lut), 1)]
        result = simulate_cluster(reqs, pools, router="jsq")
        assert result.pool_stats["a"].completed == 1
        assert result.pool_stats["b"].completed == 1

    def test_jsq_accounts_pool_width(self, toy_lut):
        # 2-wide pool with one in-flight request is less loaded than a
        # 1-wide pool with one in-flight request.
        reqs = [long(0, 0.0), long(1, 0.001), long(2, 0.002)]
        pools = [Pool("narrow", make_scheduler("fcfs", toy_lut), 1),
                 Pool("wide", make_scheduler("fcfs", toy_lut), 2)]
        result = simulate_cluster(reqs, pools, router="jsq")
        assert result.pool_stats["wide"].completed == 2

    def test_predictive_prefers_native_pool(self, toy_traces, toy_lut):
        # Both pools idle: JSQ would tie-break to the first pool; the
        # predictive router sees the 10x affinity penalty on "slow" and
        # routes the request to its native pool.
        reqs = [short(0, 0.0)]
        pools = [Pool("slow", make_scheduler("fcfs", toy_lut), 1,
                      affinity={"short": 0.1}),
                 Pool("native", make_scheduler("fcfs", toy_lut), 1)]
        router = make_router("predictive", lut=toy_lut)
        result = simulate_cluster(reqs, pools, router)
        assert result.pool_stats["native"].completed == 1
        assert result.pool_stats["slow"].completed == 0

    def test_predictive_sees_queued_work(self, toy_lut):
        # Pool a holds a long request; predictive sends the newcomer to b
        # even though both have equal queue *length*.
        reqs = [long(0, 0.0), long(1, 0.0), short(2, 0.001)]
        pools = [Pool("a", make_scheduler("fcfs", toy_lut), 1),
                 Pool("b", make_scheduler("fcfs", toy_lut), 1)]
        router = make_router("predictive", lut=toy_lut)
        result = simulate_cluster(reqs, pools, router)
        # The two longs split a/b (predictive balances them), the short joins
        # whichever pool will finish first — never a second long on one pool.
        assert {result.pool_stats["a"].completed,
                result.pool_stats["b"].completed} == {1, 2}

    def test_affinity_scales_service_time(self, toy_lut):
        req = short(0, 0.0)
        pool = Pool("half-speed", make_scheduler("fcfs", toy_lut), 1, speed=0.5)
        result = simulate_cluster([req], [pool])
        assert req.finish_time == pytest.approx(2 * req.isolated_latency)
        assert result.makespan == pytest.approx(2 * req.isolated_latency)

    def test_predictive_incremental_sums_match_fresh_scan(self, toy_lut):
        # The router maintains per-pool work incrementally via the
        # enqueue/progress/complete hooks; at any point the sum must agree
        # with the brute-force `predicted_finish` re-scan over pool.queue.
        router = make_router("predictive", lut=toy_lut)
        pools = [Pool("a", make_scheduler("fcfs", toy_lut), 1),
                 Pool("b", make_scheduler("fcfs", toy_lut), 2)]
        router.reset(pools)
        assert router.tracks_work
        reqs = [long(0, 0.0), short(1, 0.0), long(2, 0.0), short(3, 0.0)]
        for req in reqs:
            pool = router.route(req, pools, 0.0)
            pool.queue.append(req)
            router.note_enqueue(pool, req)
        for pool in pools:
            fresh = sum(router._contribution(pool, r) for r in pool.queue)
            assert router._work[id(pool)] == pytest.approx(fresh)
        # Progress on one request, completion of another: sums track.
        victim = reqs[0]
        owner = next(p for p in pools if victim in list(p.queue))
        victim.next_layer = 1
        router.note_progress(owner, victim)
        owner.queue.remove(victim)
        router.note_complete(owner, victim)
        fresh = sum(router._contribution(owner, r) for r in owner.queue)
        assert router._work[id(owner)] == pytest.approx(fresh)

    def test_predictive_falls_back_for_unseen_pool(self, toy_lut):
        # A pool absent from reset() (e.g. added mid-run) has no tracked
        # work sum; route() must fall back to the fresh predicted_finish
        # scan rather than treat it as empty.
        router = make_router("predictive", lut=toy_lut)
        known = Pool("known", make_scheduler("fcfs", toy_lut), 1)
        router.reset([known])
        stranger = Pool("stranger", make_scheduler("fcfs", toy_lut), 1)
        busy = long(0, 0.0)
        stranger.queue.add(busy)
        chosen = router.route(short(1, 0.0), [known, stranger], 0.0)
        assert chosen is known


class TestAdmission:
    def test_queue_depth_shedding(self, toy_lut):
        # One accelerator, depth limit 2: with 4 simultaneous arrivals the
        # first is dispatched, the second queued, the rest shed.
        reqs = [long(i, 0.0) for i in range(4)]
        pool = Pool("a", make_scheduler("fcfs", toy_lut), 1)
        result = simulate_cluster(
            reqs, [pool], admission=AdmissionController(max_queue_depth=2)
        )
        assert result.num_completed == 2
        assert result.num_shed == 2
        assert result.shed_reasons == {SHED_QUEUE_DEPTH: 2}
        assert result.shed_rate == pytest.approx(0.5)
        assert result.pool_stats["a"].shed == 2
        assert len(result.shed_requests) == 2
        for req in result.shed_requests:
            assert req.finish_time is None and req.next_layer == 0

    def test_slo_guard_sheds_infeasible(self, toy_lut):
        # Backlog of longs makes the tight-SLO newcomer infeasible.
        reqs = [long(i, 0.0) for i in range(3)] + [long(3, 0.0, slo=0.031)]
        pool = Pool("a", make_scheduler("fcfs", toy_lut), 1)
        result = simulate_cluster(
            reqs, [pool],
            admission=AdmissionController(slo_guard=True, lut=toy_lut),
        )
        assert result.shed_reasons == {SHED_SLO_INFEASIBLE: 1}
        assert 3 in {r.rid for r in result.shed_requests}

    def test_slo_guard_admits_feasible(self, toy_lut):
        reqs = [long(i, 0.0) for i in range(3)]
        pool = Pool("a", make_scheduler("fcfs", toy_lut), 1)
        result = simulate_cluster(
            reqs, [pool],
            admission=AdmissionController(slo_guard=True, lut=toy_lut),
        )
        assert result.num_shed == 0
        assert result.num_completed == 3

    def test_offered_accounting(self, toy_lut):
        reqs = [long(i, 0.0) for i in range(6)]
        pool = Pool("a", make_scheduler("fcfs", toy_lut), 1)
        result = simulate_cluster(
            reqs, [pool], admission=AdmissionController(max_queue_depth=1)
        )
        assert result.num_offered == 6
        assert result.num_completed + result.num_shed == 6


class TestStreamingMetrics:
    def test_histogram_percentiles_close_to_exact(self):
        rng = np.random.default_rng(0)
        values = np.exp(rng.normal(1.0, 0.8, size=5000))
        hist = StreamingHistogram()
        for v in values:
            hist.observe(float(v))
        for pct in (50, 95, 99):
            exact = float(np.percentile(values, pct))
            assert hist.percentile(pct) == pytest.approx(exact, rel=0.05)

    def test_histogram_validation(self):
        hist = StreamingHistogram()
        with pytest.raises(SchedulingError):
            hist.observe(0.0)
        with pytest.raises(SchedulingError):
            hist.percentile(0.0)
        assert np.isnan(hist.percentile(50))

    def test_streaming_aggregates_match_batch(self):
        metrics = StreamingMetrics()
        reqs = []
        for i in range(50):
            req = make_request(rid=i, arrival=0.01 * i, slo=0.5,
                               latencies=(0.1, 0.1), sparsities=(0.5, 0.5))
            req.finish_time = req.arrival + 0.2 + 0.02 * i
            reqs.append(req)
            metrics.observe(req)
        from repro.sim.metrics import antt, slo_violation_rate, system_throughput

        assert metrics.antt == pytest.approx(antt(reqs))
        assert metrics.violation_rate == pytest.approx(slo_violation_rate(reqs))
        assert metrics.stp == pytest.approx(system_throughput(reqs))
        assert metrics.shed_rate == 0.0

    def test_empty_stream_is_nan_not_raise(self):
        metrics = StreamingMetrics()
        summary = metrics.summary()
        assert np.isnan(summary["antt"])
        assert np.isnan(summary["shed_rate"])

    def test_retained_and_streaming_runs_agree(self):
        def world():
            _, reqs = build_world(3, n_models=2, n_requests=40)
            return reqs

        lut, _ = build_world(3, n_models=2, n_requests=40)
        pools_a = [Pool("a", make_scheduler("sjf", lut), 2)]
        pools_b = [Pool("a", make_scheduler("sjf", lut), 2)]
        retained = simulate_cluster(world(), pools_a, router="jsq")
        streamed = simulate_cluster(iter(world()), pools_b, router="jsq",
                                    retain_requests=False)
        assert streamed.requests == []
        assert streamed.num_completed == retained.num_completed
        assert streamed.antt == pytest.approx(retained.antt)
        assert streamed.violation_rate == pytest.approx(retained.violation_rate)
        assert streamed.stp == pytest.approx(retained.stp)
        # Percentiles come from the log histogram: bounded relative error.
        assert streamed.p99 == pytest.approx(retained.p99, rel=0.05)

    def test_100k_replay_under_streaming_metrics(self):
        """A 100k-request cluster replay completes in bounded memory: the
        workload is generated lazily and no completed-request list is kept."""
        sp = [[0.5, 0.5], [0.55, 0.52], [0.45, 0.48]]
        lat = [[0.002 * (1 - a), 0.004 * (1 - b)] for a, b in sp]
        trace = build_trace("tiny", "dense", lat, sp)
        traces = {trace.key: trace}
        lut = ModelInfoLUT(traces)
        spec = WorkloadSpec(arrival_rate=800.0, n_requests=100_000,
                            slo_multiplier=10.0, seed=0)
        pools = [Pool("a", make_scheduler("fcfs", lut), 2, block_size=2),
                 Pool("b", make_scheduler("fcfs", lut), 2, block_size=2)]
        result = simulate_cluster(iter_workload(traces, spec), pools,
                                  router="jsq", retain_requests=False)
        assert result.num_completed == 100_000
        assert result.requests == [] and result.shed_requests == []
        assert result.antt >= 1.0
        assert result.p50 <= result.p95 <= result.p99
        assert result.stp > 0


class TestWorkloadStreaming:
    def test_iter_matches_generate(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=20.0, n_requests=50, seed=7)
        lazy = list(iter_workload(toy_traces, spec))
        eager = generate_workload(toy_traces, spec)
        assert [r.rid for r in lazy] == [r.rid for r in eager]
        assert [r.arrival for r in lazy] == [r.arrival for r in eager]
        assert [r.model_name for r in lazy] == [r.model_name for r in eager]
        assert [r.slo for r in lazy] == [r.slo for r in eager]
