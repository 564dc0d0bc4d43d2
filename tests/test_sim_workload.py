"""Unit tests for workload generation."""

import math

import numpy as np
import pytest

from repro.core.predictor import PredictorStrategy
from repro.errors import SchedulingError
from repro.sim.workload import WorkloadSpec, generate_workload


class TestSpec:
    def test_validation(self):
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=0.0)
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=1.0, n_requests=0)
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=1.0, slo_multiplier=0.0)

    # NaN passes "<= 0" checks; a NaN rate or start time gives NaN
    # arrivals, which no engine ever admits.
    @pytest.mark.parametrize("kwargs", (
        {"arrival_rate": math.nan},
        {"arrival_rate": 1.0, "start_time": math.nan},
        {"arrival_rate": 1.0, "start_time": math.inf},
        {"arrival_rate": 1.0, "slo_multiplier": math.nan},
    ), ids=("nan_rate", "nan_start", "inf_start", "nan_slo"))
    def test_nan_and_infinite_knobs_rejected(self, kwargs):
        with pytest.raises(SchedulingError):
            WorkloadSpec(**kwargs)


class TestGeneration:
    def test_empty_traces_rejected(self):
        with pytest.raises(SchedulingError):
            generate_workload({}, WorkloadSpec(arrival_rate=1.0))

    def test_request_count_and_ordering(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=100.0, n_requests=50, seed=0)
        reqs = generate_workload(toy_traces, spec)
        assert len(reqs) == 50
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_deterministic_per_seed(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=100.0, n_requests=30, seed=5)
        a = generate_workload(toy_traces, spec)
        b = generate_workload(toy_traces, spec)
        assert [r.arrival for r in a] == [r.arrival for r in b]
        assert [r.model_name for r in a] == [r.model_name for r in b]

    def test_seeds_differ(self, toy_traces):
        a = generate_workload(toy_traces, WorkloadSpec(100.0, n_requests=30, seed=1))
        b = generate_workload(toy_traces, WorkloadSpec(100.0, n_requests=30, seed=2))
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_slo_is_isolated_times_multiplier(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=10.0, n_requests=20, slo_multiplier=7.0, seed=0)
        for req in generate_workload(toy_traces, spec):
            assert req.slo == pytest.approx(7.0 * req.isolated_latency)

    def test_samples_come_from_traces(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=10.0, n_requests=100, seed=0)
        reqs = generate_workload(toy_traces, spec)
        keys = {r.key for r in reqs}
        assert keys <= set(toy_traces)
        assert len(keys) == 2  # both models drawn with 100 requests
        for req in reqs:
            trace = toy_traces[req.key]
            rows = [list(row) for row in trace.latencies]
            assert req.layer_latencies in rows

    def test_mean_interarrival_matches_rate(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=50.0, n_requests=4000, seed=0)
        reqs = generate_workload(toy_traces, spec)
        arrivals = np.array([r.arrival for r in reqs])
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        assert gaps.mean() == pytest.approx(1.0 / 50.0, rel=0.1)


class TestStartTime:
    def test_negative_start_time_rejected(self):
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=1.0, start_time=-0.5)

    def test_offset_shifts_whole_stream(self, toy_traces):
        base = WorkloadSpec(arrival_rate=50.0, n_requests=40, seed=7)
        shifted = WorkloadSpec(arrival_rate=50.0, n_requests=40, seed=7,
                               start_time=12.5)
        a = generate_workload(toy_traces, base)
        b = generate_workload(toy_traces, shifted)
        # Same process, same draws — only the timeline origin moves.
        for ra, rb in zip(a, b):
            assert rb.arrival == pytest.approx(ra.arrival + 12.5)
            assert rb.model_name == ra.model_name
            assert rb.slo == pytest.approx(ra.slo)

    def test_offset_applies_to_bursty_traffic(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=20.0, n_requests=16, seed=0,
                            traffic="bursty", burst_size=4, start_time=5.0)
        reqs = generate_workload(toy_traces, spec)
        assert min(r.arrival for r in reqs) >= 5.0

    def test_phase_stitching_with_offsets(self, toy_traces):
        # Two workload segments stitched back-to-back stay arrival-ordered
        # without rebasing any arrays downstream.
        first = generate_workload(toy_traces, WorkloadSpec(
            arrival_rate=100.0, n_requests=30, seed=0))
        boundary = max(r.arrival for r in first)
        second = generate_workload(toy_traces, WorkloadSpec(
            arrival_rate=100.0, n_requests=30, seed=1, start_time=boundary))
        arrivals = [r.arrival for r in first + second]
        assert arrivals == sorted(arrivals)


class TestBurstyTraffic:
    def test_invalid_traffic_shape_rejected(self):
        with pytest.raises(SchedulingError, match="traffic"):
            WorkloadSpec(arrival_rate=1.0, traffic="uniform")

    def test_invalid_burst_size_rejected(self):
        with pytest.raises(SchedulingError, match="burst"):
            WorkloadSpec(arrival_rate=1.0, traffic="bursty", burst_size=0)

    def test_bursts_arrive_together(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=10.0, n_requests=40, seed=0,
                            traffic="bursty", burst_size=4)
        reqs = generate_workload(toy_traces, spec)
        arrivals = [r.arrival for r in reqs]
        # Exactly n/burst distinct instants, 4 requests each.
        assert len(set(arrivals)) == 10
        for t in set(arrivals):
            assert arrivals.count(t) == 4

    def test_bursty_preserves_mean_rate(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=50.0, n_requests=4000, seed=1,
                            traffic="bursty", burst_size=8)
        reqs = generate_workload(toy_traces, spec)
        horizon = max(r.arrival for r in reqs)
        assert len(reqs) / horizon == pytest.approx(50.0, rel=0.15)


class TestSLOClasses:
    def test_validation(self):
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=1.0, slo_classes=())
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=1.0, slo_classes=((0.0, 1.0),))
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=1.0, slo_classes=((5.0, 0.0),))

    @pytest.mark.parametrize("knob", ("slo_classes", "priority_classes"))
    @pytest.mark.parametrize("classes", (
        ((math.nan, 1.0),),
        ((5.0, math.nan), (3.0, 1.0)),
        ((5.0, math.inf), (3.0, 1.0)),
    ), ids=("nan_value", "nan_weight", "inf_weight"))
    def test_nan_and_infinite_classes_rejected(self, knob, classes):
        with pytest.raises(SchedulingError, match="invalid"):
            WorkloadSpec(arrival_rate=1.0, **{knob: classes})

    def test_classes_drawn_with_given_weights(self, toy_traces):
        spec = WorkloadSpec(
            arrival_rate=10.0, n_requests=2000, seed=2,
            slo_classes=((5.0, 0.25), (20.0, 0.75)),
        )
        reqs = generate_workload(toy_traces, spec)
        mults = [r.slo / r.isolated_latency for r in reqs]
        tight = sum(1 for m in mults if m == pytest.approx(5.0))
        loose = sum(1 for m in mults if m == pytest.approx(20.0))
        assert tight + loose == len(reqs)
        assert tight / len(reqs) == pytest.approx(0.25, abs=0.05)

    def test_classes_override_flat_multiplier(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=10.0, n_requests=50, seed=0,
                            slo_multiplier=10.0, slo_classes=((3.0, 1.0),))
        for req in generate_workload(toy_traces, spec):
            assert req.slo == pytest.approx(3.0 * req.isolated_latency)


class TestPriorityClasses:
    def test_default_priority_is_one(self, toy_traces):
        spec = WorkloadSpec(arrival_rate=10.0, n_requests=20, seed=0)
        for req in generate_workload(toy_traces, spec):
            assert req.priority == 1.0

    def test_priority_mixture(self, toy_traces):
        spec = WorkloadSpec(
            arrival_rate=10.0, n_requests=1000, seed=3,
            priority_classes=((1.0, 0.8), (4.0, 0.2)),
        )
        reqs = generate_workload(toy_traces, spec)
        high = sum(1 for r in reqs if r.priority == 4.0)
        assert high / len(reqs) == pytest.approx(0.2, abs=0.05)

    def test_priority_validation(self):
        with pytest.raises(SchedulingError):
            WorkloadSpec(arrival_rate=1.0, priority_classes=((0.0, 1.0),))

    def test_prema_honours_priorities(self, toy_traces, toy_lut):
        # A high-priority long job crosses PREMA's token threshold sooner
        # than an identical normal-priority one.
        from repro.schedulers.prema import PREMAScheduler
        from conftest import make_request

        sched = PREMAScheduler(toy_lut, threshold=3.0)
        sched.reset()
        lat = (0.01, 0.01, 0.01)
        sp = (0.3, 0.3, 0.3)
        vip = make_request(rid=1, model="long", latencies=lat, sparsities=sp)
        vip.priority = 40.0
        normal = make_request(rid=2, model="long", latencies=lat, sparsities=sp)
        short = make_request(rid=3, model="short")
        for req in (vip, normal, short):
            sched.on_arrival(req, 0.0)
        # After a modest wait only the VIP crosses the threshold; PREMA then
        # prefers it over the (otherwise-winning) short job.
        now = 0.005
        assert sched.select([normal, short, vip], now) is vip


class TestSharedRows:
    """List builders share each sampled row's floats; streams convert anew."""

    @staticmethod
    def _fields(req):
        return (req.rid, req.key, req.arrival, req.slo, req.deadline,
                req.priority, req.layer_latencies, req.layer_sparsities,
                req.isolated_latency)

    @staticmethod
    def _builds(toy_traces):
        """name -> (list build, stream, the SLO multipliers it draws)."""
        from repro.scenarios import build_scenario, generate_scenario, iter_scenario
        from repro.sim.workload import iter_workload
        spec = WorkloadSpec(50.0, n_requests=80, seed=2,
                            slo_classes=((2.0, 0.5), (8.0, 0.5)),
                            priority_classes=((1.0, 0.5), (4.0, 0.5)))
        # multi_tenant draws SLO multipliers 3 and 20 at the default 10.
        scenario = build_scenario("multi_tenant", base_rate=60.0, duration=2.0)
        return {
            "workload": (generate_workload(toy_traces, spec),
                         list(iter_workload(toy_traces, spec)), (2.0, 8.0)),
            "scenario": (generate_scenario(toy_traces, scenario, seed=5),
                         list(iter_scenario(toy_traces, scenario, seed=5)),
                         (3.0, 20.0)),
        }

    def test_lists_equal_streams_and_the_reference_recipe(self, toy_traces):
        for name, (built, streamed, multipliers) in self._builds(toy_traces).items():
            assert len(built) == len(streamed) > 20, name
            for a, b in zip(built, streamed):
                assert self._fields(a) == self._fields(b), (name, a.rid)
            for req in built:
                trace = toy_traces[req.key]
                rows = [row for row in range(trace.num_samples)
                        if trace.latencies[row].tolist() == req.layer_latencies]
                assert len(rows) == 1
                row = rows[0]
                assert req.layer_sparsities == trace.sparsities[row].tolist()
                isolated = float(np.cumsum(trace.latencies[row])[-1])
                assert req.isolated_latency == isolated
                assert req.slo in [isolated * m for m in multipliers], name

    def test_same_row_shares_floats_but_not_lists(self, toy_traces):
        for name, (built, streamed, _) in self._builds(toy_traces).items():
            for requests, shared in ((built, True), (streamed, False)):
                by_row = {}
                for req in requests:
                    by_row.setdefault((req.key, tuple(req.layer_latencies)),
                                      []).append(req)
                a, b = next(g for g in by_row.values() if len(g) >= 2)[:2]
                assert a.layer_latencies is not b.layer_latencies
                assert a.layer_sparsities is not b.layer_sparsities
                pairs = list(zip(a.layer_latencies + a.layer_sparsities,
                                 b.layer_latencies + b.layer_sparsities))
                assert all((x is y) == shared for x, y in pairs), (name, shared)
                before = (list(b.layer_latencies), list(b.layer_sparsities))
                a.layer_latencies[0] = 1.0
                a.layer_sparsities.append(0.5)
                assert (b.layer_latencies, b.layer_sparsities) == before

    @pytest.mark.parametrize("policy, kwargs", (
        ("oracle", {}),
        ("srpt_oracle", {}),
        ("dysta", {"strategy": PredictorStrategy.AVERAGE_ALL}),
    ))
    def test_lazy_arrays_give_the_reference_schedule(self, toy_traces, toy_lut,
                                                     policy, kwargs):
        # Oracle reads latency prefixes and the average-all predictor reads
        # monitored sparsities, first at layer 1: both are built mid-run.
        from repro.schedulers.base import make_scheduler
        from repro.sim.engine import simulate, simulate_reference
        spec = WorkloadSpec(150.0, n_requests=120, seed=4)
        lazy = simulate(generate_workload(toy_traces, spec),
                        make_scheduler(policy, toy_lut, **kwargs))
        eager = generate_workload(toy_traces, spec)
        for req in eager:  # build both arrays before the run
            assert req.latency_prefix[-1] == req.isolated_latency
            assert len(req.monitored_sparsities) == 0
        reference = simulate_reference(eager, make_scheduler(policy, toy_lut, **kwargs))
        assert lazy.num_preemptions > 0
        assert ([(r.rid, r.finish_time) for r in lazy.requests]
                == [(r.rid, r.finish_time) for r in reference.requests])

    def test_list_build_retains_under_4000_bytes_per_request(self):
        # A request used to hold two numpy arrays and its own 2L floats
        # (7,248 B for attnn); now it owns two lists of shared floats.
        import gc
        import tracemalloc
        from repro.profiling.profiler import benchmark_suite
        traces = benchmark_suite("attnn", n_samples=200, seed=0)
        spec = WorkloadSpec(20.0, n_requests=6000, slo_multiplier=4.0, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            requests = generate_workload(traces, spec)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(requests) <= 4000
