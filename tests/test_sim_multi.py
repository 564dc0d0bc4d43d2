"""Unit + property tests for the multi-accelerator engine and the engine's
model-switch cost."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate
from repro.sim.multi import simulate_multi
from repro.sim.workload import WorkloadSpec, generate_workload

from conftest import make_request
from test_property_engine import build_world


def short(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="short", arrival=arrival, slo=slo,
                        latencies=(0.001, 0.002), sparsities=(0.5, 0.5))


def long(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="long", arrival=arrival, slo=slo,
                        latencies=(0.01, 0.01, 0.01), sparsities=(0.3, 0.3, 0.3))


class TestSwitchCost:
    def test_negative_rejected(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate([short(0, 0.0)], make_scheduler("fcfs", toy_lut), switch_cost=-1.0)

    def test_single_request_pays_one_switch(self, toy_lut):
        req = short(0, arrival=0.0)
        result = simulate([req], make_scheduler("fcfs", toy_lut), switch_cost=0.5)
        assert req.finish_time == pytest.approx(0.5 + req.isolated_latency)
        assert result.makespan == pytest.approx(req.finish_time)

    def test_fcfs_pays_one_switch_per_request(self, toy_lut):
        reqs = [short(0, 0.0), short(1, 0.0), short(2, 0.0)]
        simulate(reqs, make_scheduler("fcfs", toy_lut), switch_cost=0.1)
        total_work = sum(r.isolated_latency for r in reqs)
        last = max(r.finish_time for r in reqs)
        assert last == pytest.approx(total_work + 3 * 0.1)

    def test_zero_cost_matches_default(self, toy_lut):
        a = [long(0, 0.0), short(1, 0.005)]
        b = [long(0, 0.0), short(1, 0.005)]
        ra = simulate(a, make_scheduler("sjf", toy_lut))
        rb = simulate(b, make_scheduler("sjf", toy_lut), switch_cost=0.0)
        assert [r.finish_time for r in ra.requests] == [
            r.finish_time for r in rb.requests
        ]

    def test_preemptive_policy_pays_more_under_switch_cost(self, toy_lut):
        # LAS-style thrashing is penalized; FCFS barely notices.
        from repro.schedulers.base import Scheduler

        class Thrash(Scheduler):
            name = "thrash"

            def select(self, queue, now):
                return min(queue, key=lambda r: (r.executed_time, r.rid))

        def makespan(factory, cost):
            reqs = [long(0, 0.0), long(1, 0.0), long(2, 0.0)]
            return simulate(reqs, factory, switch_cost=cost).makespan

        thrash_overhead = makespan(Thrash(toy_lut), 0.01) - makespan(Thrash(toy_lut), 0.0)
        fcfs_overhead = makespan(
            make_scheduler("fcfs", toy_lut), 0.01
        ) - makespan(make_scheduler("fcfs", toy_lut), 0.0)
        assert thrash_overhead > 2 * fcfs_overhead


class TestMultiAccelerator:
    def test_validation(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate_multi([], make_scheduler("fcfs", toy_lut))
        with pytest.raises(SchedulingError):
            simulate_multi([short(0, 0.0)], make_scheduler("fcfs", toy_lut),
                           num_accelerators=0)

    def test_two_npus_run_independent_requests_in_parallel(self, toy_lut):
        a, b = long(0, 0.0), long(1, 0.0)
        result = simulate_multi([a, b], make_scheduler("fcfs", toy_lut),
                                num_accelerators=2)
        # Perfect parallelism: both finish at their isolated latency.
        assert a.finish_time == pytest.approx(a.isolated_latency)
        assert b.finish_time == pytest.approx(b.isolated_latency)
        assert result.makespan == pytest.approx(0.03)

    def test_idle_npu_wakes_on_arrival(self, toy_lut):
        # NPU0 busy with a long layer; a new request arriving mid-layer must
        # start immediately on the idle NPU1.
        a = long(0, 0.0)
        b = short(1, 0.002)
        simulate_multi([a, b], make_scheduler("fcfs", toy_lut), num_accelerators=2)
        assert b.first_dispatch_time == pytest.approx(0.002)

    def test_pool_speedup_under_load(self, toy_lut):
        def run(k):
            reqs = [long(i, 0.0) for i in range(6)]
            return simulate_multi(reqs, make_scheduler("sjf", toy_lut),
                                  num_accelerators=k)

        assert run(3).makespan < run(1).makespan / 2.5

    @pytest.mark.parametrize("scheduler_name", ["fcfs", "sjf", "planaria", "dysta"])
    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=8, deadline=None)
    def test_single_npu_pool_matches_engine(self, scheduler_name, seed):
        lut, requests_a = build_world(seed, n_models=2, n_requests=10)
        _, requests_b = build_world(seed, n_models=2, n_requests=10)
        single = simulate(requests_a, make_scheduler(scheduler_name, lut))
        pooled = simulate_multi(
            requests_b, make_scheduler(scheduler_name, lut), num_accelerators=1
        )
        assert [r.finish_time for r in single.requests] == [
            r.finish_time for r in pooled.requests
        ]
        assert single.metrics["antt"] == pooled.metrics["antt"]

    def test_knob_validation(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate_multi([short(0, 0.0)], make_scheduler("fcfs", toy_lut),
                           switch_cost=-1.0)
        with pytest.raises(SchedulingError):
            simulate_multi([short(0, 0.0)], make_scheduler("fcfs", toy_lut),
                           block_size=0)

    @pytest.mark.parametrize("scheduler_name", ["fcfs", "sjf", "dysta"])
    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=6, deadline=None)
    def test_single_npu_pool_matches_engine_with_knobs(self, scheduler_name, seed):
        """Feature parity: switch_cost + block_size make the single-NPU
        engine's decisions when the pool has one accelerator."""
        lut, requests_a = build_world(seed, n_models=2, n_requests=10)
        _, requests_b = build_world(seed, n_models=2, n_requests=10)
        single = simulate(requests_a, make_scheduler(scheduler_name, lut),
                          switch_cost=0.003, block_size=2)
        pooled = simulate_multi(
            requests_b, make_scheduler(scheduler_name, lut),
            num_accelerators=1, switch_cost=0.003, block_size=2,
        )
        assert [r.rid for r in single.requests] == [r.rid for r in pooled.requests]
        # Approximate: the pool adds a block's summed latency once, while
        # simulate adds one layer at a time, so finish times can differ in
        # the last bits at block sizes above 1.
        assert [r.finish_time for r in single.requests] == pytest.approx(
            [r.finish_time for r in pooled.requests]
        )
        assert single.num_preemptions == pooled.num_preemptions
        assert single.num_scheduler_invocations == pooled.num_scheduler_invocations

    def test_each_npu_tracks_resident_weights(self, toy_lut):
        # Two independent requests on two NPUs: one switch each, so both
        # finish at isolated latency + one reload; a shared-resident model
        # would charge one of them twice.
        a, b = long(0, 0.0), long(1, 0.0)
        simulate_multi([a, b], make_scheduler("fcfs", toy_lut),
                       num_accelerators=2, switch_cost=0.5)
        assert a.finish_time == pytest.approx(0.5 + a.isolated_latency)
        assert b.finish_time == pytest.approx(0.5 + b.isolated_latency)

    def test_block_size_reduces_invocations(self, toy_lut):
        def run(block):
            reqs = [long(i, 0.0) for i in range(4)]
            return simulate_multi(reqs, make_scheduler("fcfs", toy_lut),
                                  num_accelerators=2, block_size=block)

        per_layer = run(1)
        per_model = run(3)
        assert per_model.num_scheduler_invocations < per_layer.num_scheduler_invocations
        assert per_model.makespan == pytest.approx(per_layer.makespan)

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_pool_invariants(self, seed, k):
        lut, requests = build_world(seed, n_models=3, n_requests=12)
        result = simulate_multi(requests, make_scheduler("dysta", lut),
                                num_accelerators=k)
        assert len(result.requests) == len(requests)
        for req in requests:
            assert req.is_done
            assert req.finish_time >= req.arrival + req.isolated_latency - 1e-9
            assert req.executed_time == pytest.approx(req.isolated_latency)
        # k accelerators can do at most k units of work per unit time.
        total_work = sum(r.isolated_latency for r in requests)
        span = result.makespan - min(r.arrival for r in requests)
        assert span * k >= total_work - 1e-9


#: Recorded multi-NPU schedules on the toy world, keyed by policy and then
#: (accelerators, switch cost, block size): a digest of the completion
#: sequence plus invocations and preemptions.  Unlike the
#: engine-vs-reference and traced-vs-untraced comparisons, fixed values
#: catch a change that moves both sides of such a pair the same way.
PINNED_SCHEDULES = {
    "dysta": {
        (2, 0.0, 1): ("850db5cc13e92691", 293, 22),
        (2, 0.0, 2): ("0b98513b79fccd14", 173, 16),
        (2, 0.002, 1): ("9afa39234fea8ab2", 293, 34),
        (2, 0.002, 2): ("3df002c1866f871e", 173, 19),
        (3, 0.0, 1): ("9b434b8f42339323", 293, 16),
        (3, 0.0, 2): ("3bd7d4880bbc3e0e", 173, 11),
        (3, 0.002, 1): ("e40df1f5be775118", 293, 27),
        (3, 0.002, 2): ("c5f7660d37f54536", 173, 14),
    },
    "sjf": {
        (2, 0.0, 1): ("c37bf61cde10b3c3", 293, 29),
        (2, 0.0, 2): ("8457779bc056297f", 173, 20),
        (2, 0.002, 1): ("782befbbe7e874e4", 293, 36),
        (2, 0.002, 2): ("8d4b0c0c6f81b6ee", 173, 28),
        (3, 0.0, 1): ("625538cac9cfda84", 293, 19),
        (3, 0.0, 2): ("0a55f7b146963fb5", 173, 14),
        (3, 0.002, 1): ("c17a32787c105eb7", 293, 36),
        (3, 0.002, 2): ("f47b361a3cd59770", 173, 19),
    },
    "fcfs": {
        (2, 0.0, 1): ("50489792c921885c", 293, 1),
        (2, 0.0, 2): ("5804f06c21c50f3e", 173, 0),
        (2, 0.002, 1): ("35af173b6b5c505d", 293, 1),
        (2, 0.002, 2): ("7e467071e0dc2cfb", 173, 0),
        (3, 0.0, 1): ("a2e4f0ef7b399a56", 293, 14),
        (3, 0.0, 2): ("732ca1a401a7a032", 173, 7),
        (3, 0.002, 1): ("a883d52eb6b6523c", 293, 9),
        (3, 0.002, 2): ("c3f8026e0449a72a", 173, 6),
    },
    "prema": {
        (2, 0.0, 1): ("9a36b0b77c2b88ae", 293, 27),
        (2, 0.0, 2): ("e12c1f652f38ee04", 173, 20),
        (2, 0.002, 1): ("5f8fa9b2e87bdfb4", 293, 31),
        (2, 0.002, 2): ("a0bb49ab69c74261", 173, 19),
        (3, 0.0, 1): ("625538cac9cfda84", 293, 19),
        (3, 0.0, 2): ("0a55f7b146963fb5", 173, 14),
        (3, 0.002, 1): ("c17a32787c105eb7", 293, 36),
        (3, 0.002, 2): ("f47b361a3cd59770", 173, 19),
    },
    "planaria": {
        (2, 0.0, 1): ("59fdec334b864068", 293, 70),
        (2, 0.0, 2): ("f2c532548e38f8fa", 173, 32),
        (2, 0.002, 1): ("1a51df4b4bae7ca6", 293, 74),
        (2, 0.002, 2): ("36ed00986b01ace7", 173, 41),
        (3, 0.0, 1): ("a22c7c4c5da0c1f1", 293, 38),
        (3, 0.0, 2): ("49c72d4102ecb1aa", 173, 24),
        (3, 0.002, 1): ("a94e9c1526bc2a09", 293, 46),
        (3, 0.002, 2): ("266a88a410182419", 173, 27),
    },
    "energy_edp": {
        (2, 0.0, 1): ("c37bf61cde10b3c3", 293, 29),
        (2, 0.0, 2): ("8457779bc056297f", 173, 20),
        (2, 0.002, 1): ("782befbbe7e874e4", 293, 36),
        (2, 0.002, 2): ("8d4b0c0c6f81b6ee", 173, 28),
        (3, 0.0, 1): ("625538cac9cfda84", 293, 19),
        (3, 0.0, 2): ("0a55f7b146963fb5", 173, 14),
        (3, 0.002, 1): ("c17a32787c105eb7", 293, 36),
        (3, 0.002, 2): ("f47b361a3cd59770", 173, 19),
    },
}


def schedule_digest(result):
    """First 16 hex digits of sha256 over the ``(rid, finish_time)`` sequence."""
    h = hashlib.sha256()
    for r in result.requests:
        h.update(f"{r.rid}:{r.finish_time!r};".encode())
    return h.hexdigest()[:16]


class TestPinnedSchedules:
    @pytest.mark.parametrize("name", sorted(PINNED_SCHEDULES))
    def test_schedules_match_recorded_values(self, toy_traces, toy_lut, name):
        spec = WorkloadSpec(150.0, n_requests=120, slo_multiplier=5.0, seed=0)
        got = {}
        for n, cost, block in itertools.product((2, 3), (0.0, 0.002), (1, 2)):
            result = simulate_multi(generate_workload(toy_traces, spec),
                                    make_scheduler(name, toy_lut),
                                    num_accelerators=n, switch_cost=cost,
                                    block_size=block)
            got[(n, cost, block)] = (
                schedule_digest(result), result.num_scheduler_invocations,
                result.num_preemptions,
            )
        assert got == PINNED_SCHEDULES[name]
