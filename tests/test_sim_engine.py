"""Unit tests for the layer-granularity scheduling engine."""

import math

import pytest

from repro.errors import SchedulingError
from repro.schedulers.base import Scheduler, make_scheduler
from repro.sim.engine import simulate
from repro.sim.multi import simulate_multi

from conftest import make_request


class FirstInQueue(Scheduler):
    """Trivially picks the first queue entry (queue order is unspecified, so
    only order-free properties are asserted with it)."""

    name = "first"

    def select(self, queue, now):
        return queue[0]


class BadScheduler(Scheduler):
    name = "bad"

    def select(self, queue, now):
        return make_request(rid=999)


def short(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="short", arrival=arrival, slo=slo,
                        latencies=(0.001, 0.002), sparsities=(0.5, 0.5))


def long(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="long", arrival=arrival, slo=slo,
                        latencies=(0.01, 0.01, 0.01), sparsities=(0.3, 0.3, 0.3))


class TestEngineBasics:
    def test_empty_workload_rejected(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate([], FirstInQueue(toy_lut))

    # NaN passes a "< 0" check and was priced as no cost at all; infinity
    # ran to an infinite ANTT.
    @pytest.mark.parametrize("cost", (math.nan, math.inf))
    @pytest.mark.parametrize("engine", (simulate, simulate_multi))
    def test_non_finite_switch_cost_rejected(self, toy_lut, engine, cost):
        with pytest.raises(SchedulingError, match="switch cost must be >= 0 and finite"):
            engine([short(0, 0.0)], make_scheduler("fcfs", toy_lut),
                   switch_cost=cost)

    def test_reused_request_rejected(self, toy_lut):
        req = short(0, 0.0)
        simulate([req], FirstInQueue(toy_lut))
        with pytest.raises(SchedulingError, match="already"):
            simulate([req], FirstInQueue(toy_lut))

    def test_outside_queue_selection_rejected(self, toy_lut):
        with pytest.raises(SchedulingError, match="outside the queue"):
            simulate([short(0, 0.0)], BadScheduler(toy_lut))

    def test_duplicate_rids_rejected_before_the_run(self, toy_lut):
        # Two streams both numbered from rid 0: the ready queue keys its rows
        # by rid, so the batch path used to fail part-way through the run.
        reqs = [short(0, 0.0), long(1, 0.0), long(0, 0.001), short(1, 0.002)]
        with pytest.raises(SchedulingError, match="request id 0 appears more than once"):
            simulate(reqs, make_scheduler("dysta", toy_lut))
        assert all(r.next_layer == 0 for r in reqs)

    def test_single_request_runs_isolated(self, toy_lut):
        req = short(0, arrival=1.0)
        result = simulate([req], FirstInQueue(toy_lut))
        assert req.finish_time == pytest.approx(1.0 + req.isolated_latency)
        assert result.makespan == pytest.approx(req.finish_time)
        assert result.metrics["antt"] == pytest.approx(1.0)

    def test_idle_gap_fast_forwards(self, toy_lut):
        a = short(0, arrival=0.0)
        b = short(1, arrival=100.0)
        simulate([a, b], FirstInQueue(toy_lut))
        assert b.finish_time == pytest.approx(100.0 + b.isolated_latency)

    def test_work_conservation(self, toy_lut):
        reqs = [long(i, arrival=0.0) for i in range(3)]
        result = simulate(reqs, FirstInQueue(toy_lut))
        total_work = sum(r.isolated_latency for r in reqs)
        assert result.makespan == pytest.approx(total_work)
        for req in reqs:
            assert req.executed_time == pytest.approx(req.isolated_latency)

    def test_finish_times_respect_arrival_plus_isolated(self, toy_lut):
        reqs = [long(0, 0.0), short(1, 0.005)]
        simulate(reqs, make_scheduler("sjf", toy_lut))
        for req in reqs:
            assert req.finish_time >= req.arrival + req.isolated_latency - 1e-12


class TestPreemption:
    def test_fcfs_never_preempts(self, toy_lut):
        reqs = [long(0, 0.0), short(1, 0.001), short(2, 0.002)]
        result = simulate(reqs, make_scheduler("fcfs", toy_lut))
        assert result.num_preemptions == 0

    def test_sjf_preempts_long_job_for_short_arrival(self, toy_lut):
        # Long job starts; a short job arrives mid-flight and SJF switches at
        # the next layer boundary (Fig 5 behaviour).
        a = long(0, 0.0)
        b = short(1, 0.005)
        result = simulate([a, b], make_scheduler("sjf", toy_lut))
        assert result.num_preemptions >= 1
        assert b.finish_time < a.finish_time

    def test_arrival_admitted_only_at_layer_boundary(self, toy_lut):
        # b arrives while a's first (10ms) layer runs; its first dispatch can
        # only happen after that layer completes.
        a = long(0, 0.0)
        b = short(1, 0.001)
        simulate([a, b], make_scheduler("sjf", toy_lut))
        assert b.first_dispatch_time >= 0.01

    def test_invocation_count_equals_total_layers(self, toy_lut):
        reqs = [long(0, 0.0), short(1, 0.0)]
        result = simulate(reqs, FirstInQueue(toy_lut))
        assert result.num_scheduler_invocations == 5  # 3 + 2 layers


class TestResultObject:
    def test_metrics_populated(self, toy_lut):
        result = simulate([short(0, 0.0)], FirstInQueue(toy_lut))
        assert result.antt == result.metrics["antt"]
        assert result.violation_rate == 0.0
        assert result.stp > 0
