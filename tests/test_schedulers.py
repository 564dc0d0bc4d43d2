"""Unit tests for the baseline scheduling policies."""

import pytest

from repro.core.dysta import DystaScheduler
from repro.errors import SchedulingError
from repro.schedulers.base import available_schedulers, make_scheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.planaria import PlanariaScheduler
from repro.schedulers.prema import PREMAScheduler
from repro.schedulers.sdrm3 import SDRM3Scheduler
from repro.schedulers.sjf import SJFScheduler
from repro.schedulers.oracle import OracleScheduler

from conftest import make_request


def short_req(rid=0, arrival=0.0, **kw):
    return make_request(rid=rid, model="short", arrival=arrival,
                        latencies=(0.001, 0.002), sparsities=(0.5, 0.5), **kw)


def long_req(rid=1, arrival=0.0, **kw):
    return make_request(rid=rid, model="long", arrival=arrival,
                        latencies=(0.01, 0.01, 0.01), sparsities=(0.3, 0.3, 0.3), **kw)


class TestRegistry:
    def test_all_paper_schedulers_registered(self):
        names = available_schedulers()
        for expected in ("fcfs", "sjf", "prema", "planaria", "sdrm3", "oracle",
                         "dysta", "dysta_nosparse"):
            assert expected in names

    def test_unknown_scheduler_raises(self, toy_lut):
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            make_scheduler("quantum_annealer", toy_lut)

    def test_make_scheduler_passes_kwargs(self, toy_lut):
        sched = make_scheduler("prema", toy_lut, threshold=5.0)
        assert sched.threshold == 5.0

    def test_names_set_by_decorator(self, toy_lut):
        assert make_scheduler("dysta", toy_lut).name == "dysta"
        assert make_scheduler("dysta_nosparse", toy_lut).name == "dysta_nosparse"

    @pytest.mark.parametrize("name", available_schedulers())
    def test_fresh_instance_selects_before_reset(self, toy_lut, name):
        # Per-run state is created in __init__, so a policy can decide
        # before any engine has called reset().
        sched = make_scheduler(name, toy_lut)
        queue = [long_req(rid=1, arrival=0.0), short_req(rid=2, arrival=0.5)]
        assert sched.select(queue, now=1.0) in queue


class TestFCFS:
    def test_picks_earliest_arrival(self, toy_lut):
        sched = FCFSScheduler(toy_lut)
        sched.reset()
        a, b = long_req(rid=1, arrival=0.0), short_req(rid=2, arrival=0.5)
        assert sched.select([b, a], now=1.0) is a

    def test_non_preemptive(self, toy_lut):
        sched = FCFSScheduler(toy_lut)
        sched.reset()
        a, b = long_req(rid=1, arrival=0.0), short_req(rid=2, arrival=0.5)
        first = sched.select([a, b], now=1.0)
        a.next_layer = 1  # partially executed
        # Even though b arrived later with shorter work, a keeps the engine.
        assert sched.select([a, b], now=2.0) is first


class TestSJF:
    def test_picks_shortest_estimated(self, toy_lut):
        sched = SJFScheduler(toy_lut)
        a, b = long_req(rid=1), short_req(rid=2)
        assert sched.select([a, b], now=0.0) is b

    def test_uses_remaining_not_total(self, toy_lut):
        sched = SJFScheduler(toy_lut)
        a, b = long_req(rid=1), short_req(rid=2)
        a.next_layer = 2  # long job nearly done: remaining ~0.01 < short total? no
        # long remaining (1 layer ~0.01) vs short total (~0.003): short wins.
        assert sched.select([a, b], now=0.0) is b
        a.next_layer = 3
        assert toy_lut.static_remaining("long/dense", 3) == 0.0
        assert sched.select([a, b], now=0.0) is a


class TestPREMA:
    def test_defaults_to_sjf_before_threshold(self, toy_lut):
        sched = PREMAScheduler(toy_lut, threshold=3.0)
        sched.reset()
        a, b = long_req(rid=1), short_req(rid=2)
        sched.on_arrival(a, 0.0)
        sched.on_arrival(b, 0.0)
        assert sched.select([a, b], now=0.001) is b

    def test_aged_job_gets_priority(self, toy_lut):
        sched = PREMAScheduler(toy_lut, threshold=3.0)
        sched.reset()
        a, b = long_req(rid=1), short_req(rid=2)
        sched.on_arrival(a, 0.0)
        # Long job waits >> threshold x isolated time (0.03s * 3).
        sched.on_arrival(b, 1.0)
        assert sched.select([a, b], now=1.0) is a

    def test_tokens_cleared_on_complete(self, toy_lut):
        sched = PREMAScheduler(toy_lut)
        sched.reset()
        a = long_req(rid=1)
        sched.on_arrival(a, 0.0)
        sched.select([a], now=1.0)
        sched.on_complete(a, 1.0)
        assert a.rid not in sched._tokens


class TestPlanaria:
    def test_prefers_least_slack_feasible(self, toy_lut):
        sched = PlanariaScheduler(toy_lut)
        tight = short_req(rid=1, slo=0.004)   # slack ~1ms
        loose = short_req(rid=2, slo=0.5)     # slack huge
        assert sched.select([loose, tight], now=0.0) is tight

    def test_triages_out_lost_causes(self, toy_lut):
        sched = PlanariaScheduler(toy_lut)
        lost = long_req(rid=1, slo=0.001)     # cannot meet: remaining 0.03 > slo
        savable = short_req(rid=2, slo=0.5)
        assert sched.select([lost, savable], now=0.0) is savable

    def test_serves_lost_causes_when_alone(self, toy_lut):
        sched = PlanariaScheduler(toy_lut)
        lost = long_req(rid=1, slo=0.001)
        assert sched.select([lost], now=0.0) is lost


class TestSDRM3:
    def test_urgency_prefers_tight_deadline(self, toy_lut):
        sched = SDRM3Scheduler(toy_lut, alpha=0.0)  # urgency only
        tight = short_req(rid=1, slo=0.004)
        loose = short_req(rid=2, slo=1.0)
        assert sched.select([loose, tight], now=0.0) is tight

    def test_fairness_prefers_starved_request(self, toy_lut):
        sched = SDRM3Scheduler(toy_lut, alpha=100.0)  # fairness dominates
        starved = short_req(rid=1, arrival=0.0, slo=10.0)
        fed = short_req(rid=2, arrival=0.0, slo=10.0)
        fed.executed_time = 0.5
        assert sched.select([fed, starved], now=1.0) is starved

    def test_urgency_clamped_after_deadline(self, toy_lut):
        sched = SDRM3Scheduler(toy_lut)
        expired = short_req(rid=1, slo=0.001)
        assert sched._urgency(expired, now=1.0) == 10.0


class TestOracle:
    def test_uses_true_remaining(self, toy_lut):
        sched = OracleScheduler(toy_lut, eta=0.0)
        # Same model/pattern, but one sample is truly much faster: the LUT
        # cannot tell them apart, the Oracle can.
        fast = make_request(rid=1, model="long", latencies=(0.001, 0.001, 0.001),
                            sparsities=(0.8, 0.8, 0.8), slo=1.0)
        slow = make_request(rid=2, model="long", latencies=(0.02, 0.02, 0.02),
                            sparsities=(0.1, 0.1, 0.1), slo=1.0)
        assert sched.select([slow, fast], now=0.0) is fast
