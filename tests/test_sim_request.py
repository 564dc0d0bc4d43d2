"""Unit tests for the request lifecycle object."""

import math

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.sim.request import Request

from conftest import make_request


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(SchedulingError, match="empty"):
            make_request(latencies=(), sparsities=())

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchedulingError, match="mismatch"):
            make_request(latencies=(0.1, 0.2), sparsities=(0.5,))

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(SchedulingError, match="non-positive"):
            make_request(latencies=(0.1, 0.0), sparsities=(0.5, 0.5))

    def test_nonpositive_slo_rejected(self):
        with pytest.raises(SchedulingError, match="SLO"):
            make_request(slo=0.0)

    # NaN fails every comparison, so "<= 0" checks let it through.
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_latency_rejected(self, bad):
        with pytest.raises(SchedulingError, match="non-finite"):
            make_request(latencies=(0.1, bad), sparsities=(0.5, 0.5))

    def test_nan_slo_rejected(self):
        with pytest.raises(SchedulingError, match="SLO must be positive"):
            make_request(slo=math.nan)

    # A NaN arrival never compares as due, so an engine would wait for it
    # forever.
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_arrival_rejected(self, bad):
        with pytest.raises(SchedulingError, match="arrival must be finite"):
            make_request(arrival=bad)

    def test_nan_priority_rejected(self):
        with pytest.raises(SchedulingError, match="priority must be positive"):
            Request(rid=0, model_name="m", pattern_key="p", arrival=0.0,
                    slo=1.0, layer_latencies=[0.1], layer_sparsities=[0.5],
                    priority=math.nan)


class TestLifecycle:
    def test_initial_state(self):
        req = make_request(arrival=2.0)
        assert req.next_layer == 0
        assert not req.is_done
        assert req.last_run_end == 2.0  # waiting clock starts at arrival
        assert req.key == "short/dense"

    def test_isolated_and_remaining(self):
        req = make_request(latencies=(0.1, 0.2, 0.3), sparsities=(0.5, 0.5, 0.5))
        assert req.isolated_latency == pytest.approx(0.6)
        assert req.true_remaining == pytest.approx(0.6)
        req.next_layer = 2
        assert req.true_remaining == pytest.approx(0.3)

    def test_monitored_sparsities_window(self):
        req = make_request(latencies=(0.1, 0.2), sparsities=(0.4, 0.6))
        assert list(req.monitored_sparsities) == []
        req.next_layer = 1
        assert list(req.monitored_sparsities) == [0.4]

    def test_identity_semantics_and_hashability(self):
        # eq=False: equality is identity, so queue membership tests never
        # deep-compare latency traces, and requests can live in sets/dicts.
        a = make_request(rid=1)
        b = make_request(rid=1)
        assert a != b and a == a
        assert len({a, b}) == 2
        assert b in [b] and b not in [a]

    def test_cached_derived_state(self):
        req = make_request(latencies=(0.1, 0.2, 0.3), sparsities=(0.5, 0.5, 0.5))
        # Left to right, as documented; sum() compensates from Python 3.12.
        assert req.isolated_latency == (0.1 + 0.2) + 0.3
        assert list(req.latency_prefix) == pytest.approx([0.0, 0.1, 0.3, 0.6])
        assert req.num_layers == 3
        assert req.key == "short/dense"

    def test_lazy_arrays_equal_eager_ones_at_every_layer(self):
        lats = [0.1, 0.2, 0.3, 1e-7, 0.7]
        sps = [0.5, 0.1, 0.9, 0.0, 1.0]
        prefix = np.concatenate(([0.0], np.cumsum(np.asarray(lats))))
        for first_read in range(len(lats) + 1):
            req = make_request(latencies=lats, sparsities=sps)
            req.next_layer = first_read  # first read mid-run
            for j in range(first_read, len(lats) + 1):
                req.next_layer = j
                assert req.true_remaining == prefix[-1] - prefix[j]
                assert req.latency_prefix.tolist() == prefix.tolist()
                assert req.monitored_sparsities.tolist() == sps[:j]
            assert req.isolated_latency == prefix[-1]

    def test_deadline(self):
        req = make_request(arrival=1.0, slo=2.0)
        assert req.deadline == pytest.approx(3.0)

    def test_turnaround_requires_finish(self):
        req = make_request()
        with pytest.raises(SchedulingError, match="not finished"):
            _ = req.turnaround

    def test_turnaround_and_violation(self):
        req = make_request(arrival=1.0, slo=0.5)
        req.finish_time = 2.0
        assert req.turnaround == pytest.approx(1.0)
        assert req.violated
        assert req.normalized_turnaround == pytest.approx(1.0 / req.isolated_latency)

    def test_meeting_slo(self):
        req = make_request(arrival=0.0, slo=1.0)
        req.finish_time = 0.9
        assert not req.violated
