"""Fault-injection subsystem tests.

The anchors:

* **lockstep parity** — any seeded fault timeline collapsed to zero-length
  windows (``FaultSpec.instantly_recovered``) must be bit-identical to a
  fault-free run: injected faults are first-class simulation events, not a
  perturbation of the event loop;
* **accounting** — every injected fault shows up once in
  ``ClusterResult.metrics["num_faults"]`` and at least once on the trace
  bus; killed in-flight requests are requeued ticket-preserving and still
  complete;
* **determinism** — timelines and presets are pure functions of their
  seeds, and serialize to byte-stable JSON (the fuzzer's reproducer
  contract).
"""

import json

import pytest

from repro.cluster import AdmissionController, Pool, simulate_cluster
from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSpec,
    SHED_FAULT_BLACKOUT,
    available_fault_presets,
    build_faults,
    fault_preset_descriptions,
    fault_seed,
    sample_fault_spec,
)
from repro.faults.spec import KIND_BLACKOUT, KIND_OUTAGE, KIND_REVOKE, KIND_SLOWDOWN
from repro.obs import KIND_FAULT, KIND_RECOVER, Observability, RequestLedger
from repro.schedulers.base import make_scheduler
from repro.sim.workload import generate_workload

from conftest import warehouse_files
from test_obs import fingerprint, toy_world


def run_cluster(faults=None, *, rate=300.0, n=400, seed=1, obs=None,
                max_queue_depth=64, admission=True):
    """Two-pool cluster run (dysta + sjf) on the shared toy world."""
    traces, lut, spec = toy_world(rate=rate, n_requests=n, seed=seed)
    pools = [Pool("a", make_scheduler("dysta", lut), 2, switch_cost=0.002),
             Pool("b", make_scheduler("sjf", lut), 2, switch_cost=0.002)]
    controller = (AdmissionController(max_queue_depth=max_queue_depth)
                  if admission else None)
    return simulate_cluster(generate_workload(traces, spec), pools, "jsq",
                            admission=controller, obs=obs, faults=faults)


#: A deterministic mixed timeline, well inside the busy window of the
#: default toy workload (arrivals span ~1.3 s at rate 300).
MIXED = FaultSpec((
    FaultEvent(KIND_OUTAGE, 0.2, duration=0.3, pool="a", count=2),
    FaultEvent(KIND_SLOWDOWN, 0.1, duration=0.5, factor=3.0),
    FaultEvent(KIND_BLACKOUT, 0.5, duration=0.2, pool="b"),
    FaultEvent(KIND_REVOKE, 0.6, pool="b", count=1),
))


# ---------------------------------------------------------------------------
# Spec validation and serialization
# ---------------------------------------------------------------------------


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultEvent("meteor", 1.0)

    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_bad_time_rejected(self, time):
        with pytest.raises(FaultError, match="time"):
            FaultEvent(KIND_OUTAGE, time)

    def test_negative_duration_rejected(self):
        with pytest.raises(FaultError, match="duration"):
            FaultEvent(KIND_OUTAGE, 1.0, duration=-0.5)

    def test_count_below_one_rejected(self):
        with pytest.raises(FaultError, match="count"):
            FaultEvent(KIND_OUTAGE, 1.0, duration=1.0, count=0)

    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(FaultError, match="factor"):
            FaultEvent(KIND_SLOWDOWN, 1.0, duration=1.0, factor=0.5)

    def test_factor_only_for_slowdowns(self):
        with pytest.raises(FaultError, match="factor"):
            FaultEvent(KIND_OUTAGE, 1.0, duration=1.0, factor=2.0)

    def test_revoke_duration_must_be_zero(self):
        with pytest.raises(FaultError, match="permanent"):
            FaultEvent(KIND_REVOKE, 1.0, duration=0.5)

    @pytest.mark.parametrize("kind", [KIND_SLOWDOWN, KIND_BLACKOUT])
    def test_count_rejected_for_uncountable_kinds(self, kind):
        with pytest.raises(FaultError, match="count"):
            FaultEvent(kind, 1.0, duration=1.0, count=2,
                       factor=2.0 if kind == KIND_SLOWDOWN else 1.0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultError, match="unknown fault-event fields"):
            FaultEvent.from_dict({"kind": KIND_OUTAGE, "time": 1.0, "boom": 1})

    def test_from_dict_requires_kind_and_time(self):
        with pytest.raises(FaultError, match="'kind' and 'time'"):
            FaultEvent.from_dict({"kind": KIND_OUTAGE})

    def test_spec_rejects_non_events(self):
        with pytest.raises(FaultError, match="must be FaultEvent"):
            FaultSpec(({"kind": KIND_OUTAGE, "time": 1.0},))

    def test_from_json_requires_a_list(self):
        with pytest.raises(FaultError, match="must be a list"):
            FaultSpec.from_json('{"kind": "outage"}')


class TestFaultSpecSerialization:
    def test_json_roundtrip_is_byte_stable(self):
        text = MIXED.to_json()
        again = FaultSpec.from_json(text)
        assert again == MIXED
        assert again.to_json() == text
        # Canonical form survives a generic json round-trip too.
        assert json.dumps(json.loads(text), sort_keys=True) == text

    def test_instantly_recovered_drops_revokes_and_durations(self):
        ghost = MIXED.instantly_recovered()
        assert len(ghost) == 3  # the revoke is gone
        assert all(e.duration == 0.0 for e in ghost.events)
        assert all(e.kind != KIND_REVOKE for e in ghost.events)

    def test_sampling_is_seed_deterministic(self):
        a = sample_fault_spec(7, 10.0)
        b = sample_fault_spec(7, 10.0)
        c = sample_fault_spec(8, 10.0)
        assert a.to_json() == b.to_json()
        assert c.to_json() != a.to_json()
        assert 1 <= len(a) <= 4
        for event in a.events:
            assert event.kind in FAULT_KINDS
            assert 0.0 <= event.time <= 10.0

    def test_sampling_validates_inputs(self):
        with pytest.raises(FaultError, match="duration"):
            sample_fault_spec(0, 0.0)
        with pytest.raises(FaultError, match="max_events"):
            sample_fault_spec(0, 10.0, max_events=0)


class TestPresets:
    def test_registry_is_sorted_and_described(self):
        names = available_fault_presets()
        assert names == sorted(names)
        assert {"outages", "stragglers", "spot", "blackouts", "chaos"} <= set(names)
        descriptions = fault_preset_descriptions()
        assert set(descriptions) == set(names)
        assert all(descriptions[name] for name in names)

    def test_build_faults_deterministic(self):
        a = build_faults("chaos", duration=10.0, seed=3)
        assert a.to_json() == build_faults("chaos", duration=10.0, seed=3).to_json()
        assert a.to_json() != build_faults("chaos", duration=10.0, seed=4).to_json()
        assert fault_seed("chaos", 3) != fault_seed("outages", 3)

    def test_build_faults_validates(self):
        with pytest.raises(FaultError, match="unknown fault preset"):
            build_faults("earthquake", duration=10.0)
        with pytest.raises(FaultError, match="duration"):
            build_faults("chaos", duration=0.0)

    @pytest.mark.parametrize("name", available_fault_presets())
    def test_every_preset_runs_end_to_end(self, name):
        spec = build_faults(name, duration=1.2, seed=0)
        result = run_cluster(spec)
        assert result.metrics["num_faults"] == len(spec)
        assert result.num_completed + result.num_shed == result.num_offered


# ---------------------------------------------------------------------------
# Lockstep parity: zero-length faults are invisible (the property that pins
# faults as first-class events rather than loop perturbations)
# ---------------------------------------------------------------------------


class TestLockstepParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_instantly_recovered_timeline_is_bit_identical(self, seed):
        base = run_cluster(None)
        ghost = sample_fault_spec(seed, 1.3).instantly_recovered()
        shadow = run_cluster(ghost)
        assert fingerprint(shadow.requests) == fingerprint(base.requests)
        assert shadow.makespan == base.makespan
        # Only the fault counters may differ between the two summaries.
        skip = {"num_faults", "requests_requeued_by_fault",
                "requests_shed_by_blackout"}
        assert ({k: v for k, v in shadow.metrics.items() if k not in skip}
                == {k: v for k, v in base.metrics.items() if k not in skip})
        if ghost:
            assert shadow.metrics["num_faults"] == len(ghost)
            assert shadow.metrics["requests_requeued_by_fault"] == 0.0
        else:
            # An all-revocation timeline collapses to nothing: the
            # injector never arms and the run is the pristine path.
            assert "num_faults" not in shadow.metrics

    def test_empty_spec_is_the_pristine_path(self):
        base = run_cluster(None)
        empty = run_cluster(FaultSpec())
        assert fingerprint(empty.requests) == fingerprint(base.requests)
        assert "num_faults" not in empty.metrics  # injector never armed


# ---------------------------------------------------------------------------
# Per-kind semantics
# ---------------------------------------------------------------------------


class TestOutage:
    def test_kills_requeue_and_still_complete(self):
        ledger = RequestLedger()
        obs = Observability(sinks=[ledger])
        spec = FaultSpec((
            FaultEvent(KIND_OUTAGE, 0.2, duration=0.3, pool="a", count=2),
        ))
        result = run_cluster(spec, obs=obs, admission=False)
        assert result.metrics["num_faults"] == 1
        assert result.metrics["requests_requeued_by_fault"] >= 1
        assert result.metrics["acc_seconds_lost"] == pytest.approx(0.6)
        assert result.num_shed == 0           # requeued, never dropped
        assert result.num_completed == result.num_offered
        stats = result.pool_stats["a"]
        assert stats.fault_kills == result.metrics["requests_requeued_by_fault"]
        assert stats.acc_seconds_lost == pytest.approx(0.6)
        # Truncated execute spans keep the ledger conservative.
        ledger.check_conservation()

    def test_outage_emits_fault_and_recover_bus_events(self):
        obs = Observability(trace=True)
        spec = FaultSpec((
            FaultEvent(KIND_OUTAGE, 0.2, duration=0.3, pool="a", count=1),
        ))
        run_cluster(spec, obs=obs)
        counts = obs.bus.counts
        assert counts[KIND_FAULT] >= 1        # window span (+ kill instants)
        assert counts[KIND_RECOVER] == 1

    def test_failed_capacity_stays_billed(self):
        base = run_cluster(None)
        spec = FaultSpec((
            FaultEvent(KIND_OUTAGE, 0.2, duration=0.3, pool="a", count=2),
        ))
        faulted = run_cluster(spec)
        # An outage is downtime, not a scale-down: the bill is unchanged
        # for the same makespan (it may stretch under the lost capacity).
        assert (faulted.metrics["acc_seconds_provisioned"]
                >= base.metrics["acc_seconds_provisioned"] - 1e-9)
        assert faulted.metrics["num_scale_events"] == 0


class TestSlowdown:
    def test_straggler_window_stretches_service(self):
        base = run_cluster(None)
        spec = FaultSpec((
            FaultEvent(KIND_SLOWDOWN, 0.1, duration=0.6, factor=4.0),
        ))
        slow = run_cluster(spec)
        assert slow.metrics["violation_rate"] > base.metrics["violation_rate"]
        assert slow.makespan > base.makespan

    def test_slowdown_recovers(self):
        obs = Observability(trace=True)
        spec = FaultSpec((
            FaultEvent(KIND_SLOWDOWN, 0.1, duration=0.2, factor=2.0),
        ))
        run_cluster(spec, obs=obs)
        # Pool-wide window: one recover event per targeted pool.
        assert obs.bus.counts[KIND_RECOVER] == 2


class TestBlackout:
    def test_arrivals_inside_window_are_shed_with_reason(self):
        spec = FaultSpec((
            FaultEvent(KIND_BLACKOUT, 0.4, duration=0.3),
        ))
        result = run_cluster(spec, admission=False)
        assert result.num_shed > 0
        assert result.shed_reasons == {SHED_FAULT_BLACKOUT: result.num_shed}
        assert (result.metrics["requests_shed_by_blackout"]
                == float(result.num_shed))

    def test_blackout_works_without_admission_controller(self):
        # Blackout shedding must not depend on an AdmissionController
        # being configured: it is an injected fault, not a policy.
        spec = FaultSpec((FaultEvent(KIND_BLACKOUT, 0.2, duration=0.5),))
        with_ctrl = run_cluster(spec)
        without = run_cluster(spec, admission=False)
        assert without.metrics["requests_shed_by_blackout"] > 0
        assert (with_ctrl.metrics["requests_shed_by_blackout"]
                == without.metrics["requests_shed_by_blackout"])


class TestRevoke:
    def test_revocation_is_permanent_and_graceful(self):
        spec = FaultSpec((FaultEvent(KIND_REVOKE, 0.3, pool="b", count=1),))
        result = run_cluster(spec)
        stats = result.pool_stats["b"]
        assert stats.num_accelerators == 1    # started at 2
        assert stats.scale_downs == 1
        assert result.metrics["num_faults"] == 1
        # Graceful drain: nothing was killed or shed by the revocation.
        assert result.metrics["requests_requeued_by_fault"] == 0.0
        assert result.num_completed == result.num_offered


class TestInjectorValidation:
    def test_unknown_pool_rejected_at_reset(self):
        spec = FaultSpec((
            FaultEvent(KIND_OUTAGE, 0.2, duration=0.2, pool="nope", count=1),
        ))
        with pytest.raises(FaultError, match="unknown pool"):
            run_cluster(spec)


# ---------------------------------------------------------------------------
# Mixed timeline: accounting is exact, conservation holds
# ---------------------------------------------------------------------------


class TestMixedTimeline:
    def test_counts_and_conservation(self):
        ledger = RequestLedger()
        obs = Observability(sinks=[ledger])
        result = run_cluster(MIXED, obs=obs)
        assert result.metrics["num_faults"] == len(MIXED)
        assert result.metrics["requests_requeued_by_fault"] >= 1
        assert result.metrics["requests_shed_by_blackout"] >= 1
        assert result.metrics["acc_seconds_lost"] > 0.0
        counts = obs.bus.counts
        assert counts[KIND_FAULT] >= len(MIXED)
        assert counts[KIND_RECOVER] >= 1
        ledger.check_conservation()

    def test_faulted_run_is_reproducible(self):
        a = run_cluster(MIXED)
        b = run_cluster(MIXED)
        assert fingerprint(a.requests) == fingerprint(b.requests)
        assert a.metrics == b.metrics


# ---------------------------------------------------------------------------
# Sweep integration: SweepConfig(faults=...)
# ---------------------------------------------------------------------------


class TestSweepFaults:
    def test_fault_cells_record_fault_columns(self, tmp_path):
        from repro.scenarios import FAULT_KEYS, SweepConfig, run_sweep

        config = SweepConfig(
            scenarios=("steady",), schedulers=("sjf",), seeds=(0,),
            duration=4.0, n_profile_samples=30, engine="cluster",
            faults="outages",
        )
        result = run_sweep(config, out_path=tmp_path / "s")
        cell = result.cells["steady/sjf/seed0"]
        for key in FAULT_KEYS:
            assert key in cell
        assert cell["num_faults"] == 2.0      # the outages preset

    def test_fault_sweep_worker_invariant(self, tmp_path):
        from repro.scenarios import SweepConfig, run_sweep

        config = SweepConfig(
            scenarios=("steady",), schedulers=("sjf", "fcfs"), seeds=(0,),
            duration=4.0, n_profile_samples=30, engine="cluster",
            faults="chaos",
        )
        serial = run_sweep(config, out_path=tmp_path / "a", workers=1)
        fanned = run_sweep(config, out_path=tmp_path / "b", workers=2)
        assert warehouse_files(tmp_path / "a") == warehouse_files(tmp_path / "b")
        assert serial.n_run == fanned.n_run == 2

    def test_faults_require_cluster_engine(self):
        from repro.errors import SchedulingError
        from repro.scenarios import SweepConfig

        with pytest.raises(SchedulingError, match="engine='cluster'"):
            SweepConfig(scenarios=("steady",), schedulers=("sjf",),
                        seeds=(0,), faults="outages")

    def test_unknown_preset_rejected(self):
        from repro.errors import SchedulingError
        from repro.scenarios import SweepConfig

        with pytest.raises(SchedulingError, match="unknown fault preset"):
            SweepConfig(scenarios=("steady",), schedulers=("sjf",),
                        seeds=(0,), engine="cluster", faults="earthquake")
