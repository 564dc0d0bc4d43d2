"""Tests for trace analytics: SLO attribution, alerting, dashboards.

The anchors:

* **conservation** — queue + service + preempt + switch sums to the
  end-to-end latency for *every* request on all three engines, pinned at
  relative 1e-9 over a 10k-request cluster replay with switch costs and
  load shedding in play;
* **passivity** — attaching a ledger (or the new switch/preempt span
  emission) never changes the schedule (golden parity);
* **determinism** — alert streams are a pure function of the telemetry
  grid, byte-identical across sweep worker counts.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import pytest

from repro.cluster import (
    AdmissionController,
    Pool,
    make_router,
    simulate_cluster,
)
from repro.errors import ObservabilityError, SchedulingError
from repro.obs import (
    KIND_ALERT,
    KIND_ARRIVE,
    KIND_COMPLETE,
    KIND_EXECUTE,
    KIND_PREEMPT,
    KIND_QUEUE,
    KIND_SHED,
    KIND_SWITCH,
    KIND_VIOLATE,
    AlertEngine,
    BurnRateRule,
    JsonlSink,
    ListSink,
    Observability,
    PowercapRule,
    RequestLedger,
    ThresholdRule,
    TraceBus,
    build_report,
    conservation_verdict,
    default_rules,
    evaluate_alerts,
    explain_request,
    queue_saturation_rule,
    render_markdown,
    summarize_jsonl,
    to_chrome_trace,
)
from repro.obs.chrome import QUEUE_TID
from repro.scenarios.runner import SweepConfig, run_sweep
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate
from repro.sim.multi import simulate_multi
from repro.sim.workload import generate_workload

from test_obs import fingerprint, toy_world


def _ledger_bus():
    ledger = RequestLedger()
    return ledger, TraceBus([ledger])


def _spans(bus, t0, segments, rid=0):
    """Emit arrive + queue + execute segments + terminal for one request."""
    bus.emit(KIND_ARRIVE, t0, rid=rid)
    for kind, time, dur in segments:
        bus.emit(kind, time, dur, rid=rid)


# ---------------------------------------------------------------------------
# Ledger decomposition: hand-built traces (edge cases)
# ---------------------------------------------------------------------------


class TestLedgerEdgeCases:
    def test_requeued_request_counts_every_queue_span(self):
        ledger, bus = _ledger_bus()
        _spans(bus, 0.0, [
            (KIND_QUEUE, 0.0, 1.0),
            (KIND_EXECUTE, 1.0, 0.5),
            (KIND_QUEUE, 1.5, 0.3),       # re-queued after preemption
            (KIND_EXECUTE, 1.8, 0.2),
        ])
        bus.emit(KIND_COMPLETE, 2.0, rid=0)
        rec = ledger.record(0)
        assert rec.n_queue_spans == 2
        assert rec.queue_s == pytest.approx(1.3)
        assert rec.service_s == pytest.approx(0.7)
        # The re-queue wait fills the whole inter-execute gap: no preempt.
        assert rec.preempt_s == pytest.approx(0.0, abs=1e-12)
        assert rec.residual_s == pytest.approx(0.0, abs=1e-12)
        assert rec.dominant == "queue"

    def test_shed_request_blames_queue_with_no_execute_span(self):
        ledger, bus = _ledger_bus()
        bus.emit(KIND_ARRIVE, 0.0, rid=3)
        bus.emit(KIND_SHED, 0.4, rid=3)
        rec = ledger.record(3)
        assert rec.outcome == KIND_SHED
        assert rec.n_exec_spans == 0
        assert rec.queue_s == pytest.approx(0.4)
        assert rec.residual_s == pytest.approx(0.0, abs=1e-12)
        assert ledger.summary()["shed"] == 1

    def test_zero_duration_execute_spans_are_conservative(self):
        ledger, bus = _ledger_bus()
        _spans(bus, 0.0, [
            (KIND_QUEUE, 0.0, 0.5),
            (KIND_EXECUTE, 0.5, 0.0),
            (KIND_EXECUTE, 0.5, 0.0),     # zero-layer block, zero width
            (KIND_EXECUTE, 0.5, 0.5),
        ])
        bus.emit(KIND_COMPLETE, 1.0, rid=0)
        rec = ledger.record(0)
        assert rec.n_exec_spans == 3
        assert rec.queue_s == pytest.approx(0.5)
        assert rec.service_s == pytest.approx(0.5)
        assert rec.preempt_s == pytest.approx(0.0, abs=1e-12)
        ledger.check_conservation()

    def test_preemption_gap_is_blamed_on_preempt(self):
        ledger, bus = _ledger_bus()
        _spans(bus, 0.0, [
            (KIND_QUEUE, 0.0, 0.2),
            (KIND_EXECUTE, 0.2, 0.1),
            (KIND_EXECUTE, 0.9, 0.1),     # 0.6 s stalled in between
        ])
        bus.emit(KIND_VIOLATE, 1.0, rid=0)
        rec = ledger.record(0)
        assert rec.preempt_s == pytest.approx(0.6)
        assert rec.dominant == "preempt"
        assert rec.residual_s == pytest.approx(0.0, abs=1e-12)

    def test_switch_cost_splits_out_of_service(self):
        ledger, bus = _ledger_bus()
        bus.emit(KIND_ARRIVE, 0.0, rid=0)
        bus.emit(KIND_QUEUE, 0.0, 0.1, rid=0)
        bus.emit(KIND_SWITCH, 0.1, 0.05, rid=0)
        bus.emit(KIND_EXECUTE, 0.1, 0.45, rid=0)   # switch at its head
        bus.emit(KIND_COMPLETE, 0.55, rid=0)
        rec = ledger.record(0)
        assert rec.switch_s == pytest.approx(0.05)
        assert rec.service_s == pytest.approx(0.4)
        ledger.check_conservation()

    def test_control_plane_and_post_terminal_events_are_ignored(self):
        ledger, bus = _ledger_bus()
        bus.emit(KIND_ALERT, 0.0, args={"rule": "x"})          # rid=-1
        bus.emit(KIND_ARRIVE, 0.0, rid=0)
        bus.emit(KIND_COMPLETE, 1.0, rid=0)
        bus.emit(KIND_EXECUTE, 2.0, 1.0, rid=0)                # stray
        rec = ledger.record(0)
        assert rec.e2e_s == pytest.approx(1.0)
        assert rec.n_exec_spans == 0
        assert ledger.summary()["n_closed"] == 1

    def test_open_records_have_nan_e2e_until_terminal(self):
        ledger, bus = _ledger_bus()
        bus.emit(KIND_ARRIVE, 0.0, rid=0)
        bus.emit(KIND_QUEUE, 0.0, 0.5, rid=0)
        assert ledger.open_rids == [0]
        rec = ledger.record(0)                 # still open: found in _open
        assert not rec.closed
        assert math.isnan(rec.e2e_s) and math.isnan(rec.residual_s)
        bus.emit(KIND_COMPLETE, 0.5, rid=0)
        assert ledger.open_rids == []
        assert ledger.record(0).closed

    def test_record_lookup_errors_are_actionable(self):
        ledger = RequestLedger()
        with pytest.raises(ObservabilityError, match="no such rid"):
            ledger.record(42)
        bounded = RequestLedger(keep_records=False)
        bounded.emit_all = None  # not part of the sink interface
        with pytest.raises(ObservabilityError, match="keep_records"):
            bounded.record(42)
        with pytest.raises(ObservabilityError, match="max_misses"):
            RequestLedger(max_misses=0)

    def test_explain_request_one_shot(self):
        events = ListSink()
        bus = TraceBus([events])
        _spans(bus, 0.0, [(KIND_QUEUE, 0.0, 0.3), (KIND_EXECUTE, 0.3, 0.7)])
        bus.emit(KIND_COMPLETE, 1.0, rid=0)
        rec = explain_request(events.events, 0)
        assert rec.dominant == "service"
        assert rec.e2e_s == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Engine replays: conservation + golden parity + new span kinds
# ---------------------------------------------------------------------------


class TestEngineAttribution:
    def test_single_engine_conservative_and_parity(self):
        traces, lut, spec = toy_world(rate=80.0, n_requests=150)
        base = simulate(generate_workload(traces, spec),
                        make_scheduler("dysta", lut), switch_cost=0.003)
        ledger = RequestLedger()
        obs = Observability(sinks=[ledger])
        traced = simulate(generate_workload(traces, spec),
                          make_scheduler("dysta", lut), switch_cost=0.003,
                          obs=obs)
        assert fingerprint(traced.requests) == fingerprint(base.requests)
        ledger.check_conservation()
        summary = ledger.summary()
        assert summary["n_closed"] == 150 and summary["n_open"] == 0
        assert summary["switch_s"] > 0.0
        assert abs(sum(summary["blame"].values()) - 1.0) < 1e-9

    def test_single_engine_emits_switch_and_preempt_spans(self):
        traces, lut, spec = toy_world(rate=80.0, n_requests=150)
        obs = Observability(trace=True)
        simulate(generate_workload(traces, spec),
                 make_scheduler("dysta", lut), switch_cost=0.003, obs=obs)
        counts = obs.bus.counts
        assert counts.get(KIND_SWITCH, 0) > 0
        assert counts.get(KIND_PREEMPT, 0) > 0
        for event in obs.bus.events:
            if event.kind == KIND_SWITCH:
                assert event.dur == pytest.approx(0.003)
                assert "key" in (event.args or {})

    def test_multi_engine_conservative(self):
        traces, lut, spec = toy_world(rate=120.0, n_requests=160)
        ledger = RequestLedger()
        obs = Observability(sinks=[ledger])
        simulate_multi(generate_workload(traces, spec),
                       make_scheduler("dysta", lut), num_accelerators=3,
                       switch_cost=0.002, obs=obs)
        ledger.check_conservation()
        assert ledger.summary()["n_closed"] == 160

    def test_cluster_10k_requests_conservative(self):
        # Acceptance criterion: every request of a 10k-request cluster
        # replay decomposes conservatively, with switch costs, multiple
        # pools and load shedding all in play.
        traces, lut, spec = toy_world(rate=2000.0, n_requests=10_000, seed=3)
        ledger = RequestLedger(keep_records=False)
        obs = Observability(sinks=[ledger])
        result = simulate_cluster(
            generate_workload(traces, spec),
            [Pool("a", make_scheduler("dysta", lut), 2, switch_cost=0.002),
             Pool("b", make_scheduler("sjf", lut), 1, switch_cost=0.002)],
            make_router("jsq"),
            admission=AdmissionController(max_queue_depth=64),
            obs=obs,
        )
        ledger.check_conservation()          # relative 1e-9, every request
        summary = ledger.summary()
        assert summary["n_closed"] == 10_000
        assert summary["shed"] == result.num_shed
        assert summary["shed"] > 0           # shedding actually exercised
        assert summary["switch_s"] > 0.0
        pools = ledger.pool_summary()
        assert set(pools) >= {"a", "b"}
        for row in pools.values():
            assert abs(sum(row["blame"].values()) - 1.0) < 1e-9

    def test_cluster_10k_with_outages_conservative(self):
        # Fault-injection regression: conservation must survive outages
        # that kill in-flight blocks (their optimistic execute spans are
        # truncated at the kill), stragglers, blackouts and a revocation.
        from repro.faults import FaultEvent, FaultSpec
        from repro.faults.spec import (
            KIND_BLACKOUT,
            KIND_OUTAGE,
            KIND_REVOKE,
            KIND_SLOWDOWN,
        )

        faults = FaultSpec((
            FaultEvent(KIND_OUTAGE, 1.0, duration=0.8, pool="a", count=2),
            FaultEvent(KIND_SLOWDOWN, 2.0, duration=1.0, factor=3.0),
            FaultEvent(KIND_BLACKOUT, 3.0, duration=0.4, pool="b"),
            FaultEvent(KIND_REVOKE, 3.5, pool="b", count=1),
        ))
        traces, lut, spec = toy_world(rate=2000.0, n_requests=10_000, seed=3)
        ledger = RequestLedger(keep_records=False)
        obs = Observability(sinks=[ledger])
        result = simulate_cluster(
            generate_workload(traces, spec),
            [Pool("a", make_scheduler("dysta", lut), 2, switch_cost=0.002),
             Pool("b", make_scheduler("sjf", lut), 1, switch_cost=0.002)],
            make_router("jsq"),
            admission=AdmissionController(max_queue_depth=64),
            obs=obs,
            faults=faults,
        )
        ledger.check_conservation()          # relative 1e-9, every request
        summary = ledger.summary()
        assert summary["n_closed"] == 10_000
        assert result.metrics["num_faults"] == 4.0
        assert result.metrics["requests_requeued_by_fault"] >= 1.0
        assert result.metrics["requests_shed_by_blackout"] >= 1.0
        assert result.metrics["acc_seconds_lost"] > 0.0

    def test_cluster_golden_parity_with_attribution(self):
        traces, lut, spec = toy_world(rate=150.0, n_requests=200)

        def pools():
            return [Pool("a", make_scheduler("dysta", lut), 2,
                         switch_cost=0.002),
                    Pool("b", make_scheduler("dysta", lut), 1,
                         switch_cost=0.002)]

        base = simulate_cluster(generate_workload(traces, spec), pools(),
                                make_router("jsq"))
        obs = Observability(sinks=[RequestLedger()])
        traced = simulate_cluster(generate_workload(traces, spec), pools(),
                                  make_router("jsq"), obs=obs)
        assert fingerprint(traced.requests) == fingerprint(base.requests)
        assert traced.metrics == base.metrics

    def test_streaming_mode_matches_full_records(self, tmp_path):
        traces, lut, spec = toy_world(rate=100.0, n_requests=120)
        path = tmp_path / "events.jsonl"
        full = RequestLedger()
        obs = Observability(sinks=[full, JsonlSink(path)])
        simulate(generate_workload(traces, spec),
                 make_scheduler("dysta", lut), switch_cost=0.002, obs=obs)
        obs.close()
        replayed = RequestLedger.from_jsonl(path)
        bounded = RequestLedger.from_jsonl(path, keep_records=False)
        assert replayed.summary() == full.summary()
        assert bounded.summary() == full.summary()
        assert bounded.violation_report() == full.violation_report()
        assert not bounded.records

    def test_violation_report_ranks_worst_first(self):
        traces, lut, spec = toy_world(rate=120.0, n_requests=150, slo=3.0)
        ledger = RequestLedger(max_misses=8)
        obs = Observability(sinks=[ledger])
        simulate(generate_workload(traces, spec),
                 make_scheduler("fcfs", lut), obs=obs)
        report = ledger.violation_report()
        assert 0 < len(report) <= 8
        e2es = [row["e2e_s"] for row in report]
        assert e2es == sorted(e2es, reverse=True)
        assert ledger.violation_report(top=2) == report[:2]
        assert all(row["outcome"] == KIND_VIOLATE for row in report)


# ---------------------------------------------------------------------------
# Alert rules
# ---------------------------------------------------------------------------


def _table(**columns):
    return dict(columns)


class TestAlertRules:
    def test_threshold_fires_once_per_episode(self):
        table = _table(t=[0.0, 1.0, 2.0, 3.0, 4.0],
                       queue_depth=[0.0, 9.0, 9.0, 0.0, 9.0])
        alerts = ThresholdRule("sat", "queue_depth", 8.0).evaluate(table)
        assert [a.time for a in alerts] == [1.0, 4.0]
        assert all(a.value == 9.0 for a in alerts)
        assert "sat" in str(alerts[0]) and "queue_depth" in str(alerts[0])

    def test_threshold_below_direction(self):
        table = _table(t=[0.0, 1.0, 2.0], busy_npus=[3.0, 0.0, 3.0])
        rule = ThresholdRule("idle", "busy_npus", 0.0, above=False)
        alerts = rule.evaluate(table)
        assert [a.time for a in alerts] == [1.0]

    def test_threshold_sustain_window(self):
        table = _table(t=[0.0, 1.0, 2.0, 3.0, 4.0],
                       queue_depth=[0.0, 9.0, 9.0, 9.0, 0.0])
        alerts = queue_saturation_rule(8.0, window_s=2.0).evaluate(table)
        assert [a.time for a in alerts] == [3.0]
        # Not sustained long enough: no firing.
        short = _table(t=[0.0, 1.0, 2.0], queue_depth=[0.0, 9.0, 0.0])
        assert queue_saturation_rule(8.0, window_s=2.0).evaluate(short) == []

    def test_suffix_matching_takes_worst_pool(self):
        table = _table(t=[0.0, 1.0],
                       a_queue_depth=[0.0, 3.0],
                       b_queue_depth=[0.0, 11.0])
        alerts = queue_saturation_rule(8.0).evaluate(table)
        assert len(alerts) == 1 and alerts[0].value == 11.0

    def test_unmatched_metric_never_fires(self):
        table = _table(t=[0.0, 1.0], busy_npus=[0.0, 99.0])
        assert queue_saturation_rule(1.0).evaluate(table) == []

    def test_burn_rate_math_and_reset(self):
        table = _table(t=[0.0, 1.0, 2.0],
                       completed=[0.0, 10.0, 20.0],
                       violations=[0.0, 5.0, 5.0])
        rule = BurnRateRule("burn", budget=0.1, factor=2.0, window_s=1.0)
        alerts = rule.evaluate(table)
        assert len(alerts) == 1
        assert alerts[0].time == 1.0
        assert alerts[0].value == pytest.approx(5.0)  # (5/10)/0.1
        # No completions in the window burns nothing.
        idle = _table(t=[0.0, 1.0], completed=[5.0, 5.0],
                      violations=[0.0, 3.0])
        assert rule.evaluate(idle) == []

    def test_burn_rate_validation(self):
        with pytest.raises(ObservabilityError, match="budget"):
            BurnRateRule("b", budget=0.0, factor=2.0, window_s=1.0)
        with pytest.raises(ObservabilityError, match="window"):
            BurnRateRule("b", budget=0.1, factor=2.0, window_s=0.0)

    def test_powercap_discrete_derivative(self):
        table = _table(t=[0.0, 1.0, 2.0],
                       a_joules_busy=[0.0, 5.0, 30.0])
        alerts = PowercapRule("cap", cap_watts=20.0).evaluate(table)
        assert len(alerts) == 1
        assert alerts[0].time == 2.0 and alerts[0].value == pytest.approx(25.0)

    def test_engine_sorts_and_emits_onto_bus(self):
        table = _table(t=[0.0, 1.0],
                       queue_depth=[0.0, 9.0],
                       completed=[0.0, 10.0],
                       violations=[0.0, 5.0])
        sink = ListSink()
        bus = TraceBus([sink])
        alerts = evaluate_alerts(table, default_rules(), bus=bus)
        assert [a.time for a in alerts] == sorted(a.time for a in alerts)
        assert len(sink.events) == len(alerts) >= 2
        for event, alert in zip(sink.events, alerts):
            assert event.kind == KIND_ALERT and event.rid == -1
            assert event.args["rule"] == alert.rule

    def test_engine_requires_time_column(self):
        with pytest.raises(ObservabilityError, match="'t' column"):
            AlertEngine().evaluate({"queue_depth": [1.0]})


# ---------------------------------------------------------------------------
# Sweep integration: alerts column, determinism across workers
# ---------------------------------------------------------------------------


class TestSweepAlerts:
    CONFIG = dict(scenarios=("flash_crowd",), schedulers=("dysta",),
                  seeds=(0,), duration=4.0, n_profile_samples=20,
                  telemetry_interval=0.5, alerts=True)

    def test_alerts_require_telemetry(self):
        with pytest.raises(SchedulingError, match="telemetry"):
            SweepConfig(scenarios=("steady",), schedulers=("fcfs",),
                        seeds=(0,), alerts=True)

    def test_cells_record_deterministic_alerts(self, tmp_path):
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        run_sweep(SweepConfig(**self.CONFIG), out_path=out1, workers=1)
        run_sweep(SweepConfig(**self.CONFIG), out_path=out2, workers=2)
        assert out1.read_bytes() == out2.read_bytes()
        store = json.loads(out1.read_text())
        cell = store["cells"]["flash_crowd/dysta/seed0"]
        assert isinstance(cell["alerts"], list)
        assert any(a["kind"] == "burn_rate" for a in cell["alerts"])
        for alert in cell["alerts"]:
            assert set(alert) == {"rule", "kind", "time", "value",
                                  "threshold", "metric"}


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


class TestReport:
    def test_report_sections_and_markdown(self):
        traces, lut, spec = toy_world(rate=120.0, n_requests=150, slo=4.0)
        ledger = RequestLedger()
        obs = Observability(sinks=[ledger], telemetry=0.25)
        simulate(generate_workload(traces, spec),
                 make_scheduler("dysta", lut), switch_cost=0.002, obs=obs)
        alerts = evaluate_alerts(obs.telemetry)
        report = build_report(ledger, alerts, top_misses=5, title="T")
        assert report["title"] == "T"
        assert report["summary"]["n_closed"] == 150
        assert len(report["violations"]) <= 5
        text = render_markdown(report)
        for heading in ("## Summary", "## Per-pool blame",
                        "## Worst SLO misses"):
            assert heading in text
        assert "blame: queue" in text


# ---------------------------------------------------------------------------
# CLI: explain / report / trace --summary
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """A recorded JSONL trace from a real single-engine run."""
    traces, lut, spec = toy_world(rate=100.0, n_requests=80)
    path = tmp_path_factory.mktemp("trace") / "events.jsonl"
    obs = Observability(sinks=[JsonlSink(path)])
    simulate(generate_workload(traces, spec),
             make_scheduler("dysta", lut), switch_cost=0.002, obs=obs)
    obs.close()
    return path


class TestCli:
    def test_trace_summary_streaming(self, recorded_trace, capsys):
        from repro.cli import main
        assert main(["trace", "--summary", str(recorded_trace)]) == 0
        out = capsys.readouterr().out
        assert "80" in out and "-> OK" in out
        counts = summarize_jsonl(recorded_trace)
        ok, arrivals, terminals = conservation_verdict(counts)
        assert ok and arrivals == terminals == 80

    def test_trace_summary_flags_violations(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "arrive", "time": 0.0, "rid": 0}\n')
        assert main(["trace", "--summary", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_explain_from_trace(self, recorded_trace, capsys):
        from repro.cli import main
        assert main(["explain", "5", "--from-trace",
                     str(recorded_trace), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["rid"] == 5
        assert record["dominant"] in ("queue", "service", "preempt", "switch")
        assert main(["explain", "5", "--from-trace",
                     str(recorded_trace)]) == 0
        assert "dominant" in capsys.readouterr().out

    def test_explain_unknown_rid_is_an_error(self, recorded_trace, capsys):
        from repro.cli import main
        assert main(["explain", "99999", "--from-trace",
                     str(recorded_trace)]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_from_trace_to_file(self, recorded_trace, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "report.md"
        assert main(["report", "--from-trace", str(recorded_trace),
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Run report")
        assert "## Per-pool blame" in text
        out_json = tmp_path / "report.json"
        assert main(["report", "--from-trace", str(recorded_trace),
                     "--json", "--out", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["summary"]["n_closed"] == 80


# ---------------------------------------------------------------------------
# Torn and corrupt recorded traces
# ---------------------------------------------------------------------------


class TestDamagedTraces:
    @pytest.fixture
    def torn(self, recorded_trace, tmp_path):
        """``(torn, prefix)``: the trace cut mid-way through its last line,
        and the same trace with that line dropped cleanly."""
        lines = recorded_trace.read_text().splitlines(keepends=True)
        prefix = tmp_path / "prefix.jsonl"
        prefix.write_text("".join(lines[:-1]))
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        return torn, prefix

    @pytest.fixture
    def corrupt(self, recorded_trace, tmp_path):
        lines = recorded_trace.read_text().splitlines(keepends=True)
        path = tmp_path / "corrupt.jsonl"
        path.write_text("".join(lines[:3]) + "#garbage\n" + "".join(lines[3:]))
        return path

    def test_torn_tail_folds_the_lines_before_it(self, recorded_trace, torn):
        torn_path, prefix = torn
        counts = summarize_jsonl(torn_path)
        assert counts == summarize_jsonl(prefix)
        assert sum(counts.values()) == sum(summarize_jsonl(recorded_trace).values()) - 1
        assert (RequestLedger.from_jsonl(torn_path).summary()
                == RequestLedger.from_jsonl(prefix).summary())

    def test_garbage_mid_file_raises_with_location(self, corrupt):
        with pytest.raises(ObservabilityError, match=r"corrupt\.jsonl:4: "):
            summarize_jsonl(corrupt)
        with pytest.raises(ObservabilityError, match=r"corrupt\.jsonl:4: "):
            RequestLedger.from_jsonl(corrupt)

    @pytest.mark.parametrize("line", ['[1, 2]\n', '{"time": 0.0}\n', '"kind"\n'])
    def test_non_event_json_line_raises(self, tmp_path, line):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"kind": "arrive", "time": 0.0}\n' + line)
        with pytest.raises(ObservabilityError, match=r"odd\.jsonl:2: "):
            summarize_jsonl(path)

    def test_cli_reports_corrupt_trace(self, corrupt, capsys):
        from repro.cli import main
        for argv in (["trace", "--summary", str(corrupt)],
                     ["report", "--from-trace", str(corrupt)],
                     ["explain", "5", "--from-trace", str(corrupt)]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith(f"error: {corrupt}:4: ")

    def test_cli_process_prints_no_traceback(self, corrupt):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", "--summary", str(corrupt)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {corrupt}:4: ")
        assert "Traceback" not in proc.stderr

    def test_cli_reports_missing_trace(self, tmp_path, capsys):
        from repro.cli import main
        missing = tmp_path / "absent.jsonl"
        assert main(["trace", "--summary", str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {missing}: cannot read trace")

    def test_cli_summarizes_torn_trace(self, torn, capsys):
        from repro.cli import main
        torn_path, prefix = torn
        # The cut-off terminal event leaves one arrival unmatched.
        assert main(["trace", "--summary", str(torn_path)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert f"{sum(summarize_jsonl(prefix).values())} events" in out
        assert main(["report", "--from-trace", str(torn_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["n_closed"] == 79


# ---------------------------------------------------------------------------
# Telemetry NaN serialization
# ---------------------------------------------------------------------------


class TestTelemetryNanSerialization:
    def _telemetry_with_gap(self):
        from repro.obs import Telemetry
        telem = Telemetry(interval=1.0)
        telem.registry.counter("early")
        telem.poll(0.0)
        telem.registry.counter("late").inc()   # backfills NaN at t=0
        telem.poll(1.0)
        return telem

    def test_to_json_is_strict_json_with_null_gaps(self):
        telem = self._telemetry_with_gap()
        text = telem.to_json()
        assert "NaN" not in text               # bare NaN is invalid JSON
        doc = json.loads(text)                 # strict parser accepts it
        assert doc["late"] == [None, 1.0]

    def test_write_json_matches_and_is_loadable(self, tmp_path):
        telem = self._telemetry_with_gap()
        path = tmp_path / "telemetry.json"
        telem.write_json(path)
        doc = json.loads(path.read_text())
        assert doc == json.loads(telem.to_json())
        assert doc["late"][0] is None

    def test_csv_roundtrips_nan_as_empty_cell(self, tmp_path):
        telem = self._telemetry_with_gap()
        path = tmp_path / "telemetry.csv"
        telem.write_csv(path)
        from repro.obs import read_telemetry_csv
        loaded = read_telemetry_csv(path)
        assert math.isnan(loaded["late"][0])
        assert loaded["late"][1] == 1.0
        assert loaded["early"] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Chrome-trace lanes for the new span kinds
# ---------------------------------------------------------------------------


class TestChromeLanes:
    def test_switch_nests_on_npu_lane_and_preempt_on_queue_lane(self):
        sink = ListSink()
        bus = TraceBus([sink])
        bus.emit(KIND_SWITCH, 1.0, 0.05, npu=2, rid=7, args={"key": "m"})
        bus.emit(KIND_PREEMPT, 2.0, 0.5, npu=2, rid=7)
        doc = to_chrome_trace(sink.events)
        rows = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        switch = next(r for r in rows if r["cat"] == KIND_SWITCH)
        stall = next(r for r in rows if r["cat"] == KIND_PREEMPT)
        assert switch["tid"] == 2 and switch["name"] == "switch"
        assert stall["tid"] == QUEUE_TID and stall["name"] == "stall rid 7"
        assert stall["dur"] == pytest.approx(0.5e6)


# ---------------------------------------------------------------------------
# Perf dashboard tool
# ---------------------------------------------------------------------------


def _load_dashboard_module():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "tools", "perf_dashboard.py")
    spec = importlib.util.spec_from_file_location("perf_dashboard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY = {
    "cluster_stream": {
        "jsq": {"requests_per_s": 1000.0, "p99": 9000.0,
                "violation_rate": 0.12, "wall_s": 10.0},
        "predictive": {"requests_per_s": 800.0, "p99": 8000.0,
                       "violation_rate": 0.15, "wall_s": 12.0},
    },
    "engine_200req_rate30": {
        "dysta": {"scalar_s": 0.2, "vectorized_s": 0.05, "speedup": 4.0},
        "fcfs": {"scalar_s": 0.02, "vectorized_s": 0.016, "speedup": 1.25},
    },
    "deep_queue_400req_rate120": {"speedup": 30.0},
    "profile": {
        "engine_single": {"wall_s": 0.05, "coverage": 0.74, "phases": {
            "select": {"seconds": 0.02, "fraction": 0.5, "calls": 10},
            "execute": {"seconds": 0.02, "fraction": 0.5, "calls": 10},
        }},
    },
    "host": {"hostname": "vm", "machine": "x86_64",
             "python": "3.11", "numpy": "2.0"},
}


class TestPerfDashboard:
    def test_load_entries_handles_both_schemas(self, tmp_path):
        dash = _load_dashboard_module()
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        v1.write_text(json.dumps(ENTRY))
        v2.write_text(json.dumps({"schema": 2, "entries": [ENTRY, ENTRY]}))
        assert dash.load_entries(str(v1)) == [ENTRY]
        assert len(dash.load_entries(str(v2))) == 2

    def test_builds_valid_svg_and_index(self, tmp_path):
        dash = _load_dashboard_module()
        out = tmp_path / "dash"
        # One entry misses the cluster section: the chart must gap,
        # not crash (schema drift across history is normal).
        partial = {k: v for k, v in ENTRY.items() if k != "cluster_stream"}
        written = dash.build_dashboard([partial, ENTRY], str(out))
        names = {os.path.basename(p) for p in written}
        assert {"cluster_throughput.svg", "engine_speedup.svg",
                "profile_phases.svg", "index.md"} <= names
        for path in written:
            if path.endswith(".svg"):
                xml.dom.minidom.parse(path)        # well-formed XML
        index = (out / "index.md").read_text()
        assert "# Performance dashboard" in index
        assert "cluster_throughput.svg" in index
        assert "| jsq |" in index

    def test_main_end_to_end(self, tmp_path, capsys):
        dash = _load_dashboard_module()
        bench = tmp_path / "BENCH_perf.json"
        bench.write_text(json.dumps({"schema": 2, "entries": [ENTRY]}))
        out = tmp_path / "out"
        assert dash.main(["--bench", str(bench), "--out", str(out)]) == 0
        assert (out / "index.md").exists()
        assert dash.main(["--bench", str(tmp_path / "nope.json"),
                          "--out", str(out)]) == 1
