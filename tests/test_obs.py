"""Tests for the observability layer: tracing, telemetry, self-profiling.

The anchors are the layer's two contracts:

* **passivity** — a run with observability attached produces a bit-identical
  schedule to one without, and a constructed-but-disabled bundle takes the
  literal ``obs=None`` code path (golden parity + overhead guard);
* **conservation** — every traced arrival terminates in exactly one of
  shed/complete/violate, counter-based so it survives bounded sinks
  dropping events on long replays.

Plus format contracts: Chrome Trace Event Format validity with one lane per
accelerator, and telemetry time-series that are bit-identical across sweep
worker counts.
"""

import json
import math
import time

import pytest

from repro.cluster import (
    AdmissionController,
    Pool,
    make_autoscaler,
    make_router,
    simulate_cluster,
)
from repro.core.lut import ModelInfoLUT
from repro.errors import ObservabilityError
from repro.obs import (
    ENGINE_LANE,
    KIND_ARRIVE,
    KIND_COMPLETE,
    KIND_EXECUTE,
    KIND_POWERCAP,
    KIND_QUEUE,
    KIND_ROUTE,
    KIND_SCALE,
    KIND_SELECT,
    KIND_SHED,
    KIND_VIOLATE,
    TERMINAL_KINDS,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    Observability,
    PhaseProfiler,
    RingSink,
    Telemetry,
    TraceBus,
    TraceEvent,
    export_chrome_trace,
    filter_events,
    read_jsonl,
    read_telemetry_csv,
    to_chrome_trace,
)
from repro.obs.chrome import CONTROL_TID, QUEUE_TID
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate
from repro.sim.multi import simulate_multi
from repro.sim.workload import WorkloadSpec, generate_workload

from conftest import build_trace, make_request, warehouse_files


def toy_world(rate=60.0, n_requests=120, slo=10.0, seed=0):
    """A tiny two-model zoo plus a generated workload (module-level traces
    so tests stay independent of fixture wiring)."""
    short_sp = [[0.5, 0.5], [0.55, 0.52], [0.45, 0.48]]
    short = build_trace(
        "short", "dense",
        latencies=[[0.002 * (1 - a), 0.004 * (1 - b)] for a, b in short_sp],
        sparsities=short_sp,
    )
    long_sp = [[0.3, 0.3, 0.3], [0.25, 0.28, 0.33], [0.35, 0.32, 0.27]]
    long = build_trace(
        "long", "dense",
        latencies=[[(1 - s) / 70 for s in row] for row in long_sp],
        sparsities=long_sp,
    )
    traces = {short.key: short, long.key: long}
    lut = ModelInfoLUT(traces)
    spec = WorkloadSpec(arrival_rate=rate, n_requests=n_requests,
                        slo_multiplier=slo, seed=seed)
    return traces, lut, spec


def fingerprint(requests):
    """Schedule identity: per-request completion state, order-insensitive."""
    return sorted(
        (r.rid, r.finish_time, r.executed_time, r.next_layer, r.violated)
        for r in requests
    )


class TestTraceBus:
    def test_counts_are_exact_and_sinks_fan_out(self):
        bus = TraceBus([ListSink(), ListSink()])
        bus.emit(KIND_ARRIVE, 0.0, rid=1)
        bus.emit(KIND_EXECUTE, 0.1, 0.05, npu=2, rid=1, args={"key": "m"})
        bus.emit(KIND_COMPLETE, 0.15, rid=1)
        assert bus.counts == {"arrive": 1, "execute": 1, "complete": 1}
        assert bus.total_events == 3
        assert all(len(sink) == 3 for sink in bus.sinks)
        assert [e.kind for e in bus.events] == ["arrive", "execute", "complete"]

    def test_ring_sink_bounds_memory_but_counters_stay_exact(self):
        bus = TraceBus([RingSink(capacity=4)])
        for i in range(10):
            bus.emit(KIND_ARRIVE, float(i), rid=i)
            bus.emit(KIND_COMPLETE, float(i) + 0.5, rid=i)
        assert len(bus.events) == 4                  # ring kept the tail
        assert bus.events[-1].rid == 9
        assert bus.num_arrivals == bus.num_terminals == 10
        bus.check_conservation()                     # survives the drops

    def test_ring_capacity_validated(self):
        with pytest.raises(ObservabilityError):
            RingSink(capacity=0)

    def test_conservation_violation_raises(self):
        bus = TraceBus([ListSink()])
        bus.emit(KIND_ARRIVE, 0.0, rid=0)
        with pytest.raises(ObservabilityError, match="conservation"):
            bus.check_conservation()
        bus.emit(KIND_COMPLETE, 1.0, rid=0)
        bus.check_conservation()
        bus.emit(KIND_VIOLATE, 1.0, rid=0)           # double-finish
        with pytest.raises(ObservabilityError, match="conservation"):
            bus.check_conservation()

    def test_terminal_kinds_cover_shed(self):
        assert KIND_SHED in TERMINAL_KINDS
        bus = TraceBus([ListSink()])
        bus.emit(KIND_ARRIVE, 0.0, rid=0)
        bus.emit(KIND_SHED, 0.0, rid=0, args={"reason": "queue_depth"})
        bus.check_conservation()

    def test_jsonl_sink_roundtrips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        bus = TraceBus([sink])
        bus.emit(KIND_ARRIVE, 0.25, rid=3, pool="a")
        bus.emit(KIND_EXECUTE, 0.5, 0.125, pool="a", npu=1, rid=3,
                 args={"layers": 2, "key": "short/dense"})
        bus.close()
        assert sink.count == len(sink) == 2
        loaded = read_jsonl(path)
        assert [(e.kind, e.time, e.dur, e.pool, e.npu, e.rid) for e in loaded] \
            == [("arrive", 0.25, 0.0, "a", -1, 3),
                ("execute", 0.5, 0.125, "a", 1, 3)]
        assert loaded[1].args == {"layers": 2, "key": "short/dense"}

    def test_event_to_dict_omits_empty_args(self):
        bare = TraceEvent(KIND_ARRIVE, 1.0, rid=2)
        assert "args" not in bare.to_dict()
        assert bare.to_dict()["pool"] == ENGINE_LANE
        rich = TraceEvent(KIND_SELECT, 1.0, args={"depth": 3})
        assert rich.to_dict()["args"] == {"depth": 3}

    def test_filter_events(self):
        events = [TraceEvent(KIND_ARRIVE, 0.0), TraceEvent(KIND_SELECT, 0.1),
                  TraceEvent(KIND_ARRIVE, 0.2)]
        assert [e.time for e in filter_events(events, KIND_ARRIVE)] == [0.0, 0.2]

    def test_sinks_are_iterable(self):
        ring, lst = RingSink(capacity=8), ListSink()
        bus = TraceBus([ring, lst])
        bus.emit(KIND_ARRIVE, 0.0, rid=0)
        bus.emit(KIND_COMPLETE, 1.0, rid=0)
        assert [e.kind for e in ring] == [e.kind for e in lst] \
            == ["arrive", "complete"]
        ring.close()
        lst.close()                                   # interface symmetry

    def test_streaming_only_bus_retains_nothing(self, tmp_path):
        bus = TraceBus([JsonlSink(tmp_path / "e.jsonl")])
        bus.emit(KIND_ARRIVE, 0.0, rid=0)
        bus.close()
        assert bus.events == []                       # nothing retained
        assert bus.total_events == 1                  # but exactly counted

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"kind": "arrive", "time": 0.5}\n\n')
        loaded = read_jsonl(path)
        assert len(loaded) == 1 and loaded[0].rid == -1


class TestObservabilityBundle:
    def test_disabled_bundle_normalizes_to_none(self):
        obs = Observability()
        assert not obs.enabled
        assert Observability.active(obs) is None
        assert Observability.active(None) is None

    def test_each_concern_enables(self):
        assert Observability(trace=True).bus is not None
        assert Observability(sinks=[ListSink()]).bus is not None
        assert Observability(telemetry=0.5).telemetry.interval == 0.5
        assert Observability(profile=True).profiler is not None
        for obs in (Observability(trace=True), Observability(telemetry=1.0),
                    Observability(profile=True)):
            assert Observability.active(obs) is obs

    def test_prepared_telemetry_instance_is_adopted(self):
        telem = Telemetry(interval=0.25)
        assert Observability(telemetry=telem).telemetry is telem

    def test_close_flushes_jsonl(self, tmp_path):
        sink = JsonlSink(tmp_path / "e.jsonl")
        obs = Observability(sinks=[sink])
        obs.bus.emit(KIND_ARRIVE, 0.0, rid=0)
        obs.close()
        assert sink._fh.closed
        obs.close()                                   # idempotent


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("completed")
        c.inc()
        c.inc(2)
        g = reg.gauge("depth")
        g.set(7)
        h = reg.histogram("latency")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert c.value == 3
        assert g.read() == 7.0
        assert h.count == 3
        assert h.mean == pytest.approx(0.2)
        assert h.percentile(50) > 0
        snap = reg.snapshot()
        assert snap == {"completed": 3.0, "depth": 7.0, "latency": 3.0}
        assert reg.names() == ["completed", "depth", "latency"]

    def test_empty_histogram_mean_is_nan(self):
        assert math.isnan(MetricsRegistry().histogram("h").mean)

    def test_pull_gauge_reads_through_callable(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.gauge("live", lambda: state["v"])
        state["v"] = 42.0
        assert reg.snapshot()["live"] == 42.0

    def test_instruments_are_created_once(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_cross_kind_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.histogram("x")


class TestTelemetry:
    def test_interval_validated(self):
        with pytest.raises(ObservabilityError):
            Telemetry(interval=0.0)

    def test_sample_grid_is_exact_multiples(self):
        telem = Telemetry(interval=0.1)
        telem.registry.counter("n")
        # Irregular event times still sample every crossed cadence point.
        for now in (0.0, 0.07, 0.31, 0.99):
            telem.poll(now)
        telem.finish(1.0)
        assert telem.times == pytest.approx([0.1 * i for i in range(11)])
        assert telem.num_samples == 11
        # Multiples of the interval, not accumulated addition: no drift.
        assert telem.times[10] == 0.1 * 10

    def test_rows_snapshot_pre_event_state(self):
        telem = Telemetry(interval=1.0)
        c = telem.registry.counter("done")
        telem.poll(0.0)
        c.inc(5)
        telem.poll(2.0)        # samples t=1 and t=2 with the current tally
        assert telem.to_table() == {"t": [0.0, 1.0, 2.0],
                                    "done": [0.0, 5.0, 5.0]}

    def test_late_metric_backfills_nan(self):
        telem = Telemetry(interval=1.0)
        telem.registry.counter("early")
        telem.poll(0.0)
        telem.registry.counter("late").inc()
        telem.poll(1.0)
        table = telem.to_table()
        assert telem.columns() == ["t", "early", "late"]
        assert math.isnan(table["late"][0]) and table["late"][1] == 1.0

    def test_csv_roundtrip_is_bit_exact(self, tmp_path):
        telem = Telemetry(interval=0.3)
        g = telem.registry.gauge("watts")
        g.set(1.0 / 3.0)
        telem.poll(1.0)
        path = tmp_path / "telemetry.csv"
        telem.write_csv(path)
        loaded = read_telemetry_csv(path)
        assert loaded["t"] == telem.times            # repr() floats: exact
        assert loaded["watts"] == [1.0 / 3.0] * telem.num_samples

    def test_json_exports(self, tmp_path):
        telem = Telemetry(interval=1.0)
        telem.registry.counter("n").inc()
        telem.finish(2.0)
        path = tmp_path / "telemetry.json"
        telem.write_json(path)
        assert json.loads(path.read_text()) == json.loads(telem.to_json())

    def test_reset(self):
        telem = Telemetry(interval=1.0)
        telem.finish(3.0)
        assert telem.num_samples == 4
        telem.reset()
        assert telem.num_samples == 0 and telem.times == []
        telem.poll(0.0)
        assert telem.times == [0.0]


class TestPhaseProfiler:
    def test_add_accumulates_seconds_and_calls(self):
        prof = PhaseProfiler()
        prof.add("select", 0.25)
        prof.add("select", 0.5)
        prof.add("execute", 1.5, calls=3)
        assert prof.calls == {"select": 2, "execute": 3}
        assert prof.phases == {"select": 0.75, "execute": 1.5}
        assert prof.total_s == pytest.approx(2.25)

    def test_breakdown_sorted_by_time_and_fractions_sum(self):
        prof = PhaseProfiler()
        prof.add("a", 1.0)
        prof.add("b", 3.0)
        prof.add("c", 2.0)
        down = prof.breakdown()
        assert list(down) == ["b", "c", "a"]
        assert sum(row["fraction"] for row in down.values()) == pytest.approx(1.0)

    def test_merge_and_summary(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.add("select", 1.0)
        a.wall_s = 2.0
        b.add("select", 0.5, calls=2)
        b.add("route", 0.5)
        b.wall_s = 2.0
        a.merge(b)
        assert a.phases == {"select": 1.5, "route": 0.5}
        assert a.calls == {"select": 3, "route": 1}
        summary = a.summary()
        assert summary["wall_s"] == 4.0
        assert summary["attributed_s"] == pytest.approx(2.0)
        assert summary["coverage"] == pytest.approx(0.5)
        assert list(summary["phases"]) == ["select", "route"]

    def test_empty_summary_has_zero_coverage(self):
        assert PhaseProfiler().summary()["coverage"] == 0.0


def full_obs():
    return Observability(trace=True, telemetry=0.05, profile=True)


class TestGoldenParity:
    """Observability attached == observability absent, bit for bit."""

    def test_single_engine_both_paths(self):
        traces, lut, spec = toy_world()
        for use_batch in (None, False):
            base = simulate(generate_workload(traces, spec),
                            make_scheduler("dysta", lut), use_batch=use_batch)
            obs = full_obs()
            traced = simulate(generate_workload(traces, spec),
                              make_scheduler("dysta", lut),
                              use_batch=use_batch, obs=obs)
            assert fingerprint(traced.requests) == fingerprint(base.requests)
            assert traced.metrics == base.metrics
            obs.bus.check_conservation()

    def test_multi_engine(self):
        traces, lut, spec = toy_world(rate=120.0)
        base = simulate_multi(generate_workload(traces, spec),
                              make_scheduler("dysta", lut), num_accelerators=3)
        obs = full_obs()
        traced = simulate_multi(generate_workload(traces, spec),
                                make_scheduler("dysta", lut),
                                num_accelerators=3, obs=obs)
        assert fingerprint(traced.requests) == fingerprint(base.requests)
        assert traced.metrics == base.metrics
        obs.bus.check_conservation()

    def test_cluster_engine(self):
        traces, lut, spec = toy_world(rate=100.0)

        def pools():
            return [Pool("a", make_scheduler("dysta", lut), 2),
                    Pool("b", make_scheduler("dysta", lut), 1)]

        base = simulate_cluster(generate_workload(traces, spec), pools(),
                                make_router("jsq"))
        obs = full_obs()
        traced = simulate_cluster(generate_workload(traces, spec), pools(),
                                  make_router("jsq"), obs=obs)
        assert fingerprint(traced.requests) == fingerprint(base.requests)
        assert traced.metrics == base.metrics
        obs.bus.check_conservation()

    def test_disabled_bundle_overhead_under_two_percent(self):
        # A fully-disabled bundle must collapse to the obs=None path: one
        # Observability.active() call, then zero per-event cost.  Best-of-N
        # wall-clock keeps scheduler noise out of the comparison.
        traces, lut, spec = toy_world(rate=150.0, n_requests=300)

        def run(obs):
            best = float("inf")
            for _ in range(5):
                reqs = generate_workload(traces, spec)
                sched = make_scheduler("dysta", lut)
                t0 = time.perf_counter()
                simulate(reqs, sched, obs=obs)
                best = min(best, time.perf_counter() - t0)
            return best

        t_none = run(None)
        t_disabled = run(Observability())
        # 2% relative plus a 2 ms absolute floor against timer jitter.
        assert t_disabled <= 1.02 * t_none + 0.002, (t_none, t_disabled)


class TestSpanSemantics:
    def test_single_engine_lifecycle_chain(self):
        traces, lut, spec = toy_world(slo=1.2)      # tight: some violations
        obs = Observability(trace=True)
        result = simulate(generate_workload(traces, spec),
                          make_scheduler("dysta", lut), obs=obs)
        counts = obs.bus.counts
        n = spec.n_requests
        assert counts[KIND_ARRIVE] == counts[KIND_QUEUE] == n
        assert counts[KIND_COMPLETE] + counts[KIND_VIOLATE] == n
        assert counts[KIND_VIOLATE] == sum(r.violated for r in result.requests)
        assert counts[KIND_VIOLATE] > 0
        assert counts[KIND_SELECT] == counts[KIND_EXECUTE]
        obs.bus.check_conservation()

    def test_queue_span_ends_at_first_execute(self):
        traces, lut, spec = toy_world(rate=120.0, n_requests=60)
        obs = Observability(trace=True)
        simulate_multi(generate_workload(traces, spec),
                       make_scheduler("dysta", lut), num_accelerators=2,
                       obs=obs)
        first_exec = {}
        for e in filter_events(obs.bus.events, KIND_EXECUTE):
            first_exec.setdefault(e.rid, e.time)
        queues = filter_events(obs.bus.events, KIND_QUEUE)
        assert {e.rid for e in queues} == set(first_exec)
        for e in queues:
            assert e.time + e.dur == pytest.approx(first_exec[e.rid])

    def test_execute_spans_never_overlap_per_accelerator(self):
        traces, lut, spec = toy_world(rate=120.0, n_requests=80)
        obs = Observability(trace=True)
        simulate_multi(generate_workload(traces, spec),
                       make_scheduler("dysta", lut), num_accelerators=3,
                       obs=obs)
        lanes = {}
        for e in filter_events(obs.bus.events, KIND_EXECUTE):
            lanes.setdefault((e.pool, e.npu), []).append((e.time, e.dur))
        assert set(npu for _, npu in lanes) == {0, 1, 2}
        for spans in lanes.values():
            spans.sort()
            for (t0, d0), (t1, _) in zip(spans, spans[1:]):
                assert t1 >= t0 + d0 - 1e-9

    def test_cluster_shed_terminates_lifecycle(self, toy_lut):
        reqs = [make_request(rid=i, model="long", arrival=0.0, slo=10.0,
                             latencies=(0.01, 0.01, 0.01),
                             sparsities=(0.3, 0.3, 0.3)) for i in range(4)]
        obs = Observability(trace=True)
        result = simulate_cluster(
            reqs, [Pool("a", make_scheduler("fcfs", toy_lut), 1)],
            admission=AdmissionController(max_queue_depth=2), obs=obs)
        assert result.num_shed == 2
        counts = obs.bus.counts
        assert counts[KIND_SHED] == 2
        assert counts[KIND_ARRIVE] == 4
        sheds = filter_events(obs.bus.events, KIND_SHED)
        assert all(e.args["reason"] == "queue_depth" for e in sheds)
        obs.bus.check_conservation()

    def test_cluster_routes_every_admitted_request(self):
        traces, lut, spec = toy_world(rate=80.0, n_requests=50)
        obs = Observability(trace=True)
        simulate_cluster(generate_workload(traces, spec),
                         [Pool("a", make_scheduler("sjf", lut), 1),
                          Pool("b", make_scheduler("sjf", lut), 1)],
                         make_router("jsq"), obs=obs)
        counts = obs.bus.counts
        assert counts[KIND_ROUTE] == counts[KIND_ARRIVE] == 50
        routed_pools = {e.pool for e in
                        filter_events(obs.bus.events, KIND_ROUTE)}
        assert routed_pools <= {"a", "b"}
        assert all(e.args["router"] == "jsq" for e in
                   filter_events(obs.bus.events, KIND_ROUTE))


class TestControlPlaneEvents:
    def test_autoscaler_scale_events_are_traced(self):
        traces, lut, spec = toy_world(rate=60.0, n_requests=400)
        scaler = make_autoscaler("reactive", interval=0.05,
                                 provision_latency=0.1, max_accelerators=8)
        obs = Observability(trace=True)
        result = simulate_cluster(
            generate_workload(traces, spec),
            [Pool("a", make_scheduler("fcfs", lut), 1)],
            autoscaler=scaler, obs=obs)
        assert result.scale_events                     # the surge scaled up
        traced = filter_events(obs.bus.events, KIND_SCALE)
        assert len(traced) == obs.bus.counts[KIND_SCALE] == len(result.scale_events)
        for e, ev in zip(traced, result.scale_events):
            assert e.time == ev.time and e.pool == ev.pool
            assert e.args == {"delta": ev.delta,
                              "capacity_after": ev.capacity_after,
                              "ready_at": ev.ready_at}
        obs.bus.check_conservation()

    def test_powercap_deferrals_are_traced(self):
        from repro.energy import EnergyAccountant, EnergyLUT
        from repro.profiling.profiler import benchmark_suite

        traces = benchmark_suite("attnn", n_samples=20, seed=0)
        lut = ModelInfoLUT(traces)
        energy_lut = EnergyLUT.from_model_lut(lut)
        spec = WorkloadSpec(arrival_rate=30.0, n_requests=60,
                            slo_multiplier=10.0, seed=6)
        obs = Observability(trace=True)
        simulate(generate_workload(traces, spec),
                 make_scheduler("energy_powercap", lut, energy_lut=energy_lut,
                                power_cap_w=1.0, window_s=0.2),
                 energy=EnergyAccountant(energy_lut), obs=obs)
        deferrals = filter_events(obs.bus.events, KIND_POWERCAP)
        assert deferrals                                # the cap did bind
        for e in deferrals:
            assert e.args["watts"] > e.args["cap_w"] == 1.0
            assert e.args["deferred"] >= 0
        # The cap bound while work was actually waiting behind the pick.
        assert any(e.args["deferred"] >= 1 for e in deferrals)
        obs.bus.check_conservation()


class TestChromeExport:
    def run_multi(self):
        traces, lut, spec = toy_world(rate=120.0, n_requests=60)
        obs = Observability(trace=True)
        simulate_multi(generate_workload(traces, spec),
                       make_scheduler("dysta", lut), num_accelerators=3,
                       obs=obs)
        return obs

    def test_trace_event_format_validity(self, tmp_path):
        obs = self.run_multi()
        path = tmp_path / "timeline.json"
        out_path, n = export_chrome_trace(obs.bus, path,
                                          metadata={"scheduler": "dysta"})
        assert out_path == str(path) and n > 0
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"scheduler": "dysta"}
        rows = doc["traceEvents"]
        assert sum(1 for r in rows if r["ph"] != "M") == n
        for row in rows:
            assert row["ph"] in ("M", "X", "i")
            assert {"name", "ph", "pid", "tid"} <= set(row)
            if row["ph"] == "X":
                assert row["ts"] >= 0 and row["dur"] >= 0
            if row["ph"] == "i":
                assert row["s"] == "p"

    def test_one_lane_per_accelerator(self):
        obs = self.run_multi()
        doc = to_chrome_trace(obs.bus.events)
        execute_tids = {r["tid"] for r in doc["traceEvents"]
                        if r.get("cat") == KIND_EXECUTE}
        assert execute_tids == {0, 1, 2}
        thread_names = {(r["pid"], r["tid"]): r["args"]["name"]
                        for r in doc["traceEvents"]
                        if r["ph"] == "M" and r["name"] == "thread_name"}
        assert thread_names[(1, 0)] == "npu 0"
        assert thread_names[(1, 2)] == "npu 2"
        assert thread_names[(1, QUEUE_TID)] == "queue"
        assert thread_names[(1, CONTROL_TID)] == "control"

    def test_cluster_pools_become_processes(self):
        traces, lut, spec = toy_world(rate=80.0, n_requests=40)
        obs = Observability(trace=True)
        simulate_cluster(generate_workload(traces, spec),
                         [Pool("sanger", make_scheduler("sjf", lut), 1),
                          Pool("eyeriss", make_scheduler("sjf", lut), 1)],
                         make_router("jsq"), obs=obs)
        doc = to_chrome_trace(obs.bus.events)
        processes = {r["pid"]: r["args"]["name"] for r in doc["traceEvents"]
                     if r["ph"] == "M" and r["name"] == "process_name"}
        # Sorted lane names, pids from 1 — stable across runs.  Arrivals
        # (pre-routing) live on the cluster-wide "engine" control lane.
        assert processes == {1: "engine", 2: "eyeriss", 3: "sanger"}

    def test_execute_spans_named_by_model_key(self):
        obs = self.run_multi()
        doc = to_chrome_trace(obs.bus.events)
        names = {r["name"] for r in doc["traceEvents"]
                 if r.get("cat") == KIND_EXECUTE}
        assert names <= {"short/dense", "long/dense"}

    def test_export_accepts_plain_event_lists(self, tmp_path):
        events = [TraceEvent(KIND_ARRIVE, 0.0, rid=0),
                  TraceEvent(KIND_EXECUTE, 0.0, 1.0, npu=0, rid=0),
                  TraceEvent(KIND_COMPLETE, 1.0, rid=0)]
        _, n = export_chrome_trace(events, tmp_path / "t.json")
        assert n == 3


class TestEngineTelemetry:
    def test_single_engine_series(self):
        traces, lut, spec = toy_world(slo=1.2)
        obs = Observability(telemetry=0.05)
        result = simulate(generate_workload(traces, spec),
                          make_scheduler("dysta", lut), obs=obs)
        table = obs.telemetry.to_table()
        assert obs.telemetry.columns() == [
            "t", "completed", "queue_depth", "violations"]
        # Samples carry the state as of each grid time, so the last row
        # counts exactly the requests finished by then (piecewise-constant
        # sampling, not an end-of-run summary).
        t_last = table["t"][-1]
        assert table["completed"][-1] == sum(
            r.finish_time is not None and r.finish_time <= t_last + 1e-9
            for r in result.requests)
        assert all(b >= a for a, b in zip(table["completed"],
                                          table["completed"][1:]))
        # Series covers the whole run on the exact grid.
        assert table["t"][-1] == pytest.approx(
            0.05 * (obs.telemetry.num_samples - 1))
        assert table["t"][-1] <= result.makespan + 0.05

    def test_cluster_per_pool_columns(self):
        traces, lut, spec = toy_world(rate=80.0, n_requests=60)
        obs = Observability(telemetry=0.1)
        simulate_cluster(generate_workload(traces, spec),
                         [Pool("a", make_scheduler("sjf", lut), 1),
                          Pool("b", make_scheduler("sjf", lut), 1)],
                         make_router("jsq"), obs=obs)
        cols = obs.telemetry.columns()
        for pool in ("a", "b"):
            assert f"{pool}_queue_depth" in cols
            assert f"{pool}_busy_npus" in cols
            assert f"{pool}_provisioned" in cols
        assert "completed" in cols and "shed" in cols

    def test_multi_engine_is_a_one_pool_cluster_run(self):
        # simulate_multi runs one pool through the cluster kernel: the
        # pool's telemetry columns, and one route instant per request.
        traces, lut, spec = toy_world(rate=120.0, n_requests=60)
        obs = Observability(trace=True, telemetry=0.05)
        simulate_multi(generate_workload(traces, spec),
                       make_scheduler("dysta", lut), num_accelerators=2,
                       obs=obs)
        assert obs.telemetry.columns() == [
            "t", "completed", "engine_busy_npus", "engine_provisioned",
            "engine_queue_depth", "shed", "violations"]
        routes = filter_events(obs.bus.events, KIND_ROUTE)
        assert sorted(e.rid for e in routes) == list(range(60))
        assert {e.pool for e in routes} == {ENGINE_LANE}

    def test_telemetry_identical_for_any_worker_count(self, tmp_path):
        from repro.scenarios import SweepConfig, run_sweep

        config = SweepConfig(scenarios=("diurnal",), schedulers=("sjf", "dysta"),
                             seeds=(0, 1), duration=3.0, n_profile_samples=10,
                             telemetry_interval=0.5)
        from repro.warehouse import Warehouse

        run_sweep(config, out_path=tmp_path / "w1", workers=1)
        run_sweep(config, out_path=tmp_path / "w2", workers=2)
        assert warehouse_files(tmp_path / "w1") == warehouse_files(tmp_path / "w2")
        with Warehouse.open(tmp_path / "w1") as wh:
            assert wh.workload["telemetry_interval"] == 0.5
            cells = wh.read_cells()
        assert len(cells) == 4
        for cell in cells.values():
            series = cell["timeseries"]
            assert series["t"][0] == 0.0 and len(series["t"]) >= 2
            assert "completed" in series

    def test_sweep_without_telemetry_has_no_timeseries(self, tmp_path):
        from repro.scenarios import SweepConfig, run_sweep

        config = SweepConfig(scenarios=("steady",), schedulers=("sjf",),
                             seeds=(0,), duration=2.0, n_profile_samples=10)
        store = run_sweep(config, out_path=tmp_path / "w", workers=1)
        assert all("timeseries" not in cell for cell in store.cells.values())


class TestSelfProfiling:
    def test_each_engine_attributes_phases(self):
        traces, lut, spec = toy_world(rate=100.0, n_requests=80)

        obs = Observability(profile=True)
        simulate(generate_workload(traces, spec),
                 make_scheduler("dysta", lut), obs=obs)
        single = obs.profiler.summary()

        obs = Observability(profile=True)
        simulate_multi(generate_workload(traces, spec),
                       make_scheduler("dysta", lut), num_accelerators=2,
                       obs=obs)
        multi = obs.profiler.summary()

        obs = Observability(profile=True)
        simulate_cluster(generate_workload(traces, spec),
                         [Pool("a", make_scheduler("dysta", lut), 2)],
                         make_router("jsq"), obs=obs)
        cluster = obs.profiler.summary()

        for summary in (single, multi, cluster):
            assert summary["wall_s"] > 0
            assert summary["phases"]                  # non-empty breakdown
            assert 0 < summary["coverage"] <= 1.5
            for row in summary["phases"].values():
                assert row["seconds"] >= 0 and row["calls"] > 0
        assert "select" in single["phases"]
        assert "event_heap" in multi["phases"]
        assert "route" in cluster["phases"]

    def test_perf_suite_profile_section(self):
        from repro.bench.perf import profile_engine_phases

        out = profile_engine_phases(n_requests=40, n_samples=10,
                                    cluster_requests=200)
        assert set(out) == {"engine_single", "engine_multi", "engine_cluster"}
        for summary in out.values():
            assert summary["phases"] and summary["wall_s"] > 0


class TestTraceCLI:
    def test_trace_subcommand_writes_all_artifacts(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import read_jsonl, read_telemetry_csv

        timeline = tmp_path / "timeline.json"
        events = tmp_path / "events.jsonl"
        csv_path = tmp_path / "telemetry.csv"
        rc = main(["trace", "--family", "attnn", "--samples", "10",
                   "--requests", "40", "--scheduler", "dysta",
                   "--accelerators", "2", "--out", str(timeline),
                   "--events", str(events), "--telemetry-csv", str(csv_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conservation" in out and "arrivals ==" in out
        doc = json.loads(timeline.read_text())
        assert {r["tid"] for r in doc["traceEvents"]
                if r.get("cat") == "execute"} == {0, 1}
        loaded = read_jsonl(events)
        assert sum(1 for e in loaded if e.kind == KIND_ARRIVE) == 40
        series = read_telemetry_csv(csv_path)
        assert series["t"] and series["completed"][-1] <= 40.0
        assert series["completed"] == sorted(series["completed"])

    def test_analyze_trace_flags(self, tmp_path, capsys):
        from repro.cli import main

        timeline = tmp_path / "t.json"
        events = tmp_path / "e.jsonl"
        rc = main(["analyze", "--family", "attnn", "--samples", "10",
                   "--requests", "40", "--seeds", "0",
                   "--trace", str(events), "--timeline", str(timeline)])
        assert rc == 0
        assert timeline.exists() and events.exists()
        assert "timeline records" in capsys.readouterr().out
