#!/usr/bin/env python
"""Scenario-engine walkthrough: shaped traffic, trace replay, and sweeps.

Four stops:

1. **Shapes** — compose arrival-intensity curves (diurnal sinusoid, flash
   crowd, tenant superposition) and sample them as non-homogeneous Poisson
   arrivals via thinning.
2. **Scenarios** — stitch phases into a ``ScenarioSpec`` and drive the
   single-accelerator engine with a diurnal load curve.
3. **Trace replay** — record a request stream to a (timestamp, model,
   seq_len) CSV, replay it bit-for-bit, and feed it to the cluster engine.
4. **Sweeps** — run a scenario x scheduler x seed grid through the
   multiprocessing runner and resume it from its JSON store.

Run:  python examples/traffic_scenarios.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import make_scheduler
from repro.bench.figures import render_table
from repro.cluster import Pool, simulate_cluster
from repro.core.lut import ModelInfoLUT
from repro.profiling.profiler import benchmark_suite
from repro.scenarios import (
    Constant,
    Diurnal,
    Spike,
    SweepConfig,
    aggregate,
    build_scenario,
    generate_scenario,
    record_trace,
    replay_trace,
    run_sweep,
    sample_arrivals,
    save_trace_csv,
)
from repro.sim.engine import simulate


def shapes_demo() -> None:
    rng = np.random.default_rng(0)
    day = Diurnal(base=20.0, amplitude=0.8, period=20.0)
    crowd = Constant(5.0) + Spike(0.0, 40.0, at=15.0, width=2.0)
    tenants = day + Constant(4.0)  # a diurnal tenant over a steady one
    rows = {}
    for name, shape in (("diurnal", day), ("flash crowd", crowd),
                        ("two tenants", tenants)):
        arrivals = sample_arrivals(shape, 40.0, rng)
        rows[name] = [shape.mean_rate(40.0), len(arrivals) / 40.0]
    print(render_table(
        "analytic vs sampled mean rate (40 s, one seed)",
        ["analytic req/s", "sampled req/s"],
        rows,
        float_fmt="{:.2f}",
    ))
    print("Thinning keeps the sampled process exact for any bounded "
          "intensity, so\ncomposed shapes need no bespoke sampling code.\n")


def scenario_demo(traces, lut) -> None:
    spec = build_scenario("diurnal", base_rate=20.0, duration=16.0)
    print(f"scenario: {spec.describe()}")
    rows = {}
    for name in ("fcfs", "dysta"):
        requests = generate_scenario(traces, spec, seed=7)
        result = simulate(requests, make_scheduler(name, lut))
        rows[name] = [result.antt, 100 * result.violation_rate, result.p99]
    print(render_table(
        "diurnal load curve on one accelerator",
        ["ANTT", "viol %", "p99"],
        rows,
        float_fmt="{:.2f}",
    ))
    print("The day/night swing pushes the peak past the mean operating "
          "point; latency-aware\nscheduling matters most near the crest.\n")


def replay_demo(traces, lut, tmp: Path) -> None:
    spec = build_scenario("flash_crowd", base_rate=15.0, duration=10.0)
    recorded = generate_scenario(traces, spec, seed=11)
    csv_path = tmp / "recorded_traffic.csv"
    save_trace_csv(csv_path, record_trace(recorded, traces))

    replayed = list(replay_trace(csv_path, traces))
    same = (
        [r.arrival for r in replayed] == [r.arrival for r in recorded]
        and [r.layer_latencies for r in replayed]
        == [r.layer_latencies for r in recorded]
    )
    print(f"recorded {len(recorded)} requests -> {csv_path.name} -> replayed "
          f"{len(replayed)} (bit-identical: {same})")

    pools = [Pool("sanger", make_scheduler("dysta", lut), 2)]
    result = simulate_cluster(
        replay_trace(csv_path, traces), pools, "jsq", retain_requests=False
    )
    print(f"replayed through the cluster engine: ANTT {result.antt:.2f}, "
          f"viol {100 * result.violation_rate:.1f}%, p99 {result.p99:.2f}\n")


def sweep_demo(tmp: Path) -> None:
    config = SweepConfig(
        scenarios=("diurnal", "flash_crowd"),
        schedulers=("sjf", "dysta"),
        seeds=(0, 1),
        duration=8.0,
        n_profile_samples=40,
    )
    store_path = tmp / "scenario_results"
    first = run_sweep(config, out_path=store_path, workers=2)
    again = run_sweep(config, out_path=store_path, workers=2)
    print(f"sweep: {first.n_run} cells run, then re-run skipped "
          f"{again.n_skipped}/{len(config.cells())} (store: warehouse, "
          f"bit-identical for any worker count)")
    print(render_table(
        "sweep means across seeds",
        ["ANTT", "viol %", "p99"],
        {
            f"{scenario}/{scheduler}": [
                row["antt"], 100 * row["violation_rate"], row["p99"],
            ]
            for (scenario, scheduler), row in aggregate(first.store).items()
        },
        float_fmt="{:.2f}",
    ))


def main() -> None:
    traces = benchmark_suite("attnn", n_samples=40, seed=0)
    lut = ModelInfoLUT(traces)
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        shapes_demo()
        scenario_demo(traces, lut)
        replay_demo(traces, lut, tmp)
        sweep_demo(tmp)


if __name__ == "__main__":
    main()
