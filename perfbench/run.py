"""Layered benchmark of the Sparse-DySta simulator (``repro``).

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster_stream --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: set-up
time, host throughput, peak memory, and the simulated ANTT / SLO-miss /
p99 figures of dysta.  ``--trace 1`` is a separate run that wraps each
layer's public functions (see ``layers.py``) and prints the per-layer
metrics.  Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record with
provenance and every pass's sample lands in ``.perfbench_out/``.

The timed phase repeats one fixed-size pass of the workload (generated
from ``--seed``) for about ``--seconds`` seconds, after one untimed
warm-up pass, and reports medians over passes.  Every pass must reproduce
the first pass's simulated outputs exactly, and for the default seed they
must equal the values recorded in ``expected.json``.

See README.md in this directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
#: Set-ups measured per run, each in a fresh process; setup_s is their median.
SETUP_PROBES = 5


def monotonic() -> float:
    """System-wide clock, comparable between parent and child processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return repro


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="write this run's pinned outputs to expected.json "
                         "(default seed only)")
    ap.add_argument("--setup-probe", metavar="WORKDIR",
                    help=argparse.SUPPRESS)  # child mode: report set-up end
    return ap.parse_args(argv)


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


# -- provenance ---------------------------------------------------------------

def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: the host speed score."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def git_stamp():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.stdout.strip()) if status.returncode == 0 else None


def provenance(repro, seed: int) -> dict:
    import numpy as np

    sha, dirty = git_stamp()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "calibration_ms": calibration_ms(),
    }


# -- host memory --------------------------------------------------------------

def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5\n")
    except OSError:
        pass  # the peak then covers the whole process, warm-up included


def peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# -- set-up ---------------------------------------------------------------------

def setup_probe(args) -> None:
    """Child mode: set up, then print the clock at the first engine call."""
    import_repro()
    import layers
    import workloads

    reached = []
    layers.stop_at_first_engine_call(lambda: reached.append(monotonic()))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.setup_probe)
    workload.setup()
    try:
        workload.warm_up()
    except layers.EngineReached:
        print(f"engine-reached {reached[0]!r}")
        return
    raise SystemExit("perfbench: the warm-up never called a simulation engine")


def measure_setup(args, workdir: str) -> list:
    """Seconds from process spawn to the first engine call, per probe."""
    samples = []
    for index in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe",
               os.path.join(workdir, f"probe{index}")]
        t0 = monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("engine-reached ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
        samples.append(float(lines[-1].split()[1]) - t0)
    return samples


# -- timed passes ---------------------------------------------------------------

def timed_passes(workload, seconds: float) -> list:
    """Repeat the pass while another one fits in ``seconds`` (at least one)."""
    samples = []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        result = workload.run_pass()
        samples.append((perf_counter() - t0, result))
        elapsed = perf_counter() - begin
        if elapsed + statistics.median(w for w, _ in samples) > seconds:
            return samples


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def check_outputs(workload, samples, pin: bool) -> list:
    """Every problem with the run's simulated outputs; ``pin`` also compares
    them with the values recorded for the default seed."""
    problems = []
    first = samples[0][1].outputs
    for index, (_, result) in enumerate(samples, 1):
        problems.extend(f"pass {index}: {p}" for p in result.problems)
        if result.outputs != first:
            problems.append(f"pass {index}: simulated outputs differ from pass 1")
    problems.extend(workload.check(first))
    if pin:
        with open(EXPECTED_PATH) as fh:
            expected = json.load(fh).get(workload.name)
        actual = json.loads(json.dumps(workload.summary(first)))
        if expected is None:
            problems.append(f"expected.json has no entry for {workload.name}")
        else:
            for key in sorted(set(expected) | set(actual)):
                if expected.get(key) != actual.get(key):
                    problems.append(f"{key}: {actual.get(key)!r} != recorded "
                                    f"{expected.get(key)!r}")
    return problems


def layer_metrics(stats: dict, traced_walls: list, untraced_walls: list,
                  root_s: float, engine_self_s: float, host: dict) -> dict:
    """``root_s`` and ``engine_self_s`` total the traced passes: the time in
    top-level spans, and the engines' own time outside any child layer,
    which coverage counts as unattributed."""
    def f(layer, field):
        return stats.get(layer, {}).get(field, 0.0)

    lookups = f("select_cache.lookup", "calls")
    scans = f("select_cache.scan", "calls")
    selects = f("schedulers.select", "calls")
    return {
        "profiling.suite_s": f("profiling.suite", "incl_s"),
        "core.lut_s": f("core.lut", "incl_s"),
        "energy.lut_s": f("energy.lut", "incl_s"),
        "sim.workload.gen_s": f("sim.workload.gen", "incl_s"),
        "scenarios.gen_s": f("scenarios.gen", "incl_s"),
        "schedulers.select_calls": selects,
        "schedulers.select_s": f("schedulers.select", "incl_s"),
        "schedulers.depth_mean": (f("schedulers.select", "depth_sum") / selects
                                  if selects else 0.0),
        "select_cache.lookups": lookups,
        "select_cache.scans": scans,
        "select_cache.hit_ratio": 1.0 - scans / lookups if lookups else 0.0,
        "select_cache.scan_s": f("select_cache.scan", "incl_s"),
        "ready_queue.ops": f("ready_queue", "calls"),
        "ready_queue.s": f("ready_queue", "incl_s"),
        "sim.engine.self_s": f("sim.engine", "self_s"),
        "cluster.engine.self_s": f("cluster.engine", "self_s"),
        "cluster.pool.dispatch_calls": f("cluster.pool.dispatch", "calls"),
        "cluster.pool.dispatch_s": f("cluster.pool.dispatch", "incl_s"),
        "cluster.pool.complete_calls": f("cluster.pool.complete", "calls"),
        "cluster.pool.complete_s": f("cluster.pool.complete", "incl_s"),
        "cluster.routing.route_calls": f("cluster.routing.route", "calls"),
        "cluster.routing.route_s": f("cluster.routing.route", "incl_s"),
        "cluster.routing.track_s": f("cluster.routing.track", "incl_s"),
        "cluster.admission.admit_calls": f("cluster.admission.admit", "calls"),
        "cluster.admission.shed": f("cluster.admission.admit", "shed"),
        "cluster.autoscale.tick_calls": f("cluster.autoscale.tick", "calls"),
        "cluster.autoscale.tick_s": f("cluster.autoscale.tick", "incl_s"),
        "cluster.autoscale.scale_events": f("cluster.autoscale.tick", "scale_events"),
        "faults.fail_calls": f("faults.fail", "calls"),
        "energy.account_s": f("energy.account", "incl_s"),
        "obs.emit_calls": f("obs.emit", "calls"),
        "obs.emit_s": f("obs.emit", "incl_s"),
        "obs.ledger_s": f("obs.ledger", "incl_s"),
        "obs.telemetry_s": f("obs.telemetry", "incl_s"),
        "obs.alerts_s": f("obs.alerts", "incl_s"),
        "warehouse.append_calls": f("warehouse.append", "calls"),
        "warehouse.append_s": f("warehouse.append", "incl_s"),
        "warehouse.seal_calls": f("warehouse.seal", "calls"),
        "warehouse.seal_s": f("warehouse.seal", "incl_s"),
        "warehouse.bytes": host.get("warehouse_bytes", 0.0),
        "warehouse.read_s": f("warehouse.read", "incl_s"),
        "trace.coverage": (root_s - engine_self_s) / sum(traced_walls),
        "trace.root_share": root_s / sum(traced_walls),
        "trace.overhead": statistics.median(traced_walls) / statistics.median(untraced_walls),
    }


def layer_checks(name: str, m: dict, offered_per_pass: float) -> list:
    """Structural per-layer invariants of the traced run."""
    problems = []
    if name in ("cluster_stream", "observed_replay"):
        if m["cluster.routing.route_calls"] != offered_per_pass:
            problems.append(f"route_calls {m['cluster.routing.route_calls']} != "
                            f"offered {offered_per_pass}")
    lookups, selects = m["select_cache.lookups"], m["schedulers.select_calls"]
    if name == "cluster_stream" and not lookups > 0:
        problems.append("no select_cache lookups on cluster_stream")
    # Shallow queues stay below inc_min_queue: at most 1% of selections
    # may go through the cache.
    if name == "paper_single" and lookups > 0.01 * selects:
        problems.append(f"select_cache.lookups {lookups} > 1% of {selects} selections "
                        "on paper_single")
    if (m["obs.emit_calls"] > 0) != (name == "observed_replay"):
        problems.append(f"obs.emit_calls {m['obs.emit_calls']} on {name}")
    return problems


# -- the two kinds of run ---------------------------------------------------------

def measure_end_to_end(args, workload, workdir: str, record: dict):
    setup_samples = measure_setup(args, workdir)
    workload.setup()
    workload.warm_up()
    reset_peak_rss()
    samples = timed_passes(workload, args.seconds)
    rss = peak_rss_mib()
    summary = workload.summary(samples[0][1].outputs)
    record["samples"] = {
        "setup_s": setup_samples,
        "pass_wall_s": [w for w, _ in samples],
        "sim_req_per_s": [r.offered / w for w, r in samples],
        "cells_per_s": [r.cells / w for w, r in samples],
    }
    record["spread"] = {k: quartiles(v) for k, v in record["samples"].items()}
    record["pinned"] = summary
    values = {
        "setup_s": statistics.median(setup_samples),
        "sim_req_per_s": statistics.median(record["samples"]["sim_req_per_s"]),
        "cells_per_s": statistics.median(record["samples"]["cells_per_s"]),
        "peak_rss_mb": rss,
        "antt": summary["antt"],
        "slo_miss_rate": summary["slo_miss_rate"],
        "p99_ntt": summary["p99_ntt"],
    }
    return values, samples, []


def measure_layers(args, workload, record: dict):
    """Traced set-up, then untraced and traced passes, half the time each."""
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    setup_stats = tracer.snapshot()
    tracer.reset()
    workload.warm_up()
    untraced = timed_passes(workload, args.seconds / 2)
    tracer.install()
    try:
        traced = timed_passes(workload, args.seconds / 2)
    finally:
        tracer.uninstall()
    traced_stats = tracer.snapshot()
    stats = layers.merge([setup_stats, traced_stats], [1.0, 1.0 / len(traced)])
    engine_self_s = sum(traced_stats.get(layer, {}).get("self_s", 0.0)
                        for layer in ("sim.engine", "cluster.engine"))
    untraced_walls = [w for w, _ in untraced]
    traced_walls = [w for w, _ in traced]
    last = traced[-1][1]
    values = layer_metrics(stats, traced_walls, untraced_walls, tracer.root_s,
                           engine_self_s, last.host)
    record["layers"] = stats
    record["pass_wall_s"] = {"untraced": untraced_walls, "traced": traced_walls}
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(
        os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
        {"workload": args.workload, "seed": args.seed, "passes": len(traced),
         "clock": "perf_counter"})
    return values, untraced + traced, layer_checks(args.workload, values, last.offered)


def record_expected(workload_name: str, pinned: dict) -> None:
    recorded = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH) as fh:
            recorded = json.load(fh)
    recorded[workload_name] = pinned
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(args, workdir: str) -> dict:
    repro = import_repro()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.record_expected and (args.seed != DEFAULT_SEED or args.trace):
        raise SystemExit("perfbench: record expected values from a --trace 0 run "
                         "of the default seed")
    end_to_end, per_layer = load_metric_specs()
    specs = per_layer if args.trace else end_to_end
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(repro, args.seed)}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))

    workload = workloads.WORKLOADS[args.workload](args.seed, os.path.join(workdir, "run"))
    record["config"] = workloads.config_of(workload)
    values: dict = {}
    samples: list = []
    try:
        if args.trace:
            values, samples, problems = measure_layers(args, workload, record)
        else:
            values, samples, problems = measure_end_to_end(args, workload, workdir, record)
        problems = check_outputs(workload, samples, args.seed == DEFAULT_SEED
                                 and not args.record_expected) + problems
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        problems = [f"{type(exc).__name__}: {exc}"]
    attempted = max(1, sum(result.ops for _, result in samples))

    for s in specs:
        if s["name"] in values:
            print(f"{s['name']} = {values[s['name']]:.6g} {s['unit']}")
    for problem in problems:
        print(f"check failed: {problem}")
    if not problems:
        print(f"checks passed ({len(samples)} passes, {attempted} {workload.op_unit})")
        if args.record_expected:
            record_expected(args.workload, record["pinned"])

    metrics = {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
               for s in specs}
    result = {"correct": not problems, "attempted": attempted,
              "failed": attempted if problems else 0, "metrics": metrics}
    record.update(problems=problems, result=result)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
