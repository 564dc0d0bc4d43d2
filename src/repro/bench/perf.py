"""Performance-trajectory runner behind the ``repro perf`` CLI subcommand.

Times the simulator's hot paths — the single-NPU engine per scheduler
against the list-queue reference loop (``simulate_reference``), the deep-queue
overload regime, and the streaming cluster replay — and emits a
``BENCH_perf.json`` snapshot.  The JSON is the repo's measured perf
baseline: every optimisation PR re-runs it and compares against the
committed numbers instead of hand-waving.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Pool, build_heterogeneous_world, build_router, simulate_cluster
from repro.core.lut import ModelInfoLUT
from repro.obs.hostmem import peak_rss_mb, reset_peak_rss
from repro.profiling.profiler import benchmark_suite
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate, simulate_reference
from repro.sim.workload import WorkloadSpec, generate_workload, iter_workload

ENGINE_SCHEDULERS = ("dysta", "fcfs", "sjf", "prema", "sdrm3", "oracle")


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# Shared with the sweep runner's per-cell cost columns; see
# repro.obs.hostmem for the clear_refs/VmHWM technique.
_reset_peak_rss = reset_peak_rss
_rss_mb = peak_rss_mb


def time_engine_suite(
    schedulers: Sequence[str] = ENGINE_SCHEDULERS,
    *,
    n_requests: int = 200,
    arrival_rate: float = 30.0,
    n_samples: int = 100,
    rounds: int = 3,
    progress=None,
) -> Dict[str, Dict[str, float]]:
    """Reference loop (``scalar_s``) vs ``simulate`` (``vectorized_s``)
    wall-clock per scheduler on one workload.

    Matches ``bench_perf_engine_dysta``'s workload (attnn suite, 200
    requests @ 30 req/s) so the numbers line up with the pytest-benchmark
    suite.
    """
    traces = benchmark_suite("attnn", n_samples=n_samples, seed=0)
    lut = ModelInfoLUT(traces)
    spec = WorkloadSpec(arrival_rate, n_requests=n_requests,
                        slo_multiplier=10.0, seed=0)
    out: Dict[str, Dict[str, float]] = {}
    for name in schedulers:
        row: Dict[str, float] = {}
        for label, engine in (("scalar_s", simulate_reference),
                              ("vectorized_s", simulate)):
            def run(engine=engine):
                reqs = generate_workload(traces, spec)
                result = engine(reqs, make_scheduler(name, lut))
                assert len(result.requests) == n_requests
            row[label] = _best_of(run, rounds)
        row["speedup"] = row["scalar_s"] / row["vectorized_s"]
        out[name] = row
        if progress:
            progress(f"engine/{name}: scalar {1e3 * row['scalar_s']:.1f} ms, "
                     f"vectorized {1e3 * row['vectorized_s']:.1f} ms "
                     f"({row['speedup']:.1f}x)")
    return out


def time_deep_queue(
    *,
    n_requests: int = 400,
    arrival_rate: float = 120.0,
    n_samples: int = 100,
    rounds: int = 2,
    progress=None,
) -> Dict[str, float]:
    """Overload regime: hundreds-deep queues exercise the numpy path."""
    traces = benchmark_suite("attnn", n_samples=n_samples, seed=0)
    lut = ModelInfoLUT(traces)
    spec = WorkloadSpec(arrival_rate, n_requests=n_requests,
                        slo_multiplier=10.0, seed=1)
    row: Dict[str, float] = {}
    max_queue = 0
    for label, engine in (("scalar_s", simulate_reference),
                          ("vectorized_s", simulate)):
        def run(engine=engine):
            nonlocal max_queue
            reqs = generate_workload(traces, spec)
            result = engine(reqs, make_scheduler("dysta", lut))
            max_queue = max(max_queue, result.max_queue_length)
        row[label] = _best_of(run, rounds)
    row["speedup"] = row["scalar_s"] / row["vectorized_s"]
    row["max_queue_length"] = max_queue
    if progress:
        progress(f"deep-queue dysta (queue depth {max_queue}): scalar "
                 f"{row['scalar_s']:.2f} s, vectorized {row['vectorized_s']:.2f} s "
                 f"({row['speedup']:.1f}x)")
    return row


def time_cluster_stream(
    *,
    n_requests: int = 100_000,
    arrival_rate: float = 12.0,
    n_samples: int = 200,
    scheduler: str = "dysta",
    routers: Sequence[str] = ("jsq", "predictive"),
    progress=None,
) -> Dict[str, Dict[str, float]]:
    """Streaming bounded-memory replay through the heterogeneous cluster.

    Uses ``iter_workload`` + ``retain_requests=False``: no request list is
    ever materialized, so the replay's memory stays flat regardless of
    stream length.  Reports wall-clock, throughput and the peak-RSS delta
    across the replay as the bounded-memory evidence.
    """
    traces, lut, affinity = build_heterogeneous_world(n_samples=n_samples)
    out: Dict[str, Dict[str, float]] = {}
    for router_name in routers:
        pools = [
            Pool("eyeriss", make_scheduler(scheduler, lut), 2,
                 affinity=affinity["cnn"]),
            Pool("sanger", make_scheduler(scheduler, lut), 2,
                 affinity=affinity["attnn"]),
        ]
        spec = WorkloadSpec(arrival_rate, n_requests=n_requests,
                            slo_multiplier=10.0, seed=0)
        # Without the reset, every replay after the first reports a 0.0
        # delta: the lifetime high-water mark was already set by its
        # predecessor.
        _reset_peak_rss()
        rss_before = _rss_mb()
        t0 = time.perf_counter()
        result = simulate_cluster(
            iter_workload(traces, spec),
            pools,
            build_router(router_name, lut),
            retain_requests=False,
        )
        wall = time.perf_counter() - t0
        assert result.num_completed == n_requests
        assert result.requests == [] and result.shed_requests == []
        out[router_name] = {
            "requests": n_requests,
            "wall_s": wall,
            "requests_per_s": n_requests / wall,
            "scheduler_invocations": result.num_scheduler_invocations,
            "max_queue_length": result.max_queue_length,
            "antt": result.antt,
            "violation_rate": result.violation_rate,
            "p99": result.p99,
            "peak_rss_delta_mb": _rss_mb() - rss_before,
        }
        if progress:
            progress(f"cluster/{router_name}: {n_requests} requests in "
                     f"{wall:.1f} s ({n_requests / wall:,.0f} req/s, "
                     f"{result.num_scheduler_invocations:,} decisions, "
                     f"peak-RSS delta {out[router_name]['peak_rss_delta_mb']:.0f} MiB)")
    return out


def profile_engine_phases(
    *,
    n_requests: int = 200,
    arrival_rate: float = 30.0,
    n_samples: int = 100,
    cluster_requests: int = 5_000,
    progress=None,
) -> Dict[str, Dict]:
    """Self-profiled runs: wall-clock attributed to engine phases.

    One instrumented pass per engine tier (single-NPU, multi-NPU, streaming
    cluster) with :class:`~repro.obs.Observability` profiling on.  The
    breakdown — event-heap ops, ready-queue update, batch scoring, router
    predict, arrivals — lands in ``BENCH_perf.json`` under ``profile`` so
    optimisation work knows which phase to attack first.
    """
    from repro.obs import Observability
    from repro.sim.multi import simulate_multi

    traces = benchmark_suite("attnn", n_samples=n_samples, seed=0)
    lut = ModelInfoLUT(traces)
    spec = WorkloadSpec(arrival_rate, n_requests=n_requests,
                        slo_multiplier=10.0, seed=0)
    out: Dict[str, Dict] = {}

    obs = Observability(profile=True)
    simulate(generate_workload(traces, spec), make_scheduler("dysta", lut),
             obs=obs)
    out["engine_single"] = obs.profiler.summary()

    obs = Observability(profile=True)
    simulate_multi(generate_workload(traces, spec),
                   make_scheduler("dysta", lut), num_accelerators=4, obs=obs)
    out["engine_multi"] = obs.profiler.summary()

    ctraces, clut, affinity = build_heterogeneous_world(n_samples=n_samples)
    pools = [
        Pool("eyeriss", make_scheduler("dysta", clut), 2,
             affinity=affinity["cnn"]),
        Pool("sanger", make_scheduler("dysta", clut), 2,
             affinity=affinity["attnn"]),
    ]
    cspec = WorkloadSpec(12.0, n_requests=cluster_requests,
                         slo_multiplier=10.0, seed=0)
    obs = Observability(profile=True)
    simulate_cluster(iter_workload(ctraces, cspec), pools,
                     build_router("predictive", clut),
                     retain_requests=False, obs=obs)
    out["engine_cluster"] = obs.profiler.summary()

    if progress:
        for tier, summary in out.items():
            top = next(iter(summary["phases"]), "-")
            progress(f"profile/{tier}: {1e3 * summary['wall_s']:.1f} ms wall, "
                     f"{100 * summary['coverage']:.0f}% attributed, "
                     f"hottest phase {top!r}")
    return out


def load_baseline(path: str) -> Optional[Dict]:
    """Load the most recent perf entry committed at ``path``.

    Understands both snapshot formats: schema 1 (one flat report per file)
    and schema 2 (``{"schema": 2, "entries": [...]}`` — the append-only
    trajectory, newest entry last).  Returns ``None`` when the file is
    missing or unreadable.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if payload.get("schema") == 2:
        entries = payload.get("entries") or []
        return entries[-1] if entries else None
    return payload


def compare_reports(current: Dict, baseline: Dict,
                    threshold: float = 0.20) -> Tuple[List[str], List[str]]:
    """Per-benchmark deltas of ``current`` vs ``baseline``.

    Only host-portable figures are gated: the vectorized-vs-scalar speedup
    ratios (engine suite + deep queue) always, and the cluster replay's
    ``requests_per_s`` only when both reports carry it (a CI runner never
    compares its cluster throughput against the committed baseline host's).
    Returns ``(lines, regressions)`` where ``lines`` is the full printable
    delta table and ``regressions`` the subset worse than ``threshold``.
    """
    lines: List[str] = []
    regressions: List[str] = []

    def check(label: str, cur: float, base: float) -> None:
        if base <= 0:
            return
        delta = cur / base - 1.0
        line = f"{label:<28} {base:9.2f} -> {cur:9.2f}  ({delta:+7.1%})"
        lines.append(line)
        if delta < -threshold:
            regressions.append(line)

    cur_eng = current.get("engine_200req_rate30", {})
    base_eng = baseline.get("engine_200req_rate30", {})
    for sched in sorted(set(cur_eng) & set(base_eng)):
        check(f"engine/{sched} speedup",
              cur_eng[sched]["speedup"], base_eng[sched]["speedup"])
    cur_deep = current.get("deep_queue_400req_rate120")
    base_deep = baseline.get("deep_queue_400req_rate120")
    if cur_deep and base_deep:
        check("deep_queue speedup", cur_deep["speedup"], base_deep["speedup"])
    cur_cluster = current.get("cluster_stream", {})
    base_cluster = baseline.get("cluster_stream", {})
    for router in sorted(set(cur_cluster) & set(base_cluster)):
        check(f"cluster/{router} req/s",
              cur_cluster[router]["requests_per_s"],
              base_cluster[router]["requests_per_s"])
    return lines, regressions


def _append_entry(out_path: str, entry: Dict) -> None:
    """Append ``entry`` to the schema-2 trajectory at ``out_path``.

    An existing schema-1 snapshot is upgraded in place: it becomes entry #1
    of the trajectory so the perf history is preserved across the format
    change.
    """
    entries: List[Dict] = []
    try:
        with open(out_path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = None
    if payload is not None:
        if payload.get("schema") == 2:
            entries = list(payload.get("entries") or [])
        else:
            prior = dict(payload)
            prior.pop("schema", None)
            entries = [prior]
    entries.append(entry)
    with open(out_path, "w") as fh:
        json.dump({"schema": 2, "entries": entries}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def run_perf_suite(
    *,
    cluster_requests: int = 100_000,
    rounds: int = 3,
    include_cluster: bool = True,
    profile: bool = False,
    out_path: Optional[str] = None,
    progress=None,
) -> Dict:
    """Run every perf bench and optionally write the JSON snapshot.

    Returns the new measurement entry.  With ``out_path``, the entry is
    *appended* to the schema-2 trajectory file (creating it, or upgrading a
    schema-1 snapshot into entry #1), so the committed history records every
    optimisation PR's numbers side by side.

    Args:
        profile: Additionally run self-profiled passes per engine tier and
            record the per-phase wall-clock breakdown under ``profile``.
    """
    entry: Dict = {
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "hostname": platform.node(),
        },
        "engine_200req_rate30": time_engine_suite(rounds=rounds, progress=progress),
        "deep_queue_400req_rate120": time_deep_queue(progress=progress),
    }
    if include_cluster:
        entry["cluster_stream"] = time_cluster_stream(
            n_requests=cluster_requests, progress=progress
        )
    if profile:
        entry["profile"] = profile_engine_phases(progress=progress)
    if out_path:
        _append_entry(out_path, entry)
    return entry
