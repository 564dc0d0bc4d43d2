"""Command-line interface: profile the benchmark, run scheduling
experiments, and print the hardware-cost reports without writing code.

Installed as the ``repro`` console script::

    repro profile --family attnn --out traces/        # Phase-1 CSVs
    repro schedule --family cnn --scheduler dysta      # one policy
    repro compare --family attnn --rate 30             # Table-5-style table
    repro cluster --pools eyeriss:2,sanger:2 --router jsq   # cluster tier
    repro scenario --scenarios diurnal flash_crowd     # parallel sweep
    repro warehouse info scenario_results              # inspect sweep store
    repro regress scenario_results --baseline base.json  # CI quality gate
    repro fuzz --scheduler dysta --budget 50           # adversarial search
    repro energy --family attnn                        # joule models + EDP
    repro trace --scheduler dysta --out timeline.json  # Perfetto timeline
    repro predictor-rmse                               # Table-4-style table
    repro hw-report                                    # Fig 16 + Table 6
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.figures import render_table
from repro.bench.harness import BASE_ARRIVAL_RATE, PAPER_SCHEDULERS, run_comparison, run_single
from repro.cluster import (
    AdmissionController,
    Pool,
    available_autoscale_policies,
    available_routers,
    build_heterogeneous_world,
    build_router,
    make_autoscaler,
    simulate_cluster,
)
from repro.core.lut import ModelInfoLUT
from repro.core.predictor import rmse_by_strategy
from repro.errors import ReproError
from repro.faults import available_fault_presets, build_faults
from repro.hw.report import normalized_usage, overhead_table
from repro.profiling.profiler import benchmark_suite
from repro.profiling.store import TraceStore
from repro.scenarios import available_scenarios
from repro.schedulers.base import available_schedulers, make_scheduler
from repro.sim.analysis import (
    jains_fairness,
    per_class_breakdown,
    turnaround_percentile,
    waiting_time_stats,
)
from repro.sim.engine import simulate
from repro.sim.workload import WorkloadSpec, generate_workload, iter_workload


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("attnn", "cnn"), default="attnn",
                        help="benchmark model family")
    parser.add_argument("--rate", type=float, default=None,
                        help="arrival rate in requests/s (default: paper's)")
    parser.add_argument("--requests", type=int, default=500,
                        help="number of requests per run")
    parser.add_argument("--slo", type=float, default=10.0,
                        help="latency SLO multiplier")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="workload seeds to average over")
    parser.add_argument("--samples", type=int, default=300,
                        help="profiling samples per (model, pattern)")
    parser.add_argument("--traces", default=None,
                        help="trace-store directory to load instead of profiling")
    parser.add_argument("--block-size", type=int, default=1,
                        help="scheduling granularity in layers")
    parser.add_argument("--switch-cost", type=float, default=0.0,
                        help="weight-reload cost per model switch, seconds")


def _cmd_profile(args: argparse.Namespace) -> int:
    traces = benchmark_suite(args.family, n_samples=args.samples, seed=args.seed)
    store = TraceStore(Path(args.out))
    for key, trace in sorted(traces.items()):
        path = store.save(trace)
        print(f"wrote {path} ({trace.num_samples} samples x {trace.num_layers} layers,"
              f" avg latency {1e3 * trace.avg_total_latency:.2f} ms)")
    print(f"indexed {len(store)} trace sets under {store.root}")
    return 0


def _load_traces(args: argparse.Namespace):
    """Traces from a store directory if given, else profiled on the fly."""
    if getattr(args, "traces", None):
        return TraceStore(Path(args.traces)).load_suite()
    return benchmark_suite(args.family, n_samples=args.samples, seed=0)


def _cmd_schedule(args: argparse.Namespace) -> int:
    result = run_single(
        args.scheduler,
        args.family,
        arrival_rate=args.rate,
        slo_multiplier=args.slo,
        n_requests=args.requests,
        seeds=tuple(args.seeds),
        n_profile_samples=args.samples,
        traces=_load_traces(args) if args.traces else None,
        engine_kwargs={"block_size": args.block_size,
                       "switch_cost": args.switch_cost},
    )
    print(f"scheduler       : {result.scheduler}")
    print(f"family          : {result.family} @ {result.arrival_rate:g} req/s, "
          f"SLO {result.slo_multiplier:g}x")
    print(f"ANTT            : {result.antt_mean:.3f} (std {result.antt_std:.3f})")
    print(f"violation rate  : {result.violation_rate_pct:.2f}% "
          f"(std {100 * result.violation_rate_std:.2f}%)")
    print(f"throughput (STP): {result.stp_mean:.3f} inf/s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = run_comparison(
        args.family,
        schedulers=tuple(args.schedulers),
        arrival_rate=args.rate,
        slo_multiplier=args.slo,
        n_requests=args.requests,
        seeds=tuple(args.seeds),
        n_profile_samples=args.samples,
        traces=_load_traces(args) if args.traces else None,
        engine_kwargs={"block_size": args.block_size,
                       "switch_cost": args.switch_cost},
    )
    rate = args.rate if args.rate is not None else BASE_ARRIVAL_RATE[args.family]
    print(render_table(
        f"{args.family} @ {rate:g} req/s, SLO {args.slo:g}x",
        ["ANTT", "Violation %", "STP"],
        {
            name: [res.antt_mean, res.violation_rate_pct, res.stp_mean]
            for name, res in results.items()
        },
        float_fmt="{:.2f}",
    ))
    return 0


def _build_accountant(lut: ModelInfoLUT):
    """Energy accountant over ``lut`` (lazy import: energy is optional)."""
    from repro.energy import EnergyAccountant

    return EnergyAccountant.from_model_lut(lut)


def _build_obs(args: argparse.Namespace):
    """Observability bundle for ``--trace``/``--timeline``, or ``None``."""
    if not (getattr(args, "trace", None) or getattr(args, "timeline", None)):
        return None
    from repro.obs import JsonlSink, Observability, RingSink

    sinks = [RingSink()]
    if args.trace:
        sinks.append(JsonlSink(args.trace))
    return Observability(sinks=sinks)


def _export_obs(obs, args: argparse.Namespace, metadata: dict) -> None:
    """Flush sinks and write the Chrome-trace timeline, reporting paths."""
    if obs is None:
        return
    from repro.obs import export_chrome_trace

    obs.close()
    obs.bus.check_conservation()
    if getattr(args, "trace", None):
        print(f"wrote {args.trace} ({obs.bus.total_events} trace events)")
    if getattr(args, "timeline", None):
        path, n = export_chrome_trace(obs.bus, args.timeline,
                                      metadata=metadata)
        print(f"wrote {path} ({n} timeline records; load in "
              f"chrome://tracing or ui.perfetto.dev)")


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="stream request-lifecycle trace events to this "
                             "JSONL file")
    parser.add_argument("--timeline", default=None, metavar="PATH",
                        help="write a Chrome-trace/Perfetto JSON timeline "
                             "with one lane per accelerator")


def _cmd_analyze(args: argparse.Namespace) -> int:
    """One detailed run: tail latency, fairness and per-class breakdown."""
    traces = _load_traces(args)
    lut = ModelInfoLUT(traces)
    accountant = _build_accountant(lut) if args.energy else None
    rate = args.rate if args.rate is not None else BASE_ARRIVAL_RATE[args.family]
    spec = WorkloadSpec(arrival_rate=rate, n_requests=args.requests,
                        slo_multiplier=args.slo, seed=args.seeds[0])
    requests = generate_workload(traces, spec)
    obs = _build_obs(args)
    result = simulate(requests, make_scheduler(args.scheduler, lut),
                      block_size=args.block_size, switch_cost=args.switch_cost,
                      energy=accountant, obs=obs)
    _export_obs(obs, args, {"command": "analyze", "scheduler": args.scheduler,
                            "family": args.family, "seed": args.seeds[0]})
    reqs = result.requests
    waits = waiting_time_stats(reqs)
    if args.json:
        print(json.dumps({
            "scheduler": args.scheduler,
            "family": args.family,
            "arrival_rate": rate,
            "slo_multiplier": args.slo,
            "seed": args.seeds[0],
            "n_requests": len(reqs),
            "metrics": dict(result.metrics),
            "jain_fairness": jains_fairness(reqs),
            "num_preemptions": result.num_preemptions,
            "queueing": {key: float(value) for key, value in waits.items()},
            "per_class": {
                key: {
                    "count": s.count,
                    "antt": s.antt,
                    "violation_rate": s.violation_rate,
                    "p99": s.p99_turnaround,
                }
                for key, s in per_class_breakdown(reqs).items()
            },
        }, indent=2, sort_keys=True))
        return 0
    print(f"scheduler {args.scheduler} on {args.family} @ {rate:g} req/s")
    print(f"  ANTT {result.antt:.3f}  violations {100 * result.violation_rate:.2f}%  "
          f"STP {result.stp:.3f}")
    print(f"  normalized turnaround p50 {turnaround_percentile(reqs, 50):.2f}  "
          f"p95 {turnaround_percentile(reqs, 95):.2f}  "
          f"p99 {turnaround_percentile(reqs, 99):.2f}")
    print(f"  Jain fairness {jains_fairness(reqs):.3f}  "
          f"preemptions {result.num_preemptions}")
    print(f"  queueing delay mean {1e3 * waits['mean_wait']:.2f} ms  "
          f"p95 {1e3 * waits['p95_wait']:.2f} ms  "
          f"max {1e3 * waits['max_wait']:.2f} ms")
    if accountant is not None:
        print(f"  energy {1e3 * result.energy_per_request:.2f} mJ/req  "
              f"EDP {1e3 * result.edp:.3f} mJ*s  "
              f"total {result.total_joules:.2f} J  "
              f"weight loads {sum(r.num_weight_loads for r in reqs)}")
    print()
    print(render_table(
        "per-(model, pattern) class",
        ["count", "ANTT", "viol %", "p99"],
        {
            key: [s.count, s.antt, 100 * s.violation_rate, s.p99_turnaround]
            for key, s in per_class_breakdown(reqs).items()
        },
        float_fmt="{:.2f}",
    ))
    return 0


#: Which model family a pool kind serves natively; requests of the other
#: family run at 1/mismatch-penalty speed (weights/dataflow mismatch).
_POOL_NATIVE_FAMILY = {"eyeriss": "cnn", "sanger": "attnn"}


def _parse_pools(spec: str) -> List[tuple]:
    """Parse ``name:count[:speed]`` pool specs, comma-separated."""
    pools = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) not in (2, 3) or not fields[0]:
            raise ReproError(
                f"bad pool spec {part!r}: expected name:count[:speed]"
            )
        try:
            count = int(fields[1])
            speed = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise ReproError(f"bad pool spec {part!r}: count/speed not numeric") from None
        pools.append((fields[0], count, speed))
    return pools


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Heterogeneous-pool cluster replay with routing and admission control."""
    traces, lut, affinity_by_native = build_heterogeneous_world(
        args.families, n_samples=args.samples,
        mismatch_penalty=args.mismatch_penalty,
    )
    accountant = _build_accountant(lut) if args.energy else None

    pools = []
    for name, count, speed in _parse_pools(args.pools):
        native = next(
            (fam for kind, fam in _POOL_NATIVE_FAMILY.items()
             if name.startswith(kind)),
            None,
        )
        pools.append(Pool(
            name, make_scheduler(args.scheduler, lut), count, speed=speed,
            affinity=affinity_by_native[native] if native is not None else {},
            switch_cost=args.switch_cost,
            block_size=args.block_size,
        ))

    router = build_router(args.router, lut)
    admission = None
    if args.max_queue_depth is not None or args.slo_guard:
        admission = AdmissionController(max_queue_depth=args.max_queue_depth,
                                        slo_guard=args.slo_guard, lut=lut)
    autoscaler = None
    if args.autoscale:
        autoscaler = make_autoscaler(
            args.autoscale, lut=lut,
            min_accelerators=args.min_accelerators,
            max_accelerators=args.max_accelerators,
            interval=args.autoscale_interval,
            provision_latency=args.provision_latency,
        )

    if args.scenario:
        from repro.scenarios import build_scenario, iter_scenario

        spec = build_scenario(args.scenario, base_rate=args.rate,
                              duration=args.duration, slo_multiplier=args.slo)
        stream = iter_scenario(traces, spec, seed=args.seed)
        if not args.streaming:
            stream = list(stream)
        traffic_desc = f"scenario:{args.scenario}"
    else:
        wspec = WorkloadSpec(
            arrival_rate=args.rate, n_requests=args.requests,
            slo_multiplier=args.slo, seed=args.seed, traffic=args.traffic,
        )
        stream = (iter_workload(traces, wspec) if args.streaming
                  else generate_workload(traces, wspec))
        traffic_desc = args.traffic
    faults = None
    if args.faults:
        faults = build_faults(args.faults, duration=args.duration,
                              seed=args.seed)
    obs = _build_obs(args)
    result = simulate_cluster(stream, pools, router, admission=admission,
                              autoscaler=autoscaler,
                              retain_requests=not args.streaming,
                              energy=accountant, obs=obs, faults=faults)
    _export_obs(obs, args, {"command": "cluster", "router": router.name,
                            "scheduler": args.scheduler, "seed": args.seed})

    if args.json:
        print(json.dumps({
            "pools": {p.name: p.num_accelerators for p in pools},
            "router": router.name,
            "scheduler": args.scheduler,
            "traffic": traffic_desc,
            "arrival_rate": args.rate,
            "slo_multiplier": args.slo,
            "seed": args.seed,
            "autoscale": args.autoscale,
            "faults": args.faults,
            "num_offered": result.num_offered,
            "num_completed": result.num_completed,
            "num_shed": result.num_shed,
            "shed_reasons": result.shed_reasons,
            "makespan": result.makespan,
            "metrics": dict(result.metrics),
            "scale_events": [
                {"time": e.time, "pool": e.pool, "delta": e.delta,
                 "capacity_after": e.capacity_after, "ready_at": e.ready_at}
                for e in result.scale_events
            ],
            "pool_stats": {
                name: {
                    "num_accelerators": s.num_accelerators,
                    "peak_accelerators": s.peak_accelerators,
                    "completed": s.completed,
                    "shed": s.shed,
                    "shed_during_scale_lag": s.shed_during_scale_lag,
                    "max_queue_length": s.max_queue_length,
                    "utilization": s.utilization,
                    "acc_seconds_provisioned": s.acc_seconds_provisioned,
                    "scale_ups": s.scale_ups,
                    "scale_downs": s.scale_downs,
                    "joules_busy": s.joules_busy,
                    "joules_idle": s.joules_idle,
                    "continued_blocks": s.continued_blocks,
                    "in_place_blocks": s.in_place_blocks,
                }
                for name, s in result.pool_stats.items()
            },
        }, indent=2, sort_keys=True))
        return 0

    pool_desc = ", ".join(f"{p.name} x{p.num_accelerators}" for p in pools)
    print(f"cluster         : {pool_desc}")
    print(f"router          : {router.name}   scheduler: {args.scheduler}   "
          f"traffic: {traffic_desc}")
    print(f"workload        : {result.num_offered} requests @ {args.rate:g} req/s, "
          f"SLO {args.slo:g}x"
          + ("  [streaming metrics]" if args.streaming else ""))
    print(f"ANTT            : {result.antt:.3f}")
    print(f"violation rate  : {100 * result.violation_rate:.2f}%")
    print(f"throughput (STP): {result.stp:.3f} inf/s")
    print(f"shed rate       : {100 * result.shed_rate:.2f}%"
          + (f"  {result.shed_reasons}" if result.shed_reasons else ""))
    print(f"p99 turnaround  : {result.p99:.2f}x isolated "
          f"(p50 {result.p50:.2f}  p95 {result.p95:.2f})")
    if args.faults:
        print(f"faults          : preset {args.faults}, "
              f"{result.metrics['num_faults']:g} injected, "
              f"{result.metrics['requests_requeued_by_fault']:g} requeued, "
              f"{result.metrics['requests_shed_by_blackout']:g} blackout sheds, "
              f"{result.metrics['acc_seconds_lost']:.1f} acc-s lost")
    if args.autoscale:
        print(f"autoscaling     : policy {args.autoscale}, "
              f"{len(result.scale_events)} scale events, "
              f"{result.shed_under_scale_lag} shed under scale lag")
        print(f"cost            : {result.acc_seconds_provisioned:.1f} acc-s "
              f"provisioned, {result.acc_seconds_used:.1f} used "
              f"({100 * result.provisioned_utilization:.1f}% of provisioned)")
    if accountant is not None:
        print(f"energy          : {1e3 * result.energy_per_request:.2f} mJ/req, "
              f"EDP {1e3 * result.edp:.3f} mJ*s")
        print(f"energy cost     : {result.joules_provisioned:.2f} J provisioned "
              f"({result.joules_used:.2f} J serving, "
              f"{result.metrics['joules_idle']:.2f} J idle draw)")
    print()
    # "in place": blocks a pool decided itself at a settled boundary,
    # without the engine's dispatch pass; "continued": the subset a lone
    # request ran on without a ready-queue round trip.
    columns = ["accels", "peak", "completed", "shed", "peak queue", "util %",
               "in place", "continued"]
    if accountant is not None:
        columns += ["busy J", "idle J"]
    print(render_table(
        "per-pool breakdown",
        columns,
        {
            name: [s.num_accelerators, s.peak_accelerators, s.completed,
                   s.shed, s.max_queue_length, 100 * s.utilization,
                   s.in_place_blocks, s.continued_blocks]
                  + ([s.joules_busy, s.joules_idle]
                     if accountant is not None else [])
            for name, s in result.pool_stats.items()
        },
        float_fmt="{:.1f}",
    ))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """Parallel scenario sweep: scenario x scheduler x seed grid."""
    from repro.scenarios import (
        SweepConfig,
        aggregate,
        cell_key,
        run_sweep,
        scenario_descriptions,
    )

    if args.list:
        for name, desc in scenario_descriptions().items():
            print(f"{name:14s} {desc}")
        return 0

    config = SweepConfig(
        scenarios=tuple(args.scenarios),
        schedulers=tuple(args.schedulers),
        seeds=tuple(args.seeds),
        family=args.family,
        base_rate=args.rate,
        duration=args.duration,
        slo_multiplier=args.slo,
        n_profile_samples=args.samples,
        block_size=args.block_size,
        switch_cost=args.switch_cost,
        engine=args.engine,
        pool_size=args.pool_size,
        autoscale=args.autoscale,
        max_queue_depth=args.max_queue_depth,
        energy=args.energy,
        telemetry_interval=args.telemetry_interval,
        alerts=args.alerts,
        faults=args.faults,
    )

    from repro.warehouse import SweepTelemetry

    telemetry = SweepTelemetry()

    def progress(key: str, done: int, total: int) -> None:
        print(f"  {telemetry.progress_line(key, done, total)}")

    result = run_sweep(config, out_path=args.out, workers=args.workers,
                       force=args.force, progress=progress,
                       telemetry=telemetry)
    grid = (f"{len(config.scenarios)} scenarios x "
            f"{len(config.schedulers)} schedulers x {len(config.seeds)} seeds")
    print(f"sweep           : {grid} = {len(config.cells())} cells "
          f"({result.n_run} run, {result.n_skipped} skipped)")
    if result.n_run:
        summary = telemetry.summary()
        print(f"fleet           : {summary['throughput_cells_per_s']:.2f} "
              f"cells/s over {len(summary['workers']) or 1} worker(s), "
              f"cell wall p95 {summary['cell_wall_s_p95']:.2f} s, "
              f"peak worker RSS {summary['cell_peak_rss_mb_max']:.0f} MiB")
    print(f"workload        : {config.family} @ base {config.rate:g} req/s, "
          f"{config.duration:g} s per scenario, SLO {config.slo_multiplier:g}x")
    # Aggregate only this invocation's grid: a shared store may hold cells
    # from wider past sweeps that were not asked about here.
    requested = {cell_key(*cell) for cell in config.cells()}
    this_grid = {
        "cells": {key: cell for key, cell in result.cells.items()
                  if key in requested}
    }
    columns = ["ANTT", "viol %", "p99", "STP"]
    if args.energy:
        columns += ["mJ/req", "EDP mJ*s"]
    print()
    print(render_table(
        "mean metrics per (scenario, scheduler) across seeds",
        columns,
        {
            f"{scenario}/{scheduler}": [
                row["antt"], 100 * row["violation_rate"], row["p99"], row["stp"],
            ] + ([1e3 * row["energy_per_request"], 1e3 * row["edp"]]
                 if args.energy else [])
            for (scenario, scheduler), row in aggregate(this_grid).items()
        },
        float_fmt="{:.2f}",
    ))
    if result.out_path is not None:
        print(f"\nwrote {result.out_path} "
              f"({len(result.cells)} cells; re-runs skip completed cells)")
    return 0


def _cmd_warehouse(args: argparse.Namespace) -> int:
    """Sweep-warehouse maintenance: inspect, import, compact, verify, query."""
    from repro.warehouse import (
        Warehouse,
        aggregate,
        distinct,
        group_key,
        import_legacy_json,
    )

    if args.action == "import":
        wh = import_legacy_json(args.store, args.out,
                                segment_rows=args.segment_rows,
                                force=args.force)
        with wh:
            print(f"imported {args.store} -> {args.out} "
                  f"({len(wh)} cells, {wh.num_segments} segments)")
        return 0

    with Warehouse.open(args.store) as wh:
        for note in wh.recovered:
            print(f"recovered: {note}")

        if args.action == "info":
            print(f"store           : {wh.root}")
            print(f"cells           : {len(wh)} "
                  f"({wh.num_segments} sealed segments x "
                  f"{wh.segment_rows} rows, {wh.tail_rows} in the "
                  f"journal tail)")
            print(f"cost rows       : {len(wh.read_costs())}")
            print(f"workload        : {json.dumps(wh.workload, sort_keys=True)}")
            return 0

        if args.action == "verify":
            rows = wh.verify()
            bad = [row for row in rows if not row["ok"]]
            for row in rows:
                status = "ok" if row["ok"] else "CORRUPT"
                print(f"  {row['name']}  {row['rows']} rows  {status}")
            print(f"{len(rows) - len(bad)}/{len(rows)} segments ok, "
                  f"{len(wh)} cells total")
            # Opening the store already healed any corruption by dropping
            # the bad suffix; surface that as a failure too, so CI notices
            # a store that lost rows even though what remains checks out.
            return 1 if bad or wh.recovered else 0

        if args.action == "compact":
            stats = wh.compact(segment_rows=args.segment_rows)
            print(f"compacted {wh.root}: {stats['segments_before']} -> "
                  f"{stats['segments_after']} segments ({stats['rows']} "
                  f"rows, {stats['tail_rows']} in the tail)")
            return 0

        # action == "query"
        where = {}
        for clause in args.where or []:
            name, sep, value = clause.partition("=")
            if not sep or not name:
                raise ReproError(
                    f"bad --where clause {clause!r}: expected column=value")
            try:
                where[name] = json.loads(value)
            except ValueError:
                where[name] = value
        if args.distinct:
            for value in distinct(wh, args.distinct, where=where or None):
                print(value)
            return 0
        table = aggregate(wh, group_by=tuple(args.group_by),
                          metrics=tuple(args.metrics), where=where or None)
        if args.json:
            print(json.dumps(
                {group_key(group): stats for group, stats in table.items()},
                indent=2, sort_keys=True))
            return 0
        columns = [f"{metric} {stat}" for metric in args.metrics
                   for stat in ("mean", "std", "n")]
        print(render_table(
            f"aggregate over {wh.root}",
            columns,
            {
                group_key(group): [
                    stats[metric][stat]
                    for metric in args.metrics
                    for stat in ("mean", "std", "n")
                ]
                for group, stats in table.items()
            },
            float_fmt="{:.4f}",
        ))
        return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    """Gate sweep quality metrics against a committed baseline."""
    from repro.warehouse import (
        Warehouse,
        build_baseline,
        compare,
        format_rows,
        load_baseline,
        regressions,
        write_baseline,
    )

    with Warehouse.open(args.store) as wh:
        cells = wh.read_cells()
        current = build_baseline(wh.workload, cells.values())

    if args.write_baseline:
        path = write_baseline(args.write_baseline, current)
        n_groups = len(current["groups"])
        print(f"wrote {path} ({n_groups} cell groups, {len(cells)} cells)")
        return 0

    baseline = load_baseline(args.baseline)
    rows = compare(current, baseline, rel_tol=args.rel_tol,
                   noise_mult=args.noise_mult,
                   check_workload=not args.allow_workload_mismatch)
    failed = regressions(rows)
    if args.json:
        print(json.dumps({"rows": rows, "regressions": len(failed)},
                         indent=2, sort_keys=True))
    else:
        print(f"regression check: {args.store} vs {args.baseline} "
              f"({len(rows)} gated group-metrics)")
        for line in format_rows(rows):
            print(f"  {line}")
    if failed:
        print(f"SWEEP REGRESSION: {len(failed)} group-metric(s) worse than "
              f"baseline beyond the noise gate", file=sys.stderr)
        return 1
    print("regression check passed: no gated metric regressed")
    return 0


def _no_traffic(rep: Dict) -> bool:
    """A reproducer whose scenario generated no requests: its score is null."""
    metrics = rep.get("metrics")
    return (rep.get("score") is None and isinstance(metrics, dict)
            and metrics.get("n_requests") == 0)


def _score_text(score: Optional[float], digits: int) -> str:
    """A fuzz score for printing; ``None`` means the scenario had no traffic."""
    return "none (no traffic)" if score is None else f"{score:.{digits}f}"


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Adversarial scenario search (or replay of a saved reproducer)."""
    from repro.scenarios.fuzz import FuzzConfig, fuzz, fuzz_to_json, replay

    if args.replay:
        try:
            doc = json.loads(Path(args.replay).read_text())
        except OSError as exc:
            raise ReproError(f"cannot read reproducer {args.replay}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ReproError(f"{args.replay} is not valid JSON: {exc}") from None
        # Accept a bare reproducer or a full fuzz-result document (the
        # minimized reproducer wins when present).
        if not isinstance(doc, dict):
            raise ReproError(f"{args.replay}: expected a JSON object")
        rep = doc if "genome" in doc else (doc.get("minimized") or doc.get("worst"))
        if not (isinstance(rep, dict) and (
                isinstance(rep.get("score"), (int, float)) or _no_traffic(rep))):
            raise ReproError(
                f"{args.replay}: no reproducer found (expected a 'genome' "
                "or a 'minimized'/'worst' entry, with a numeric 'score', or "
                "a null one when its metrics have 'n_requests' 0)")
        outcome = replay(rep)
        match = outcome["score"] == rep["score"]
        print(f"replayed {args.replay}: score {_score_text(outcome['score'], 6)} "
              f"(recorded {_score_text(rep['score'], 6)}) -> "
              f"{'MATCH' if match else 'MISMATCH'}")
        if args.json:
            print(json.dumps(outcome, indent=2, sort_keys=True))
        return 0 if match else 1

    config = FuzzConfig(
        scheduler=args.scheduler,
        budget=args.budget,
        seed=args.seed,
        objective=args.objective,
        family=args.family,
        base_rate=args.rate,
        duration=args.duration,
        slo_multiplier=args.slo,
        n_profile_samples=args.samples,
        pool_size=args.pool_size,
        block_size=args.block_size,
        switch_cost=args.switch_cost,
        max_queue_depth=args.max_queue_depth,
        max_fault_events=args.max_fault_events,
        minimize=not args.no_minimize,
    )
    doc = fuzz(config, workers=args.workers)
    search = doc["search"]
    worst = doc["worst"]
    print(f"fuzz            : {config.scheduler} on {config.family}, "
          f"objective {config.objective}, budget {config.budget} "
          f"({search['evaluations']} evals, {search['generations']} "
          f"generations)")
    print(f"worst case      : score {_score_text(worst['score'], 4)} "
          f"(generation {search['best_generation']}, "
          f"index {search['best_index']}; "
          f"{len(worst['genome']['faults'])} fault events)")
    if "minimized" in doc:
        minimized = doc["minimized"]
        print(f"minimized       : score {_score_text(minimized['score'], 4)} "
              f"({len(minimized['genome']['faults'])} fault events, "
              f"{search['minimize_evaluations']} extra evals)")
    baselines = ", ".join(f"{name} {_score_text(entry['score'], 4)}"
                          for name, entry in sorted(doc["baselines"].items()))
    print(f"baselines       : {baselines}")
    if args.out:
        Path(args.out).write_text(fuzz_to_json(doc))
        print(f"wrote {args.out} (replay with: repro fuzz --replay {args.out})")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    """Energy subsystem report: joule models per pair, schedulers on EDP."""
    from repro.energy import EnergyAccountant, EnergyLUT

    traces = {}
    for family in args.families:
        traces.update(benchmark_suite(family, n_samples=args.samples, seed=0))
    lut = ModelInfoLUT(traces)
    energy_lut = EnergyLUT.from_model_lut(lut)
    accountant = EnergyAccountant(energy_lut)

    model_rows = {}
    for key in energy_lut.keys:
        entry = energy_lut.entry(key)
        latency = lut.entry_or_none(key)
        dynamic = float(entry.table.dynamic(latency.avg_layer_sparsities).sum())
        model_rows[key] = {
            "mj_per_inf": 1e3 * entry.avg_total_energy,
            "avg_w": entry.avg_power_w,
            "dynamic_pct": 100.0 * dynamic / entry.avg_total_energy,
            "reload_mj": 1e3 * entry.table.switch_joules,
        }

    rate = args.rate
    if rate is None:
        rate = sum(BASE_ARRIVAL_RATE[family] for family in args.families)
    spec = WorkloadSpec(arrival_rate=rate, n_requests=args.requests,
                        slo_multiplier=args.slo, seed=args.seed)
    sched_rows = {}
    for name in args.schedulers:
        requests = generate_workload(traces, spec)
        result = simulate(requests, make_scheduler(name, lut),
                          switch_cost=args.switch_cost, energy=accountant)
        sched_rows[name] = {
            "edp_mjs": 1e3 * result.edp,
            "mj_per_req": 1e3 * result.energy_per_request,
            "violation_pct": 100.0 * result.violation_rate,
            "antt": result.antt,
            "weight_loads": sum(r.num_weight_loads for r in result.requests),
        }

    if args.json:
        print(json.dumps({
            "families": list(args.families),
            "arrival_rate": rate,
            "slo_multiplier": args.slo,
            "seed": args.seed,
            "n_requests": args.requests,
            "idle_power_w": accountant.idle_power_w,
            "models": model_rows,
            "schedulers": sched_rows,
        }, indent=2, sort_keys=True))
        return 0

    print(render_table(
        "per-(model, pattern) energy (offline averages)",
        ["mJ/inf", "avg W", "dynamic %", "reload mJ"],
        {key: [row["mj_per_inf"], row["avg_w"], row["dynamic_pct"],
               row["reload_mj"]]
         for key, row in model_rows.items()},
        float_fmt="{:.2f}",
    ))
    print()
    print(render_table(
        f"schedulers on energy-delay product "
        f"({'+'.join(args.families)} @ {rate:g} req/s, SLO {args.slo:g}x)",
        ["EDP mJ*s", "mJ/req", "viol %", "ANTT", "weight loads"],
        {name: [row["edp_mjs"], row["mj_per_req"], row["violation_pct"],
                row["antt"], row["weight_loads"]]
         for name, row in sched_rows.items()},
        float_fmt="{:.2f}",
    ))
    return 0


def _ledger_from_args(args: argparse.Namespace):
    """A folded RequestLedger: from a recorded trace, or from a fresh run.

    Returns ``(ledger, telemetry, description)``; telemetry is ``None``
    when folding a recorded file (alerts need a live telemetry grid).
    """
    from repro.obs import Observability, RequestLedger

    if args.from_trace:
        ledger = RequestLedger.from_jsonl(args.from_trace)
        return ledger, None, f"trace {args.from_trace}"
    traces = _load_traces(args)
    lut = ModelInfoLUT(traces)
    rate = args.rate if args.rate is not None else BASE_ARRIVAL_RATE[args.family]
    spec = WorkloadSpec(arrival_rate=rate, n_requests=args.requests,
                        slo_multiplier=args.slo, seed=args.seeds[0])
    requests = generate_workload(traces, spec)
    # The ledger rides the bus as a sink: events fold as they are emitted,
    # nothing is retained beyond the per-request records.
    ledger = RequestLedger()
    obs = Observability(sinks=[ledger],
                        telemetry=getattr(args, "telemetry_interval", None))
    scheduler = make_scheduler(args.scheduler, lut)
    if args.accelerators > 1:
        from repro.sim.multi import simulate_multi

        simulate_multi(requests, scheduler,
                       num_accelerators=args.accelerators,
                       block_size=args.block_size,
                       switch_cost=args.switch_cost, obs=obs)
    else:
        simulate(requests, scheduler, block_size=args.block_size,
                 switch_cost=args.switch_cost, obs=obs)
    obs.bus.check_conservation()
    desc = (f"{args.scheduler} on {args.family} @ {rate:g} req/s, "
            f"{args.accelerators} accelerator(s), seed {args.seeds[0]}")
    return ledger, obs.telemetry, desc


def _cmd_explain(args: argparse.Namespace) -> int:
    """Decompose one request's end-to-end latency into component blame."""
    ledger, _, desc = _ledger_from_args(args)
    record = ledger.record(args.rid).to_dict()
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    e2e = record["e2e_s"]
    print(f"rid {record['rid']} [{record['pool']}] "
          f"-> {record['outcome'] or 'open'}   ({desc})")
    print(f"  end-to-end : {e2e:.6f} s "
          f"(arrival {record['arrival']:.6f} -> {record['end']:.6f})")
    for component in ("queue", "service", "preempt", "switch"):
        value = record[component + "_s"]
        share = value / e2e if e2e else 0.0
        marker = "   <- dominant" if component == record["dominant"] else ""
        print(f"  {component:<11}: {value:.6f} s ({100 * share:5.1f}%){marker}")
    print(f"  spans      : {record['n_exec_spans']} execute, "
          f"{record['n_queue_spans']} queue; "
          f"residual {record['residual_s']:.2e} s")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Aggregate SLO-attribution report: blame, worst misses, alerts."""
    from repro.obs import build_report, evaluate_alerts, render_markdown

    ledger, telemetry, desc = _ledger_from_args(args)
    ledger.check_conservation()
    alerts = evaluate_alerts(telemetry) if telemetry is not None else []
    report = build_report(ledger, alerts, top_misses=args.top,
                          title=f"Run report: {desc}")
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = render_markdown(report).rstrip("\n")
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one run end to end and export a Perfetto-loadable timeline."""
    from repro.obs import (
        JsonlSink,
        Observability,
        RingSink,
        Telemetry,
        export_chrome_trace,
    )

    if args.summary:
        # Streaming summary of a recorded trace: per-kind counts plus the
        # span-conservation verdict, without loading the file into memory.
        from repro.obs import conservation_verdict, summarize_jsonl

        counts = summarize_jsonl(args.summary)
        print(f"{args.summary}: {sum(counts.values())} events")
        for kind in sorted(counts):
            print(f"  {kind:<15} {counts[kind]}")
        ok, arrivals, terminals = conservation_verdict(counts)
        verdict = "OK" if ok else "VIOLATED"
        print(f"conservation    : {arrivals} arrivals vs {terminals} "
              f"terminals -> {verdict}")
        return 0 if ok else 1

    traces = _load_traces(args)
    lut = ModelInfoLUT(traces)
    rate = args.rate if args.rate is not None else BASE_ARRIVAL_RATE[args.family]
    spec = WorkloadSpec(arrival_rate=rate, n_requests=args.requests,
                        slo_multiplier=args.slo, seed=args.seeds[0])
    requests = generate_workload(traces, spec)
    sinks = [RingSink()]
    if args.events:
        sinks.append(JsonlSink(args.events))
    obs = Observability(
        sinks=sinks,
        telemetry=(Telemetry(interval=args.telemetry_interval)
                   if args.telemetry_csv else None),
    )
    scheduler = make_scheduler(args.scheduler, lut)
    if args.accelerators > 1:
        from repro.sim.multi import simulate_multi

        result = simulate_multi(requests, scheduler,
                                num_accelerators=args.accelerators,
                                block_size=args.block_size,
                                switch_cost=args.switch_cost, obs=obs)
    else:
        result = simulate(requests, scheduler, block_size=args.block_size,
                          switch_cost=args.switch_cost, obs=obs)
    obs.close()
    obs.bus.check_conservation()

    counts = obs.bus.counts
    lifecycle = " -> ".join(
        f"{kind}:{counts[kind]}" for kind in
        ("arrive", "queue", "select", "execute", "complete", "violate")
        if kind in counts
    )
    print(f"scheduler {args.scheduler} on {args.family} @ {rate:g} req/s, "
          f"{args.accelerators} accelerator(s)")
    print(f"spans           : {lifecycle}")
    print(f"conservation    : {obs.bus.num_arrivals} arrivals == "
          f"{obs.bus.num_terminals} terminals")
    print(f"makespan        : {result.makespan:.3f} s   "
          f"ANTT {result.antt:.3f}   "
          f"violations {100 * result.violation_rate:.2f}%")
    path, n = export_chrome_trace(
        obs.bus, args.out,
        metadata={"scheduler": args.scheduler, "family": args.family,
                  "arrival_rate": rate, "seed": args.seeds[0]},
    )
    print(f"wrote {path} ({n} timeline records; load in chrome://tracing "
          f"or ui.perfetto.dev)")
    if args.events:
        print(f"wrote {args.events} ({obs.bus.total_events} trace events)")
    if args.telemetry_csv:
        obs.telemetry.write_csv(args.telemetry_csv)
        print(f"wrote {args.telemetry_csv} "
              f"({obs.telemetry.num_samples} samples x "
              f"{len(obs.telemetry.columns())} columns)")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """Run the simulator perf benches and write the BENCH_perf.json baseline."""
    from repro.bench.perf import compare_reports, load_baseline, run_perf_suite

    baseline = load_baseline(args.out) if args.compare else None
    if args.compare and baseline is None:
        print(f"error: --compare needs a committed baseline at {args.out}",
              file=sys.stderr)
        return 1

    report = run_perf_suite(
        cluster_requests=args.cluster_requests,
        rounds=args.rounds,
        include_cluster=not args.skip_cluster,
        profile=args.profile,
        # --compare is a gate, not a measurement run: don't grow the
        # committed trajectory with CI smoke numbers.
        out_path=None if args.compare else args.out,
        progress=print,
    )
    dysta = report["engine_200req_rate30"]["dysta"]
    print()
    print(f"dysta engine speedup (vectorized vs scalar): {dysta['speedup']:.2f}x")
    if not args.skip_cluster:
        for router, row in report["cluster_stream"].items():
            print(f"cluster replay [{router}]: {row['requests']} requests "
                  f"in {row['wall_s']:.1f} s")
    if args.profile:
        for tier, summary in report["profile"].items():
            print(f"profile [{tier}]: {1e3 * summary['wall_s']:.1f} ms wall")
            for phase, row in summary["phases"].items():
                print(f"  {phase:<14} {1e3 * row['seconds']:9.2f} ms  "
                      f"{100 * row['fraction']:5.1f}%  "
                      f"({row['calls']:,} calls)")
    if args.compare:
        lines, regressions = compare_reports(report, baseline)
        print()
        print(f"deltas vs committed baseline ({args.out}):")
        for line in lines:
            print(f"  {line}")
        if regressions:
            print(f"PERF REGRESSION: {len(regressions)} benchmark(s) "
                  f">20% worse than baseline", file=sys.stderr)
            return 1
        print("perf check passed: no benchmark regressed >20%")
    elif args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_predictor_rmse(args: argparse.Namespace) -> int:
    traces = benchmark_suite("attnn", n_samples=args.samples, seed=0)
    lut = ModelInfoLUT(traces)
    table = rmse_by_strategy(lut, traces)
    print(render_table(
        "sparse latency predictor RMSE (normalized)",
        ["Average-All", "Last-N", "Last-One"],
        {
            key: [row["average_all"], row["last_n"], row["last_one"]]
            for key, row in table.items()
        },
        float_fmt="{:.5f}",
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import list_experiments, run_experiment

    if args.list:
        for name, desc in list_experiments().items():
            print(f"{name:8s} {desc}")
        return 0
    if not args.name:
        print("error: provide an experiment id or --list", file=sys.stderr)
        return 1
    bundle = run_experiment(args.name, scale=args.scale)
    print(f"== {bundle.experiment}: {bundle.description} "
          f"({bundle.scale.n_requests} requests x {len(bundle.scale.seeds)} seeds)")
    print()
    print(bundle.rendered)
    return 0


def _cmd_hw_report(args: argparse.Namespace) -> int:
    for depth in args.depths:
        usage = normalized_usage(depth)
        print(render_table(
            f"normalized resource usage (FIFO depth {depth})",
            ["LUT", "FF", "DSP"],
            {n: [r["LUT"], r["FF"], r["DSP"]] for n, r in usage.items()},
        ))
        print()
    rows = {}
    for name, (luts, dsps, ram_kb) in overhead_table().items():
        if name == "Total Overhead":
            rows[name] = [f"{100 * luts:.2f}%", f"{100 * dsps:.2f}%",
                          f"{100 * ram_kb:.2f}%"]
        else:
            rows[name] = [f"{luts:.0f}", f"{dsps:.0f}", f"{ram_kb:.2f} KB"]
    print(render_table("Dysta scheduler overhead", ["LUTs", "DSPs", "RAM"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro` argument parser (one sub-command per workflow)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sparse-DySta reproduction: profiling, scheduling and "
                    "hardware-cost experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser("profile", help="run Phase-1 profiling, save CSVs")
    p_profile.add_argument("--family", choices=("attnn", "cnn"), default="attnn")
    p_profile.add_argument("--samples", type=int, default=300)
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--out", default="traces",
                           help="output directory for trace CSVs")
    p_profile.set_defaults(func=_cmd_profile)

    p_sched = sub.add_parser("schedule", help="run one scheduler on a workload")
    _add_workload_args(p_sched)
    p_sched.add_argument("--scheduler", default="dysta",
                         choices=available_schedulers())
    p_sched.set_defaults(func=_cmd_schedule)

    p_cmp = sub.add_parser("compare", help="compare schedulers on one workload")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--schedulers", nargs="+", default=list(PAPER_SCHEDULERS))
    p_cmp.set_defaults(func=_cmd_compare)

    p_analyze = sub.add_parser("analyze",
                               help="tail latency, fairness and class breakdown")
    _add_workload_args(p_analyze)
    p_analyze.add_argument("--scheduler", default="dysta",
                           choices=available_schedulers())
    p_analyze.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON instead of tables")
    p_analyze.add_argument("--energy", action="store_true",
                           help="account joules (energy/request, EDP) "
                                "alongside the latency metrics")
    _add_trace_args(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_cluster = sub.add_parser(
        "cluster",
        help="replay a workload on heterogeneous accelerator pools",
    )
    p_cluster.add_argument("--pools", default="eyeriss:2,sanger:2",
                           help="comma-separated name:count[:speed] pool specs; "
                                "eyeriss*/sanger* pools natively serve cnn/attnn")
    p_cluster.add_argument("--router", default="jsq",
                           choices=available_routers() + ["rr", "least-loaded"])
    p_cluster.add_argument("--scheduler", default="dysta",
                           choices=available_schedulers(),
                           help="per-pool scheduling policy")
    p_cluster.add_argument("--families", nargs="+", choices=("attnn", "cnn"),
                           default=["attnn", "cnn"],
                           help="model families mixed into the workload")
    p_cluster.add_argument("--rate", type=float, default=10.0,
                           help="cluster-wide arrival rate in requests/s")
    p_cluster.add_argument("--requests", type=int, default=400)
    p_cluster.add_argument("--slo", type=float, default=10.0,
                           help="latency SLO multiplier")
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--samples", type=int, default=300,
                           help="profiling samples per (model, pattern)")
    p_cluster.add_argument("--traffic", choices=("poisson", "bursty"),
                           default="poisson")
    p_cluster.add_argument("--scenario", choices=available_scenarios(),
                           default=None,
                           help="drive the cluster with a named traffic "
                                "scenario instead of --traffic/--requests")
    p_cluster.add_argument("--duration", type=float, default=30.0,
                           help="scenario timeline length in seconds "
                                "(with --scenario)")
    p_cluster.add_argument("--autoscale", choices=available_autoscale_policies(),
                           default=None,
                           help="grow/shrink pools against load with this "
                                "autoscaling policy")
    p_cluster.add_argument("--autoscale-interval", type=float, default=1.0,
                           help="seconds between autoscaling decisions")
    p_cluster.add_argument("--provision-latency", type=float, default=2.0,
                           help="warm-up delay before scaled-up capacity "
                                "becomes schedulable")
    p_cluster.add_argument("--min-accelerators", type=int, default=1,
                           help="per-pool lower bound for the autoscaler")
    p_cluster.add_argument("--max-accelerators", type=int, default=8,
                           help="per-pool upper bound for the autoscaler")
    p_cluster.add_argument("--mismatch-penalty", type=float, default=4.0,
                           help="slowdown of a pool serving the non-native family")
    p_cluster.add_argument("--max-queue-depth", type=int, default=None,
                           help="shed when a pool holds this many outstanding "
                                "requests per accelerator")
    p_cluster.add_argument("--faults", choices=available_fault_presets(),
                           default=None,
                           help="inject a named fault preset (outages, "
                                "stragglers, blackouts, spot revocations) "
                                "over --duration seconds, seeded by --seed")
    p_cluster.add_argument("--slo-guard", action="store_true",
                           help="shed requests whose SLO is already infeasible")
    p_cluster.add_argument("--streaming", action="store_true",
                           help="stream the workload under incremental metrics "
                                "without retaining request objects")
    p_cluster.add_argument("--block-size", type=int, default=1)
    p_cluster.add_argument("--switch-cost", type=float, default=0.0)
    p_cluster.add_argument("--energy", action="store_true",
                           help="account joules per pool and request "
                                "(idle power charged for provisioned-but-"
                                "unused capacity)")
    p_cluster.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON instead of tables")
    _add_trace_args(p_cluster)
    p_cluster.set_defaults(func=_cmd_cluster)

    p_scen = sub.add_parser(
        "scenario",
        help="run a scenario x scheduler x seed sweep in parallel",
    )
    p_scen.add_argument("--scenarios", nargs="+",
                        choices=available_scenarios(),
                        default=["diurnal", "flash_crowd"],
                        help="named traffic scenarios to sweep")
    p_scen.add_argument("--schedulers", nargs="+",
                        choices=available_schedulers(),
                        default=["dysta", "sjf"])
    p_scen.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="workload seeds per cell")
    p_scen.add_argument("--family", choices=("attnn", "cnn"), default="attnn")
    p_scen.add_argument("--rate", type=float, default=None,
                        help="base arrival rate in req/s (default: family's)")
    p_scen.add_argument("--duration", type=float, default=30.0,
                        help="scenario timeline length in seconds")
    p_scen.add_argument("--slo", type=float, default=10.0,
                        help="latency SLO multiplier")
    p_scen.add_argument("--samples", type=int, default=100,
                        help="profiling samples per (model, pattern)")
    p_scen.add_argument("--workers", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)),
                        help="worker processes (results identical for any count)")
    p_scen.add_argument("--out", default="scenario_results",
                        help="results warehouse directory (columnar "
                             "segments, O(1) appends, crash recovery); "
                             "completed cells are skipped on re-runs")
    p_scen.add_argument("--force", action="store_true",
                        help="discard an existing results store")
    p_scen.add_argument("--list", action="store_true",
                        help="list available scenarios")
    p_scen.add_argument("--block-size", type=int, default=1)
    p_scen.add_argument("--switch-cost", type=float, default=0.0)
    p_scen.add_argument("--engine", choices=("single", "cluster"),
                        default="single",
                        help="replay cells on the single-NPU or cluster engine")
    p_scen.add_argument("--pool-size", type=int, default=2,
                        help="accelerators per cluster-engine cell pool")
    p_scen.add_argument("--autoscale", choices=available_autoscale_policies(),
                        default=None,
                        help="autoscaling policy for cluster-engine cells")
    p_scen.add_argument("--max-queue-depth", type=int, default=None,
                        help="admission queue-depth limit for cluster cells")
    p_scen.add_argument("--energy", action="store_true",
                        help="record energy columns (mJ/request, EDP) in "
                             "every cell of the results store")
    p_scen.add_argument("--telemetry-interval", type=float, default=None,
                        help="record a per-cell telemetry time-series "
                             "sampled at this simulated-second cadence")
    p_scen.add_argument("--alerts", action="store_true",
                        help="evaluate the default alert rules on each "
                             "cell's telemetry grid and record the fired "
                             "alerts (requires --telemetry-interval)")
    p_scen.add_argument("--faults", choices=available_fault_presets(),
                        default=None,
                        help="inject a named fault preset into every cell "
                             "(requires --engine cluster; the timeline is "
                             "seeded by the cell's workload seed)")
    p_scen.set_defaults(func=_cmd_scenario)

    p_wh = sub.add_parser(
        "warehouse",
        help="inspect, import, compact, verify or query a sweep warehouse",
    )
    wh_sub = p_wh.add_subparsers(dest="action", required=True)

    w_info = wh_sub.add_parser("info", help="cells, segments, workload")
    w_info.add_argument("store", help="warehouse directory")

    w_import = wh_sub.add_parser(
        "import",
        help="import a JSON sweep store (the pre-warehouse format) into "
             "a warehouse",
    )
    w_import.add_argument("store", help="JSON sweep store file")
    w_import.add_argument("--out", required=True,
                          help="warehouse directory to create or resume")
    w_import.add_argument("--segment-rows", type=int, default=256,
                          help="rows per columnar segment (new stores only)")
    w_import.add_argument("--force", action="store_true",
                          help="discard an existing warehouse at --out")

    w_compact = wh_sub.add_parser(
        "compact",
        help="merge undersized segments into the standard chunking",
    )
    w_compact.add_argument("store", help="warehouse directory")
    w_compact.add_argument("--segment-rows", type=int, default=None,
                           help="also re-chunk to this many rows per segment")

    w_verify = wh_sub.add_parser(
        "verify",
        help="checksum every sealed segment; exit nonzero on corruption",
    )
    w_verify.add_argument("store", help="warehouse directory")

    w_query = wh_sub.add_parser(
        "query",
        help="streaming filter/aggregate over the store's columns",
    )
    w_query.add_argument("store", help="warehouse directory")
    w_query.add_argument("--group-by", nargs="+",
                         default=["scenario", "scheduler"],
                         help="grouping columns")
    w_query.add_argument("--metrics", nargs="+",
                         default=["stp", "violation_rate"],
                         help="numeric columns to aggregate")
    w_query.add_argument("--where", nargs="+", default=None,
                         metavar="COLUMN=VALUE",
                         help="equality filters (values parsed as JSON when "
                              "possible: seed=0 is the int, scenario=diurnal "
                              "the string)")
    w_query.add_argument("--distinct", default=None, metavar="COLUMN",
                         help="print the sorted distinct values of one "
                              "column instead of aggregating")
    w_query.add_argument("--json", action="store_true",
                         help="emit the aggregate as JSON instead of a table")
    p_wh.set_defaults(func=_cmd_warehouse)

    p_regress = sub.add_parser(
        "regress",
        help="compare a sweep store against a committed baseline on req/s, "
             "EDP, violation and shed rates; exit nonzero on regression",
    )
    p_regress.add_argument("store", help="warehouse directory")
    p_regress.add_argument("--baseline",
                           default="benchmarks/sweep_baseline.json",
                           help="committed baseline file to gate against")
    p_regress.add_argument("--write-baseline", default=None, metavar="PATH",
                           help="write the store's group statistics as a new "
                                "baseline instead of comparing")
    p_regress.add_argument("--rel-tol", type=float, default=0.05,
                           help="relative tolerance of the baseline mean")
    p_regress.add_argument("--noise-mult", type=float, default=3.0,
                           help="standard errors of seed noise a delta must "
                                "exceed before it counts")
    p_regress.add_argument("--allow-workload-mismatch", action="store_true",
                           help="compare even when the store and baseline "
                                "record different workload parameters")
    p_regress.add_argument("--json", action="store_true",
                           help="emit the delta rows as JSON")
    p_regress.set_defaults(func=_cmd_regress)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="adversarial scenario search: find the traffic shape and fault "
             "timeline that maximize SLO violations (or EDP)",
    )
    p_fuzz.add_argument("--scheduler", default="dysta",
                        choices=available_schedulers())
    p_fuzz.add_argument("--budget", type=int, default=50,
                        help="search evaluations (each one full simulation)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="search seed; same seed + budget => "
                             "byte-identical results for any --workers")
    p_fuzz.add_argument("--objective", choices=("violation_rate", "edp"),
                        default="violation_rate",
                        help="metric the search maximizes")
    p_fuzz.add_argument("--family", choices=("attnn", "cnn"), default="attnn")
    p_fuzz.add_argument("--rate", type=float, default=None,
                        help="base arrival rate in req/s (default: family's)")
    p_fuzz.add_argument("--duration", type=float, default=10.0,
                        help="candidate scenario length in seconds")
    p_fuzz.add_argument("--slo", type=float, default=10.0,
                        help="baseline latency SLO multiplier")
    p_fuzz.add_argument("--samples", type=int, default=60,
                        help="profiling samples per (model, pattern)")
    p_fuzz.add_argument("--pool-size", type=int, default=2,
                        help="accelerators in the evaluated cluster pool")
    p_fuzz.add_argument("--max-queue-depth", type=int, default=None,
                        help="admission queue-depth limit during evaluations")
    p_fuzz.add_argument("--max-fault-events", type=int, default=4,
                        help="fault-timeline length cap per candidate")
    p_fuzz.add_argument("--block-size", type=int, default=1)
    p_fuzz.add_argument("--switch-cost", type=float, default=0.0)
    p_fuzz.add_argument("--workers", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)),
                        help="worker processes (results identical for any count)")
    p_fuzz.add_argument("--out", default="fuzz_result.json",
                        help="result JSON path (empty string to skip writing)")
    p_fuzz.add_argument("--no-minimize", action="store_true",
                        help="skip the greedy reproducer minimization pass")
    p_fuzz.add_argument("--replay", default=None, metavar="PATH",
                        help="re-evaluate a saved reproducer (or fuzz result) "
                             "instead of searching; exits nonzero unless the "
                             "replayed score matches the recorded one")
    p_fuzz.add_argument("--json", action="store_true",
                        help="with --replay: also print the replayed metrics "
                             "as JSON")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_energy = sub.add_parser(
        "energy",
        help="energy models per (model, pattern) and schedulers on EDP",
    )
    p_energy.add_argument("--families", nargs="+", choices=("attnn", "cnn"),
                          default=["attnn"],
                          help="model families profiled into the workload")
    p_energy.add_argument("--schedulers", nargs="+",
                          choices=available_schedulers(),
                          default=["energy_edp", "sjf", "fcfs"],
                          help="policies compared on energy-delay product")
    p_energy.add_argument("--rate", type=float, default=None,
                          help="arrival rate in req/s (default: sum of the "
                               "families' paper rates)")
    p_energy.add_argument("--requests", type=int, default=400)
    p_energy.add_argument("--slo", type=float, default=10.0,
                          help="latency SLO multiplier")
    p_energy.add_argument("--seed", type=int, default=0)
    p_energy.add_argument("--samples", type=int, default=300,
                          help="profiling samples per (model, pattern)")
    p_energy.add_argument("--switch-cost", type=float, default=0.0,
                          help="weight-reload cost per model switch, seconds")
    p_energy.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of tables")
    p_energy.set_defaults(func=_cmd_energy)

    p_trace = sub.add_parser(
        "trace",
        help="trace one run and export a Chrome-trace/Perfetto timeline",
    )
    _add_workload_args(p_trace)
    p_trace.add_argument("--scheduler", default="dysta",
                         choices=available_schedulers())
    p_trace.add_argument("--accelerators", type=int, default=1,
                         help="run on the multi-NPU engine with this many "
                              "accelerators (one timeline lane each)")
    p_trace.add_argument("--out", default="timeline.json",
                         help="Chrome-trace JSON output path")
    p_trace.add_argument("--events", default=None, metavar="PATH",
                         help="also stream raw trace events to this JSONL file")
    p_trace.add_argument("--telemetry-csv", default=None, metavar="PATH",
                         help="also write a telemetry time-series CSV")
    p_trace.add_argument("--telemetry-interval", type=float, default=0.1,
                         help="telemetry sampling cadence in simulated seconds")
    p_trace.add_argument("--summary", default=None, metavar="PATH",
                         help="summarize a recorded trace JSONL instead of "
                              "running: per-kind event counts plus the "
                              "span-conservation verdict (streaming; the "
                              "file is never fully loaded)")
    p_trace.set_defaults(func=_cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="decompose one request's latency into queue/service/"
             "preempt/switch blame",
    )
    _add_workload_args(p_explain)
    p_explain.add_argument("rid", type=int,
                           help="request id to explain")
    p_explain.add_argument("--scheduler", default="dysta",
                           choices=available_schedulers())
    p_explain.add_argument("--accelerators", type=int, default=1,
                           help="run on the multi-NPU engine with this many "
                                "accelerators")
    p_explain.add_argument("--from-trace", default=None, metavar="PATH",
                           help="fold a recorded trace JSONL instead of "
                                "running a simulation")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the record as JSON")
    p_explain.set_defaults(func=_cmd_explain)

    p_report = sub.add_parser(
        "report",
        help="aggregate SLO-attribution report: per-pool blame, worst "
             "misses, fired alerts",
    )
    _add_workload_args(p_report)
    p_report.add_argument("--scheduler", default="dysta",
                          choices=available_schedulers())
    p_report.add_argument("--accelerators", type=int, default=1,
                          help="run on the multi-NPU engine with this many "
                               "accelerators")
    p_report.add_argument("--from-trace", default=None, metavar="PATH",
                          help="fold a recorded trace JSONL instead of "
                               "running a simulation (no telemetry, so "
                               "no alert evaluation)")
    p_report.add_argument("--telemetry-interval", type=float, default=0.1,
                          help="telemetry cadence the alert rules are "
                               "evaluated on, simulated seconds")
    p_report.add_argument("--top", type=int, default=10,
                          help="worst SLO misses to rank in the report")
    p_report.add_argument("--json", action="store_true",
                          help="emit the report as JSON instead of markdown")
    p_report.add_argument("--out", default=None, metavar="PATH",
                          help="write the report here instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_perf = sub.add_parser(
        "perf",
        help="time the simulator hot paths and emit BENCH_perf.json",
    )
    p_perf.add_argument("--out", default="BENCH_perf.json",
                        help="output JSON path (empty string to skip writing)")
    p_perf.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per engine measurement (min taken)")
    p_perf.add_argument("--cluster-requests", type=int, default=100_000,
                        help="streaming cluster replay length")
    p_perf.add_argument("--skip-cluster", action="store_true",
                        help="skip the streaming cluster replay")
    p_perf.add_argument("--profile", action="store_true",
                        help="also run self-profiled passes and record the "
                             "per-phase wall-clock breakdown")
    p_perf.add_argument("--compare", action="store_true",
                        help="compare against the committed baseline at "
                             "--out instead of writing; exit nonzero when a "
                             "benchmark regressed >20%%")
    p_perf.set_defaults(func=_cmd_perf)

    p_rmse = sub.add_parser("predictor-rmse",
                            help="sparse latency predictor RMSE table")
    p_rmse.add_argument("--samples", type=int, default=300)
    p_rmse.set_defaults(func=_cmd_predictor_rmse)

    p_hw = sub.add_parser("hw-report", help="hardware scheduler cost reports")
    p_hw.add_argument("--depths", type=int, nargs="+", default=[512, 64])
    p_hw.set_defaults(func=_cmd_hw_report)

    p_exp = sub.add_parser("experiment",
                           help="run one paper experiment by id (table5, fig14...)")
    p_exp.add_argument("name", nargs="?", default=None)
    p_exp.add_argument("--scale", choices=("quick", "default", "full"),
                       default="default")
    p_exp.add_argument("--list", action="store_true",
                       help="list available experiment ids")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
