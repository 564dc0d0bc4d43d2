"""The four benchmark workloads, driven only through ``repro``'s public API.

Every call goes through a module attribute (``repro.simulate(...)``, not a
name imported at load time), so the traced run's wrappers see it.

A workload has three phases.  ``setup`` builds what a user builds before
the first simulated arrival (profiled traces, LUTs).  ``warm_up`` runs one
reduced, untimed pass.  ``run_pass`` runs the whole workload once and
returns a :class:`Pass`: the operations attempted, the engine runs
("cells") it made, and ``outputs``, the simulated results, which are a
pure function of the seed.  ``summary`` reduces outputs to the reported
simulated metrics and the values pinned for the default seed, and
``check`` lists everything wrong with a pass's outputs.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import repro
import repro.cluster
import repro.obs
import repro.warehouse


@dataclass
class Pass:
    ops: int
    cells: int
    offered: int
    outputs: Dict
    #: Problems found while the pass ran (conservation, read-back checks).
    problems: List[str] = field(default_factory=list)
    #: Host-side figures that are not simulated results (bytes on disk).
    host: Dict[str, float] = field(default_factory=dict)


def _cluster_outputs(result) -> Dict:
    """The simulated outputs of one streaming cluster run."""
    violations = round(result.violation_rate * result.num_completed)
    return {
        "offered": result.num_offered,
        "completed": result.num_completed,
        "shed": result.num_shed,
        "violations": violations,
        "antt": result.antt,
        "p99": result.p99,
        "makespan": result.makespan,
        "invocations": result.num_scheduler_invocations,
        "preemptions": result.num_preemptions,
        "max_queue_length": result.max_queue_length,
    }


class ClusterStream:
    """Streaming replays through 2x eyeriss + 2x sanger, dysta, predictive routing.

    A pass is ``streams`` independent replays (stream seeds ``streams*seed``
    onwards): near saturation one stream's ANTT varies a lot from seed to
    seed and hardly settles as the stream grows, while pooling independent
    streams divides that variance by their number.
    """

    name = "cluster_stream"
    op_unit = "requests"
    streams = 5
    n_requests = 3000
    warm_requests = 1000
    rate = 12.0
    switch_cost = 0.0

    def __init__(self, seed: int, workdir: str):
        self.stream_seeds = [self.streams * seed + k for k in range(self.streams)]

    def setup(self) -> None:
        self.traces, self.lut, self.affinity = repro.cluster.build_heterogeneous_world(
            n_samples=200)

    def replay(self, stream_seed: int, n_requests: int, obs=None) -> Dict:
        pools = [
            repro.Pool("eyeriss", repro.make_scheduler("dysta", self.lut), 2,
                       affinity=self.affinity["cnn"], switch_cost=self.switch_cost),
            repro.Pool("sanger", repro.make_scheduler("dysta", self.lut), 2,
                       affinity=self.affinity["attnn"], switch_cost=self.switch_cost),
        ]
        spec = repro.WorkloadSpec(self.rate, n_requests=n_requests,
                                  slo_multiplier=10.0, seed=stream_seed)
        return _cluster_outputs(repro.simulate_cluster(
            repro.iter_workload(self.traces, spec), pools,
            repro.cluster.build_router("predictive", self.lut),
            retain_requests=False, obs=obs,
        ))

    def warm_up(self) -> None:
        self.replay(self.stream_seeds[0], self.warm_requests)

    def run_pass(self) -> Pass:
        outs = [self.replay(seed, self.n_requests) for seed in self.stream_seeds]
        offered = sum(out["offered"] for out in outs)
        return Pass(ops=offered, cells=len(outs), offered=offered, outputs={"streams": outs})

    def summary(self, outputs: Dict) -> Dict:
        outs = outputs["streams"]
        completed = sum(out["completed"] for out in outs)
        return {
            "antt": sum(out["antt"] * out["completed"] for out in outs) / completed,
            "slo_miss_rate": (sum(out["violations"] + out["shed"] for out in outs)
                              / sum(out["offered"] for out in outs)),
            "p99_ntt": sum(out["p99"] for out in outs) / len(outs),
            "invocations": sum(out["invocations"] for out in outs),
            "max_queue_length": max(out["max_queue_length"] for out in outs),
        }

    def check(self, outputs: Dict) -> List[str]:
        problems = []
        for seed, out in zip(self.stream_seeds, outputs["streams"]):
            if out["offered"] != self.n_requests:
                problems.append(f"stream {seed}: offered {out['offered']} of "
                                f"{self.n_requests} requests")
            if not out["antt"] >= 1.0:
                problems.append(f"stream {seed}: antt {out['antt']} below 1")
        return problems


class ObservedReplay(ClusterStream):
    """The cluster_stream cluster with a switch cost, tracing and telemetry on."""

    name = "observed_replay"
    switch_cost = 0.002

    def warm_up(self) -> None:
        # The warm-up is the obs-off replay of the first stream: every
        # observed pass must reproduce its schedule exactly.
        self.reference = self.replay(self.stream_seeds[0], self.n_requests)

    def run_pass(self) -> Pass:
        outs, problems = [], []
        for seed in self.stream_seeds:
            ledger = repro.obs.RequestLedger(keep_records=False)
            obs = repro.obs.Observability(
                sinks=[repro.obs.RingSink(1 << 16), ledger], telemetry=1.0)
            out = self.replay(seed, self.n_requests, obs=obs)
            try:
                obs.bus.check_conservation()
                ledger.check_conservation()
            except repro.ReproError as exc:
                problems.append(f"stream {seed}: conservation: {exc}")
            if ledger.summary()["n_closed"] != out["offered"]:
                problems.append(f"stream {seed}: the ledger closed "
                                f"{ledger.summary()['n_closed']} of {out['offered']} requests")
            outs.append(out)
        if outs[0] != self.reference:
            problems.append(f"stream {self.stream_seeds[0]}: schedule differs from "
                            "the obs-off replay")
        offered = sum(out["offered"] for out in outs)
        return Pass(ops=offered, cells=len(outs), offered=offered, outputs={"streams": outs},
                    problems=problems)


class PaperSingle:
    """The paper's scheduler comparison on the single-NPU engine."""

    name = "paper_single"
    op_unit = "requests"
    policies = ("fcfs", "sjf", "prema", "planaria", "sdrm3", "dysta")
    rates = {"attnn": 20.0, "cnn": 2.5}
    n_requests = 6000
    warm_requests = 200
    slo_multiplier = 4.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.traces = {family: repro.benchmark_suite(family, n_samples=200, seed=0)
                       for family in self.rates}
        self.luts = {family: repro.ModelInfoLUT(traces)
                     for family, traces in self.traces.items()}

    def _grid(self, n_requests: int) -> Dict:
        runs = {}
        dysta_ntt: List[float] = []
        for policy in self.policies:
            for index, (family, rate) in enumerate(self.rates.items()):
                spec = repro.WorkloadSpec(rate, n_requests=n_requests,
                                          slo_multiplier=self.slo_multiplier,
                                          seed=2 * self.seed + index)
                requests = repro.generate_workload(self.traces[family], spec)
                result = repro.simulate(requests, repro.make_scheduler(policy, self.luts[family]))
                runs[f"{policy}/{family}"] = {
                    "completed": len(result.requests),
                    "violations": sum(1 for r in result.requests if r.violated),
                    "antt": result.antt,
                    "p99": result.p99,
                    "makespan": result.makespan,
                    "invocations": result.num_scheduler_invocations,
                    "preemptions": result.num_preemptions,
                    "max_queue_length": result.max_queue_length,
                }
                if policy == "dysta":
                    dysta_ntt.extend(r.normalized_turnaround for r in result.requests)
        return {
            "runs": runs,
            "dysta_antt": math.fsum(dysta_ntt) / len(dysta_ntt),
            "dysta_p99": float(np.percentile(dysta_ntt, 99)),
        }

    def warm_up(self) -> None:
        self._grid(self.warm_requests)

    def run_pass(self) -> Pass:
        out = self._grid(self.n_requests)
        offered = sum(run["completed"] for run in out["runs"].values())
        return Pass(ops=offered, cells=len(out["runs"]), offered=offered, outputs=out)

    def summary(self, outputs: Dict) -> Dict:
        runs = outputs["runs"].values()
        dysta = [run for key, run in outputs["runs"].items() if key.startswith("dysta/")]
        return {
            "antt": outputs["dysta_antt"],
            "slo_miss_rate": (sum(run["violations"] for run in dysta)
                              / sum(run["completed"] for run in dysta)),
            "p99_ntt": outputs["dysta_p99"],
            "invocations": sum(run["invocations"] for run in runs),
            "max_queue_length": max(run["max_queue_length"] for run in runs),
        }

    def check(self, outputs: Dict) -> List[str]:
        problems = []
        for key, run in outputs["runs"].items():
            if run["completed"] != self.n_requests:
                problems.append(f"{key}: completed {run['completed']} of {self.n_requests}")
            if not run["antt"] >= 1.0:
                problems.append(f"{key}: antt {run['antt']} below 1")
        return problems


class Sweep:
    """``run_sweep`` into a fresh warehouse, then the regress read side."""

    name = "sweep"
    op_unit = "cells"
    scenarios = ("diurnal", "flash_crowd", "multi_tenant")
    schedulers = ("dysta", "sjf", "energy_edp")
    seeds_per_run = 5
    duration = 12.0
    warm_duration = 4.0
    profile_samples = 100

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.passes = 0

    def config(self, seeds, duration: float):
        return repro.SweepConfig(
            scenarios=self.scenarios, schedulers=self.schedulers, seeds=tuple(seeds),
            duration=duration, n_profile_samples=self.profile_samples,
            engine="cluster", pool_size=2, autoscale="reactive", max_queue_depth=64,
            energy=True, telemetry_interval=1.0, alerts=True, faults="chaos",
        )

    def setup(self) -> None:
        # The suite run_sweep's cells profile; its per-process cache then hits.
        repro.benchmark_suite("attnn", n_samples=self.profile_samples, seed=0)
        os.makedirs(self.workdir, exist_ok=True)

    def _sweep(self, config) -> Pass:
        self.passes += 1
        root = os.path.join(self.workdir, f"sweep{self.passes}")
        result = repro.run_sweep(config, out_path=root, workers=1)
        problems = []
        # Read side: reopen, seal the journal tail, query, gate, verify.
        with repro.warehouse.Warehouse.open(root) as wh:
            wh.seal_tail()
            stored = wh.read_cells()
            by_scheduler = repro.warehouse.aggregate(
                wh, group_by=("scheduler",), metrics=("antt", "p99"))
            current = repro.warehouse.build_baseline(wh.workload, stored.values())
            baseline = repro.warehouse.build_baseline(wh.workload, result.cells.values())
            regressed = [row for row in repro.warehouse.compare(current, baseline)
                         if row["regressed"]]
            bad_segments = [row for row in wh.verify() if not row["ok"]]
            fingerprint = wh.fingerprint()
        if stored != result.cells:
            problems.append("cells read back differ from the cells run_sweep returned")
        if regressed:
            problems.append(f"{len(regressed)} regress.compare regressions "
                            "against a baseline of the same cells")
        if bad_segments:
            problems.append(f"verify() failed segments {bad_segments}")
        cells = result.cells
        dysta = by_scheduler[("dysta",)]
        outputs = {
            "cells": cells,
            "dysta_antt": dysta["antt"]["mean"],
            "dysta_p99": dysta["p99"]["mean"],
            "fingerprint": zlib.crc32(repr(sorted(fingerprint.items())).encode()),
        }
        offered = sum(cell["n_requests"] for cell in cells.values())
        size = sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(root) for f in files)
        return Pass(ops=len(cells), cells=len(cells), offered=offered, outputs=outputs,
                    problems=problems, host={"warehouse_bytes": size})

    def warm_up(self) -> None:
        self._sweep(self.config([self.seeds_per_run * self.seed], self.warm_duration))

    def run_pass(self) -> Pass:
        first = self.seeds_per_run * self.seed
        return self._sweep(self.config(range(first, first + self.seeds_per_run),
                                       self.duration))

    def summary(self, outputs: Dict) -> Dict:
        cells = outputs["cells"].values()
        dysta = [c for c in cells if c["scheduler"] == "dysta"]
        misses = sum(round(c["violation_rate"] * (c["n_requests"] - c["num_shed"]))
                     + c["num_shed"] for c in dysta)
        depth = max(max(v for k, col in c["timeseries"].items()
                        if k.endswith("_queue_depth") for v in col if v is not None)
                    for c in cells)
        return {
            "antt": outputs["dysta_antt"],
            "slo_miss_rate": misses / sum(c["n_requests"] for c in dysta),
            "p99_ntt": outputs["dysta_p99"],
            "requests": sum(c["n_requests"] for c in cells),
            "shed": sum(c["num_shed"] for c in cells),
            "preemptions": sum(c["num_preemptions"] for c in cells),
            "max_sampled_queue_depth": depth,
            "fingerprint": outputs["fingerprint"],
        }

    def check(self, outputs: Dict) -> List[str]:
        expected = len(self.scenarios) * len(self.schedulers) * self.seeds_per_run
        problems = []
        if len(outputs["cells"]) != expected:
            problems.append(f"{len(outputs['cells'])} cells stored, grid has {expected}")
        for key, cell in outputs["cells"].items():
            if not cell["antt"] >= 1.0:
                problems.append(f"{key}: antt {cell['antt']} below 1")
        return problems


WORKLOADS = {w.name: w for w in (ClusterStream, PaperSingle, Sweep, ObservedReplay)}


def config_of(workload) -> Dict:
    """The class-level sizing a workload ran with (recorded with its results)."""
    return {key: value for key, value in vars(type(workload)).items()
            if not key.startswith("_") and isinstance(value, (int, float, str, tuple, dict))}
