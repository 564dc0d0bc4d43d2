"""Phase-2 scheduling evaluation: request generation, the layer-granularity
preemptive engines, and the paper's metrics.

Workloads (`WorkloadSpec`, lazy `iter_workload`, scenario streams) replay
on a single time-shared NPU (:func:`simulate`) or a pool of identical NPUs
behind one shared queue (:func:`simulate_multi`, a one-pool run of the
cluster engine in :mod:`repro.cluster`).  Both engines share the vectorized
scheduling core — the array-backed :class:`ReadyQueue` plus each policy's
selection kernels, bit-identical to the list-queue spec
:func:`repro.sim.engine.simulate_reference` — and report ANTT, SLO violation rate, STP and the p50/p95/p99
normalized-turnaround tails via :func:`summarize`."""

from repro.sim.request import Request
from repro.sim.ready_queue import ReadyQueue
from repro.sim.workload import WorkloadSpec, generate_workload, iter_workload
from repro.sim.engine import SimResult, simulate
from repro.sim.multi import simulate_multi
from repro.sim.metrics import antt, slo_violation_rate, system_throughput, summarize
from repro.sim.analysis import (
    jains_fairness,
    per_class_breakdown,
    turnaround_percentile,
    waiting_time_stats,
)

__all__ = [
    "jains_fairness",
    "per_class_breakdown",
    "turnaround_percentile",
    "waiting_time_stats",
    "ReadyQueue",
    "Request",
    "WorkloadSpec",
    "generate_workload",
    "iter_workload",
    "SimResult",
    "simulate",
    "simulate_multi",
    "antt",
    "slo_violation_rate",
    "system_throughput",
    "summarize",
]
