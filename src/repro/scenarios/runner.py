"""Parallel scenario sweep runner with a resumable results store.

A sweep is the cartesian grid **scenario x scheduler x seed**.  Every cell
is an independent deterministic simulation: its workload seed derives only
from (scenario, seed) — never from the scheduler — so competing policies
see bit-identical request streams, and never from the process that happens
to run it — so the results store is identical whatever ``workers`` is.
:func:`run_cell` is the one place that turns a scenario, a scheduler and a
seed into an engine run; the fuzzer's candidates and baselines share it.

Results land in a :class:`~repro.warehouse.store.Warehouse` directory,
keyed ``scenario/scheduler/seed<N>``.  Re-running a sweep against an
existing store skips completed cells (crash-safe, incremental grids: add a
scheduler or seed and only the new cells run), and the store refuses to
mix grids generated under different workload configurations.  Appends are
O(1) per cell and every byte is deterministic, so interrupted sweeps
resume to the exact store an uninterrupted run would have produced, for
any worker count.  Alongside the deterministic results, sweeps record
per-cell *cost* rows (wall-clock seconds, peak worker RSS) in the store's
non-deterministic sidecar, and an optional
:class:`~repro.warehouse.telemetry.SweepTelemetry` publishes live
throughput / ETA / failure metrics while the grid runs.  Result files
from the retired JSON store convert with ``repro warehouse import``.

Cells run on the single-NPU engine by default; ``engine="cluster"`` runs
each cell through :func:`repro.cluster.engine.simulate_cluster` instead —
one elastic pool of ``pool_size`` accelerators, optionally autoscaled
(``autoscale="reactive" | "target-utilization" | "predictive"``) and
depth-limited (``max_queue_depth``) — and records the autoscaler's cost
metrics (accelerator-seconds provisioned vs used, scale events, sheds
under scale lag) in every cell.  ``energy=True`` additionally
records energy columns (joules/request, EDP, and the joule-denominated
capacity cost on cluster cells) via a per-cell
:class:`~repro.energy.accounting.EnergyAccountant`.  All cells keep the
same determinism contract: the numbers are bit-identical for any worker
count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import zlib
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from repro.errors import SchedulingError
from repro.sim.engine import simulate

from repro.scenarios.spec import (ScenarioSpec, available_scenarios,
                                  build_scenario, generate_scenario)

#: Per-cell metrics copied from the simulation summary into the store.
METRIC_KEYS = ("antt", "violation_rate", "stp", "p50", "p95", "p99")

#: Extra per-cell metrics recorded for cluster-engine cells (autoscaler
#: cost accounting; present with zero scale events for fixed pools too).
COST_KEYS = (
    "shed_rate",
    "acc_seconds_provisioned",
    "acc_seconds_used",
    "provisioned_utilization",
    "num_scale_events",
    "shed_under_scale_lag",
)

#: Per-cell energy metrics recorded when ``SweepConfig(energy=True)``.
ENERGY_KEYS = ("energy_per_request", "total_joules", "edp")

#: Per-cell fault metrics recorded when ``SweepConfig(faults=...)`` is set.
FAULT_KEYS = (
    "num_faults",
    "requests_requeued_by_fault",
    "requests_shed_by_blackout",
    "acc_seconds_lost",
)

#: Joule-denominated capacity cost, recorded for energy cluster cells.
ENERGY_COST_KEYS = ("joules_used", "joules_idle", "joules_provisioned")

#: Arrival rates matched to the families' service rates (paper Sec 6.2).
_DEFAULT_BASE_RATE = {"attnn": 20.0, "cnn": 2.5}


@dataclass(frozen=True)
class SweepConfig:
    """The full specification of one sweep grid.

    Everything that affects a cell's numbers lives here.  The warehouse
    records the workload parameters verbatim and refuses to resume under
    different ones; the grid axes (scenarios, schedulers, seeds) may grow
    across runs — only the missing cells execute.
    """

    scenarios: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    seeds: Tuple[int, ...]
    family: str = "attnn"
    base_rate: Optional[float] = None
    duration: float = 30.0
    slo_multiplier: float = 10.0
    n_profile_samples: int = 100
    block_size: int = 1
    switch_cost: float = 0.0
    #: ``"single"`` replays cells on the single-NPU engine; ``"cluster"``
    #: on the cluster engine (one pool of ``pool_size`` accelerators).
    engine: str = "single"
    pool_size: int = 2
    #: Autoscaling policy name for cluster cells (``None`` = fixed pool).
    autoscale: Optional[str] = None
    max_accelerators: int = 8
    provision_latency: float = 2.0
    autoscale_interval: float = 1.0
    #: Queue-depth admission limit for cluster cells (``None`` = admit all).
    max_queue_depth: Optional[int] = None
    #: Record energy columns (joules/request, EDP, and — on the cluster
    #: engine — joule-denominated capacity cost) in every cell.  Purely
    #: additive: schedules and latency metrics are unchanged, and the
    #: energy numbers are bit-identical for any worker count.
    energy: bool = False
    #: Telemetry sampling cadence in simulated seconds; when set, every
    #: cell records a ``timeseries`` table (queue depth, completions,
    #: violations, ... sampled on this grid).  Purely additive and — like
    #: every cell number — bit-identical for any worker count.
    telemetry_interval: Optional[float] = None
    #: Evaluate the default alert rule set (SLO burn rate, queue
    #: saturation — see :func:`repro.obs.alerts.default_rules`) on every
    #: cell's telemetry grid and record the firings in a per-cell
    #: ``alerts`` column.  Requires ``telemetry_interval``; alert streams
    #: are a pure function of the cell, so they are bit-identical for any
    #: worker count.
    alerts: bool = False
    #: Fault-preset name (see
    #: :func:`repro.faults.spec.available_fault_presets`) injected into
    #: every cell.  The timeline is a pure function of (preset, duration,
    #: workload seed), so faulted cells keep the determinism contract.
    #: Requires ``engine="cluster"``; cells gain the :data:`FAULT_KEYS`
    #: columns.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.scenarios or not self.schedulers or not self.seeds:
            raise SchedulingError(
                "sweep needs at least one scenario, scheduler and seed"
            )
        unknown = sorted(set(self.scenarios) - set(available_scenarios()))
        if unknown:
            raise SchedulingError(
                f"unknown scenarios {unknown}; available: {available_scenarios()}"
            )
        from repro.schedulers.base import available_schedulers

        bad = sorted(set(self.schedulers) - set(available_schedulers()))
        if bad:
            raise SchedulingError(
                f"unknown schedulers {bad}; available: {available_schedulers()}"
            )
        if self.family not in _DEFAULT_BASE_RATE:
            raise SchedulingError(
                f"family must be one of {sorted(_DEFAULT_BASE_RATE)}, "
                f"got {self.family!r}"
            )
        if self.engine not in ("single", "cluster"):
            raise SchedulingError(
                f"engine must be 'single' or 'cluster', got {self.engine!r}"
            )
        if self.autoscale is not None:
            from repro.cluster.policies import available_autoscale_policies

            if self.engine != "cluster":
                raise SchedulingError("autoscale requires engine='cluster'")
            if self.autoscale not in available_autoscale_policies():
                raise SchedulingError(
                    f"unknown autoscale policy {self.autoscale!r}; available: "
                    f"{available_autoscale_policies()}"
                )
        # Every run knob fails here, before a store records it.  Engine
        # knobs carry the engine's own message and are checked only where
        # they take effect (admission on the cluster engine, the autoscaler
        # when one is set).  Each test is written so that NaN fails it, and
        # an infinite duration or rate would generate requests forever.
        cluster, scaled = self.engine == "cluster", self.autoscale is not None
        depth, tick = self.max_queue_depth, self.telemetry_interval
        for bad, message in (
            (not 0 < self.duration < math.inf,
             f"duration must be positive and finite, got {self.duration}"),
            (self.base_rate is not None and not 0 < self.base_rate < math.inf,
             f"base rate must be positive and finite, got {self.base_rate}"),
            (not self.slo_multiplier > 0,
             f"slo multiplier must be positive, got {self.slo_multiplier}"),
            (self.n_profile_samples <= 0,
             f"profile samples must be positive, got {self.n_profile_samples}"),
            (self.pool_size < 1, f"pool size must be >= 1, got {self.pool_size}"),
            (self.block_size < 1, f"block size must be >= 1, got {self.block_size}"),
            (not 0 <= self.switch_cost < math.inf,
             f"switch cost must be >= 0 and finite, got {self.switch_cost}"),
            (cluster and depth is not None and depth < 1,
             f"max queue depth must be >= 1, got {depth}"),
            (scaled and not self.autoscale_interval > 0,
             f"tick interval must be positive, got {self.autoscale_interval}"),
            (scaled and self.max_accelerators < 1,
             f"max accelerators ({self.max_accelerators}) must be >= min (1)"),
            (scaled and not self.provision_latency >= 0,
             f"provision latency must be >= 0, got {self.provision_latency}"),
            (tick is not None and not tick > 0,
             f"telemetry interval must be positive, got {tick}"),
        ):
            if bad:
                raise SchedulingError(message)
        if self.alerts and self.telemetry_interval is None:
            raise SchedulingError(
                "alerts are evaluated on the telemetry grid; set "
                "telemetry_interval as well"
            )
        if self.faults is not None:
            from repro.faults.spec import available_fault_presets

            if self.engine != "cluster":
                raise SchedulingError("faults require engine='cluster'")
            if self.faults not in available_fault_presets():
                raise SchedulingError(
                    f"unknown fault preset {self.faults!r}; available: "
                    f"{available_fault_presets()}"
                )

    @property
    def rate(self) -> float:
        """The effective base arrival rate (family default when unset)."""
        return (self.base_rate if self.base_rate is not None
                else _DEFAULT_BASE_RATE[self.family])

    def cells(self) -> List[Tuple[str, str, int]]:
        """The grid in deterministic (scenario, scheduler, seed) order."""
        return [
            (scenario, scheduler, seed)
            for scenario in self.scenarios
            for scheduler in self.schedulers
            for seed in self.seeds
        ]


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` call."""

    store: Dict
    n_run: int
    n_skipped: int
    out_path: Optional[Path] = None

    @property
    def cells(self) -> Dict[str, Dict]:
        return self.store["cells"]


def cell_key(scenario: str, scheduler: str, seed: int) -> str:
    return f"{scenario}/{scheduler}/seed{seed}"


def workload_seed(scenario: str, seed: int) -> int:
    """Deterministic per-cell workload seed, independent of the scheduler.

    Decorrelates equal seed numbers across scenarios via a stable CRC of
    the scenario name (never ``hash()`` — that is salted per process and
    would break cross-run resume).
    """
    return (zlib.crc32(scenario.encode()) + seed) & 0x7FFFFFFF


@lru_cache(maxsize=4)
def _profiled_suite(family: str, n_samples: int):
    """Per-process trace-suite cache: workers profile each family once."""
    from repro.profiling.profiler import benchmark_suite

    return benchmark_suite(family, n_samples=n_samples, seed=0)


def run_cell(config: SweepConfig, scheduler: str, scenario: ScenarioSpec,
             workload_seed: int, faults=None) -> Optional[Dict]:
    """Run ``scheduler`` over ``scenario`` under ``config``'s run knobs.

    ``faults`` is an optional :class:`~repro.faults.spec.FaultSpec`
    (cluster engine only).  Returns the cell's metric columns, or ``None``
    when the scenario generated no requests.
    """
    from repro.core.lut import ModelInfoLUT
    from repro.schedulers.base import make_scheduler

    traces = _profiled_suite(config.family, config.n_profile_samples)
    requests = generate_scenario(traces, scenario, seed=workload_seed)
    if not requests:
        return None
    lut = ModelInfoLUT(traces)
    policy = make_scheduler(scheduler, lut)
    accountant = None
    if config.energy:
        from repro.energy import EnergyAccountant

        accountant = EnergyAccountant.from_model_lut(lut)
    obs = None
    if config.telemetry_interval is not None:
        from repro.obs import Observability

        obs = Observability(telemetry=config.telemetry_interval)
    cell = {"n_requests": len(requests)}
    if config.engine == "cluster":
        from repro.cluster import (
            AdmissionController,
            Pool,
            make_autoscaler,
            simulate_cluster,
        )

        pool = Pool(
            "pool", policy, config.pool_size,
            block_size=config.block_size, switch_cost=config.switch_cost,
        )
        autoscaler = None
        if config.autoscale is not None:
            autoscaler = make_autoscaler(
                config.autoscale, lut=lut,
                max_accelerators=config.max_accelerators,
                interval=config.autoscale_interval,
                provision_latency=config.provision_latency,
            )
        admission = None
        if config.max_queue_depth is not None:
            admission = AdmissionController(max_queue_depth=config.max_queue_depth)
        result = simulate_cluster(
            requests, [pool], "round-robin",
            admission=admission, autoscaler=autoscaler,
            energy=accountant, obs=obs, faults=faults,
        )
        cell["num_shed"] = result.num_shed
        cell.update({key: float(result.metrics[key]) for key in COST_KEYS})
        if faults is not None:
            cell.update(
                {key: float(result.metrics[key]) for key in FAULT_KEYS}
            )
        if accountant is not None:
            cell.update(
                {key: float(result.metrics[key]) for key in ENERGY_COST_KEYS}
            )
    else:
        result = simulate(
            requests, policy,
            block_size=config.block_size,
            switch_cost=config.switch_cost,
            energy=accountant,
            obs=obs,
        )
    cell["makespan"] = result.makespan
    cell["num_preemptions"] = result.num_preemptions
    cell.update({key: float(result.metrics[key]) for key in METRIC_KEYS})
    if accountant is not None:
        cell.update({key: float(result.metrics[key]) for key in ENERGY_KEYS})
    if obs is not None:
        table = obs.telemetry.to_table(nan_as_none=True)
        cell["timeseries"] = table
        if config.alerts:
            from repro.obs.alerts import evaluate_alerts

            cell["alerts"] = [a.to_dict() for a in evaluate_alerts(table)]
    return cell


def _run_cell(args: Tuple) -> Tuple[str, Dict]:
    """Run one (scenario, scheduler, seed) grid cell; top-level for pickling."""
    scenario, scheduler_name, seed, config = args
    key = cell_key(scenario, scheduler_name, seed)
    wseed = workload_seed(scenario, seed)
    faults = None
    if config.faults is not None:
        from repro.faults.spec import build_faults

        # Seeded with the cell's workload seed: a faulted grid varies the
        # timeline across seeds but never across workers.
        faults = build_faults(config.faults, duration=config.duration, seed=wseed)
    spec = build_scenario(scenario, base_rate=config.rate,
                          duration=config.duration,
                          slo_multiplier=config.slo_multiplier)
    metrics = run_cell(config, scheduler_name, spec, wseed, faults)
    if metrics is None:
        raise SchedulingError(
            f"cell {key} generated no requests; increase --rate or --duration"
        )
    return key, {"scenario": scenario, "scheduler": scheduler_name,
                 "seed": seed, "workload_seed": wseed, **metrics}


def _run_cell_costed(args: Tuple) -> Tuple[int, str, Optional[Dict], Dict, Optional[str]]:
    """Run one indexed cell, measuring its cost and capturing failures.

    Returns ``(index, key, cell, cost, error)``: ``index`` restores the
    deterministic grid order in the parent whatever order workers finish
    in; ``cost`` carries the wall-clock seconds, peak worker RSS (VmHWM,
    reset per cell) and worker pid for the warehouse cost sidecar; a
    failed cell comes back with ``cell=None`` and the error message
    instead of tearing down the whole pool mid-grid.
    """
    index, scenario, scheduler_name, seed, config = args
    from repro.obs.hostmem import peak_rss_mb, reset_peak_rss

    rss_ok = reset_peak_rss()
    t0 = time.perf_counter()
    key = cell_key(scenario, scheduler_name, seed)
    cell: Optional[Dict] = None
    error: Optional[str] = None
    try:
        key, cell = _run_cell((scenario, scheduler_name, seed, config))
    except Exception as exc:  # noqa: BLE001 - reported, then re-raised in parent
        error = f"{type(exc).__name__}: {exc}"
    cost = {
        "wall_s": time.perf_counter() - t0,
        "peak_rss_mb": peak_rss_mb() if rss_ok else 0.0,
        "worker": os.getpid(),
    }
    return index, key, cell, cost, error


def run_sweep(
    config: SweepConfig,
    *,
    out_path: Optional[Union[str, Path]] = None,
    workers: int = 1,
    force: bool = False,
    progress: Optional[Callable[[str, int, int], None]] = None,
    telemetry=None,
) -> SweepResult:
    """Run (or resume) the sweep grid, optionally in parallel.

    Args:
        out_path: :class:`~repro.warehouse.store.Warehouse` directory
            (O(1) appends, crash recovery, per-cell cost sidecar).  When
            the store already exists with the same configuration,
            completed cells are skipped and only the missing ones run, so
            an interrupted sweep resumes where it stopped.  ``None`` keeps
            the results in memory only.
        workers: Worker processes; <= 1 runs inline (no multiprocessing).
            Results are bit-identical for every worker count.
        force: Discard an existing store instead of resuming it.
        progress: Optional callback ``(cell_key, n_done, n_total)``, fired
            in deterministic grid order for any worker count.
        telemetry: Optional
            :class:`~repro.warehouse.telemetry.SweepTelemetry` publishing
            live throughput / ETA / failure metrics while the grid runs.
    """
    # The store is keyed by workload parameters only: the grid axes
    # (scenarios, schedulers, seeds) may grow across runs — new cells run,
    # completed ones are skipped — but the numbers behind every cell must
    # come from one consistent workload configuration.  base_rate is
    # recorded resolved (config.rate), so an explicit rate equal to the
    # family default matches a store created with the default, and a
    # default-table change can never silently mix rates.
    workload = {
        key: value for key, value in asdict(config).items()
        if key not in ("scenarios", "schedulers", "seeds")
    }
    workload["base_rate"] = config.rate
    out = Path(out_path) if out_path is not None else None

    wh = None
    completed: FrozenSet[str] = frozenset()
    if out is not None:
        from repro.warehouse.store import Warehouse

        wh = Warehouse.open_or_create(out, workload, force=force)
        completed = wh.completed_keys()
    store = {"workload": workload, "cells": {}}

    grid = config.cells()
    todo = [c for c in grid if cell_key(*c) not in completed]
    n_skipped = len(grid) - len(todo)
    done = n_skipped
    if telemetry is not None:
        telemetry.begin(len(grid), n_skipped)

    def record(key: str, cell: Dict, cost: Dict) -> None:
        nonlocal done
        store["cells"][key] = cell
        done += 1
        if wh is not None:
            wh.append(key, cell)
            wh.record_cost(key, **cost)
        if telemetry is not None:
            telemetry.on_cell(key, worker=cost.get("worker"),
                              wall_s=cost.get("wall_s"),
                              peak_rss_mb=cost.get("peak_rss_mb"))
        if progress is not None:
            progress(key, done, len(grid))

    args_list = [
        (index, scenario, scheduler, seed, config)
        for index, (scenario, scheduler, seed) in enumerate(todo)
    ]
    # Workers finish in any order; appends must not.  Results wait in a
    # reorder buffer and are recorded strictly in grid order, which is
    # what makes the warehouse bytes (and the progress/telemetry streams)
    # identical for every worker count.
    pending: Dict[int, Tuple] = {}
    next_index = 0
    failure: Optional[Tuple[str, str]] = None

    def fold(result: Tuple) -> bool:
        """Buffer one worker result; record the contiguous prefix."""
        nonlocal next_index, failure
        pending[result[0]] = result
        while next_index in pending:
            _, key, cell, cost, error = pending.pop(next_index)
            next_index += 1
            if error is not None:
                if telemetry is not None:
                    telemetry.on_cell(key, worker=cost.get("worker"),
                                      wall_s=cost.get("wall_s"), failed=True)
                failure = (key, error)
                return False
            record(key, cell, cost)
        return True

    try:
        if workers > 1 and len(args_list) > 1:
            # Warm the trace-suite cache in the parent: under the default
            # fork start method the workers inherit it copy-on-write instead
            # of each re-profiling the suite (a no-op cost shift on spawn
            # platforms).
            _profiled_suite(config.family, config.n_profile_samples)
            with multiprocessing.get_context().Pool(
                processes=min(workers, len(args_list))
            ) as pool:
                for result in pool.imap_unordered(_run_cell_costed, args_list):
                    if not fold(result):
                        break
        else:
            for args in args_list:
                if not fold(_run_cell_costed(args)):
                    break
        if failure is None and wh is not None:
            # The result exposes the requested grid — including resumed
            # cells the warehouse already held (it may hold a larger grid).
            store["cells"] = wh.read_cells(
                key for key in (cell_key(*c) for c in grid) if key in wh
            )
    finally:
        if wh is not None:
            wh.close()
    if failure is not None:
        key, error = failure
        raise SchedulingError(
            f"sweep cell {key} failed: {error} (completed cells up to the "
            f"failure are stored; re-run to resume)"
        )
    return SweepResult(store=store, n_run=len(todo), n_skipped=n_skipped,
                       out_path=out)


def aggregate(store: Dict) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Mean metrics per (scenario, scheduler) across the store's seeds.

    Energy columns are averaged too when every cell of a group carries
    them (i.e. the sweep ran with ``energy=True``).
    """
    groups: Dict[Tuple[str, str], List[Dict]] = {}
    for cell in store["cells"].values():
        groups.setdefault((cell["scenario"], cell["scheduler"]), []).append(cell)
    return {
        pair: {
            key: float(np.mean([c[key] for c in cells]))
            for key in METRIC_KEYS + ENERGY_KEYS + ENERGY_COST_KEYS
            if all(key in c for c in cells)
        }
        for pair, cells in sorted(groups.items())
    }
