"""Tests for the parallel sweep runner and the `repro scenario` CLI."""

import pytest

from repro.cli import main
from repro.errors import SchedulingError, WarehouseError
from repro.scenarios import (
    SweepConfig,
    aggregate,
    cell_key,
    run_sweep,
    workload_seed,
)
from repro.warehouse import Warehouse

from conftest import LEGACY_STORE, warehouse_files

#: Tiny but non-degenerate grid: fast enough for CI, big enough to exercise
#: parallelism (more cells than workers).
TINY = dict(duration=3.0, n_profile_samples=10)


def tiny_config(**overrides):
    params = dict(
        scenarios=("diurnal", "flash_crowd"),
        schedulers=("dysta", "sjf"),
        seeds=(0, 1),
        **TINY,
    )
    params.update(overrides)
    return SweepConfig(**params)


class TestConfig:
    def test_empty_axes_rejected(self):
        with pytest.raises(SchedulingError):
            SweepConfig(scenarios=(), schedulers=("sjf",), seeds=(0,))
        with pytest.raises(SchedulingError):
            SweepConfig(scenarios=("steady",), schedulers=("sjf",), seeds=())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SchedulingError, match="unknown scenarios"):
            SweepConfig(scenarios=("tsunami",), schedulers=("sjf",), seeds=(0,))

    def test_unknown_scheduler_rejected_before_any_worker_runs(self):
        with pytest.raises(SchedulingError, match="unknown schedulers"):
            SweepConfig(scenarios=("steady",), schedulers=("djysta",), seeds=(0,))

    def test_grid_order_is_deterministic(self):
        config = tiny_config()
        assert config.cells() == config.cells()
        assert len(config.cells()) == 8

    def test_workload_seed_is_stable_and_scheduler_free(self):
        # Stable across processes (no hash() salting) and shared by every
        # scheduler in a cell row, so policies compare on identical streams.
        assert workload_seed("diurnal", 0) == workload_seed("diurnal", 0)
        assert workload_seed("diurnal", 0) != workload_seed("flash_crowd", 0)
        assert workload_seed("diurnal", 0) != workload_seed("diurnal", 1)


class TestSweep:
    def test_results_identical_across_worker_counts(self, tmp_path):
        config = tiny_config()
        run_sweep(config, out_path=tmp_path / "w1", workers=1)
        run_sweep(config, out_path=tmp_path / "w3", workers=3)
        assert (warehouse_files(tmp_path / "w1")
                == warehouse_files(tmp_path / "w3"))

    def test_resume_skips_completed_cells(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "store"
        first = run_sweep(config, out_path=path, workers=1)
        assert first.n_run == 8 and first.n_skipped == 0
        before = warehouse_files(path)
        again = run_sweep(config, out_path=path, workers=2)
        assert again.n_run == 0 and again.n_skipped == 8
        assert warehouse_files(path) == before

    def test_grid_can_grow_incrementally(self, tmp_path):
        path = tmp_path / "store"
        run_sweep(tiny_config(), out_path=path, workers=1)
        grown = run_sweep(tiny_config(schedulers=("dysta", "sjf", "fcfs")),
                          out_path=path, workers=1)
        assert grown.n_skipped == 8 and grown.n_run == 4
        with Warehouse.open(path) as wh:
            assert len(wh) == 12

    def test_workload_change_rejected_unless_forced(self, tmp_path):
        path = tmp_path / "store"
        run_sweep(tiny_config(), out_path=path, workers=1)
        changed = tiny_config(duration=4.0)
        with pytest.raises(WarehouseError, match="different workload"):
            run_sweep(changed, out_path=path, workers=1)
        forced = run_sweep(changed, out_path=path, workers=1, force=True)
        assert forced.n_run == 8 and forced.n_skipped == 0

    def test_cells_hold_the_metrics(self, tmp_path):
        result = run_sweep(tiny_config(), workers=1)
        cell = result.cells[cell_key("diurnal", "dysta", 0)]
        for key in ("antt", "violation_rate", "stp", "p50", "p95", "p99"):
            assert isinstance(cell[key], float)
        assert cell["n_requests"] > 0
        assert cell["workload_seed"] == workload_seed("diurnal", 0)

    def test_schedulers_see_identical_streams(self, tmp_path):
        result = run_sweep(tiny_config(), workers=1)
        a = result.cells[cell_key("diurnal", "dysta", 0)]
        b = result.cells[cell_key("diurnal", "sjf", 0)]
        assert a["n_requests"] == b["n_requests"]
        assert a["workload_seed"] == b["workload_seed"]

    def test_aggregate_means_across_seeds(self):
        result = run_sweep(tiny_config(), workers=1)
        table = aggregate(result.store)
        assert set(table) == {
            (scenario, scheduler)
            for scenario in ("diurnal", "flash_crowd")
            for scheduler in ("dysta", "sjf")
        }
        cells = result.cells
        expected = (cells[cell_key("diurnal", "sjf", 0)]["antt"]
                    + cells[cell_key("diurnal", "sjf", 1)]["antt"]) / 2.0
        assert table[("diurnal", "sjf")]["antt"] == pytest.approx(expected)

    def test_explicit_default_rate_resumes_default_store(self, tmp_path):
        # base_rate is stored resolved: None and the explicit family
        # default describe the same workload and share one store.
        path = tmp_path / "store"
        small = dict(scenarios=("steady",), schedulers=("sjf",), seeds=(0,))
        run_sweep(tiny_config(**small), out_path=path, workers=1)
        explicit = tiny_config(base_rate=tiny_config().rate, **small)
        resumed = run_sweep(explicit, out_path=path, workers=1)
        assert resumed.n_run == 0 and resumed.n_skipped == 1

    def test_bad_workload_params_fail_fast(self):
        with pytest.raises(SchedulingError, match="base rate"):
            tiny_config(base_rate=-5.0)
        with pytest.raises(SchedulingError, match="samples"):
            tiny_config(n_profile_samples=0)
        # NaN passes no check, and an infinite duration or rate would
        # generate requests forever.
        nan, inf = float("nan"), float("inf")
        for knob, value in (("duration", nan), ("duration", inf),
                            ("base_rate", nan), ("base_rate", inf),
                            ("slo_multiplier", nan), ("switch_cost", nan),
                            ("switch_cost", inf),
                            ("telemetry_interval", nan)):
            with pytest.raises(SchedulingError):
                tiny_config(**{knob: value})
        # Engine knobs fail at construction, with the engine's message,
        # on both engines.
        for engine in ("single", "cluster"):
            with pytest.raises(SchedulingError, match="block size must be >= 1"):
                tiny_config(engine=engine, block_size=0)
            with pytest.raises(SchedulingError, match="switch cost must be >= 0"):
                tiny_config(engine=engine, switch_cost=-0.5)

    def test_cluster_engine_rejects_bad_config(self):
        with pytest.raises(SchedulingError, match="engine"):
            tiny_config(engine="quantum")
        with pytest.raises(SchedulingError, match="engine='cluster'"):
            tiny_config(autoscale="reactive")
        with pytest.raises(SchedulingError, match="unknown autoscale"):
            tiny_config(engine="cluster", autoscale="psychic")
        with pytest.raises(SchedulingError, match="pool size"):
            tiny_config(engine="cluster", pool_size=0)
        with pytest.raises(SchedulingError, match="max queue depth must be >= 1"):
            tiny_config(engine="cluster", max_queue_depth=0)
        scaled = dict(engine="cluster", autoscale="reactive")
        with pytest.raises(SchedulingError, match="tick interval must be positive"):
            tiny_config(autoscale_interval=0.0, **scaled)
        with pytest.raises(SchedulingError, match=r"max accelerators \(0\)"):
            tiny_config(max_accelerators=0, **scaled)
        with pytest.raises(SchedulingError, match="provision latency must be >= 0"):
            tiny_config(provision_latency=-1.0, **scaled)

    def test_knobs_are_checked_only_where_they_take_effect(self):
        # The single engine has no admission controller, and a fixed pool
        # no autoscaler: these configs ran before the checks and still do.
        tiny_config(max_queue_depth=0)
        tiny_config(engine="cluster", autoscale_interval=0.0,
                    max_accelerators=0, provision_latency=-1.0)

    def test_cluster_cells_hold_cost_metrics(self):
        config = tiny_config(scenarios=("flash_crowd",), seeds=(0,),
                             engine="cluster", pool_size=1,
                             autoscale="reactive", max_queue_depth=8)
        result = run_sweep(config, workers=1)
        cell = result.cells[cell_key("flash_crowd", "dysta", 0)]
        for key in ("acc_seconds_provisioned", "acc_seconds_used",
                    "provisioned_utilization", "num_scale_events",
                    "shed_under_scale_lag", "shed_rate", "antt", "p99"):
            assert isinstance(cell[key], float), key
        assert cell["acc_seconds_provisioned"] >= cell["acc_seconds_used"] > 0
        assert cell["num_shed"] >= 0

    def test_cluster_cells_identical_across_worker_counts(self, tmp_path):
        config = tiny_config(engine="cluster", pool_size=1,
                             autoscale="predictive", max_queue_depth=8)
        run_sweep(config, out_path=tmp_path / "w1", workers=1)
        run_sweep(config, out_path=tmp_path / "w3", workers=3)
        assert (warehouse_files(tmp_path / "w1")
                == warehouse_files(tmp_path / "w3"))

    def test_cluster_store_never_resumes_single_engine_store(self, tmp_path):
        path = tmp_path / "store"
        run_sweep(tiny_config(), out_path=path, workers=1)
        with pytest.raises(WarehouseError, match="different workload"):
            run_sweep(tiny_config(engine="cluster"), out_path=path, workers=1)

    def test_progress_callback(self, tmp_path):
        seen = []
        run_sweep(tiny_config(scenarios=("steady",), seeds=(0,)), workers=1,
                  progress=lambda key, done, total: seen.append((key, done, total)))
        assert seen == [("steady/dysta/seed0", 1, 2), ("steady/sjf/seed0", 2, 2)]


class TestScenarioCLI:
    def test_list_scenarios(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "diurnal" in out and "flash_crowd" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "--scenarios", "tsunami"])

    def test_sweep_runs_and_resumes(self, tmp_path, capsys):
        argv = ["scenario", "--scenarios", "diurnal", "--schedulers", "sjf",
                "fcfs", "--seeds", "0", "--duration", "3", "--samples", "10",
                "--workers", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cells (2 run, 0 skipped)" in out
        assert "diurnal/sjf" in out and "wrote" in out
        with Warehouse.open(tmp_path / "out") as wh:
            assert len(wh) == 2

        assert main(argv) == 0
        assert "(0 run, 2 skipped)" in capsys.readouterr().out

    def test_bad_knob_never_creates_the_store(self, tmp_path, capsys):
        # Rejected before the warehouse records the knob, so the corrected
        # re-run needs no --force.
        out = tmp_path / "out"
        argv = ["scenario", "--scenarios", "steady", "--schedulers", "sjf",
                "--seeds", "0", "--duration", "3", "--samples", "10",
                "--out", str(out)]
        assert main(argv + ["--block-size", "0"]) == 1
        err = capsys.readouterr().err
        assert "block size must be >= 1" in err and "Traceback" not in err
        assert not out.exists()
        assert main(argv) == 0

    def test_json_store_path_points_at_import(self, tmp_path, capsys):
        # A JSON sweep store is no longer a place to sweep into: it is
        # refused with the conversion command, never a raw traceback.
        legacy = tmp_path / "legacy.json"
        legacy.write_bytes(LEGACY_STORE.read_bytes())
        argv = ["scenario", "--scenarios", "steady", "--schedulers", "sjf",
                "--seeds", "0", "--duration", "3", "--samples", "10",
                "--out", str(legacy)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "repro warehouse import" in err
        assert legacy.read_bytes() == LEGACY_STORE.read_bytes()
