"""Extension: energy-aware scheduling on the energy-delay-product axis.

The paper compares schedulers on latency metrics only; the energy subsystem
adds the axis every accelerator paper reports.  This suite replays the
registry's diurnal and flash-crowd scenarios and checks the subsystem's
acceptance contract from both ends:

* **policy** — ``energy_edp`` achieves a strictly lower mean energy-delay
  product than both ``sjf`` and ``fcfs`` on every (scenario, seed) cell, at
  an equal-or-lower SLO-violation rate, and does it through the mechanism
  it claims (strictly fewer DRAM weight loads than sjf);
* **plumbing** — the sweep runner's per-cell energy columns are
  bit-identical for any worker count (the same determinism contract the
  latency columns carry).

``REPRO_BENCH_SMOKE=1`` only shrinks the profiling sample count; the
asserted grid is identical in CI and at full scale.
"""

import os
import tempfile
from pathlib import Path

from repro.bench.figures import render_table
from repro.core.lut import ModelInfoLUT
from repro.energy import EnergyAccountant
from repro.profiling.profiler import benchmark_suite
from repro.scenarios import SweepConfig, build_scenario, generate_scenario, run_sweep
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate
from repro.warehouse import Warehouse

from _config import N_PROFILE, once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SCENARIOS = ("diurnal", "flash_crowd")
SCHEDULERS = ("fcfs", "sjf", "dysta", "energy_edp", "energy_powercap")
ASSERT_BASELINES = ("fcfs", "sjf")
SEEDS = (0, 1, 2)
BASE_RATE = 25.0
DURATION = 20.0
SAMPLES = 100 if SMOKE else N_PROFILE


def bench_ext_energy(benchmark):
    def run():
        traces = benchmark_suite("attnn", n_samples=SAMPLES, seed=0)
        lut = ModelInfoLUT(traces)
        accountant = EnergyAccountant.from_model_lut(lut)
        results = {}
        for scenario in SCENARIOS:
            spec = build_scenario(scenario, base_rate=BASE_RATE,
                                  duration=DURATION)
            for seed in SEEDS:
                for name in SCHEDULERS:
                    requests = generate_scenario(traces, spec, seed=seed)
                    res = simulate(requests, make_scheduler(name, lut),
                                   energy=accountant)
                    results[(scenario, seed, name)] = {
                        "edp": res.edp,
                        "energy_per_request": res.energy_per_request,
                        "violation_rate": res.violation_rate,
                        "antt": res.antt,
                        "weight_loads": sum(
                            r.num_weight_loads for r in res.requests),
                    }
        return results

    results = once(benchmark, run)

    def mean(scenario, name, key):
        return sum(results[(scenario, s, name)][key] for s in SEEDS) / len(SEEDS)

    print()
    print(render_table(
        f"energy-aware scheduling (attnn, base {BASE_RATE:g} req/s, "
        f"{DURATION:g} s, {len(SEEDS)} seeds)",
        ["EDP mJ*s", "mJ/req", "viol %", "ANTT", "weight loads"],
        {
            f"{scenario}/{name}": [
                1e3 * mean(scenario, name, "edp"),
                1e3 * mean(scenario, name, "energy_per_request"),
                100 * mean(scenario, name, "violation_rate"),
                mean(scenario, name, "antt"),
                mean(scenario, name, "weight_loads"),
            ]
            for scenario in SCENARIOS
            for name in SCHEDULERS
        },
        float_fmt="{:.2f}",
    ))

    # Acceptance: lower EDP than every baseline at equal-or-lower violation
    # rate, on every single (scenario, seed) cell — not just on average.
    for scenario in SCENARIOS:
        for seed in SEEDS:
            ours = results[(scenario, seed, "energy_edp")]
            for baseline in ASSERT_BASELINES:
                other = results[(scenario, seed, baseline)]
                assert ours["edp"] < other["edp"], (scenario, seed, baseline)
                assert ours["violation_rate"] <= other["violation_rate"], (
                    scenario, seed, baseline)
            # The mechanism: the EDP win comes from fewer weight reloads.
            assert (ours["weight_loads"]
                    < results[(scenario, seed, "sjf")]["weight_loads"]), (
                scenario, seed)


def bench_ext_energy_sweep_determinism(benchmark):
    """Sweep-runner energy columns are bit-identical across worker counts."""

    def run():
        config = SweepConfig(
            scenarios=SCENARIOS, schedulers=("sjf", "energy_edp"),
            seeds=(0,), family="attnn", base_rate=BASE_RATE,
            duration=4.0, n_profile_samples=40, energy=True,
        )
        stores = []
        with tempfile.TemporaryDirectory() as tmp:
            for workers in (1, 2):
                root = Path(tmp) / f"w{workers}"
                run_sweep(config, out_path=root, workers=workers)
                with Warehouse.open(root) as wh:
                    stores.append((wh.fingerprint(), wh.read_cells()))
        return stores

    (fingerprint, cells), parallel = once(benchmark, run)
    assert (fingerprint, cells) == parallel
    assert cells, "sweep produced no cells"
    for cell in cells.values():
        for key in ("energy_per_request", "total_joules", "edp"):
            assert cell[key] > 0, key
    print(f"\nsweep determinism OK: {len(cells)} energy cells, "
          f"{len(fingerprint)} warehouse files, identical for 1 and 2 workers")
