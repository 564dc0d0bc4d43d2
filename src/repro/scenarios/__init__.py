"""Scenario engine: composable traffic shapes, trace replay, parallel sweeps.

Three layers, each usable on its own:

* :mod:`repro.scenarios.shapes` — arrival-intensity shapes (constant, ramp,
  diurnal, flash-crowd spike, superposition) sampled as non-homogeneous
  Poisson via thinning, plus recorded-traffic CSV replay;
* :mod:`repro.scenarios.spec` — ``ScenarioSpec``: named phases (shape x
  duration x SLO/priority/model mix) stitched into one lazy request stream
  that drives every simulation engine;
* :mod:`repro.scenarios.runner` — the cell runner the fuzzer shares, and a
  multiprocessing sweep of it into a resumable warehouse directory;
* :mod:`repro.scenarios.fuzz` — adversarial scenario search: a seeded
  hill-climb over traffic shapes and fault timelines that returns the
  violation-rate- (or EDP-) maximizing scenario plus a minimized
  reproducer spec.
"""

from repro.scenarios.shapes import (
    Constant,
    Diurnal,
    Piecewise,
    Ramp,
    Scale,
    Shape,
    Spike,
    Superpose,
    TraceEvent,
    fit_piecewise_constant,
    load_trace_csv,
    record_trace,
    replay_trace,
    sample_arrivals,
    save_trace_csv,
)
from repro.scenarios.spec import (
    Phase,
    ScenarioSpec,
    available_scenarios,
    build_scenario,
    generate_scenario,
    iter_scenario,
    scenario_descriptions,
)
from repro.scenarios.runner import (
    ENERGY_COST_KEYS,
    ENERGY_KEYS,
    FAULT_KEYS,
    METRIC_KEYS,
    SweepConfig,
    SweepResult,
    aggregate,
    cell_key,
    run_sweep,
    workload_seed,
)
from repro.scenarios.fuzz import (
    FuzzConfig,
    evaluate_named_scenario,
    fuzz,
    fuzz_to_json,
    replay,
)

__all__ = [
    "Shape",
    "Constant",
    "Ramp",
    "Diurnal",
    "Piecewise",
    "Spike",
    "Superpose",
    "Scale",
    "sample_arrivals",
    "fit_piecewise_constant",
    "TraceEvent",
    "save_trace_csv",
    "load_trace_csv",
    "replay_trace",
    "record_trace",
    "Phase",
    "ScenarioSpec",
    "iter_scenario",
    "generate_scenario",
    "available_scenarios",
    "scenario_descriptions",
    "build_scenario",
    "SweepConfig",
    "SweepResult",
    "METRIC_KEYS",
    "ENERGY_KEYS",
    "ENERGY_COST_KEYS",
    "FAULT_KEYS",
    "aggregate",
    "cell_key",
    "run_sweep",
    "workload_seed",
    "FuzzConfig",
    "evaluate_named_scenario",
    "fuzz",
    "fuzz_to_json",
    "replay",
]
