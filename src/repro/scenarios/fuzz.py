"""Adversarial scenario fuzzer: search for the curves the paper never ran.

Given a scheduler and an evaluation budget, :func:`fuzz` hill-climbs with
random restarts over a *genome* — traffic-shape parameters (rate scale, a
superposed spike, SLO tightness) plus a fault timeline
(:class:`~repro.faults.spec.FaultSpec`) — and returns the scenario that
maximizes the objective (SLO violation rate by default, or mean
energy-delay product), together with a greedily *minimized* reproducer:
the same score with as few fault events and as many neutral shape
parameters as possible.

Determinism is the contract, exactly as in the sweep runner: every
candidate is a pure function of ``(seed, generation, index)``, evaluations
are keyed by index when fanned out over worker processes, and the result
document serializes with sorted keys — same seed and budget give
byte-identical JSON for any worker count.  A reproducer embeds everything
its replay needs (:func:`replay` re-evaluates it and returns the score it
reports).
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FaultError
from repro.faults.spec import (
    FaultSpec,
    KIND_REVOKE,
    KIND_SLOWDOWN,
    sample_fault_spec,
)
from repro.scenarios.runner import (
    SweepConfig,
    _profiled_suite,
    run_cell,
    workload_seed,
)
from repro.scenarios.shapes import Constant, Spike, Superpose
from repro.scenarios.spec import Phase, ScenarioSpec, build_scenario

#: Objectives the fuzzer can maximize.
OBJECTIVES = ("violation_rate", "edp")

#: Reproducer document version (bump on breaking format changes).
REPRODUCER_VERSION = 1

#: Shape-parameter bounds: (low, high, neutral).  "Neutral" is what the
#: minimizer pushes towards — the value that leaves the baseline scenario
#: unchanged.
_PARAM_BOUNDS: Dict[str, Tuple[float, float, float]] = {
    "rate_scale": (0.5, 3.0, 1.0),    # base arrival rate multiplier
    "spike_scale": (0.0, 6.0, 0.0),   # spike peak, in units of the rate
    "spike_at": (0.05, 0.9, 0.5),     # spike center, fraction of duration
    "spike_width": (0.01, 0.2, 0.05),  # spike sigma, fraction of duration
    "slo_scale": (0.3, 1.5, 1.0),     # SLO-multiplier tightness
}

_PARAM_NAMES = tuple(sorted(_PARAM_BOUNDS))

#: The reproducer ``config`` fields that become :class:`SweepConfig` run
#: knobs, with the JSON types a replay accepts for each.
_RUN_KNOBS: Dict[str, Tuple[type, ...]] = {
    "family": (str,), "base_rate": (int, float), "duration": (int, float),
    "slo_multiplier": (int, float), "n_profile_samples": (int,),
    "pool_size": (int,), "block_size": (int,), "switch_cost": (int, float),
    "max_queue_depth": (int, type(None)),
}

#: Every reproducer ``config`` field a replay reads.
_CONFIG_FIELDS = {"scheduler": (str,), "seed": (int,), "objective": (str,),
                  "workload_seed": (int,), **_RUN_KNOBS}


def _grid(cfg: Dict) -> SweepConfig:
    """The fuzzer's evaluation setup as a sweep grid: its cells are the
    baselines, and every candidate runs under its run knobs."""
    return SweepConfig(
        scenarios=("steady", "flash_crowd"), schedulers=(cfg["scheduler"],),
        seeds=(cfg["seed"],), engine="cluster",
        energy=cfg["objective"] == "edp",
        **{key: cfg[key] for key in _RUN_KNOBS},
    )


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that affects a fuzz run's numbers.

    The search runs on the sweep runner's cells: every candidate is a
    :func:`~repro.scenarios.runner.run_cell` on the cluster engine against
    one pool of ``pool_size`` accelerators, and the candidate workload
    seed derives from ``seed`` only — never from the worker process — so
    results are bit-identical for any ``workers``.
    """

    scheduler: str
    budget: int = 50
    seed: int = 0
    objective: str = "violation_rate"
    family: str = "attnn"
    base_rate: Optional[float] = None
    duration: float = 10.0
    slo_multiplier: float = 10.0
    n_profile_samples: int = 60
    pool_size: int = 2
    block_size: int = 1
    switch_cost: float = 0.0
    max_queue_depth: Optional[int] = None
    #: Candidates evaluated per hill-climb generation.
    generation_size: int = 8
    #: Mutants of the incumbent per generation; the rest are random
    #: restarts.
    mutants_per_generation: int = 5
    max_fault_events: int = 4
    minimize: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise FaultError(f"budget must be >= 1, got {self.budget}")
        if self.objective not in OBJECTIVES:
            raise FaultError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        if self.generation_size < 1 or self.mutants_per_generation < 0:
            raise FaultError("generation sizes must be sensible (>= 1 / >= 0)")
        if self.max_fault_events < 1:
            raise FaultError(
                f"max_fault_events must be >= 1, got {self.max_fault_events}"
            )
        _grid(asdict(self))  # the one validator of the run knobs

    def eval_dict(self) -> Dict:
        """The evaluation-relevant fields as a plain JSON-stable dict — the
        ``config`` block embedded in every reproducer."""
        out = asdict(self)
        out["base_rate"] = _grid(out).rate
        out["workload_seed"] = workload_seed("fuzz", self.seed)
        # Search-only knobs don't affect a single evaluation.
        for key in ("budget", "generation_size", "mutants_per_generation",
                    "max_fault_events", "minimize"):
            del out[key]
        return json.loads(json.dumps(out))


# --------------------------------------------------------------------------
# Genome <-> scenario
# --------------------------------------------------------------------------


def _clip(name: str, value: float) -> float:
    low, high, _ = _PARAM_BOUNDS[name]
    return float(min(max(value, low), high))


def _scenario_from_genome(genome: Dict, cfg: Dict) -> ScenarioSpec:
    """One adversarial phase: constant traffic plus an optional spike."""
    params = genome["params"]
    duration = float(cfg["duration"])
    rate = float(cfg["base_rate"]) * params["rate_scale"]
    shape = Constant(rate)
    if params["spike_scale"] > 0.0:
        shape = Superpose(shape, Spike(
            0.0, params["spike_scale"] * rate,
            at=params["spike_at"] * duration,
            width=params["spike_width"] * duration,
        ))
    phase = Phase("fuzz", shape, duration,
                  slo_multiplier=float(cfg["slo_multiplier"]) * params["slo_scale"])
    return ScenarioSpec(name="fuzz", phases=(phase,))


def _random_genome(rng: np.random.Generator, config: FuzzConfig) -> Dict:
    params = {
        name: float(rng.uniform(_PARAM_BOUNDS[name][0], _PARAM_BOUNDS[name][1]))
        for name in _PARAM_NAMES
    }
    faults: List[Dict] = []
    if rng.random() < 0.8:
        faults = sample_fault_spec(
            rng, config.duration, max_events=config.max_fault_events
        ).to_dicts()
    return {"params": params, "faults": faults}


def _mutate(genome: Dict, rng: np.random.Generator,
            config: FuzzConfig) -> Dict:
    """Perturb the incumbent: lognormal jitter on shape parameters,
    add/drop/jitter on the fault timeline."""
    params = dict(genome["params"])
    for name in _PARAM_NAMES:
        if rng.random() < 0.4:
            params[name] = _clip(name, params[name] * float(np.exp(rng.normal(0.0, 0.25))))
            if name == "spike_scale" and rng.random() < 0.1:
                params[name] = 0.0  # let mutation also retire the spike
    faults = [dict(event) for event in genome["faults"]]
    if faults and rng.random() < 0.2:
        faults.pop(int(rng.integers(len(faults))))
    if len(faults) < config.max_fault_events and rng.random() < 0.3:
        faults.extend(sample_fault_spec(
            rng, config.duration, max_events=1
        ).to_dicts())
    for event in faults:
        if rng.random() < 0.3:
            event["time"] = float(np.clip(
                event["time"] + rng.normal(0.0, 0.05) * config.duration,
                0.0, 0.9 * config.duration,
            ))
            if event["kind"] != KIND_REVOKE:
                event["duration"] = float(np.clip(
                    event["duration"] * np.exp(rng.normal(0.0, 0.25)),
                    0.01 * config.duration, 0.5 * config.duration,
                ))
            if event["kind"] == KIND_SLOWDOWN:
                event["factor"] = float(np.clip(
                    event["factor"] * np.exp(rng.normal(0.0, 0.2)), 1.0, 8.0,
                ))
    FaultSpec.from_dicts(faults)  # fail fast if a mutation broke validity
    return {"params": params, "faults": faults}


# --------------------------------------------------------------------------
# Candidate evaluation (pure function of (genome, eval-config dict))
# --------------------------------------------------------------------------


def _evaluate(genome: Dict, cfg: Dict,
              scenario: Optional[ScenarioSpec] = None,
              wseed: Optional[int] = None) -> Dict:
    """Run one scenario + fault timeline; returns score and key metrics.

    Pure and deterministic: the same ``(genome, cfg)`` always produces the
    same numbers, whatever process runs it.
    """
    grid = _grid(cfg)
    if scenario is None:
        scenario = _scenario_from_genome(genome, cfg)
    if wseed is None:
        wseed = cfg["workload_seed"]
    faults = FaultSpec.from_dicts(genome["faults"]) if genome["faults"] else None
    cell = run_cell(grid, cfg["scheduler"], scenario, wseed, faults)
    if cell is None:
        # A genome that generates no traffic has no score (JSON null), and
        # ranks below every scored one (_rank); it is not an error.
        return {"score": None, "n_requests": 0}
    out = {key: cell[key] for key in ("n_requests", "makespan",
                                      "violation_rate", "antt", "p99")}
    out["score"] = cell[cfg["objective"]]
    out["num_shed"] = float(cell["num_shed"])
    for key in ("num_faults", "requests_requeued_by_fault"):
        out[key] = cell.get(key, 0.0)
    if grid.energy:
        out["edp"] = cell["edp"]
    return out


def _rank(score: Optional[float]) -> float:
    """Ranking value of a score: no score (no traffic) is the worst."""
    return float("-inf") if score is None else score


def _eval_candidate(args: Tuple) -> Tuple[int, Dict]:
    """Worker entry point: evaluate candidate ``idx``; top-level so it
    pickles under multiprocessing."""
    idx, genome, cfg = args
    return idx, _evaluate(genome, cfg)


def evaluate_named_scenario(name: str, config: FuzzConfig) -> Dict:
    """Baseline: a registry scenario under the fuzzer's evaluation setup.

    This is the ``(name, scheduler, seed)`` cell of the fuzzer's sweep
    grid, run through the same :func:`~repro.scenarios.runner.run_cell`
    with the sweep's per-scenario workload seed, so its numbers equal the
    matching ``engine="cluster"`` sweep cell's.
    """
    cfg = config.eval_dict()
    scenario = build_scenario(name, base_rate=cfg["base_rate"],
                              duration=config.duration,
                              slo_multiplier=config.slo_multiplier)
    genome = {"params": {}, "faults": []}
    return _evaluate(genome, cfg, scenario=scenario,
                     wseed=workload_seed(name, config.seed))


def _check_reproducer(cfg, genome) -> None:
    """Reject a malformed reproducer before it becomes a sweep grid."""
    params = genome.get("params") if isinstance(genome, dict) else None
    if not (isinstance(cfg, dict) and isinstance(params, dict) and "faults" in genome):
        raise FaultError("a reproducer needs a 'config' object and a 'genome' "
                         "object with 'params' and 'faults'")
    for key, types in _CONFIG_FIELDS.items():
        if key not in cfg or not isinstance(cfg[key], types):
            raise FaultError(f"reproducer config {key!r} must be "
                             f"{' or '.join(t.__name__ for t in types)}, got "
                             f"{repr(cfg[key]) if key in cfg else 'nothing'}")
    if cfg["objective"] not in OBJECTIVES:
        raise FaultError(f"objective must be one of {OBJECTIVES}, "
                         f"got {cfg['objective']!r}")
    # The search never leaves these bounds; outside them a shape can be
    # degenerate or generate requests forever.
    for name, (low, high, _) in _PARAM_BOUNDS.items():
        value = params.get(name)
        if not (isinstance(value, (int, float)) and low <= value <= high):
            raise FaultError(f"reproducer genome {name!r} must be a number in "
                             f"[{low}, {high}], got {value!r}")
    try:
        FaultSpec.from_dicts(genome["faults"])
    except (TypeError, ValueError) as exc:
        raise FaultError(f"reproducer genome has malformed faults: {exc}") from None


def replay(reproducer: Dict) -> Dict:
    """Re-evaluate a reproducer document; returns the fresh metrics.

    The document embeds its evaluation config, so a replay needs nothing
    else and reproduces the recorded score exactly.  Every field a replay
    reads is checked first; keys it does not read, such as the ``router``
    that older documents carry, are ignored.
    """
    for key in ("config", "genome"):
        if key not in reproducer:
            raise FaultError(f"reproducer is missing its {key!r} block")
    _check_reproducer(reproducer["config"], reproducer["genome"])
    return _evaluate(reproducer["genome"], reproducer["config"])


# --------------------------------------------------------------------------
# Search
# --------------------------------------------------------------------------


def _reproducer(genome: Dict, evaluation: Dict, cfg: Dict) -> Dict:
    return {
        "kind": "fuzz-reproducer",
        "version": REPRODUCER_VERSION,
        "config": cfg,
        "genome": genome,
        "score": evaluation["score"],
        "metrics": evaluation,
    }


def _minimize(best_genome: Dict, best_score: float, cfg: Dict,
              config: FuzzConfig) -> Tuple[Dict, Dict, int]:
    """Greedy reproducer shrink: drop fault events and neutralize shape
    parameters one at a time, keeping every change that does not lower the
    score.  Serial and deterministic; costs one evaluation per trial."""
    genome = {"params": dict(best_genome["params"]),
              "faults": [dict(e) for e in best_genome["faults"]]}
    evals = 0
    # 1. Drop fault genes, last to first (stable indices while popping).
    for i in range(len(genome["faults"]) - 1, -1, -1):
        trial = {"params": genome["params"],
                 "faults": genome["faults"][:i] + genome["faults"][i + 1:]}
        outcome = _evaluate(trial, cfg)
        evals += 1
        if _rank(outcome["score"]) >= best_score:
            genome = trial
    # 2. Neutralize shape parameters (sorted order: deterministic).
    for name in _PARAM_NAMES:
        neutral = _PARAM_BOUNDS[name][2]
        if genome["params"][name] == neutral:
            continue
        trial = {"params": {**genome["params"], name: neutral},
                 "faults": genome["faults"]}
        outcome = _evaluate(trial, cfg)
        evals += 1
        if _rank(outcome["score"]) >= best_score:
            genome = trial
    final = _evaluate(genome, cfg)
    evals += 1
    return genome, final, evals


def fuzz(config: FuzzConfig, *, workers: int = 1) -> Dict:
    """Search for the objective-maximizing scenario within the budget.

    Seeded hill-climb with random restarts: each generation evaluates
    ``generation_size`` candidates — ``mutants_per_generation`` mutants of
    the incumbent plus random restarts — until ``budget`` evaluations are
    spent.  Candidate genomes derive from ``(seed, generation, index)``
    and evaluations are pure, so the returned document is byte-identical
    (``json.dumps(..., sort_keys=True)``) for any ``workers`` count.

    Returns a document with the worst-case reproducer, its greedy
    minimization (when ``config.minimize``), and fault-free baselines for
    the ``steady`` and ``flash_crowd`` registry scenarios under the same
    scheduler and pool.
    """
    cfg = config.eval_dict()
    best: Optional[Tuple[float, int, int]] = None  # (score, gen, idx) incumbent key
    best_genome: Optional[Dict] = None
    best_eval: Optional[Dict] = None
    spent = 0
    gen = 0
    pool = None
    if workers > 1:
        # Warm the per-process trace cache in the parent (fork inherits it
        # copy-on-write; a no-op cost shift on spawn platforms).
        _profiled_suite(config.family, config.n_profile_samples)
        pool = multiprocessing.get_context().Pool(processes=workers)
    try:
        while spent < config.budget:
            size = min(config.generation_size, config.budget - spent)
            genomes: List[Dict] = []
            for idx in range(size):
                rng = np.random.default_rng([config.seed, gen, idx])
                if best_genome is not None and idx < config.mutants_per_generation:
                    genomes.append(_mutate(best_genome, rng, config))
                else:
                    genomes.append(_random_genome(rng, config))
            args = [(idx, genomes[idx], cfg) for idx in range(size)]
            if pool is not None and size > 1:
                outcomes: Dict[int, Dict] = dict(
                    pool.imap_unordered(_eval_candidate, args)
                )
            else:
                outcomes = dict(map(_eval_candidate, args))
            spent += size
            for idx in range(size):  # index order: worker-count invariant
                score = _rank(outcomes[idx]["score"])
                # Strict improvement keeps the earliest (gen, idx) on ties.
                if best is None or score > best[0]:
                    best = (score, gen, idx)
                    best_genome = genomes[idx]
                    best_eval = outcomes[idx]
            gen += 1
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    assert best is not None and best_genome is not None and best_eval is not None
    document = {
        "kind": "fuzz-result",
        "version": REPRODUCER_VERSION,
        "config": cfg,
        "search": {
            "budget": config.budget,
            "evaluations": spent,
            "generations": gen,
            "best_generation": best[1],
            "best_index": best[2],
        },
        "worst": _reproducer(best_genome, best_eval, cfg),
        "baselines": {
            name: evaluate_named_scenario(name, config)
            for name in ("steady", "flash_crowd")
        },
    }
    if config.minimize:
        min_genome, min_eval, min_evals = _minimize(
            best_genome, _rank(best_eval["score"]), cfg, config
        )
        document["minimized"] = _reproducer(min_genome, min_eval, cfg)
        document["search"]["minimize_evaluations"] = min_evals
    return document


def fuzz_to_json(document: Dict) -> str:
    """Canonical serialization: same document => same bytes, strict JSON."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
