"""Declarative scenarios: named phases stitched into one request stream.

A :class:`ScenarioSpec` upgrades the one-shot ``WorkloadSpec`` world to a
timeline: each :class:`Phase` pairs an arrival-rate :class:`~.shapes.Shape`
with a duration and the traffic *content* for that span — SLO mix, priority
mix, model mix.  :func:`iter_scenario` samples every phase's arrivals via
thinning, offsets them onto the global timeline (the same phase-stitching
that ``WorkloadSpec.start_time`` enables for plain workloads), and yields
requests lazily in arrival order — the same contract as
:func:`repro.sim.workload.iter_workload`, so scenarios drive ``simulate``,
``simulate_multi`` and the streaming cluster engine unchanged.

The registry at the bottom names the canonical scenario families the sweep
runner and CLI expose: steady, ramp, diurnal, flash_crowd, multi_tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.profiling.trace import TraceSet
from repro.seqsum import seqsum
from repro.sim.request import Request
from repro.sim.workload import (
    RowSource,
    build_request,
    check_class_mix,
    draw_class_mix,
    row_lists,
    shared_row_lists,
)

from repro.scenarios.shapes import (
    Constant,
    Diurnal,
    Ramp,
    Shape,
    Spike,
    Superpose,
    sample_arrivals,
)

ClassMix = Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class Phase:
    """One span of the scenario timeline.

    Attributes:
        name: Phase label (carried into results for per-phase analysis).
        shape: Arrival-intensity shape over phase-local time.
        duration: Phase length in seconds.
        slo_multiplier: Flat SLO multiplier (SLO = T_isol x multiplier).
        slo_classes: Optional (multiplier, weight) mixture; overrides the
            flat multiplier, as in ``WorkloadSpec``.
        priority_classes: Optional (priority, weight) mixture.
        model_mix: Optional (trace-set key, weight) mixture; ``None`` draws
            uniformly over all profiled trace sets.
    """

    name: str
    shape: Shape
    duration: float
    slo_multiplier: float = 10.0
    slo_classes: Optional[ClassMix] = None
    priority_classes: Optional[ClassMix] = None
    model_mix: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("phase name must be non-empty")
        if self.duration <= 0:
            raise SchedulingError(
                f"phase {self.name!r}: duration must be positive, got {self.duration}"
            )
        if self.slo_multiplier <= 0:
            raise SchedulingError(
                f"phase {self.name!r}: slo multiplier must be positive"
            )
        check_class_mix(f"phase {self.name!r} slo_classes", self.slo_classes)
        check_class_mix(f"phase {self.name!r} priority_classes",
                        self.priority_classes)
        if self.model_mix is not None:
            if not self.model_mix:
                raise SchedulingError(
                    f"phase {self.name!r}: model_mix must be None or non-empty"
                )
            for key, weight in self.model_mix:
                if not key or weight < 0:
                    raise SchedulingError(
                        f"phase {self.name!r}: invalid model_mix entry "
                        f"({key!r}, {weight})"
                    )
            if sum(w for _, w in self.model_mix) <= 0:
                raise SchedulingError(
                    f"phase {self.name!r}: model_mix weights must not all be zero"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named sequence of phases forming one traffic scenario."""

    name: str
    phases: Tuple[Phase, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("scenario name must be non-empty")
        if not self.phases:
            raise SchedulingError(f"scenario {self.name!r} needs at least one phase")

    @property
    def duration(self) -> float:
        return seqsum(p.duration for p in self.phases)

    def expected_requests(self) -> float:
        """Expected request count (sum of phase intensity integrals)."""
        return seqsum(p.shape.expected_requests(p.duration) for p in self.phases)

    def describe(self) -> str:
        spans = ", ".join(
            f"{p.name}[{p.shape.__class__.__name__} {p.duration:g}s]"
            for p in self.phases
        )
        return f"{self.name}: {spans} (~{self.expected_requests():.0f} requests)"


def _iter_scenario(
    traces: Dict[str, TraceSet],
    spec: ScenarioSpec,
    seed: Optional[int],
    rows: RowSource,
) -> Iterator[Request]:
    if not traces:
        raise SchedulingError("cannot generate a scenario from an empty trace dict")
    base_seed = spec.seed if seed is None else seed
    all_keys: List[str] = sorted(traces)
    rid = 0
    offset = 0.0
    for phase_idx, phase in enumerate(spec.phases):
        # Validate the phase's model mix even when it samples zero arrivals,
        # so a misconfigured spec never passes on a lucky seed or low rate.
        if phase.model_mix is not None:
            missing = [k for k, _ in phase.model_mix if k not in traces]
            if missing:
                raise SchedulingError(
                    f"phase {phase.name!r}: model_mix keys {missing} not in "
                    f"the profiled trace sets ({all_keys})"
                )
        rng = np.random.default_rng([base_seed, phase_idx])
        arrivals = sample_arrivals(phase.shape, phase.duration, rng,
                                   start_time=offset)
        n = len(arrivals)
        offset += phase.duration
        if n == 0:
            continue
        if phase.model_mix is None:
            keys = all_keys
            key_idx = rng.integers(len(keys), size=n)
        else:
            keys = [k for k, _ in phase.model_mix]
            weights = np.array([w for _, w in phase.model_mix], dtype=float)
            key_idx = rng.choice(len(keys), size=n, p=weights / weights.sum())
        multipliers = draw_class_mix(phase.slo_classes, phase.slo_multiplier,
                                     n, rng)
        priorities = draw_class_mix(phase.priority_classes, 1.0, n, rng)
        for i in range(n):
            trace = traces[keys[int(key_idx[i])]]
            row = int(rng.integers(trace.num_samples))
            yield build_request(
                trace, row, rows(trace, row),
                rid=rid,
                arrival=float(arrivals[i]),
                slo_multiplier=float(multipliers[i]),
                priority=float(priorities[i]),
            )
            rid += 1


def iter_scenario(
    traces: Dict[str, TraceSet],
    spec: ScenarioSpec,
    *,
    seed: Optional[int] = None,
) -> Iterator[Request]:
    """Yield the scenario's requests lazily, in global arrival order.

    Each phase draws from an independent RNG stream seeded by
    ``(seed, phase index)``, so inserting or editing one phase never
    perturbs the randomness of the others.  Only O(n) scalars per phase
    (arrival times, class draws) are materialized — never n live
    ``Request`` objects — and each request converts its trace row afresh,
    matching ``iter_workload``'s lazy contract.

    Args:
        seed: Overrides ``spec.seed`` (the sweep runner's per-cell seed).
    """
    return _iter_scenario(traces, spec, seed, row_lists)


def generate_scenario(
    traces: Dict[str, TraceSet],
    spec: ScenarioSpec,
    *,
    seed: Optional[int] = None,
) -> List[Request]:
    """Materialize :func:`iter_scenario` as a list (for the batch engines).

    Requests that sampled the same trace row share its float objects, each
    in lists of its own (:func:`repro.sim.workload.shared_row_lists`); field
    for field they equal the iterator's.
    """
    return list(_iter_scenario(traces, spec, seed, shared_row_lists()))


# --------------------------------------------------------------------------
# Named scenario registry
# --------------------------------------------------------------------------


def _steady(rate: float, duration: float, slo: float) -> Tuple[Phase, ...]:
    """Stationary Poisson traffic — the paper's operating point."""
    return (Phase("steady", Constant(rate), duration, slo_multiplier=slo),)


def _ramp(rate: float, duration: float, slo: float) -> Tuple[Phase, ...]:
    """Cold start: traffic ramps from 20% to 150% of base, then sustains."""
    return (
        Phase("rampup", Ramp(0.2 * rate, 1.5 * rate, 0.6 * duration),
              0.6 * duration, slo_multiplier=slo),
        Phase("sustain", Constant(1.5 * rate), 0.4 * duration,
              slo_multiplier=slo),
    )


def _diurnal(rate: float, duration: float, slo: float) -> Tuple[Phase, ...]:
    """Two day/night cycles: sinusoid around base with 80% swing."""
    return (
        Phase("diurnal", Diurnal(rate, amplitude=0.8, period=duration / 2.0),
              duration, slo_multiplier=slo),
    )


def _flash_crowd(rate: float, duration: float, slo: float) -> Tuple[Phase, ...]:
    """Calm baseline, a 4x Gaussian surge mid-timeline, then recovery."""
    crowd = Superpose(
        Constant(rate),
        Spike(0.0, 3.0 * rate, at=0.15 * duration, width=0.05 * duration),
    )
    return (
        Phase("calm", Constant(rate), 0.4 * duration, slo_multiplier=slo),
        Phase("crowd", crowd, 0.3 * duration, slo_multiplier=slo),
        Phase("recovery", Constant(rate), 0.3 * duration, slo_multiplier=slo),
    )


def _multi_tenant(rate: float, duration: float, slo: float) -> Tuple[Phase, ...]:
    """Two tenants sharing the accelerator: a latency-critical minority
    (tight SLO, high priority) over a best-effort majority."""
    return (
        Phase(
            "tenants", Constant(rate), duration,
            slo_classes=((max(0.3 * slo, 1.0), 0.3), (2.0 * slo, 0.7)),
            priority_classes=((4.0, 0.3), (1.0, 0.7)),
        ),
    )


_SCENARIOS: Dict[str, Callable[[float, float, float], Tuple[Phase, ...]]] = {
    "steady": _steady,
    "ramp": _ramp,
    "diurnal": _diurnal,
    "flash_crowd": _flash_crowd,
    "multi_tenant": _multi_tenant,
}


def available_scenarios() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_SCENARIOS)


def scenario_descriptions() -> Dict[str, str]:
    """Name → one-line description (the factory docstring's first line)."""
    return {
        name: next(iter((factory.__doc__ or "").strip().splitlines()), "")
        for name, factory in sorted(_SCENARIOS.items())
    }


def build_scenario(
    name: str,
    *,
    base_rate: float,
    duration: float,
    slo_multiplier: float = 10.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Instantiate a registered scenario at a base rate and total duration."""
    if name not in _SCENARIOS:
        raise SchedulingError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    if base_rate <= 0:
        raise SchedulingError(f"base rate must be positive, got {base_rate}")
    if duration <= 0:
        raise SchedulingError(f"duration must be positive, got {duration}")
    phases = _SCENARIOS[name](base_rate, duration, slo_multiplier)
    return ScenarioSpec(name=name, phases=phases, seed=seed)
