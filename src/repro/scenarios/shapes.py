"""Composable arrival-rate shapes and non-homogeneous Poisson sampling.

The paper evaluates schedulers under stationary Poisson and bursty arrivals
at fixed rates (Sec 6.2).  Real serving traffic is non-stationary: diurnal
load curves, flash crowds, capacity ramps, and superpositions of tenants.
A :class:`Shape` is a deterministic intensity function ``rate(t)`` (requests
per second at phase-local time ``t``); :func:`sample_arrivals` turns any
shape into concrete arrival instants via Lewis–Shedler thinning, which is
exact for every bounded intensity — no per-shape sampling code.

Shapes compose: ``Superpose`` adds intensities (independent Poisson streams
merge into a Poisson stream of summed rate), and ``shape_a + shape_b`` /
``shape * k`` are sugar for superposition and scaling.

Recorded traffic is the limiting case of a shape: :class:`TraceEvent` rows
(timestamp, model, seq_len) round-trip through CSV via
:func:`save_trace_csv` / :func:`load_trace_csv`, and :func:`replay_trace`
turns them into a lazy arrival-ordered request stream that drives
``simulate``, ``simulate_multi`` and ``simulate_cluster`` unchanged.
Traces can also be *learned back into* a shape:
:func:`fit_piecewise_constant` bins a recorded trace into a
:class:`Piecewise` intensity (the per-bin maximum-likelihood Poisson rate),
so synthetic scenarios can reproduce a production load profile.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.errors import SchedulingError
from repro.profiling.trace import TraceSet
from repro.seqsum import seqsum
from repro.sim.request import Request
from repro.sim.workload import request_from_trace

#: Candidate draws per thinning round.  Fixed so one seed always consumes
#: the RNG stream identically regardless of duration or acceptance rate.
_THINNING_CHUNK = 1024

# numpy >= 2.0 renamed trapz to trapezoid.
_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))


class Shape:
    """A bounded arrival-intensity function over phase-local time.

    Subclasses implement :meth:`rate` (vectorized over numpy arrays) and
    :meth:`peak_rate` (a true upper bound of the intensity on ``[0, d]`` —
    thinning is only exact under a correct bound).
    """

    def rate(self, t: np.ndarray) -> np.ndarray:
        """Intensity in requests/s at time(s) ``t`` (``t >= 0``)."""
        raise NotImplementedError

    def peak_rate(self, duration: float) -> float:
        """An upper bound of ``rate`` on ``[0, duration]``."""
        raise NotImplementedError

    def mean_rate(self, duration: float) -> float:
        """Average intensity over ``[0, duration]`` (trapezoidal integral)."""
        t = np.linspace(0.0, duration, 4097)
        return float(_trapezoid(self.rate(t), t) / duration)

    def expected_requests(self, duration: float) -> float:
        return self.mean_rate(duration) * duration

    def __add__(self, other: "Shape") -> "Shape":
        return Superpose(self, other)

    def __mul__(self, factor: float) -> "Shape":
        return Scale(self, factor)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Constant(Shape):
    """Stationary traffic: the paper's fixed-rate operating point."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise SchedulingError(f"rate must be >= 0, got {self.value}")

    def rate(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def peak_rate(self, duration: float) -> float:
        return self.value

    def mean_rate(self, duration: float) -> float:
        return self.value


@dataclass(frozen=True)
class Ramp(Shape):
    """Linear rate change over ``ramp_duration``, then held at ``end``.

    Models capacity ramps and gradual rollouts (traffic shifted onto a
    deployment over minutes rather than instantaneously).
    """

    start: float
    end: float
    ramp_duration: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < 0:
            raise SchedulingError("ramp rates must be >= 0")
        if self.ramp_duration <= 0:
            raise SchedulingError(
                f"ramp duration must be positive, got {self.ramp_duration}"
            )

    def rate(self, t: np.ndarray) -> np.ndarray:
        frac = np.clip(np.asarray(t, dtype=float) / self.ramp_duration, 0.0, 1.0)
        return self.start + (self.end - self.start) * frac

    def peak_rate(self, duration: float) -> float:
        return max(self.start, self.end)

    def mean_rate(self, duration: float) -> float:
        ramp = min(duration, self.ramp_duration)
        mid = self.start + (self.end - self.start) * (ramp / self.ramp_duration) / 2.0
        area = mid * ramp + self.end * max(0.0, duration - self.ramp_duration)
        return area / duration


@dataclass(frozen=True)
class Diurnal(Shape):
    """Sinusoidal day/night load curve around a base rate.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*(t/period + phase)))``;
    the mean over whole periods is exactly ``base``.
    """

    base: float
    amplitude: float = 0.8
    period: float = 60.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise SchedulingError(f"base rate must be >= 0, got {self.base}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise SchedulingError(
                f"amplitude must be in [0, 1] (rate stays >= 0), got {self.amplitude}"
            )
        if self.period <= 0:
            raise SchedulingError(f"period must be positive, got {self.period}")

    def rate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.base * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * (t / self.period + self.phase))
        )

    def peak_rate(self, duration: float) -> float:
        return self.base * (1.0 + self.amplitude)


@dataclass(frozen=True)
class Spike(Shape):
    """Flash crowd: a Gaussian surge from ``base`` up to ``peak`` at ``at``.

    ``width`` is the surge's standard deviation in seconds; ~95% of the
    extra load lands within ``at +/- 2*width``.
    """

    base: float
    peak: float
    at: float
    width: float

    def __post_init__(self) -> None:
        if self.base < 0:
            raise SchedulingError(f"base rate must be >= 0, got {self.base}")
        if self.peak < self.base:
            raise SchedulingError(
                f"spike peak {self.peak} must be >= base rate {self.base}"
            )
        if self.width <= 0:
            raise SchedulingError(f"spike width must be positive, got {self.width}")

    def rate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        bump = np.exp(-0.5 * ((t - self.at) / self.width) ** 2)
        return self.base + (self.peak - self.base) * bump

    def peak_rate(self, duration: float) -> float:
        return self.peak


class Superpose(Shape):
    """Sum of component intensities: independent tenants sharing a cluster."""

    def __init__(self, *shapes: Shape):
        if not shapes:
            raise SchedulingError("superposition needs at least one shape")
        # Flatten nested superpositions so the structure stays shallow.
        flat: List[Shape] = []
        for shape in shapes:
            if isinstance(shape, Superpose):
                flat.extend(shape.shapes)
            else:
                flat.append(shape)
        self.shapes = tuple(flat)

    def __repr__(self) -> str:
        return f"Superpose{self.shapes!r}"

    def rate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for shape in self.shapes:
            total = total + shape.rate(t)
        return total

    def peak_rate(self, duration: float) -> float:
        return seqsum(s.peak_rate(duration) for s in self.shapes)

    def mean_rate(self, duration: float) -> float:
        return seqsum(s.mean_rate(duration) for s in self.shapes)


@dataclass(frozen=True)
class Piecewise(Shape):
    """Piecewise-constant intensity over consecutive time bins.

    ``rates[b]`` holds on ``[edges[b], edges[b+1])``; before the first edge
    the first rate applies, after the last edge the last rate holds (like
    :class:`Ramp`, so a fitted shape can drive a longer scenario).  This is
    the shape class traces are *learned into*: see
    :func:`fit_piecewise_constant`.
    """

    edges: Tuple[float, ...]
    rates: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.rates) + 1 or not self.rates:
            raise SchedulingError(
                f"need len(edges) == len(rates) + 1 >= 2, got "
                f"{len(self.edges)} edges / {len(self.rates)} rates"
            )
        if any(nxt <= prev for prev, nxt in zip(self.edges, self.edges[1:])):
            raise SchedulingError("bin edges must be strictly increasing")
        if any(r < 0 for r in self.rates):
            raise SchedulingError("bin rates must be >= 0")

    def rate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.clip(
            np.searchsorted(self.edges, t, side="right") - 1,
            0, len(self.rates) - 1,
        )
        return np.asarray(self.rates, dtype=float)[idx]

    def peak_rate(self, duration: float) -> float:
        return max(self.rates)

    def mean_rate(self, duration: float) -> float:
        """Exact piecewise integral over ``[0, duration]`` (no quadrature)."""
        if duration <= 0:
            raise SchedulingError(f"duration must be positive, got {duration}")
        edges = np.asarray(self.edges, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        lo = np.minimum(np.maximum(edges[:-1], 0.0), duration)
        hi = np.minimum(np.maximum(edges[1:], 0.0), duration)
        area = float(np.dot(rates, hi - lo))
        # Constant extrapolation outside the fitted span.
        if edges[0] > 0.0:
            area += rates[0] * min(edges[0], duration)
        if duration > edges[-1]:
            area += rates[-1] * (duration - edges[-1])
        return area / duration


def fit_piecewise_constant(
    events: Union[str, Path, Sequence["TraceEvent"]],
    n_bins: int,
    *,
    duration: Optional[float] = None,
) -> Piecewise:
    """Fit a piecewise-constant arrival intensity to a recorded trace.

    The maximum-likelihood rate of a Poisson process on each bin is simply
    ``count / bin_width``, so the fit is exact bookkeeping: ``n_bins``
    equal-width bins over ``[0, duration]`` (default: the last event's
    timestamp), each at its empirical rate.  The result is an ordinary
    :class:`Shape` — compose it, scale it, or hand it to
    :func:`sample_arrivals` / a :class:`~repro.scenarios.spec.Phase` to
    generate synthetic traffic with the recorded trace's load profile.

    Round trip: the fitted shape preserves the trace's in-span event count
    exactly (``mean_rate(duration) * duration == len(events)`` when the
    trace lies within ``[0, duration]``), and re-fitting a trace sampled
    from a piecewise shape recovers the per-bin empirical rates bit for
    bit.  Events after an explicitly shorter ``duration`` are excluded —
    they are outside the fitted span, not extra mass for the last bin.
    """
    if isinstance(events, (str, Path)):
        events = load_trace_csv(events)
    if not events:
        raise SchedulingError("cannot fit a shape to an empty traffic trace")
    if n_bins < 1:
        raise SchedulingError(f"need >= 1 bin, got {n_bins}")
    times = np.asarray(sorted(ev.timestamp for ev in events), dtype=float)
    if duration is None:
        duration = float(times[-1])
    if duration <= 0:
        raise SchedulingError(
            "trace spans zero time; pass an explicit positive duration"
        )
    edges = np.linspace(0.0, duration, n_bins + 1)
    counts, _ = np.histogram(times[times <= duration], bins=edges)
    width = duration / n_bins
    return Piecewise(
        edges=tuple(edges.tolist()),
        rates=tuple((counts / width).tolist()),
    )


@dataclass(frozen=True)
class Scale(Shape):
    """A shape with its intensity multiplied by a nonnegative factor."""

    inner: Shape
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise SchedulingError(f"scale factor must be >= 0, got {self.factor}")

    def rate(self, t: np.ndarray) -> np.ndarray:
        return self.factor * self.inner.rate(t)

    def peak_rate(self, duration: float) -> float:
        return self.factor * self.inner.peak_rate(duration)

    def mean_rate(self, duration: float) -> float:
        return self.factor * self.inner.mean_rate(duration)


def sample_arrivals(
    shape: Shape,
    duration: float,
    rng: np.random.Generator,
    *,
    start_time: float = 0.0,
) -> np.ndarray:
    """Sample non-homogeneous Poisson arrivals on ``[0, duration)``.

    Lewis–Shedler thinning: draw a homogeneous Poisson process at the
    shape's peak rate and keep each candidate ``t`` with probability
    ``rate(t) / peak``.  Exact for any bounded intensity.  Candidates are
    drawn in fixed-size chunks so the RNG stream consumed by one seed is
    reproducible bit for bit.

    Returns arrival times sorted ascending, shifted by ``start_time``.
    """
    if duration <= 0:
        raise SchedulingError(f"duration must be positive, got {duration}")
    lam = shape.peak_rate(duration)
    if lam < 0:
        raise SchedulingError(f"peak rate must be >= 0, got {lam}")
    if lam == 0:
        return np.empty(0)
    accepted: List[np.ndarray] = []
    t = 0.0
    while t < duration:
        gaps = rng.exponential(1.0 / lam, size=_THINNING_CHUNK)
        candidates = t + np.cumsum(gaps)
        uniforms = rng.uniform(size=_THINNING_CHUNK)
        t = float(candidates[-1])
        keep = (candidates < duration) & (uniforms * lam < shape.rate(candidates))
        accepted.append(candidates[keep])
    arrivals = np.concatenate(accepted)
    return start_time + arrivals


# --------------------------------------------------------------------------
# Recorded-traffic traces
# --------------------------------------------------------------------------

_TRACE_HEADER = ("timestamp", "model", "seq_len")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded request: when it arrived, which model, how long an input.

    ``seq_len`` is the recorded input size (e.g. token count); replay maps
    it deterministically onto one of the profiled input samples, so the same
    trace always produces the same per-layer latencies.
    """

    timestamp: float
    model: str
    seq_len: int

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise SchedulingError(
                f"trace timestamps must be >= 0, got {self.timestamp}"
            )
        if self.seq_len < 0:
            raise SchedulingError(f"seq_len must be >= 0, got {self.seq_len}")


def save_trace_csv(path: Union[str, Path], events: Sequence[TraceEvent]) -> None:
    """Write a recorded-traffic trace as (timestamp, model, seq_len) CSV."""
    if not events:
        raise SchedulingError("cannot save an empty traffic trace")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_HEADER)
        for ev in events:
            writer.writerow([repr(float(ev.timestamp)), ev.model, ev.seq_len])


def load_trace_csv(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a traffic trace written by :func:`save_trace_csv` (sorted)."""
    path = Path(path)
    events: List[TraceEvent] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(_TRACE_HEADER) - set(reader.fieldnames):
            raise SchedulingError(
                f"{path}: traffic trace needs columns {_TRACE_HEADER}"
            )
        for row in reader:
            events.append(TraceEvent(
                timestamp=float(row["timestamp"]),
                model=row["model"],
                seq_len=int(row["seq_len"]),
            ))
    if not events:
        raise SchedulingError(f"{path}: empty traffic trace")
    events.sort(key=lambda e: e.timestamp)
    return events


def replay_trace(
    events: Union[str, Path, Sequence[TraceEvent]],
    traces: Dict[str, TraceSet],
    *,
    slo_multiplier: float = 10.0,
    priority: float = 1.0,
    start_time: float = 0.0,
    rid_base: int = 0,
) -> Iterator[Request]:
    """Lazily turn a recorded traffic trace into an arrival-ordered stream.

    Each event's ``model`` is either a full ``model/pattern`` trace-set key
    or a bare model name (then ``seq_len`` picks among that model's patterns
    round-robin over sorted keys).  Within the trace set, ``seq_len %
    num_samples`` picks the profiled input sample — a deterministic proxy
    for "this recorded input", so replaying the same CSV yields identical
    per-layer latencies every time.  The stream feeds ``simulate``,
    ``simulate_multi`` (via ``list(...)``) and ``simulate_cluster``
    (directly, bounded memory) alike: like ``iter_workload``, each request
    converts its trace row afresh rather than sharing it.
    """
    if isinstance(events, (str, Path)):
        events = load_trace_csv(events)
    if not events:
        raise SchedulingError("cannot replay an empty traffic trace")
    if slo_multiplier <= 0:
        raise SchedulingError(
            f"slo multiplier must be positive, got {slo_multiplier}"
        )
    by_model: Dict[str, List[str]] = {}
    for key in sorted(traces):
        by_model.setdefault(traces[key].model_name, []).append(key)
    last = -np.inf
    for offset, ev in enumerate(events):
        if ev.timestamp < last:
            raise SchedulingError("traffic trace events must be sorted by timestamp")
        last = ev.timestamp
        if ev.model in traces:
            trace = traces[ev.model]
        else:
            keys = by_model.get(ev.model)
            if not keys:
                raise SchedulingError(
                    f"traced model {ev.model!r} matches no trace-set key or "
                    f"profiled model name (have: {sorted(traces)})"
                )
            trace = traces[keys[ev.seq_len % len(keys)]]
        yield request_from_trace(
            trace, ev.seq_len % trace.num_samples,
            rid=rid_base + offset,
            arrival=start_time + ev.timestamp,
            slo_multiplier=slo_multiplier,
            priority=priority,
        )


def record_trace(
    requests: Sequence[Request], traces: Dict[str, TraceSet]
) -> List[TraceEvent]:
    """Project a request stream back to (timestamp, model, seq_len) events.

    The inverse of :func:`replay_trace`: each event carries the request's
    full trace-set key and the index of its profiled input sample (located
    by matching the per-layer latencies), so replaying the recorded events
    reproduces arrivals *and* per-layer latencies exactly.
    """
    events: List[TraceEvent] = []
    for req in requests:
        if req.key not in traces:
            raise SchedulingError(
                f"request {req.rid}: no trace set for key {req.key!r}"
            )
        trace = traces[req.key]
        matches = np.flatnonzero(
            (trace.latencies == np.asarray(req.layer_latencies)).all(axis=1)
        )
        if matches.size == 0:
            raise SchedulingError(
                f"request {req.rid}: its latencies match no profiled sample "
                f"of {req.key!r}"
            )
        events.append(TraceEvent(timestamp=req.arrival, model=req.key,
                                 seq_len=int(matches[0])))
    return events
