"""Multi-DNN workload generation (paper Sec 6.2).

Requests sample uniformly from the benchmark's (model, pattern) trace sets;
arrival times follow a Poisson process (MLPerf server scenario, the paper's
setting) or a bursty process (MLPerf multi-stream-style: groups of requests
land together); each request's SLO is ``T_isol * slo_multiplier`` as in
PREMA's setup, optionally drawn from a mix of SLO classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.profiling.trace import TraceSet
from repro.sim.request import Request

_TRAFFIC_SHAPES = ("poisson", "bursty")


def check_class_mix(
    label: str, classes: Optional[Tuple[Tuple[float, float], ...]]
) -> None:
    """Validate a (value, weight) class mixture (``None`` is always valid).

    Shared by ``WorkloadSpec`` and the scenario engine's ``Phase`` so the
    mixture semantics cannot diverge between the two workload paths.  Each
    test is written so that NaN fails it.
    """
    if classes is None:
        return
    if not classes:
        raise SchedulingError(f"{label} must be None or non-empty")
    for value, weight in classes:
        if not (value > 0 and 0 <= weight < math.inf):
            raise SchedulingError(
                f"invalid {label} entry (value={value}, weight={weight})"
            )
    if sum(w for _, w in classes) <= 0:
        raise SchedulingError(f"{label} weights must not all be zero")


def draw_class_mix(
    classes: Optional[Tuple[Tuple[float, float], ...]],
    default: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` values from a weighted class mixture (or the default)."""
    if classes is None:
        return np.full(n, default)
    values = np.array([v for v, _ in classes])
    weights = np.array([w for _, w in classes], dtype=float)
    weights = weights / weights.sum()
    picks = rng.choice(len(values), size=n, p=weights)
    return values[picks]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one generated workload.

    Attributes:
        arrival_rate: Requests per second (mean, whatever the traffic shape).
        n_requests: Total number of requests (paper uses 1000).
        slo_multiplier: M_slo: SLO = isolated latency x multiplier.
        seed: RNG seed (paper averages 5 seeds).
        traffic: "poisson" (paper default) or "bursty" — bursts of
            ``burst_size`` simultaneous requests whose burst inter-arrival
            preserves the mean rate (AR/VR frame-sync or batched traffic).
        burst_size: Requests per burst under bursty traffic.
        slo_classes: Optional mixture of (multiplier, weight) SLO classes;
            each request draws its own multiplier.  Overrides
            ``slo_multiplier`` when set.
        priority_classes: Optional mixture of (priority, weight) classes
            (PREMA-style task priorities); default: every request at 1.0.
        start_time: Offset added to every arrival time.  The arrival
            *process* is unchanged (same gaps, same seed); the whole stream
            is shifted, so phase-stitched scenario generators can place a
            workload segment at any point on the timeline without rebasing
            arrival arrays downstream.
    """

    arrival_rate: float
    n_requests: int = 1000
    slo_multiplier: float = 10.0
    seed: int = 0
    traffic: str = "poisson"
    burst_size: int = 4
    slo_classes: Optional[Tuple[Tuple[float, float], ...]] = None
    priority_classes: Optional[Tuple[Tuple[float, float], ...]] = None
    start_time: float = 0.0

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it: NaN arrivals never
        # reach an engine.
        if not self.arrival_rate > 0:
            raise SchedulingError(f"arrival rate must be positive, got {self.arrival_rate}")
        if not 0 <= self.start_time < math.inf:
            raise SchedulingError(
                f"start time must be >= 0 and finite, got {self.start_time}"
            )
        if self.n_requests <= 0:
            raise SchedulingError(f"n_requests must be positive, got {self.n_requests}")
        if not self.slo_multiplier > 0:
            raise SchedulingError(
                f"slo multiplier must be positive, got {self.slo_multiplier}"
            )
        if self.traffic not in _TRAFFIC_SHAPES:
            raise SchedulingError(
                f"traffic must be one of {_TRAFFIC_SHAPES}, got {self.traffic!r}"
            )
        if self.traffic == "bursty" and self.burst_size <= 0:
            raise SchedulingError(f"burst size must be positive, got {self.burst_size}")
        check_class_mix("slo_classes", self.slo_classes)
        check_class_mix("priority_classes", self.priority_classes)


def _arrival_times(spec: WorkloadSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.traffic == "poisson":
        gaps = rng.exponential(1.0 / spec.arrival_rate, size=spec.n_requests)
        return spec.start_time + np.cumsum(gaps)
    # Bursty: bursts of `burst_size` simultaneous requests; burst gaps keep
    # the long-run mean arrival rate equal to `arrival_rate`.
    n_bursts = -(-spec.n_requests // spec.burst_size)  # ceil division
    burst_gap_mean = spec.burst_size / spec.arrival_rate
    burst_times = np.cumsum(rng.exponential(burst_gap_mean, size=n_bursts))
    arrivals = np.repeat(burst_times, spec.burst_size)[: spec.n_requests]
    return spec.start_time + arrivals


RowLists = Tuple[List[float], List[float]]
#: ``(trace, row) -> (latencies, sparsities)``: the float lists that a
#: request built from that row owns.
RowSource = Callable[[TraceSet, int], RowLists]


def row_lists(trace: TraceSet, row: int) -> RowLists:
    """Fresh float lists of one trace row (the streams' row source)."""
    return trace.latencies[row].tolist(), trace.sparsities[row].tolist()


def shared_row_lists() -> RowSource:
    """A row source for one list build that converts each row only once.

    Every request still owns its list objects, so mutating one request's
    trace never touches another's, but requests that sampled the same row
    hold the same (immutable) float objects.  The table lives only as long
    as the build: kept on the trace set, it would make streams, which drop
    each request once it finishes, hold every row they ever touched.
    """
    # Keyed by identity: the build's trace dict keeps every trace alive.
    table: Dict[Tuple[int, int], RowLists] = {}

    def source(trace: TraceSet, row: int) -> RowLists:
        lists = table.get((id(trace), row))
        if lists is None:
            lists = table[(id(trace), row)] = row_lists(trace, row)
        return lists[0].copy(), lists[1].copy()

    return source


def build_request(
    trace: TraceSet,
    row: int,
    lists: RowLists,
    *,
    rid: int,
    arrival: float,
    slo_multiplier: float,
    priority: float = 1.0,
) -> Request:
    """Build a request from one profiled input sample of a trace set.

    The single recipe that turns (trace, sample row) into a ``Request`` —
    the row's per-layer latencies/sparsities in ``lists``, which the request
    owns, and the SLO derived as ``T_isol x multiplier`` from the trace's
    left-to-right row sum — shared by workload generation, the scenario
    engine and trace replay so it cannot diverge.
    """
    return Request(
        rid=rid,
        model_name=trace.model_name,
        pattern_key=trace.pattern_key,
        arrival=arrival,
        slo=trace.isolated_latency(row) * slo_multiplier,
        layer_latencies=lists[0],
        layer_sparsities=lists[1],
        priority=priority,
    )


def request_from_trace(
    trace: TraceSet,
    row: int,
    *,
    rid: int,
    arrival: float,
    slo_multiplier: float,
    priority: float = 1.0,
) -> Request:
    """:func:`build_request` over freshly converted row lists.

    Each call converts the row afresh, as the streams do; the list builders
    instead share one row's floats among the requests of one call
    (:func:`shared_row_lists`).
    """
    return build_request(trace, row, row_lists(trace, row), rid=rid,
                         arrival=arrival, slo_multiplier=slo_multiplier,
                         priority=priority)


def _iter_workload(
    traces: Dict[str, TraceSet], spec: WorkloadSpec, rows: RowSource
) -> Iterator[Request]:
    if not traces:
        raise SchedulingError("cannot generate a workload from an empty trace dict")
    rng = np.random.default_rng(spec.seed)
    keys: Sequence[str] = sorted(traces)
    arrivals = _arrival_times(spec, rng)
    multipliers = draw_class_mix(spec.slo_classes, spec.slo_multiplier,
                                 spec.n_requests, rng)
    priorities = draw_class_mix(spec.priority_classes, 1.0, spec.n_requests, rng)
    for rid in range(spec.n_requests):
        key = keys[int(rng.integers(len(keys)))]
        trace = traces[key]
        row = int(rng.integers(trace.num_samples))
        yield build_request(
            trace, row, rows(trace, row),
            rid=rid,
            arrival=float(arrivals[rid]),
            slo_multiplier=float(multipliers[rid]),
            priority=float(priorities[rid]),
        )


def iter_workload(
    traces: Dict[str, TraceSet], spec: WorkloadSpec
) -> Iterator[Request]:
    """Yield the workload one request at a time, in arrival order.

    Identical stream to :func:`generate_workload` (same spec, same seed, same
    requests), but lazily: only O(n) scalars (arrival times, class draws) are
    precomputed, never n live ``Request`` objects, and each request converts
    its trace row afresh, so memory stays bounded by the live requests.  Feed
    this straight into :func:`repro.cluster.simulate_cluster` to replay 100k+
    request streams under streaming metrics with bounded memory.
    """
    return _iter_workload(traces, spec, row_lists)


def generate_workload(
    traces: Dict[str, TraceSet], spec: WorkloadSpec
) -> List[Request]:
    """Generate a request stream by sampling from profiled trace sets.

    Each request uniformly picks a (model, pattern) trace set, then uniformly
    picks one profiled input sample within it; the request inherits that
    sample's true per-layer latencies and monitored sparsities.  Requests
    that sampled the same row share its float objects, each in lists of its
    own (:func:`shared_row_lists`); field for field they equal
    :func:`iter_workload`'s.
    """
    return list(_iter_workload(traces, spec, shared_row_lists()))
