"""Inference-request lifecycle state.

A request is one inference task: a model instance (with its weight-sparsity
pattern), one concrete input sample (fixing its true per-layer latencies and
monitored sparsities from the Phase-1 trace), an arrival time and a latency
SLO.  The engine mutates the progress fields; schedulers may read everything
except the *future* entries of ``layer_latencies``/``layer_sparsities`` —
only the Oracle is allowed those.

Requests use **identity semantics** (``eq=False``): two distinct request
objects are never equal, membership tests and ``queue.remove`` are pointer
comparisons instead of deep field-by-field trace comparisons, and requests
are hashable (usable as set members / dict keys).  Derived quantities that
the schedulers hammer on every decision — isolated latency, the deadline,
the LUT key — are computed at construction in one pass over the latencies
(immutable once the request exists), so they are O(1) instead of O(L).
The numpy views only some readers need — the latency prefix sums behind
``true_remaining`` and the monitored-sparsity array — are built on first
read, so a request costs only what the engines read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.lut import LUTEntry, ModelInfoLUT


@dataclass(eq=False)
class Request:
    """One inference request flowing through the scheduler.

    Attributes:
        rid: Unique request id.
        model_name: Zoo model name.
        pattern_key: Weight-sparsity pattern key (LUT lookup component).
        arrival: Arrival time (seconds).
        slo: Relative latency SLO (seconds): deadline = arrival + slo.
        layer_latencies: True per-layer latencies of this sample (engine/
            Oracle ground truth).
        layer_sparsities: Monitored dynamic sparsity per layer, revealed to
            schedulers layer-by-layer as execution progresses.
        priority: Static task priority (PREMA-style priority classes);
            1.0 = normal.  Only priority-aware policies read it.
    """

    rid: int
    model_name: str
    pattern_key: str
    arrival: float
    slo: float
    layer_latencies: List[float]
    layer_sparsities: List[float]
    priority: float = 1.0

    # --- progress state, owned by the engine ---
    next_layer: int = 0
    executed_time: float = 0.0
    finish_time: Optional[float] = None
    first_dispatch_time: Optional[float] = None
    #: Time the request last occupied the accelerator (arrival before any
    #: dispatch) — basis of Dysta's waiting-time penalty term.
    last_run_end: float = field(default=0.0)
    #: Times an accelerator streamed this request's weights in from DRAM:
    #: dispatches where the resident (model, pattern) *key* differed — same-
    #: key requests share weights, so consecutive ones load nothing; the
    #: first dispatch on a cold accelerator counts.  Counted passively by
    #: every engine (the engine's ``switch_cost`` knob prices per-*instance*
    #: switch time, unchanged) and priced in joules by the energy
    #: accountant (DRAM traffic per load).
    num_weight_loads: int = 0

    def __post_init__(self) -> None:
        latencies = self.layer_latencies
        if not latencies:
            raise SchedulingError(f"request {self.rid}: empty layer latency trace")
        if len(latencies) != len(self.layer_sparsities):
            raise SchedulingError(
                f"request {self.rid}: latency/sparsity trace length mismatch"
            )
        # One pass: validate each latency and accumulate T^Isol left to
        # right, the order np.cumsum adds in, so latency_prefix[-1] equals
        # it bit for bit.  NaN fails every comparison, so it is rejected.
        total = 0.0
        for lat in latencies:
            if not 0.0 < lat < math.inf:
                raise SchedulingError(
                    f"request {self.rid}: non-positive or non-finite layer "
                    f"latency {lat!r}"
                )
            total += lat
        if not -math.inf < self.arrival < math.inf:
            raise SchedulingError(
                f"request {self.rid}: arrival must be finite, got {self.arrival!r}"
            )
        if not self.slo > 0:
            raise SchedulingError(
                f"request {self.rid}: SLO must be positive, got {self.slo!r}"
            )
        if not self.priority > 0:
            raise SchedulingError(
                f"request {self.rid}: priority must be positive, got {self.priority!r}"
            )
        self.last_run_end = self.arrival
        self._num_layers = len(latencies)
        self._isolated = float(total)
        self._key = f"{self.model_name}/{self.pattern_key}"
        self._deadline = self.arrival + self.slo
        self._lat_prefix: Optional[np.ndarray] = None
        self._sparsity_arr: Optional[np.ndarray] = None
        self._lut_ref: Optional[Tuple[object, Optional["LUTEntry"]]] = None

    @property
    def key(self) -> str:
        """Model-info LUT key (cached)."""
        return self._key

    @property
    def num_layers(self) -> int:
        return self._num_layers

    @property
    def is_done(self) -> bool:
        return self.next_layer >= self._num_layers

    @property
    def isolated_latency(self) -> float:
        """Uninterrupted execution time of this exact sample (T^Isol); O(1)."""
        return self._isolated

    @property
    def deadline(self) -> float:
        return self._deadline

    @property
    def latency_prefix(self) -> np.ndarray:
        """Latency prefix sums, built on first read: prefix[j] = sum of
        layers 0..j-1, and prefix[L] = T^Isol."""
        prefix = self._lat_prefix
        if prefix is None:
            prefix = np.empty(self._num_layers + 1, dtype=float)
            prefix[0] = 0.0
            np.cumsum(self.layer_latencies, dtype=float, out=prefix[1:])
            self._lat_prefix = prefix
        return prefix

    @property
    def true_remaining(self) -> float:
        """Ground-truth remaining execution time (Oracle only); O(1)."""
        return self._isolated - float(self.latency_prefix[self.next_layer])

    @property
    def monitored_sparsities(self) -> np.ndarray:
        """Sparsities of the already-executed layers (visible to schedulers).

        Returned as an O(1) read-only view over the sparsity array (built on
        first read) rather than a freshly sliced list.
        """
        sparsities = self._sparsity_arr
        if sparsities is None:
            sparsities = self._sparsity_arr = np.asarray(
                self.layer_sparsities, dtype=float
            )
        return sparsities[: self.next_layer]

    @property
    def turnaround(self) -> float:
        """Multi-tenant turnaround time T^Multi (finish - arrival)."""
        if self.finish_time is None:
            raise SchedulingError(f"request {self.rid} has not finished")
        return self.finish_time - self.arrival

    @property
    def normalized_turnaround(self) -> float:
        """T^Multi / T^Isol — the per-request ANTT contribution."""
        return self.turnaround / self._isolated

    @property
    def violated(self) -> bool:
        """Whether the request missed its latency SLO."""
        return self.turnaround > self.slo

    def lut_entry(self, lut: "ModelInfoLUT") -> Optional["LUTEntry"]:
        """The interned LUT entry for this request under ``lut``, or None.

        Cached on the request after the first lookup (per LUT instance), so
        schedulers and the ready queue resolve (model, pattern) averages
        without re-hashing the string key on every scheduling decision.
        """
        ref = self._lut_ref
        if ref is not None and ref[0] is lut:
            return ref[1]
        entry = lut.entry_or_none(self._key)
        self._lut_ref = (lut, entry)
        return entry


def check_unique_rids(requests: Iterable[Request]) -> None:
    """Reject a workload in which two requests share a ``rid``.

    The ready queue, the routers and the ledgers key requests by rid, so a
    repeated id would corrupt a run part-way through.
    """
    seen = set()
    for req in requests:
        if req.rid in seen:
            raise SchedulingError(
                f"request id {req.rid} appears more than once; "
                "request ids must be unique within a workload"
            )
        seen.add(req.rid)
