"""Evaluation metrics (paper Sec 6.1).

* **ANTT** — average normalized turnaround time,
  ``1/N * sum(T_multi_i / T_isol_i)``;
* **SLO violation rate** — fraction of requests whose turnaround exceeded
  their latency SLO;
* **STP** — system throughput in completed inferences per second.

:func:`summarize` additionally reports the tail of the normalized-turnaround
distribution (p50/p95/p99), the quantity a production SLO budget is written
against, and — when an :class:`~repro.energy.accounting.EnergyAccountant`
is supplied — the energy axis: joules per request, total joules, and the
mean per-request energy-delay product.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.seqsum import seqsum
from repro.sim.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.energy.accounting import EnergyAccountant


def _check_finished(requests: Sequence[Request]) -> None:
    if not requests:
        raise SchedulingError("metrics over an empty request set are undefined")
    for req in requests:
        if req.finish_time is None:
            raise SchedulingError(f"request {req.rid} never finished")


def antt(requests: Sequence[Request]) -> float:
    """Average normalized turnaround time (lower is better, >= 1)."""
    _check_finished(requests)
    return seqsum(r.normalized_turnaround for r in requests) / len(requests)


def slo_violation_rate(requests: Sequence[Request]) -> float:
    """Fraction of requests that missed their latency SLO, in [0, 1]."""
    _check_finished(requests)
    return sum(1 for r in requests if r.violated) / len(requests)


def system_throughput(requests: Sequence[Request]) -> float:
    """Completed inferences per second over the busy horizon."""
    _check_finished(requests)
    start = min(r.arrival for r in requests)
    end = max(r.finish_time for r in requests)  # type: ignore[type-var]
    span = end - start
    if span <= 0:
        raise SchedulingError("degenerate horizon: all requests at one instant")
    return len(requests) / span


def summarize(
    requests: Sequence[Request],
    energy: Optional["EnergyAccountant"] = None,
) -> Dict[str, float]:
    """The three paper metrics plus normalized-turnaround tail percentiles.

    With an ``energy`` accountant, the summary additionally carries
    ``energy_per_request`` (mean J), ``total_joules`` and ``edp`` (mean
    per-request joules x turnaround seconds) — computed passively from the
    finished requests, so enabling it never perturbs a schedule.
    """
    _check_finished(requests)
    norm = [r.normalized_turnaround for r in requests]
    p50, p95, p99 = np.percentile(norm, (50, 95, 99))
    out = {
        "antt": seqsum(norm) / len(norm),
        "violation_rate": sum(1 for r in requests if r.violated) / len(requests),
        "stp": system_throughput(requests),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
    }
    if energy is not None:
        from repro.energy.accounting import energy_summary

        out.update(energy_summary(requests, energy))
    return out
