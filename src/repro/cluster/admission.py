"""Admission control: shed load the cluster cannot serve acceptably.

A production serving tier rejects work it cannot finish usefully instead of
letting queues grow without bound — an unserved request that would have
missed its SLO anyway is cheaper refused at the door.  The controller is
consulted once per request, after the router has picked a pool, and either
admits it or sheds it with a reason:

* ``queue_depth`` — the target pool already holds more than
  ``max_queue_depth`` outstanding requests per accelerator;
* ``slo_infeasible`` — the LUT-estimated completion time (queued work spread
  over the pool's accelerators, plus the request's own estimated service
  time at the pool's effective speed) already exceeds the request's
  deadline.  Estimates use only offline LUT averages — the same information
  boundary the schedulers obey.

The default controller admits everything, which keeps the cluster engine a
strict generalization of the single-pool engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.lut import ModelInfoLUT
from repro.errors import SchedulingError
from repro.seqsum import seqsum
from repro.sim.request import Request

from repro.cluster.pool import Pool

_EPS = 1e-12

#: Shed-reason labels (values of :meth:`AdmissionController.admit`).
SHED_QUEUE_DEPTH = "queue_depth"
SHED_SLO_INFEASIBLE = "slo_infeasible"


@dataclass
class AdmissionController:
    """Queue-depth and SLO-infeasibility load shedding.

    Attributes:
        max_queue_depth: Maximum outstanding (queued + in-flight) requests
            per accelerator in the target pool; ``None`` disables the check.
        slo_guard: Shed requests whose estimated completion already misses
            their deadline at admission time.  Requires ``lut``.
        lut: Offline model-information LUT used for the SLO-guard estimates.
    """

    max_queue_depth: Optional[int] = None
    slo_guard: bool = False
    lut: Optional[ModelInfoLUT] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise SchedulingError(
                f"max queue depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.slo_guard and self.lut is None:
            raise SchedulingError("the SLO guard needs a ModelInfoLUT for estimates")

    def _estimated_remaining(self, request: Request) -> float:
        """LUT-average remaining latency; 0 for models outside the LUT."""
        assert self.lut is not None
        if request.key not in self.lut:
            return 0.0
        return self.lut.static_remaining(request.key, request.next_layer)

    def admit(self, request: Request, pool: Pool, now: float) -> Optional[str]:
        """Return ``None`` to admit, or the shed-reason label to reject."""
        # max(.., 1) guards the instant where an autoscaled pool's last
        # draining accelerator retired while its replacements still warm.
        if (
            self.max_queue_depth is not None
            and pool.backlog() >= self.max_queue_depth * max(pool.num_accelerators, 1)
        ):
            return SHED_QUEUE_DEPTH
        if self.slo_guard:
            backlog_work = seqsum(
                self._estimated_remaining(r) / pool.service_speed(r)
                for r in pool.pending()
            )
            service = self._estimated_remaining(request) / pool.service_speed(request)
            estimated_finish = (
                now + backlog_work / max(pool.num_accelerators, 1) + service
            )
            if estimated_finish > request.deadline + _EPS:
                return SHED_SLO_INFEASIBLE
        return None
