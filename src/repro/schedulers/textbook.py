"""Textbook scheduling baselines: Round-Robin, EDF and LAS.

These are not part of the paper's comparison (Table 5) but complete the
benchmark suite for scheduling research: classic policies researchers expect
to sanity-check against.  All three are size-oblivious or estimate-free,
which makes them useful contrast points for the LUT-driven policies.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.lut import ModelInfoLUT
from repro.schedulers.base import Scheduler, register_scheduler
from repro.sim.request import Request


@register_scheduler("round_robin")
class RoundRobinScheduler(Scheduler):
    """Cycle through ready requests, one layer(-block) quantum each.

    Fair by construction and estimate-free; under load it behaves like
    processor sharing, inflating everyone's turnaround equally.
    """

    def __init__(self, lut: ModelInfoLUT):
        super().__init__(lut)
        self.reset()

    def reset(self) -> None:
        self._last_served: Dict[int, float] = {}

    def on_arrival(self, request: Request, now: float) -> None:
        # New arrivals go to the back of the ring.
        self._last_served[request.rid] = now

    def on_layer_complete(self, request: Request, now: float) -> None:
        self._last_served[request.rid] = now

    def on_complete(self, request: Request, now: float) -> None:
        self._last_served.pop(request.rid, None)

    def select(self, queue: Sequence[Request], now: float) -> Request:
        return min(
            queue,
            key=lambda r: (self._last_served.get(r.rid, r.arrival), r.rid),
        )


@register_scheduler("edf")
class EDFScheduler(Scheduler):
    """Earliest-deadline-first, no feasibility triage.

    The un-triaged cousin of our Planaria reduction: optimal for feasible
    workloads on one machine, prone to domino misses past saturation.
    """

    def select(self, queue: Sequence[Request], now: float) -> Request:
        return min(queue, key=lambda r: (r.deadline, r.rid))


@register_scheduler("las")
class LASScheduler(Scheduler):
    """Least-attained-service: run whoever has received the least time.

    Approximates SJF without any latency estimate, at the price of constant
    preemption — the contrast point for Dysta's preemption-damping penalty
    term (see examples/custom_scheduler.py).
    """

    def select(self, queue: Sequence[Request], now: float) -> Request:
        return min(queue, key=lambda r: (r.executed_time, r.arrival, r.rid))


@register_scheduler("srpt_oracle")
class SRPTOracleScheduler(Scheduler):
    """Shortest-remaining-processing-time with ground-truth remaining times.

    The ANTT-optimal reference (mean-flow-time optimality of SRPT); unlike
    the paper's Oracle it ignores deadlines entirely, so it bounds what any
    turnaround-only policy could achieve.
    """

    def select(self, queue: Sequence[Request], now: float) -> Request:
        return min(queue, key=lambda r: (r.true_remaining, r.rid))
