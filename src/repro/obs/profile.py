"""Engine self-profiling: wall-clock attribution to engine phases.

Answers "where does the replay's time go?" without an external profiler:
the engines bracket their hot phases — event-heap ops, ready-queue update,
batch scoring (scheduler selection), router predict, arrival admission —
with ``perf_counter`` pairs and accumulate the deltas per phase into a
:class:`PhaseProfiler`.  The breakdown feeds ``repro perf --profile``,
which records it into ``BENCH_perf.json`` so the compiled-core work knows
exactly which phase to attack first.

Profiling is opt-in per run and adds measurement overhead (two clock reads
per bracketed phase); it reports *relative attribution* of the instrumented
run, alongside the instrumented run's own wall-clock.  With profiling off,
the engines skip every bracket behind a ``profiler is None`` check.
"""

from __future__ import annotations

from typing import Dict

#: Canonical engine phase names (engines may add their own).
PHASE_ARRIVALS = "arrivals"        # admit/route arrivals into ready queues
PHASE_SELECT = "select"            # batch scoring / scheduler selection
PHASE_EXECUTE = "execute"          # time advance + request bookkeeping
PHASE_QUEUE_UPDATE = "queue_update"  # ready-queue column refresh / requeue
PHASE_EVENT_HEAP = "event_heap"    # heap push/pop of simulation events
PHASE_ROUTE = "route"              # router predict (cluster engine)
PHASE_METRICS = "metrics"          # streaming-metrics folds / telemetry
PHASE_DISPATCH = "dispatch"        # placement bookkeeping around selection


class PhaseProfiler:
    """Accumulates wall-clock seconds per named engine phase.

    Engines time their hot paths with their own ``perf_counter`` brackets
    and charge the deltas through :meth:`add`.
    """

    __slots__ = ("phases", "calls", "wall_s")

    def __init__(self):
        self.phases: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.wall_s = 0.0

    def add(self, phase: str, dt: float, calls: int = 1) -> None:
        """Charge a pre-measured delta to ``phase``."""
        self.phases[phase] = self.phases.get(phase, 0.0) + dt
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's tallies into this one."""
        for phase, dt in other.phases.items():
            self.add(phase, dt, other.calls.get(phase, 0))
        self.wall_s += other.wall_s

    @property
    def total_s(self) -> float:
        """Sum of all attributed phase time."""
        return sum(self.phases.values())

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-phase seconds, call counts and share of attributed time,
        sorted by descending time (the BENCH_perf.json payload)."""
        total = self.total_s
        out: Dict[str, Dict[str, float]] = {}
        for phase in sorted(self.phases, key=self.phases.get, reverse=True):
            seconds = self.phases[phase]
            out[phase] = {
                "seconds": seconds,
                "calls": self.calls.get(phase, 0),
                "fraction": seconds / total if total > 0 else 0.0,
            }
        return out

    def summary(self) -> Dict:
        """Breakdown plus the instrumented run's wall-clock and coverage."""
        return {
            "wall_s": self.wall_s,
            "attributed_s": self.total_s,
            "coverage": self.total_s / self.wall_s if self.wall_s > 0 else 0.0,
            "phases": self.breakdown(),
        }
