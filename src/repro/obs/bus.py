"""Request-lifecycle trace bus: structured spans with bounded-memory sinks.

The bus is the observability layer's event spine.  Engines emit structured
:class:`TraceEvent` records at lifecycle boundaries — ``arrive`` →
``admit``/``shed`` → ``route`` → ``queue`` → ``select`` →
``switch``/``preempt`` → ``execute`` → ``complete``/``violate`` — plus
control-plane instants (autoscaler ``scale`` events, energy
``powercap_defer`` decisions, telemetry ``alert`` firings).  Everything is
keyed by simulated time; ``dur`` distinguishes spans (> 0) from instants.

The ``switch``/``preempt`` spans exist for latency attribution: a
``switch`` span covers the weight-reload cost charged at the head of the
execute span it precedes, and a ``preempt`` span covers the stall between
two consecutive execute spans of one request (emitted retroactively when
the request is re-dispatched, timed at the previous span's end).  Both are
observation-only — schedules are bit-identical with or without a bus.

Cost model: engines guard every emission behind ``if tracer is not None``,
so a run without a bus pays nothing beyond the pointer check (the golden
parity and overhead-guard tests pin this down).  With a bus attached,
memory stays bounded regardless of stream length: the default
:class:`RingSink` keeps the most recent N events in a ring buffer, and
:class:`JsonlSink` streams every event to disk without retaining any.
Lifecycle *counters* on the bus are exact whatever the sink drops — they
are what the span-conservation invariant (every arrival terminates in
exactly one of ``shed``/``complete``/``violate``) is checked against.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

#: Lifecycle event kinds, in the order a request meets them.
KIND_ARRIVE = "arrive"          # request reached the engine / router
KIND_SHED = "shed"              # admission control rejected it (terminal)
KIND_ROUTE = "route"            # router picked a pool (cluster engine)
KIND_QUEUE = "queue"            # waiting span: arrival -> first dispatch
KIND_SELECT = "select"          # one scheduler decision (batch-select)
KIND_SWITCH = "switch"          # weight-reload span at the head of an execute
KIND_PREEMPT = "preempt"        # stall span: gap between a rid's execute spans
KIND_EXECUTE = "execute"        # span of contiguous layer blocks on one NPU
KIND_COMPLETE = "complete"      # finished within its SLO (terminal)
KIND_VIOLATE = "violate"        # finished past its SLO (terminal)
KIND_SCALE = "scale"            # autoscaler applied a capacity change
KIND_POWERCAP = "powercap_defer"  # powercap scheduler deferred hot work
KIND_ALERT = "alert"            # an alert rule fired on the telemetry grid
KIND_FAULT = "fault"            # injected fault fired (with rid: block killed)
KIND_RECOVER = "recover"        # an injected fault's window ended

#: Kinds that end a request's lifecycle.
TERMINAL_KINDS = (KIND_SHED, KIND_COMPLETE, KIND_VIOLATE)

#: Lane of the single-NPU engine, and the name of ``simulate_multi``'s one pool.
ENGINE_LANE = "engine"


class TraceEvent:
    """One structured trace record.

    Attributes:
        kind: Lifecycle kind (one of the ``KIND_*`` constants).
        time: Simulated start time, seconds.
        dur: Span duration in seconds; 0.0 for instant events.
        pool: Lane (pool name, or ``"engine"`` for the flat engines).
        npu: Accelerator id within the lane; -1 when not NPU-bound.
        rid: Request id; -1 for control-plane events.
        args: Extra structured payload (model key, queue depth, ...).
    """

    __slots__ = ("kind", "time", "dur", "pool", "npu", "rid", "args")

    def __init__(self, kind: str, time: float, dur: float = 0.0,
                 pool: str = ENGINE_LANE, npu: int = -1, rid: int = -1,
                 args: Optional[Dict] = None):
        self.kind = kind
        self.time = time
        self.dur = dur
        self.pool = pool
        self.npu = npu
        self.rid = rid
        self.args = args

    def to_dict(self) -> Dict:
        """JSON-friendly flat dict (the JSONL streaming record)."""
        out: Dict = {
            "kind": self.kind,
            "time": self.time,
            "dur": self.dur,
            "pool": self.pool,
            "npu": self.npu,
            "rid": self.rid,
        }
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent({self.kind!r}, t={self.time:.6f}, "
                f"dur={self.dur:.6f}, {self.pool}/{self.npu}, rid={self.rid})")


class RingSink:
    """Bounded ring buffer: keeps the most recent ``capacity`` events."""

    def __init__(self, capacity: int = 1 << 20):
        if capacity < 1:
            raise ObservabilityError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self._ring.append(event)

    def close(self) -> None:
        """Nothing to flush; kept for sink-interface symmetry."""

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._ring)


class ListSink:
    """Unbounded list sink (tests and short interactive runs)."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


class JsonlSink:
    """Streaming sink: one JSON object per line, nothing retained.

    Suitable for arbitrarily long replays — memory stays flat because every
    event is serialized and forgotten.  The file is line-buffered JSONL;
    :func:`read_jsonl` loads it back into :class:`TraceEvent` objects.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w")
        self.count = 0

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True))
        self._fh.write("\n")
        self.count += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __len__(self) -> int:
        return self.count


def iter_jsonl(path) -> Iterator[TraceEvent]:
    """Stream a :class:`JsonlSink` file as trace events, one at a time.

    Bounded memory: each line is parsed, yielded and forgotten — the
    substrate for folding arbitrarily long recorded traces into ledgers
    and summaries without loading the file.

    A torn tail — a malformed final line with no trailing newline, as a
    writer killed mid-line leaves behind — is dropped after the events
    before it.  Any other malformed line, or an unreadable path, raises
    :class:`~repro.errors.ObservabilityError` naming ``path:line``.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ObservabilityError(f"{path}: cannot read trace: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                event = TraceEvent(
                    row["kind"], row["time"], row.get("dur", 0.0),
                    row.get("pool", ENGINE_LANE), row.get("npu", -1),
                    row.get("rid", -1), row.get("args"),
                )
            except (ValueError, KeyError, TypeError) as exc:
                if not raw.endswith(b"\n"):
                    return  # torn tail
                raise ObservabilityError(
                    f"{path}:{lineno}: malformed trace event: {exc!r}"
                ) from None
            yield event


def read_jsonl(path) -> List[TraceEvent]:
    """Load a :class:`JsonlSink` file back into trace events."""
    return list(iter_jsonl(path))


def summarize_jsonl(path) -> Dict[str, int]:
    """Per-kind event counts of a recorded trace, streamed line by line.

    Never holds more than one event in memory, so it summarizes traces of
    any length.  Feed the result to :func:`conservation_verdict` for the
    span-conservation check.
    """
    counts: Dict[str, int] = {}
    for event in iter_jsonl(path):
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def conservation_verdict(counts: Dict[str, int]) -> Tuple[bool, int, int]:
    """``(ok, arrivals, terminals)`` of a per-kind count table."""
    arrivals = counts.get(KIND_ARRIVE, 0)
    terminals = sum(counts.get(kind, 0) for kind in TERMINAL_KINDS)
    return arrivals == terminals, arrivals, terminals


class TraceBus:
    """Fan-out point for trace events, with exact lifecycle counters.

    Engines call the one hot method :meth:`emit`; it constructs the event
    and hands it to every sink.  ``counts`` tallies events per kind exactly
    (independent of sink capacity), which is what span conservation is
    verified against after a run.
    """

    def __init__(self, sinks: Optional[Sequence] = None, *,
                 capacity: int = 1 << 20):
        self.sinks = list(sinks) if sinks is not None else [RingSink(capacity)]
        self.counts: Dict[str, int] = {}

    def emit(self, kind: str, time: float, dur: float = 0.0,
             pool: str = ENGINE_LANE, npu: int = -1, rid: int = -1,
             args: Optional[Dict] = None) -> None:
        """Record one event (the only method on the engines' hot path)."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        event = TraceEvent(kind, time, dur, pool, npu, rid, args)
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        """Flush/close every sink (JSONL files in particular)."""
        for sink in self.sinks:
            sink.close()

    # -- post-run inspection -------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """Events retained by the first retaining sink (ring/list order)."""
        for sink in self.sinks:
            if hasattr(sink, "events"):
                return list(sink.events)
        return []

    @property
    def total_events(self) -> int:
        """Exact number of events emitted (whatever the sinks retained)."""
        return sum(self.counts.values())

    @property
    def num_arrivals(self) -> int:
        return self.counts.get(KIND_ARRIVE, 0)

    @property
    def num_terminals(self) -> int:
        return sum(self.counts.get(kind, 0) for kind in TERMINAL_KINDS)

    def check_conservation(self) -> None:
        """Raise unless every arrival ended in exactly one terminal span.

        This is the structural invariant of the lifecycle instrumentation:
        requests may not vanish (a missing terminal) or double-finish (an
        extra one).  Counter-based, so it holds even when a bounded sink
        dropped the early events of a long replay.
        """
        if self.num_arrivals != self.num_terminals:
            raise ObservabilityError(
                f"span conservation violated: {self.num_arrivals} arrivals "
                f"vs {self.num_terminals} terminal spans ({self.counts})"
            )


def filter_events(events: Iterable[TraceEvent], kind: str) -> List[TraceEvent]:
    """The subset of ``events`` of one kind, in emission order."""
    return [e for e in events if e.kind == kind]
