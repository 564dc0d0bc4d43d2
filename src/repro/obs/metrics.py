"""Metrics registry and simulated-time telemetry sampling.

The registry holds three instrument kinds:

* :class:`Counter` — monotone event tallies (completions, violations,
  sheds);
* :class:`Gauge` — point-in-time values read through a callable at sample
  time (queue depth, pool occupancy, metered watts);
* :class:`Histogram` — bounded-memory value distributions, reusing the
  log-bucket :class:`~repro.cluster.metrics.StreamingHistogram`.

:class:`Telemetry` turns the registry into a deterministic time-series: it
samples every instrument on a fixed **simulated-time** cadence.  Engines
call :meth:`Telemetry.poll` with the current simulated time before applying
each event; because simulation state is piecewise-constant between events,
sampling at every crossed cadence point with the pre-event state yields one
exact, reproducible row per point — the same numbers whatever wall-clock
speed, host, or sweep worker count produced them (tested bit-identical
across worker counts).  The series exports to CSV or JSON and is the
substrate a live serving gateway would stream.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from typing import Callable, Dict, List, Optional, Union

from repro.errors import ObservabilityError

_EPS = 1e-9

_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_SIGN = 1 << 63


def _float_key(x: float) -> int:
    """An integer that orders like the float ``x``, one apart for adjacent
    floats (both zeros map to 0)."""
    (bits,) = _BITS.unpack(_DOUBLE.pack(x))
    return bits if bits < _SIGN else _SIGN - bits


def _key_float(key: int) -> float:
    """The float whose :func:`_float_key` is ``key``."""
    return _DOUBLE.unpack(_BITS.pack(key if key >= 0 else _SIGN - key))[0]


def earliest_reaching(target: float, eps: float) -> float:
    """The least float ``t`` with ``t + eps >= target``.

    ``t + eps < target`` then holds exactly when ``t`` is below the result,
    which ``target - eps`` alone does not promise (both sums round).
    """
    if target == math.inf:
        return target
    t = target - eps
    if t + eps >= target:
        if math.nextafter(t, -math.inf) + eps < target:
            return t
    elif (up := math.nextafter(t, math.inf)) + eps >= target:
        return up
    # ``t`` lies in a lower binade than the result, where floats are
    # denser (near zero, and far denser, when ``target`` is near ``eps``):
    # bracket the result with doubling steps over consecutive floats,
    # then bisect.

    def reaches(key: int) -> bool:
        return _key_float(key) + eps >= target

    lo = hi = _float_key(t)
    step = 1
    if reaches(hi):
        while reaches(lo):
            hi, lo = lo, lo - step
            step *= 2
    else:
        while not reaches(hi):
            lo, hi = hi, hi + step
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return _key_float(hi)


class Counter:
    """Monotone event tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Point-in-time value, read at sample time.

    Backed either by a callable (pulled at each sample) or by an explicit
    :meth:`set` value (pushed by the instrumented code).
    """

    __slots__ = ("name", "_fn", "_value")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def read(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """Bounded-memory distribution (log-bucket streaming histogram)."""

    __slots__ = ("name", "_hist", "_sum")

    def __init__(self, name: str):
        # Imported lazily: repro.cluster's package import reaches the
        # engines, which import repro.obs — a module-level import here
        # would close that cycle.
        from repro.cluster.metrics import StreamingHistogram

        self.name = name
        self._hist = StreamingHistogram()
        self._sum = 0.0

    def observe(self, value: float) -> None:
        self._hist.observe(value)
        self._sum += value

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else float("nan")

    def percentile(self, pct: float) -> float:
        return self._hist.percentile(pct)


class MetricsRegistry:
    """Named instruments, created on first use and listed deterministically."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            inst._fn = fn
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._histograms[name] = Histogram(name)
        return inst

    def _check_free(self, name: str) -> None:
        if (name in self._counters or name in self._gauges
                or name in self._histograms):
            raise ObservabilityError(
                f"metric {name!r} already registered under another kind"
            )

    def names(self) -> List[str]:
        """All instrument names, sorted (the telemetry column order)."""
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def snapshot(self) -> Dict[str, float]:
        """Current value of every instrument, by sorted name.

        Counters report their tally, gauges their current read, histograms
        their observation count (distribution detail stays queryable on the
        instrument itself).
        """
        out: Dict[str, float] = {}
        for name in self.names():
            if name in self._counters:
                out[name] = float(self._counters[name].value)
            elif name in self._gauges:
                out[name] = self._gauges[name].read()
            else:
                out[name] = float(self._histograms[name].count)
        return out


class Telemetry:
    """Fixed-cadence time-series sampler over a :class:`MetricsRegistry`.

    ``poll(now)`` records one row per cadence point in ``(last, now]`` —
    state is piecewise-constant between simulation events, so sampling with
    the pre-event state at every crossed point is exact.  ``finish(now)``
    closes the series with a final row at the last crossed point (engines
    call it with the makespan).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 interval: float = 1.0):
        if interval <= 0:
            raise ObservabilityError(
                f"telemetry interval must be positive, got {interval}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.interval = interval
        self.reset()

    def reset(self) -> None:
        self._next = 0.0
        #: The earliest simulated time at which :meth:`poll` samples a row,
        #: kept in step with the next grid point.
        self.next_poll_time = earliest_reaching(0.0, _EPS)
        self.times: List[float] = []
        self.rows: List[Dict[str, float]] = []

    def poll(self, now: float) -> None:
        """Sample every cadence point that ``now`` has reached or passed."""
        while self._next <= now + _EPS:
            self.times.append(self._next)
            self.rows.append(self.registry.snapshot())
            # Multiples of the interval, not repeated addition: keeps the
            # sample grid exact (no float drift) and thus bit-identical
            # across runs that poll at different event times.
            self._next = self.interval * len(self.times)
            self.next_poll_time = earliest_reaching(self._next, _EPS)

    def finish(self, now: float) -> None:
        """Flush the remaining cadence points up to ``now`` (makespan)."""
        self.poll(now)

    # -- exports -------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return len(self.times)

    def columns(self) -> List[str]:
        """Deterministic column order: time first, then sorted metrics."""
        names = set()
        for row in self.rows:
            names.update(row)
        return ["t"] + sorted(names)

    def to_table(self, *, nan_as_none: bool = False) -> Dict[str, List[float]]:
        """Column-oriented dict (the sweep store's per-cell format).

        Cells a metric never reported (a column registered mid-run) backfill
        as NaN; with ``nan_as_none`` they become ``None`` instead, which is
        what the JSON exports use — bare ``NaN`` is not valid strict JSON.
        """
        missing = None if nan_as_none else math.nan
        columns = self.columns()
        out: Dict[str, List[float]] = {name: [] for name in columns}
        for t, row in zip(self.times, self.rows):
            out["t"].append(t)
            for name in columns[1:]:
                out[name].append(row.get(name, missing))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_table(nan_as_none=True), sort_keys=True,
                          allow_nan=False)

    def write_csv(self, path) -> str:
        """Write the series as CSV (one row per sample point).

        Missing cells are written as empty fields, which
        :func:`read_telemetry_csv` maps back to NaN — an exact round-trip
        of :meth:`to_table`.
        """
        columns = self.columns()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for t, row in zip(self.times, self.rows):
                values = [repr(t)]
                for name in columns[1:]:
                    value = row.get(name)
                    values.append("" if value is None or value != value
                                  else repr(value))
                writer.writerow(values)
        return str(path)

    def write_json(self, path) -> str:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_table(nan_as_none=True), indent=2,
                                sort_keys=True, allow_nan=False))
            fh.write("\n")
        return str(path)


def read_telemetry_csv(path) -> Dict[str, List[float]]:
    """Load a :meth:`Telemetry.write_csv` file back into columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        out: Dict[str, List[float]] = {name: [] for name in header}
        for row in reader:
            for name, value in zip(header, row):
                out[name].append(math.nan if value == "" else float(value))
    return out
