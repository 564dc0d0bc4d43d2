"""Outside-in layer tracing: wraps ``repro``'s public functions from here.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
each layer's public entry points (class methods, and module functions in
every loaded ``repro`` module that holds them) with timing wrappers, and
restores the originals on :meth:`Tracer.uninstall`.  Each wrapped call is
one span: layer name, start, end and the span that caused it.  Spans stay
in memory (up to ``SPAN_CAP``) and are written out once, at the end of a
run.

A layer never nests inside itself: a subclass method calling
``super()`` of the same layer, or ``generate_workload`` draining the
wrapped ``iter_workload``, counts as one call.  A layer's self time is
its inclusive time minus the time of the child spans inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Spans kept in memory per run; later spans are counted, not kept.
SPAN_CAP = 100_000


class LayerStats:
    """Counts and host seconds of one layer's wrapped calls."""

    __slots__ = ("calls", "incl_s", "child_s", "active", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.child_s = 0.0
        self.active = False
        #: Layer-specific counts (queue depth sum, sheds, scale events).
        self.extra: Dict[str, float] = {}

    @property
    def self_s(self) -> float:
        return self.incl_s - self.child_s

    def add_extra(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


class _TracedIterator:
    """An iterator whose every ``next()`` is one span of a layer."""

    def __init__(self, traced_next: Callable):
        self._next = traced_next

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        return self._next()


def _queue_depth(stats: LayerStats, args: tuple) -> None:
    stats.add_extra("depth_sum", len(args[1]))


def _count_shed(stats: LayerStats, result) -> None:
    if result is not None:
        stats.add_extra("shed", 1)


def _count_scale_events(stats: LayerStats, result) -> None:
    stats.add_extra("scale_events", len(result))


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def _targets() -> List[Tuple]:
    """``(layer, owner, attribute, on_call, on_result)`` for every wrap.

    ``owner`` is a class (the attribute is replaced on it) or a module (the
    function is replaced in every loaded ``repro`` module holding it).
    """
    import repro
    import repro.energy
    import repro.obs.alerts
    import repro.profiling.profiler
    import repro.scenarios.spec
    import repro.sim.engine
    import repro.sim.workload
    import repro.warehouse
    from repro.cluster import AdmissionController, Autoscaler, Pool, Router
    from repro.cluster import engine as cluster_engine
    from repro.core.lut import ModelInfoLUT
    from repro.energy import EnergyAccountant
    from repro.obs import RequestLedger, Telemetry, TraceBus
    from repro.schedulers import Scheduler
    from repro.sim.ready_queue import ReadyQueue
    from repro.sim.select_cache import SelectionCache
    from repro.warehouse import Warehouse

    repro.available_schedulers()  # registers every built-in policy class
    out: List[Tuple] = [
        ("profiling.suite", repro.profiling.profiler, "benchmark_suite", None, None),
        ("core.lut", ModelInfoLUT, "__init__", None, None),
        ("energy.lut", EnergyAccountant, "from_model_lut", None, None),
        ("sim.workload.gen", repro.sim.workload, "iter_workload", None, None),
        ("sim.workload.gen", repro.sim.workload, "generate_workload", None, None),
        ("scenarios.gen", repro.scenarios.spec, "generate_scenario", None, None),
        ("sim.engine", repro.sim.engine, "simulate", None, None),
        ("cluster.engine", cluster_engine, "simulate_cluster", None, None),
        ("cluster.pool.dispatch", Pool, "dispatch", None, None),
        ("cluster.pool.complete", Pool, "complete_block", None, None),
        ("cluster.admission.admit", AdmissionController, "admit", None, _count_shed),
        ("cluster.autoscale.tick", Autoscaler, "tick", None, _count_scale_events),
        ("faults.fail", Pool, "fail_accelerators", None, None),
        ("select_cache.lookup", SelectionCache, "lookup", None, None),
        ("energy.account", EnergyAccountant, "block_energy", None, None),
        ("energy.account", EnergyAccountant, "request_energy", None, None),
        ("energy.account", EnergyAccountant, "switch_energy", None, None),
        ("obs.emit", TraceBus, "emit", None, None),
        ("obs.ledger", RequestLedger, "emit", None, None),
        ("obs.telemetry", Telemetry, "poll", None, None),
        ("obs.telemetry", Telemetry, "finish", None, None),
        ("obs.alerts", repro.obs.alerts, "evaluate_alerts", None, None),
        ("warehouse.append", Warehouse, "append", None, None),
        ("warehouse.append", Warehouse, "record_cost", None, None),
        ("warehouse.seal", Warehouse, "seal_tail", None, None),
        ("warehouse.read", Warehouse, "read_cells", None, None),
        ("warehouse.read", Warehouse, "verify", None, None),
        ("warehouse.read", Warehouse, "fingerprint", None, None),
        ("warehouse.read", repro.warehouse.query, "aggregate", None, None),
        ("warehouse.read", repro.warehouse.regress, "build_baseline", None, None),
        ("warehouse.read", repro.warehouse.regress, "compare", None, None),
    ]
    # ``append = add`` is a separate class attribute, and Dysta-style queues
    # bind ``_update_progress_lre_only`` as their ``update_progress``.
    for attr in ("add", "append", "remove", "update_progress",
                 "_update_progress_lre_only"):
        out.append(("ready_queue", ReadyQueue, attr, None, None))
    for cls in _subclasses(Scheduler):
        for attr in ("select", "select_single", "select_batch"):
            if attr in vars(cls):
                out.append(("schedulers.select", cls, attr, _queue_depth, None))
        if "inc_full_scan" in vars(cls):
            out.append(("select_cache.scan", cls, "inc_full_scan", None, None))
    for cls in _subclasses(Router):
        if "route" in vars(cls):
            out.append(("cluster.routing.route", cls, "route", None, None))
        for attr in ("note_enqueue", "note_progress", "note_complete"):
            if attr in vars(cls):
                out.append(("cluster.routing.track", cls, attr, None, None))
    return out


def _replace_function(module, name: str, replacement) -> List[Tuple]:
    """Point every loaded ``repro`` module's reference to ``module.name``
    at ``replacement``; returns the ``(module, name, original)`` undo list."""
    original = getattr(module, name)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


class Tracer:
    """Span recorder over the wrapped layer entry points."""

    def __init__(self):
        self.stats: Dict[str, LayerStats] = {}
        #: Host seconds inside top-level spans (spans with no parent).
        self.root_s = 0.0
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.num_spans = 0
        self._stack: List[List] = []  # [span id, child seconds]
        self._undo: List[Tuple] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        stats = self.stats.setdefault(layer, LayerStats())
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            if stats.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(stats, args)
            span_id = tracer.num_spans
            tracer.num_spans = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            stats.active = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stats.active = False
                stack.pop()
                d = t1 - t0
                stats.calls += 1
                stats.incl_s += d
                stats.child_s += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += d
                    parent_id = parent[0]
                else:
                    tracer.root_s += d
                    parent_id = -1
                if span_id < SPAN_CAP:
                    spans.append((span_id, parent_id, layer, t0, t1))
            if on_result is not None:
                on_result(stats, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_generator(self, layer: str, gen_fn: Callable) -> Callable:
        stats = self.stats.setdefault(layer, LayerStats())
        wrap = self.wrap

        def traced_gen(*args, **kwargs):
            if stats.active:  # drained inside an enclosing span of the layer
                return gen_fn(*args, **kwargs)
            return _TracedIterator(wrap(layer, gen_fn(*args, **kwargs).__next__))

        return functools.wraps(gen_fn)(traced_gen)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per install/uninstall)."""
        if self._undo:
            return
        for layer, owner, attr, on_call, on_result in _targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(layer, raw.__func__, on_call, on_result))
                else:
                    new = self.wrap(layer, raw, on_call, on_result)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
            else:
                fn = getattr(owner, attr)
                if inspect.isgeneratorfunction(fn):
                    new = self._wrap_generator(layer, fn)
                else:
                    new = self.wrap(layer, fn, on_call, on_result)
                self._undo.extend(_replace_function(owner, attr, new))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Zero the counters and spans (the wrappers stay installed)."""
        for stats in self.stats.values():
            stats.calls, stats.incl_s, stats.child_s = 0, 0.0, 0.0
            stats.extra = {}
        self.root_s = 0.0
        self.spans.clear()
        self.num_spans = 0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": s.calls, "incl_s": s.incl_s, "self_s": s.self_s, **s.extra}
            for name, s in self.stats.items()
        }

    def write_spans(self, path, meta: Dict) -> None:
        """One JSON header line, then one ``[id, parent, layer, t0, t1]`` per span."""
        with open(path, "w") as fh:
            header = dict(meta, spans_kept=len(self.spans),
                          spans_total=self.num_spans, span_cap=SPAN_CAP)
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def stop_at_first_engine_call(marker: Callable[[], None]) -> None:
    """Make the first call into a simulation engine run ``marker`` and raise
    :class:`EngineReached` (set-up probes end there)."""
    import repro.sim.engine
    from repro.cluster import engine as cluster_engine

    def hook(*args, **kwargs):
        marker()
        raise EngineReached()

    _replace_function(repro.sim.engine, "simulate", hook)
    _replace_function(cluster_engine, "simulate_cluster", hook)


class EngineReached(BaseException):
    """Raised by the set-up probe's hook at the first engine call.

    A ``BaseException``, so the sweep runner's per-cell ``except Exception``
    lets it through."""


def merge(snapshots: List[Dict[str, Dict[str, float]]], scales: List[float]
          ) -> Dict[str, Dict[str, float]]:
    """Sum layer snapshots, each multiplied by its scale factor."""
    out: Dict[str, Dict[str, float]] = {}
    for snap, factor in zip(snapshots, scales):
        for layer, fields in snap.items():
            acc = out.setdefault(layer, {})
            for key, value in fields.items():
                acc[key] = acc.get(key, 0.0) + value * factor
    return out
