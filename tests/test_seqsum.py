"""Simulated outputs must not depend on the interpreter's ``sum()``.

From Python 3.12 on, ``sum()`` of floats uses Neumaier-compensated
summation; up to 3.11 it adds left to right.  :func:`sum_312` below ports
CPython 3.12's ``builtin_sum_impl``, so a run under it stands in for a run
on 3.12 whatever interpreter runs the tests.
"""

import builtins
import math

import pytest

from repro.profiling.profiler import benchmark_suite
from repro.scenarios.runner import SweepConfig, _run_cell
from repro.schedulers.base import make_scheduler
from repro.core.lut import ModelInfoLUT
from repro.seqsum import seqsum
from repro.sim.engine import simulate
from repro.sim.workload import WorkloadSpec, generate_workload


def sum_312(iterable, /, start=0):
    """CPython 3.12's ``sum()``: exact int path, compensated float path."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -2 ** 63 <= item < 2 ** 63:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


def test_port_compensates_and_seqsum_does_not():
    values = [1e16, 1.0, -1e16]
    assert sum_312(values) == 1.0
    assert seqsum(values) == (1e16 + 1.0) - 1e16 == 0.0
    assert sum_312([0.1, 0.2, 0.3]) == 0.6
    assert seqsum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3 != 0.6
    assert seqsum([]) == 0 and sum_312([1, True, 2]) == 4


def _outputs():
    """A faulted, autoscaled, energy-metered cluster cell per scheduler and
    seed, and one single-engine run."""
    config = SweepConfig(
        scenarios=("flash_crowd",), schedulers=("dysta", "energy_edp"),
        seeds=(0, 1, 2), duration=4.0, n_profile_samples=30,
        engine="cluster", pool_size=2, autoscale="reactive",
        max_queue_depth=64, energy=True, telemetry_interval=1.0,
        faults="chaos",
    )
    out = {}
    for scheduler in config.schedulers:
        for seed in config.seeds:
            out[scheduler, seed] = _run_cell(("flash_crowd", scheduler, seed, config))
    traces = benchmark_suite("attnn", n_samples=30, seed=0)
    requests = generate_workload(traces, WorkloadSpec(30.0, n_requests=300, seed=1))
    result = simulate(requests, make_scheduler("dysta", ModelInfoLUT(traces)))
    out["simulate"] = (result.metrics, [r.finish_time for r in result.requests])
    return out


def test_outputs_are_the_same_under_python_312_sum(monkeypatch):
    as_is = _outputs()
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "sum", sum_312)
        under_312 = _outputs()
    for key, value in as_is.items():
        assert under_312[key] == value, key
