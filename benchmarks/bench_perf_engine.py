"""Performance benchmarks of the simulation infrastructure itself.

Unlike the experiment benches (which reproduce paper figures and run once),
these measure wall-clock throughput of the hot paths with real statistical
rounds — regression guards for the simulator.

``REPRO_BENCH_SMOKE=1`` switches to a single-round smoke mode sized for CI:
it still asserts that every decision came from the policy's kernels (its
scalar spec ``select`` is never called, as
``tests/test_batch_equivalence.py::test_converted_policies_never_call_select``
checks on the toy world), that the shallow runs stay on the ready queue's
lists (``num_vectorized == 0`` below ``numpy_min_queue``) and that the
deep-queue run fills its numpy columns (``num_vectorized > 0``).
"""

import os

from repro.core.lut import ModelInfoLUT
from repro.models.registry import build_model
from repro.profiling.profiler import benchmark_suite, profile_model
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate, simulate_reference
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.sparsity.patterns import DENSE

from _config import count_select

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
ROUNDS = 1 if SMOKE else 5
N_REQUESTS = 60 if SMOKE else 200
N_SAMPLES = 40 if SMOKE else 100


def _fresh_workload(traces, n=N_REQUESTS, seed=0):
    spec = WorkloadSpec(30.0, n_requests=n, slo_multiplier=10.0, seed=seed)
    return generate_workload(traces, spec)


def _assert_list_only(result, scheduler):
    """A shallow run never reads a numpy column, so the ready queue never
    copies its lists into them (the depth check keeps this from passing
    vacuously)."""
    assert result.max_queue_length < scheduler.numpy_min_queue
    assert scheduler._bound.num_vectorized == 0


def bench_perf_profiling_throughput(benchmark):
    """Phase-1 speed: profile BERT x 200 samples (vectorized cost model)."""
    model = build_model("bert")

    def run():
        return profile_model(model, DENSE, n_samples=200, seed=1)

    trace = benchmark(run)
    assert trace.num_samples == 200


def bench_perf_engine_dysta(benchmark):
    """Phase-2 speed: Dysta on the vectorized fast path (~14k decisions)."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)
    spec_calls = []

    def setup():
        sched = make_scheduler("dysta", lut)
        spec_calls.append(count_select(sched))
        return (_fresh_workload(traces), sched), {}

    def run(requests, scheduler):
        return simulate(requests, scheduler), scheduler

    result, sched = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == N_REQUESTS
    assert spec_calls and not any(spec_calls)
    _assert_list_only(result, sched)


def bench_perf_engine_dysta_scalar(benchmark):
    """The list-queue reference loop on the same workload (speedup
    denominator)."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)

    def setup():
        return (_fresh_workload(traces), make_scheduler("dysta", lut)), {}

    def run(requests, scheduler):
        return simulate_reference(requests, scheduler)

    result = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == N_REQUESTS


def bench_perf_engine_fcfs(benchmark):
    """Phase-2 baseline speed: FCFS has the cheapest select path."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)
    spec_calls = []

    def setup():
        sched = make_scheduler("fcfs", lut)
        spec_calls.append(count_select(sched))
        return (_fresh_workload(traces), sched), {}

    def run(requests, scheduler):
        return simulate(requests, scheduler), scheduler

    result, sched = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == N_REQUESTS
    assert spec_calls and not any(spec_calls)
    _assert_list_only(result, sched)


def bench_perf_engine_deep_queue(benchmark):
    """Overload regime (queues of hundreds): the numpy scoring path."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)
    n = 120 if SMOKE else 400
    spec_calls = []

    def setup():
        spec = WorkloadSpec(120.0, n_requests=n, slo_multiplier=10.0, seed=1)
        sched = make_scheduler("dysta", lut)
        spec_calls.append(count_select(sched))
        return (generate_workload(traces, spec), sched), {}

    def run(requests, scheduler):
        return simulate(requests, scheduler), scheduler

    result, sched = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == n
    assert spec_calls and not any(spec_calls)
    assert result.max_queue_length > 32  # deep enough to exercise numpy
    assert sched._bound.num_vectorized > 0
