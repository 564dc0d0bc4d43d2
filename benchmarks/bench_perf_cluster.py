"""Performance benchmark: streaming cluster replay at datacenter scale.

Replays a large Poisson request stream through the heterogeneous cluster
tier (eyeriss + sanger pools, mixed attnn+cnn traffic) with
``retain_requests=False``: requests are generated lazily by
:func:`~repro.sim.workload.iter_workload`, folded into streaming metrics on
completion, and dropped — so the replay runs in bounded memory no matter how
long the stream is.  This is the perf-trajectory baseline for the ROADMAP's
"100k requests in single-digit minutes" target; `repro perf` records the
measured wall-clock into BENCH_perf.json.

Default scale is 20k requests so the bench suite stays quick;
``REPRO_BENCH_FULL=1`` runs the full 100k stream and
``REPRO_BENCH_SMOKE=1`` shrinks it to a CI-sized smoke that still asserts
the vectorized fast path, the pools' in-place decisions and their
same-accelerator block continuation, and selection-cache hits engaged.
"""

import os

from repro.cluster import Pool, build_heterogeneous_world, build_router, simulate_cluster
from repro.schedulers.base import make_scheduler
from repro.sim.workload import WorkloadSpec, iter_workload

from _config import FULL, count_select, once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_REQUESTS = 2_000 if SMOKE else (100_000 if FULL else 20_000)
N_SAMPLES = 40 if SMOKE else 200
RATE = 12.0


def _world():
    traces, lut, affinity = build_heterogeneous_world(n_samples=N_SAMPLES)
    return traces, lut, affinity


def _pools(lut, affinity, scheduler="dysta"):
    return [
        Pool("eyeriss", make_scheduler(scheduler, lut), 2,
             affinity=affinity["cnn"]),
        Pool("sanger", make_scheduler(scheduler, lut), 2,
             affinity=affinity["attnn"]),
    ]


def _stream(traces, seed=0):
    spec = WorkloadSpec(RATE, n_requests=N_REQUESTS, slo_multiplier=10.0,
                        seed=seed)
    return iter_workload(traces, spec)


def _replay(traces, lut, affinity, router_name):
    pools = _pools(lut, affinity)
    spec_calls = [count_select(pool.scheduler) for pool in pools]
    result = simulate_cluster(
        _stream(traces),
        pools,
        build_router(router_name, lut),
        retain_requests=False,
    )
    # Streaming mode must not retain request objects (bounded memory) ...
    assert result.requests == [] and result.shed_requests == []
    # ... must serve the whole stream ...
    assert result.num_completed == N_REQUESTS
    # ... and must run on the vectorized fast path (no decision falls back
    # to the scalar spec ``select``), deciding settled block boundaries in
    # place (continuing lone requests on the same accelerator when a pool
    # drains) and answering selections from the cache's changed rows when
    # the previous winner still wins.
    assert not any(spec_calls)
    assert result.num_in_place_blocks > 0
    assert result.num_continued_blocks > 0
    assert sum(pool.scheduler._cache.num_hits for pool in pools) > 0
    return result


def bench_perf_cluster_stream_jsq(benchmark):
    """Join-shortest-queue routing over the streaming replay."""
    traces, lut, affinity = _world()
    result = once(benchmark, lambda: _replay(traces, lut, affinity, "jsq"))
    assert result.metrics["antt"] >= 1.0


def bench_perf_cluster_stream_predictive(benchmark):
    """Predictive (heterogeneity-priced) routing over the streaming replay."""
    traces, lut, affinity = _world()
    result = once(benchmark, lambda: _replay(traces, lut, affinity, "predictive"))
    assert result.metrics["antt"] >= 1.0
