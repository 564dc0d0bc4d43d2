"""Shared configuration for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
(Sec 6).  Default scale is reduced so the whole suite runs in minutes; set
``REPRO_BENCH_FULL=1`` for the paper's full scale (1000 requests, 5 seeds,
complete sweeps).
"""

from __future__ import annotations

import os

FULL = os.environ.get("REPRO_BENCH_FULL") == "1"

#: Requests per workload (paper: 1000).
N_REQUESTS = 1000 if FULL else 500
#: Random seeds per metric (paper: 5).
SEEDS = tuple(range(5)) if FULL else (0, 1, 2)
#: Profiling samples per (model, pattern) pair.
N_PROFILE = 500 if FULL else 300

#: Sweep grids (Figs 14/15); paper grids in comments.
SLO_MULTIPLIERS = (10, 30, 50, 70, 90, 110, 130, 150) if FULL else (10, 50, 100, 150)
ATTNN_RATES = (10, 15, 20, 25, 30, 35, 40) if FULL else (10, 20, 30, 40)
CNN_RATES = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0) if FULL else (2.0, 3.0, 4.0, 6.0)


def count_select(scheduler):
    """Count calls to ``scheduler``'s scalar spec ``select``; returns the
    list the calls are appended to.

    A converted policy makes every decision through its kernels, so the
    count must stay at 0: a policy that silently fell back to its spec
    would still produce the right schedule.
    """
    calls = []
    spec = scheduler.select

    def counting(queue, now):
        calls.append(now)
        return spec(queue, now)

    scheduler.select = counting
    return calls


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic end-to-end simulations; re-running
    them for statistical timing would multiply minutes of work for no
    measurement benefit.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
