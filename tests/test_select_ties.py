"""Exact score ties: every selection path breaks them like the scalar spec.

The queue holds clones of one request that differ only in rid (and, in the
second case, in arrival), so every row ties on the primary score and the
winner is decided by each policy's tie-break columns alone.  Rows are added
in descending rid order, where a path that kept the first of equal rows
would pick the wrong one, and in a shuffled order where keeping the last
would.  Four paths must agree for every incremental policy:

* the scalar ``select`` (the spec);
* ``select_batch`` at the default gates: on these shallow queues, the list
  kernel ``inc_best`` over every row;
* the numpy kernel ``np_scores`` (``incremental=False``,
  ``numpy_min_queue=0``);
* the selection cache (``inc_min_queue=0``): a full scan, then lookups
  answered from the ladder through ``inc_best``.
"""

import pytest

from repro.schedulers.base import available_schedulers, make_scheduler
from repro.sim.ready_queue import ReadyQueue

from conftest import make_request
from test_incremental_select import INCREMENTAL

#: Queue orders of the same six rids.
ORDERS = {
    "descending": (106, 105, 104, 103, 102, 101),
    "shuffled": (103, 102, 101, 106, 104, 105),
}
#: Mixed arrivals per rid: the earliest (0.0) is shared by rids 104 and
#: 102, neither of them the smallest rid.
MIXED_ARRIVALS = {106: 0.25, 105: 0.5, 104: 0.0, 103: 0.25, 102: 0.0, 101: 0.5}
ALL_TIED = dict.fromkeys(MIXED_ARRIVALS, 0.0)

#: Policies whose score reads the deadline (arrival + slo): their clones
#: share one deadline, so mixed arrivals still tie on score.
DEADLINE_SCORED = ("dysta", "dysta_nosparse", "dysta_switchaware", "oracle")

#: Policies that rank by arrival before rid.
ARRIVAL_FIRST = ("sjf", "fcfs", "energy_edp")

NOW = 0.75


def scheduler_for(name, lut, **attrs):
    kwargs = {"switch_cost": 0.002} if name == "dysta_switchaware" else {}
    sched = make_scheduler(name, lut, **kwargs)
    for attr, value in attrs.items():
        setattr(sched, attr, value)
    sched.reset()
    return sched


def clones(name, rids, arrivals):
    requests = []
    for rid in rids:
        arrival = arrivals[rid]
        slo = 1.0 - arrival if name in DEADLINE_SCORED else 1.0
        request = make_request(rid=rid, arrival=arrival, slo=slo)
        request.last_run_end = 0.5  # one waiting time for every clone
        requests.append(request)
    return requests


def bound(name, lut, rids, arrivals, **attrs):
    sched = scheduler_for(name, lut, **attrs)
    queue = ReadyQueue(lut, columns=sched.batch_columns)
    sched.bind_queue(queue)
    for request in clones(name, rids, arrivals):
        queue.add(request)
        sched.on_arrival(request, NOW)
    return sched, queue


def picks_on_every_path(name, lut, rids, arrivals):
    """Selected rid per path: (spec, list kernel, numpy kernel, cache)."""
    spec = scheduler_for(name, lut)
    requests = clones(name, rids, arrivals)
    for request in requests:
        spec.on_arrival(request, NOW)
    picks = [spec.select(requests, NOW).rid]

    sched, queue = bound(name, lut, rids, arrivals)
    assert len(queue) < min(sched.inc_min_queue, sched.numpy_min_queue)
    picks.append(sched.select_batch(queue, NOW).rid)
    assert sched._cache.num_scans == sched._cache.num_hits == 0

    sched, queue = bound(name, lut, rids, arrivals,
                         incremental=False, numpy_min_queue=0)
    assert sched._cache is None
    picks.append(sched.select_batch(queue, NOW).rid)

    sched, queue = bound(name, lut, rids, arrivals, inc_min_queue=0)
    cache = sched._cache
    cached = [sched.select_batch(queue, NOW).rid]
    cached += [cache.lookup(NOW).rid for _ in range(2)]
    assert cache.num_scans >= 1 and cache.num_hits >= 1
    assert len(set(cached)) == 1, cached
    picks.append(cached[0])
    return picks


def test_covers_every_incremental_policy(toy_lut):
    incremental = {name for name in available_schedulers()
                   if make_scheduler(name, toy_lut).supports_incremental}
    assert incremental == set(INCREMENTAL)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", INCREMENTAL)
def test_all_rows_tied(toy_lut, name, order):
    picks = picks_on_every_path(name, toy_lut, ORDERS[order], ALL_TIED)
    assert picks == [101] * 4


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", INCREMENTAL)
def test_score_tied_with_mixed_arrivals(toy_lut, name, order):
    picks = picks_on_every_path(name, toy_lut, ORDERS[order], MIXED_ARRIVALS)
    assert picks == [102 if name in ARRIVAL_FIRST else 101] * 4
