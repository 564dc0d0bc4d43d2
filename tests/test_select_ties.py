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
* the selection cache (``numpy_min_queue=0``): a full scan, then lookups.
  A winner tied with an untouched row never clears the cache's strict
  runner-up bound, so these lookups scan again (dysta_switchaware's
  switch cost separates the resident from its clones);
  :func:`test_changed_rows_decide_among_tied_rows` checks the list kernel
  deciding a cache hit among tied rows instead.

Planaria and SDRM3 have no cache, so their ties are checked on the first
three paths: SDRM3's clones, and both policies' exact ties on given
deadlines (Planaria's equal slack, a request exactly on the feasibility
boundary and a queue with no feasible request; SDRM3's urgency clamped at
its cap).
"""

import math

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
DEADLINE_SCORED = ("dysta", "dysta_nosparse", "dysta_switchaware", "oracle",
                   "sdrm3")

#: Policies whose clone ties are checked: the incremental ones, and SDRM3
#: on its kernels without a cache.
CLONE_TIED = INCREMENTAL + ("sdrm3",)

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


def clones(name, rids, arrivals, last_run_end=0.5):
    requests = []
    for rid in rids:
        arrival = arrivals[rid]
        slo = 1.0 - arrival if name in DEADLINE_SCORED else 1.0
        request = make_request(rid=rid, arrival=arrival, slo=slo)
        request.last_run_end = last_run_end  # one waiting time for every clone
        requests.append(request)
    return requests


def admit(sched, queue, requests):
    for request in requests:
        queue.add(request)
        sched.on_arrival(request, NOW)


def bound(name, lut, rids, arrivals, **attrs):
    sched = scheduler_for(name, lut, **attrs)
    queue = ReadyQueue(lut, columns=sched.batch_columns)
    sched.bind_queue(queue)
    admit(sched, queue, clones(name, rids, arrivals))
    return sched, queue


def picks_on_every_path(name, lut, rids, arrivals):
    """Selected rid per path: (spec, list kernel, numpy kernel, cache); a
    policy without a cache stops after the numpy kernel."""
    spec = scheduler_for(name, lut)
    requests = clones(name, rids, arrivals)
    for request in requests:
        spec.on_arrival(request, NOW)
    picks = [spec.select(requests, NOW).rid]

    sched, queue = bound(name, lut, rids, arrivals)
    assert len(queue) < sched.numpy_min_queue
    picks.append(sched.select_batch(queue, NOW).rid)
    cache = sched._cache
    assert cache is None or cache.num_scans == cache.num_hits == 0

    sched, queue = bound(name, lut, rids, arrivals,
                         incremental=False, numpy_min_queue=0)
    assert sched._cache is None
    picks.append(sched.select_batch(queue, NOW).rid)
    if not sched.supports_incremental:
        return picks

    sched, queue = bound(name, lut, rids, arrivals, numpy_min_queue=0)
    cache = sched._cache
    cached = [sched.select_batch(queue, NOW).rid]
    cached += [cache.lookup(NOW).rid for _ in range(2)]
    assert cache.num_scans >= 2
    assert len(set(cached)) == 1, cached
    picks.append(cached[0])
    return picks


def test_covers_every_incremental_policy(toy_lut):
    incremental = {name for name in available_schedulers()
                   if make_scheduler(name, toy_lut).supports_incremental}
    assert incremental == set(INCREMENTAL)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", CLONE_TIED)
def test_all_rows_tied(toy_lut, name, order):
    picks = picks_on_every_path(name, toy_lut, ORDERS[order], ALL_TIED)
    assert picks == [101] * (4 if name in INCREMENTAL else 3)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", CLONE_TIED)
def test_score_tied_with_mixed_arrivals(toy_lut, name, order):
    picks = picks_on_every_path(name, toy_lut, ORDERS[order], MIXED_ARRIVALS)
    expected = 102 if name in ARRIVAL_FIRST else 101
    assert picks == [expected] * (4 if name in INCREMENTAL else 3)


@pytest.mark.parametrize("arrivals", (ALL_TIED, MIXED_ARRIVALS),
                         ids=("all_tied", "mixed_arrivals"))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", INCREMENTAL)
def test_changed_rows_decide_among_tied_rows(toy_lut, name, order, arrivals):
    # The clones arrive after a full scan over long requests that arrived
    # later, so they are changed rows strictly below every untouched row:
    # the cache answers from them, and the list kernel breaks their tie.
    sched = scheduler_for(name, toy_lut, numpy_min_queue=0)
    queue = ReadyQueue(toy_lut, columns=sched.batch_columns)
    sched.bind_queue(queue)
    slo = 0.4 if name in DEADLINE_SCORED else 1.0  # deadline 1.0 as the clones'
    longs = [make_request(rid=rid, model="long", arrival=0.6, slo=slo,
                          latencies=(0.01,) * 3, sparsities=(0.3,) * 3)
             for rid in range(1, 13)]
    admit(sched, queue, longs)
    cache = sched._cache
    winner = cache.lookup(NOW)  # the full scan
    # Six untouched long rows leave, so the queue is no larger than at the
    # scan (the Dysta family's penalty shrinks as the queue grows).
    for request in [r for r in longs if r is not winner][:6]:
        queue.remove(request)
    # No waiting time: the clones' penalty must not outweigh their short
    # remaining time on the Dysta family.
    tied = clones(name, ORDERS[order], arrivals, last_run_end=NOW)
    admit(sched, queue, tied)
    chosen = cache.lookup(NOW)
    assert (cache.num_scans, cache.num_hits) == (1, 1)
    spec = scheduler_for(name, toy_lut)
    live = list(queue)
    for request in live:
        spec.on_arrival(request, NOW)
    expected = 102 if name in ARRIVAL_FIRST and arrivals is MIXED_ARRIVALS else 101
    assert chosen.rid == spec.select(live, NOW).rid == expected


# -- Uncached policies on given deadlines -------------------------------------


def requests_due(deadlines):
    """One ``short`` request per ``rid: deadline`` (all arrive at 0.0)."""
    requests = []
    for rid, deadline in deadlines.items():
        request = make_request(rid=rid, arrival=0.0, slo=deadline)
        assert request.deadline == deadline
        requests.append(request)
    return requests


def due_picks(name, toy_lut, deadlines, order):
    """Selected rid per path: (spec, list kernel, numpy kernel)."""
    picks = [make_scheduler(name, toy_lut).select(
        requests_due(deadlines), NOW).rid]
    for attrs in ({}, {"numpy_min_queue": 0}):
        sched = scheduler_for(name, toy_lut, **attrs)
        queue = ReadyQueue(toy_lut, columns=sched.batch_columns)
        sched.bind_queue(queue)
        assert sched._cache is None
        by_rid = {r.rid: r for r in requests_due(deadlines)}
        for rid in order:
            queue.add(by_rid[rid])
        picks.append(sched.select_batch(queue, NOW).rid)
    return picks


def planaria_picks(toy_lut, deadlines, order):
    """Planaria: the lexicographic minimum of (infeasible, slack, rid)."""
    return due_picks("planaria", toy_lut, deadlines, order)


def short_remaining(toy_lut):
    request = make_request()
    return make_scheduler("planaria", toy_lut).estimated_remaining(request)


@pytest.mark.parametrize("order", ORDERS)
def test_planaria_equal_slack_breaks_on_rid(toy_lut, order):
    # Every row is feasible with one slack; a later deadline pair loses.
    rem = short_remaining(toy_lut)
    deadlines = dict.fromkeys(ORDERS[order], NOW + rem + 0.5)
    deadlines[101] = deadlines[102] = NOW + rem + 0.75
    assert planaria_picks(toy_lut, deadlines, ORDERS[order]) == [103] * 3


@pytest.mark.parametrize("order", ORDERS)
def test_planaria_feasibility_boundary(toy_lut, order):
    # ``now + rem == deadline`` is feasible, so 104 beats 103, which misses
    # by one ulp and has the least slack; 105 and 106 are feasible with
    # more slack, 101 and 102 are far past their deadlines.
    rem = short_remaining(toy_lut)
    boundary = NOW + rem
    deadlines = {104: boundary, 103: math.nextafter(boundary, 0.0),
                 105: boundary + 0.25, 106: boundary + 0.25,
                 101: 0.125, 102: 0.125}
    assert NOW + rem <= deadlines[104]
    assert not NOW + rem <= deadlines[103]
    assert deadlines[103] - NOW - rem < deadlines[104] - NOW - rem
    assert planaria_picks(toy_lut, deadlines, ORDERS[order]) == [104] * 3


@pytest.mark.parametrize("order", ORDERS)
def test_planaria_every_request_infeasible(toy_lut, order):
    # No feasible row: the least slack wins, ties on rid.
    rem = short_remaining(toy_lut)
    deadlines = {106: 0.25, 105: 0.125, 104: 0.125, 103: 0.5,
                 102: 0.25, 101: 0.375}
    assert all(not NOW + rem <= d for d in deadlines.values())
    assert planaria_picks(toy_lut, deadlines, ORDERS[order]) == [104] * 3


@pytest.mark.parametrize("order", ORDERS)
def test_sdrm3_clamped_urgency_breaks_on_rid(toy_lut, order):
    # Urgency is capped at 10 past the deadline and when remaining work
    # exceeds ten windows, so these four rows tie on MapScore (every row
    # has the same fairness) and the smallest rid among them, 102, wins;
    # 103 and 101 have time left and score lower.
    rem = short_remaining(toy_lut)
    deadlines = {106: 0.5, 105: NOW, 104: NOW + rem / 20, 103: NOW + rem,
                 102: 0.125, 101: NOW + 1.0}
    sdrm3 = make_scheduler("sdrm3", toy_lut)
    urgency = {r.rid: sdrm3._urgency(r, NOW) for r in requests_due(deadlines)}
    assert [rid for rid, u in urgency.items() if u == 10.0] == [106, 105, 104, 102]
    assert due_picks("sdrm3", toy_lut, deadlines, ORDERS[order]) == [102] * 3
