"""Seeded randomized lockstep parity for the incremental selection layer.

Two instances of the same policy are driven through one randomized
arrival / run-a-block / remove / requeue op sequence on two separate ready
queues.  One instance keeps the selection cache (``incremental=True`` with
``numpy_min_queue=0`` so the cache engages at any depth); the other disables
it (``incremental=False``), which is the brute-force full re-scan batch
path.  After every op the harness probes ``select_batch`` on both and
asserts the selected rid matches — the cache must be decision-invisible at
every step, not just on engine-shaped workloads.

The op mix deliberately includes the queue motions the caches must survive:

* ``arrive``  — admit the next workload request (journal add),
* ``run``     — select, park with ``remove(requeue=True)``, execute one layer
  block, then re-admit (or complete) — the multi-accelerator dispatch shape,
* ``drop``    — remove a random resident request outright (cluster
  rebalance / migration out),
* ``return``  — re-admit a previously dropped request (migration in).

:class:`TestRandomOps` drives the same two-lane comparison from op
sequences that hypothesis draws and shrinks, with several requests running
at once, bursts past the journal cap and resident switches.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lut import ModelInfoLUT
from repro.schedulers.base import Scheduler, make_scheduler
from repro.sim.engine import simulate
from repro.sim.ready_queue import ReadyQueue
from repro.sim.select_cache import JOURNAL_CAP
from repro.sim.workload import WorkloadSpec, generate_workload

from conftest import build_trace, make_request

#: Policies with an incremental select (cache on by default).
INCREMENTAL = (
    "dysta",
    "dysta_nosparse",
    "dysta_switchaware",
    "dysta_static",
    "sjf",
    "fcfs",
    "oracle",
    "energy_edp",
)

#: Incremental policies whose score carries Dysta's waiting penalty
#: ``eta*(wait/iso)/n``, which shrinks as the queue grows
#: (``inc_decay_rate > 0``); the others have static keys.
PENALTY_BEARING = ("dysta", "dysta_nosparse", "dysta_switchaware", "oracle")
STATIC_KEY = tuple(name for name in INCREMENTAL if name not in PENALTY_BEARING)

#: Policies whose selection depends on the resident request or weights.
RESIDENT_AWARE = ("dysta_switchaware", "energy_edp")

#: Batch-converted policies that opt out of the cache; the harness runs
#: them too so the opt-out path is exercised by the same sequences.
OPTED_OUT = ("prema", "sdrm3")


class Lane:
    """One scheduler + ready-queue pair fed the shared op sequence."""

    def __init__(self, name, lut, incremental):
        kwargs = {"switch_cost": 0.002} if name == "dysta_switchaware" else {}
        self.sched = make_scheduler(name, lut, **kwargs)
        self.sched.incremental = incremental
        if incremental and self.sched.supports_incremental:
            self.sched.numpy_min_queue = 0  # engage the cache at any depth
        self.sched.reset()
        self.queue = ReadyQueue(lut, columns=self.sched.batch_columns)
        self.sched.bind_queue(self.queue)
        self.limbo = []  # dropped requests awaiting re-admission

    def arrive(self, request, now):
        self.queue.add(request)
        self.sched.on_arrival(request, now)

    def run_block(self, chosen, now):
        """Execute one layer of ``chosen`` the way the multi-NPU engines do:
        park with ``remove(requeue=True)``, advance, re-admit or complete."""
        self.queue.remove(chosen, requeue=True)
        dt = chosen.layer_latencies[chosen.next_layer]
        self.finish_layer(chosen, now + dt)
        return dt

    def finish_layer(self, request, end):
        """Advance a parked ``request`` by one layer ending at ``end``, then
        re-admit it or complete it."""
        nl = request.next_layer
        request.next_layer = nl + 1
        request.executed_time += request.layer_latencies[nl]
        request.last_run_end = end
        if request.is_done:
            self.queue.forget(request.rid)
            self.sched.on_layer_complete(request, end)
            request.finish_time = end
            self.sched.on_complete(request, end)
        else:
            self.queue.add(request)
            self.sched.on_layer_complete(request, end)

    def drop(self, idx):
        request = self.queue[idx]
        self.queue.remove(request)
        self.limbo.append(request)
        return request.rid

    def readmit(self, now):
        request = self.limbo.pop(0)
        self.queue.add(request)
        self.sched.on_arrival(request, now)
        return request.rid


def lockstep(name, lut, traces, seed, n_requests=140, rate=400.0, ops=400):
    """Drive both lanes through one shared random op sequence."""
    spec = WorkloadSpec(rate, n_requests=n_requests, slo_multiplier=5.0,
                        seed=seed)
    lanes = [
        Lane(name, lut, incremental=True),
        Lane(name, lut, incremental=False),
    ]
    # Each lane owns its request objects (selection mutates per-request
    # state); seeded generation makes the two copies identical.
    workloads = [generate_workload(traces, spec) for _ in lanes]
    rng = random.Random(seed)
    now = 0.0
    next_i = 0
    probes = 0
    for _ in range(ops):
        n = len(lanes[0].queue)
        choices = []
        if next_i < n_requests:
            choices += ["arrive"] * 4
        if n:
            choices += ["run"] * 4 + ["drop"]
        if lanes[0].limbo:
            choices += ["return"]
        if not choices:
            break
        op = rng.choice(choices)

        if op == "arrive":
            now = max(now, workloads[0][next_i].arrival)
            for lane, workload in zip(lanes, workloads):
                lane.arrive(workload[next_i], now)
            next_i += 1
        elif op == "run":
            if n == 1:
                picks = [lane.queue[0] for lane in lanes]
            else:
                picks = [lane.sched.select_batch(lane.queue, now)
                         for lane in lanes]
                probes += 1
            assert picks[0].rid == picks[1].rid, (
                f"{name}: incremental selected r{picks[0].rid}, "
                f"brute force r{picks[1].rid} at t={now:.6f} depth={n}"
            )
            dts = [lane.run_block(pick, now)
                   for lane, pick in zip(lanes, picks)]
            assert dts[0] == dts[1]
            now += dts[0]
        elif op == "drop":
            idx = rng.randrange(n)
            rids = [lane.drop(idx) for lane in lanes]
            assert rids[0] == rids[1]
        else:  # return
            rids = [lane.readmit(now) for lane in lanes]
            assert rids[0] == rids[1]

        # The core invariant: after ANY queue motion the cached selection
        # must match a brute-force full re-scan.
        if len(lanes[0].queue) >= 2:
            picks = [lane.sched.select_batch(lane.queue, now)
                     for lane in lanes]
            probes += 1
            assert picks[0].rid == picks[1].rid, (
                f"{name}: post-{op} probe diverged at t={now:.6f}: "
                f"r{picks[0].rid} vs r{picks[1].rid}"
            )
    assert probes > 50  # the sequence actually exercised selection
    return lanes[0]


class TestLockstepParity:
    @pytest.mark.parametrize("seed", (1, 7))
    @pytest.mark.parametrize("name", INCREMENTAL)
    def test_cache_matches_brute_force(self, toy_traces, toy_lut, name, seed):
        lane = lockstep(name, toy_lut, toy_traces, seed)
        cache = lane.sched._cache
        assert cache is not None
        # The cache must have answered without a full scan at least
        # sometimes — otherwise the test only compared two full scans.
        assert cache.num_hits > 0
        assert cache.num_scans > 0  # and rescanned when the journal overflowed

    @pytest.mark.parametrize("name", OPTED_OUT)
    def test_opted_out_policies_survive_the_same_sequences(
            self, toy_traces, toy_lut, name):
        lane = lockstep(name, toy_lut, toy_traces, seed=3)
        assert lane.sched._cache is None  # opt-out respected


class TestChangedRows:
    def test_penalty_bearing_policies_decay(self, toy_lut):
        assert {name for name in INCREMENTAL
                if make_scheduler(name, toy_lut).inc_decay_rate > 0
                } == set(PENALTY_BEARING)

    @staticmethod
    def after_arrival(toy_lut, name, arrival_wins):
        """A full scan, a lookup that scores only the winner, then one
        arrival; returns the cache and the (cached, brute-force) rids of
        the lookup after the arrival.

        One short request among long ones wins on every policy's primary
        score, with no tie for S to break.  The arrival is a long request,
        or, with ``arrival_wins``, a short one that arrived earlier with a
        tighter SLO and a layer already run: the best row on every policy.
        """
        def requests():
            rows = [make_request(rid=0, arrival=0.0, slo=0.01)]
            rows += [
                make_request(rid=rid, model="long", arrival=0.001 * rid,
                             slo=0.1 + 0.01 * rid, latencies=(0.01,) * 3,
                             sparsities=(0.3,) * 3)
                for rid in range(1, 13)
            ]
            if arrival_wins:
                late = make_request(rid=13, arrival=-0.001, slo=0.005)
                late.next_layer = 1
                late.executed_time = late.layer_latencies[0]
                late.last_run_end = 0.02
                rows[-1] = late
            return rows

        lanes = [Lane(name, toy_lut, incremental=True),
                 Lane(name, toy_lut, incremental=False)]
        workloads = [requests() for _ in lanes]
        now = 0.02
        for lane, workload in zip(lanes, workloads):
            for request in workload[:-1]:
                lane.arrive(request, now)
        cache = lanes[0].sched._cache
        winner = cache.lookup(now)  # full scan
        assert cache.lookup(now) is winner  # only the winner is scored
        assert (cache.num_scans, cache.num_hits) == (1, 1)
        for lane, workload in zip(lanes, workloads):
            lane.arrive(workload[-1], now)
        chosen = cache.lookup(now)
        return cache, (chosen.rid,
                       lanes[1].sched.select_batch(lanes[1].queue, now).rid)

    @pytest.mark.parametrize("name", PENALTY_BEARING)
    def test_grown_queue_falls_back(self, toy_lut, name):
        # For these the runner-up bound S holds only while the queue is no
        # larger than when S was taken: Dysta's waiting penalty shrinks as
        # the queue grows.  A lookup after an arrival must not use it.
        for arrival_wins in (False, True):
            cache, picks = self.after_arrival(toy_lut, name, arrival_wins)
            assert (cache.num_scans, cache.num_hits) == (2, 1)
            assert picks[0] == picks[1]

    @pytest.mark.parametrize("name", STATIC_KEY)
    def test_grown_queue_scores_the_arrival(self, toy_lut, name):
        # A static key does not depend on queue size, so S still bounds
        # every untouched row and the arrival is scored as a changed row.
        for arrival_wins in (False, True):
            cache, picks = self.after_arrival(toy_lut, name, arrival_wins)
            assert (cache.num_scans, cache.num_hits) == (1, 2)
            assert picks[0] == picks[1] == (13 if arrival_wins else 0)

    @pytest.mark.parametrize("name", ("dysta", "dysta_nosparse"))
    def test_bound_decays_with_time(self, name):
        # The winner's slack is clamped at a missed deadline, so its score
        # stays put while the runner-up's slack keeps falling: half a
        # second later the runner-up is the better row, and only S's
        # decay term makes the lookup scan instead of accepting the
        # winner.  The runner-up's long isolated latency keeps its growing
        # waiting penalty from offsetting the fall.
        traces = [
            build_trace("quick", "dense", [[0.001] * 4] * 2, [[0.5] * 4] * 2),
            build_trace("huge", "dense", [[0.99, 0.01]] * 2, [[0.3] * 2] * 2),
        ]
        lut = ModelInfoLUT({trace.key: trace for trace in traces})

        def requests(t0):
            # The winner: a slow sample of "quick" whose deadline passed.
            winner = make_request(rid=0, model="quick", slo=0.001,
                                  latencies=(0.5,) * 4, sparsities=(0.5,) * 4)
            # The runner-up: a "huge" request with its long layer run.
            runner_up = make_request(rid=1, model="huge", slo=0.75,
                                     latencies=(0.99, 0.01),
                                     sparsities=(0.3, 0.3))
            runner_up.next_layer = 1
            runner_up.executed_time = 0.99
            for request in (winner, runner_up):
                request.last_run_end = t0
            return winner, runner_up

        t0, t1 = 1.0, 1.5
        lanes = [Lane(name, lut, incremental=True),
                 Lane(name, lut, incremental=False)]
        rows = [requests(t0) for _ in lanes]
        for lane, pair in zip(lanes, rows):
            for request in pair:
                lane.arrive(request, t0)
        cache = lanes[0].sched._cache
        assert cache.lookup(t0) is rows[0][0]  # full scan
        for lane, (winner, _) in zip(lanes, rows):
            lane.queue.remove(winner, requeue=True)
            lane.finish_layer(winner, t1)
        assert cache.lookup(t1) is rows[0][1]
        assert lanes[1].sched.select_batch(lanes[1].queue, t1) is rows[1][1]
        assert (cache.num_scans, cache.num_hits) == (2, 0)

    def test_resident_switch_rescans(self, toy_lut):
        # Making the untouched runner-up resident drops its switch cost, so
        # it overtakes the previous winner, and S, taken under the old
        # resident, no longer bounds it: the guard must force a scan.
        def requests():
            return [make_request(rid=0, slo=0.1),
                    make_request(rid=1, slo=0.15),  # eta*0.05 < switch cost
                    make_request(rid=2, model="long", slo=0.2,
                                 latencies=(0.01,) * 3, sparsities=(0.3,) * 3)]

        now = 0.01
        lanes = [Lane("dysta_switchaware", toy_lut, incremental=True),
                 Lane("dysta_switchaware", toy_lut, incremental=False)]
        workloads = [requests() for _ in lanes]
        for lane, workload in zip(lanes, workloads):
            for request in workload:
                lane.arrive(request, now)
        # Cold scan, a scan under resident r0 (the guard changed), a hit.
        for _ in range(3):
            assert [lane.sched.select_batch(lane.queue, now).rid
                    for lane in lanes] == [0, 0]
        cache = lanes[0].sched._cache
        assert (cache.num_scans, cache.num_hits) == (2, 1)
        for lane, workload in zip(lanes, workloads):
            lane.sched.select_single((workload[1],), now)
        assert [lane.sched.select_batch(lane.queue, now).rid
                for lane in lanes] == [1, 1]
        assert (cache.num_scans, cache.num_hits) == (3, 1)

    def test_zero_switch_cost_keeps_dysta_scans(self, toy_traces, toy_lut):
        # At switch cost 0 no score depends on the resident, so a new
        # resident must not force a scan: dysta_switchaware then makes
        # dysta's decisions with dysta's scans.
        def run(name):
            sched = make_scheduler(name, toy_lut)
            sched.numpy_min_queue = 0
            spec = WorkloadSpec(150.0, n_requests=120, slo_multiplier=5.0)
            result = simulate(generate_workload(toy_traces, spec), sched)
            return [(r.rid, r.finish_time) for r in result.requests], sched._cache

        plain, plain_cache = run("dysta")
        aware, aware_cache = run("dysta_switchaware")
        assert aware == plain
        assert aware_cache.num_scans == plain_cache.num_scans
        assert aware_cache.num_hits == plain_cache.num_hits > 0


#: Random op sequences for :class:`TestRandomOps`, on a millisecond grid so
#: that exact score ties are common.
_MS = st.integers(0, 20).map(lambda k: k * 0.001)
#: (model, age at arrival, SLO) of an admitted request.
_ADMIT = st.tuples(st.sampled_from(("short", "long")), _MS,
                   st.integers(1, 20).map(lambda k: k * 0.01))
_ARRIVE = st.tuples(st.just("arrive"), _ADMIT)
_FINISH = st.tuples(st.just("finish"), st.integers(0, 2))
#: Branches drawn more than once come up more often: block boundaries
#: dominate a run.
_OP = st.one_of(
    _ARRIVE,
    _ARRIVE,
    # Up to 0.1 s: long enough for deadlines to pass.
    st.tuples(st.just("wait"), _MS.map(lambda t: 5 * t)),
    st.just(("dispatch",)),
    _FINISH,
    _FINISH,
    _FINISH,
    st.just(("probe",)),
    st.tuples(st.just("switch"), st.integers(0, 63)),
    # JOURNAL_CAP + 1 arrivals at once (one, on a queue that deep).
    st.tuples(st.just("burst"), _ADMIT),
)
#: Requests running at once (parked rows), as on a three-NPU pool.
_NPUS = 3


def _admitted(rid, admit, now):
    model, age, slo = admit
    if model == "long":
        return make_request(rid=rid, model="long", arrival=now - age, slo=slo,
                            latencies=(0.01,) * 3, sparsities=(0.3,) * 3)
    return make_request(rid=rid, arrival=now - age, slo=slo)


class TestRandomOps:
    """Hypothesis-drawn op sequences: at every decision the cached lane
    (whose ``select_batch`` is a ``SelectionCache.lookup``) must pick what
    its ``incremental=False`` twin picks.

    The ops:

    * ``arrive`` one request, or a ``burst`` past ``JOURNAL_CAP``;
    * ``wait``: the clock moves on;
    * ``dispatch``: an idle accelerator (of ``_NPUS``) decides and parks
      its pick;
    * ``finish``: a running request finishes a layer and is requeued with
      its progress or completes, and its accelerator decides again;
    * ``probe``: a lookup that decides nothing, the cache alone against a
      brute-force scan (no resident update);
    * ``switch``: for the resident-aware policies, a resident switch
      through ``select_single`` (the pool's continuation).

    Half the examples probe after every op, as the lockstep harness does;
    the rest only at probe ops, so lookups also meet journals that several
    ops filled.
    """

    @pytest.mark.parametrize("name", INCREMENTAL)
    @given(ops=st.lists(_OP, min_size=30, max_size=100), probe_all=st.booleans())
    # The LUT fixture is read-only, so sharing it across examples is safe.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lookup_matches_brute_force(self, toy_lut, name, ops, probe_all):
        lanes = [Lane(name, toy_lut, incremental=True),
                 Lane(name, toy_lut, incremental=False)]
        cap = JOURNAL_CAP
        running = ([], [])

        def decide(now):
            picks = [lane.sched.select_batch(lane.queue, now) for lane in lanes]
            assert picks[0].rid == picks[1].rid, (
                f"{name}: cached r{picks[0].rid}, brute force "
                f"r{picks[1].rid} at t={now:.3f} depth={len(lanes[0].queue)}"
            )
            for lane, pick, run in zip(lanes, picks, running):
                lane.queue.remove(pick, requeue=True)
                run.append(pick)

        now = 1.0
        rid = 0
        for op in ops:
            kind = op[0]
            n = len(lanes[0].queue)
            if kind in ("arrive", "burst"):
                burst = kind == "burst" and n < cap
                for _ in range(cap + 1 if burst else 1):
                    for lane in lanes:
                        lane.arrive(_admitted(rid, op[1], now), now)
                    rid += 1
                if burst:
                    assert len(lanes[0].queue._journal) > cap
            elif kind == "wait":
                now += op[1]
            elif kind == "dispatch":
                if n and len(running[0]) < _NPUS:
                    decide(now)
            elif kind == "finish":
                if running[0]:
                    slot = op[1] % len(running[0])
                    for lane, run in zip(lanes, running):
                        lane.finish_layer(run.pop(slot), now)
                    if len(lanes[0].queue):
                        decide(now)
            elif kind == "switch" and name in RESIDENT_AWARE and n:
                for lane in lanes:
                    lane.sched.select_single((lane.queue[op[1] % n],), now)
            if (probe_all or kind == "probe") and len(lanes[0].queue):
                twin = lanes[1]
                assert lanes[0].sched._cache.lookup(now).rid == \
                    Scheduler.select_batch(twin.sched, twin.queue, now).rid


class TestOptOuts:
    def test_fp16_dysta_disables_the_cache(self, toy_lut):
        sched = make_scheduler("dysta", toy_lut, score_dtype="fp16")
        queue = ReadyQueue(toy_lut, columns=sched.batch_columns)
        sched.bind_queue(queue)
        # FP16 score quantization breaks the decay bound the acceptance
        # test relies on, so the fp16 mode opts out instance-wide.
        assert sched._cache is None

    def test_master_switch_disables_the_cache(self, toy_lut):
        sched = make_scheduler("dysta", toy_lut)
        sched.incremental = False
        queue = ReadyQueue(toy_lut, columns=sched.batch_columns)
        sched.bind_queue(queue)
        assert sched._cache is None

    def test_depth_gate_bypasses_cache_on_shallow_queues(
            self, toy_traces, toy_lut):
        # With the default numpy_min_queue, a shallow queue never consults
        # the cache: the tight scalar loop is cheaper there.
        sched = make_scheduler("dysta", toy_lut)
        sched.reset()
        queue = ReadyQueue(toy_lut, columns=sched.batch_columns)
        sched.bind_queue(queue)
        spec = WorkloadSpec(50.0, n_requests=10, slo_multiplier=5.0, seed=0)
        for req in generate_workload(toy_traces, spec):
            queue.add(req)
            sched.on_arrival(req, req.arrival)
        assert len(queue) < sched.numpy_min_queue
        sched.select_batch(queue, 1.0)
        cache = sched._cache
        assert cache is not None and cache.num_hits == 0 and cache.num_scans == 0
