"""Seeded randomized lockstep parity for the incremental selection layer.

Two instances of the same policy are driven through one randomized
arrival / run-a-block / remove / requeue op sequence on two separate ready
queues.  One instance keeps the selection cache (``incremental=True`` with
``inc_min_queue=0`` so the cache engages at any depth); the other disables
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
"""

import random

import pytest

from repro.schedulers.base import make_scheduler
from repro.sim.ready_queue import ReadyQueue
from repro.sim.workload import WorkloadSpec, generate_workload

from conftest import make_request

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

#: Batch-converted policies that opt out of the cache; the harness runs
#: them too so the opt-out path is exercised by the same sequences.
OPTED_OUT = ("prema", "sdrm3")


class Lane:
    """One scheduler + ready-queue pair fed the shared op sequence."""

    def __init__(self, name, lut, incremental):
        kwargs = {"switch_cost": 0.002} if name == "dysta_switchaware" else {}
        self.sched = make_scheduler(name, lut, **kwargs)
        self.sched.incremental = incremental
        self.sched.inc_min_queue = 0  # engage the cache at any depth
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
        nl = chosen.next_layer
        dt = chosen.layer_latencies[nl]
        end = now + dt
        chosen.next_layer = nl + 1
        chosen.executed_time += dt
        chosen.last_run_end = end
        if chosen.is_done:
            self.queue.forget(chosen.rid)
            self.sched.on_layer_complete(chosen, end)
            chosen.finish_time = end
            self.sched.on_complete(chosen, end)
        else:
            self.queue.add(chosen)
            self.sched.on_layer_complete(chosen, end)
        return dt

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
        # sometimes — otherwise the test only compared two full scans —
        # and some of those answers scored only the changed rows.
        assert cache.num_hits > cache.num_changed_hits > 0
        assert cache.num_scans > 0  # and rebuilt when the journal overflowed

    @pytest.mark.parametrize("name", OPTED_OUT)
    def test_opted_out_policies_survive_the_same_sequences(
            self, toy_traces, toy_lut, name):
        lane = lockstep(name, toy_lut, toy_traces, seed=3)
        assert lane.sched._cache is None  # opt-out respected


class TestChangedRows:
    @pytest.mark.parametrize("name", INCREMENTAL)
    def test_grown_queue_falls_back(self, toy_lut, name):
        # The runner-up bound S holds only while the queue is no larger
        # than when S was taken: Dysta's waiting penalty shrinks as the
        # queue grows.  A lookup after an arrival must not use it.  One
        # short request among long ones wins on every policy's primary
        # score, with no tie for S to break.
        def requests():
            short = [make_request(rid=0, arrival=0.0, slo=0.01)]
            return short + [
                make_request(rid=rid, model="long", arrival=0.001 * rid,
                             slo=0.1 + 0.01 * rid, latencies=(0.01,) * 3,
                             sparsities=(0.3,) * 3)
                for rid in range(1, 13)
            ]

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
        assert (cache.num_scans, cache.num_changed_hits) == (1, 1)
        for lane, workload in zip(lanes, workloads):
            lane.arrive(workload[-1], now)
        chosen = cache.lookup(now)
        assert cache.num_changed_hits == 1
        assert chosen.rid == lanes[1].sched.select_batch(lanes[1].queue, now).rid


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
        # With the default inc_min_queue, a shallow queue never consults
        # the cache: the tight scalar loop is cheaper there.
        sched = make_scheduler("dysta", toy_lut)
        sched.reset()
        queue = ReadyQueue(toy_lut, columns=sched.batch_columns)
        sched.bind_queue(queue)
        spec = WorkloadSpec(50.0, n_requests=10, slo_multiplier=5.0, seed=0)
        for req in generate_workload(toy_traces, spec):
            queue.add(req)
            sched.on_arrival(req, req.arrival)
        assert len(queue) < sched.inc_min_queue
        sched.select_batch(queue, 1.0)
        cache = sched._cache
        assert cache is not None and cache.num_hits == 0 and cache.num_scans == 0
