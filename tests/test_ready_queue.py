"""Unit tests for the array-backed ready queue (vectorized scheduling core)."""

import numpy as np
import pytest

from repro.core.lut import ModelInfoLUT
from repro.errors import SchedulingError
from repro.sim.ready_queue import KNOWN_COLUMNS, ReadyQueue, np_lexmin

from conftest import make_request


def rq(toy_lut, columns=("arrival", "deadline", "est_isolated", "est_remaining",
                         "true_remaining", "last_run_end", "executed_time",
                         "priority", "true_isolated")):
    return ReadyQueue(toy_lut, columns=columns, capacity=4)


class TestBasics:
    def test_unknown_column_rejected(self, toy_lut):
        with pytest.raises(SchedulingError, match="unknown ready-queue column"):
            ReadyQueue(toy_lut, columns=("bogus",))

    def test_sequence_protocol(self, toy_lut):
        q = rq(toy_lut)
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(3)]
        for r in reqs:
            q.add(r)
        assert len(q) == 3
        assert list(q) == reqs
        assert q[0] is reqs[0]
        assert all(r in q for r in reqs)
        # membership is identity-based: an equal-looking stranger is absent
        assert make_request(rid=1, arrival=1.0) not in q

    def test_columns_mirror_request_state(self, toy_lut):
        q = rq(toy_lut)
        r = make_request(rid=7, arrival=2.0, slo=3.0)
        i = q.add(r)
        q.vectorize()
        assert q.np_rid[i] == 7 and q.ls_rid[i] == 7
        assert q.np_arrival[i] == 2.0
        assert q.np_deadline[i] == r.deadline
        assert q.np_true_isolated[i] == r.isolated_latency
        assert q.np_true_remaining[i] == r.true_remaining
        entry = r.lut_entry(toy_lut)
        assert q.np_est_isolated[i] == entry.avg_total_latency
        assert q.np_est_remaining[i] == entry.remaining_suffix_t[0]
        # numpy and list mirrors agree
        assert q.ls_est_remaining[i] == q.np_est_remaining[i]


class TestSwapRemove:
    def test_swap_remove_moves_tail_into_hole(self, toy_lut):
        q = rq(toy_lut)
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(4)]
        for r in reqs:
            q.add(r)
        q.remove(reqs[1])
        q.vectorize()
        assert len(q) == 3
        assert reqs[1] not in q
        # The tail (rid 3) took slot 1 in every column.
        assert q[1] is reqs[3]
        assert q.np_rid[1] == 3 and q.ls_rid[1] == 3
        assert q.np_arrival[1] == 3.0 and q.ls_arrival[1] == 3.0
        assert q.index_of(reqs[3]) == 1
        # Remaining entries stay coherent.
        for r in (reqs[0], reqs[2], reqs[3]):
            i = q.index_of(r)
            assert q.np_rid[i] == r.rid
            assert q.np_arrival[i] == r.arrival

    def test_remove_absent_request_rejected(self, toy_lut):
        q = rq(toy_lut)
        q.add(make_request(rid=0))
        with pytest.raises(SchedulingError, match="not in the ready queue"):
            q.remove(make_request(rid=5))

    def test_growth_beyond_initial_capacity(self, toy_lut):
        q = rq(toy_lut)  # capacity 4
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(20)]
        for r in reqs:
            q.add(r)
        q.vectorize()
        assert len(q) == 20
        for r in reqs:
            i = q.index_of(r)
            assert q.np_rid[i] == r.rid
            assert q.ls_arrival[i] == r.arrival


class TestIncrementalUpdate:
    def test_update_progress_refreshes_progress_columns(self, toy_lut):
        q = rq(toy_lut)
        r = make_request(rid=0, latencies=(0.001, 0.002), sparsities=(0.5, 0.5))
        i = q.add(r)
        r.next_layer = 1
        r.executed_time = 0.001
        r.last_run_end = 0.5
        q.update_progress(r)
        q.vectorize()
        entry = r.lut_entry(toy_lut)
        assert q.np_est_remaining[i] == entry.remaining_suffix_t[1]
        assert q.np_true_remaining[i] == r.true_remaining
        assert q.np_last_run_end[i] == 0.5 and q.ls_last_run_end[i] == 0.5
        assert q.np_executed_time[i] == 0.001

    def test_update_progress_ignores_absent_request(self, toy_lut):
        q = rq(toy_lut)
        q.update_progress(make_request(rid=9))  # no-op, no error


class TestAux:
    def test_aux_default_and_point_writes(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 1.5)
        a = q.add(make_request(rid=0))
        b = q.add(make_request(rid=1))
        assert q.aux_list("tokens") == [1.5, 1.5]
        q.aux_set("tokens", b, 9.0)
        assert q.aux_np("tokens")[b] == 9.0
        assert q.aux_list("tokens")[a] == 1.5

    def test_aux_vector_write_syncs_mirror_lazily(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        for i in range(3):
            q.add(make_request(rid=i))
        arr = q.aux_np_writable("tokens")
        arr[:3] += 2.0
        assert q.aux_list("tokens") == [2.0, 2.0, 2.0]

    def test_requeue_stash_survives_remove_readd(self, toy_lut):
        # Multi-accelerator engines remove a running request and re-add it at
        # the block boundary; scheduler aux state must survive the round trip.
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        r = make_request(rid=3)
        i = q.add(r)
        q.aux_set("tokens", i, 7.25)
        q.remove(r, requeue=True)
        assert r not in q
        j = q.add(r)
        assert q.aux_list("tokens")[j] == 7.25

    def test_plain_remove_discards_stash(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        r = make_request(rid=3)
        q.aux_set("tokens", q.add(r), 7.25)
        q.remove(r)  # completion: no stash
        assert q.aux_list("tokens")[q.add(r)] == 0.0

    def test_forget_drops_stash(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        r = make_request(rid=3)
        q.aux_set("tokens", q.add(r), 4.0)
        q.remove(r, requeue=True)
        q.forget(r.rid)
        assert q.aux_list("tokens")[q.add(r)] == 0.0


class _RowModel:
    """Reference semantics of the requeue cycle: a list of rows with
    swap-remove and append, plus a saved row per dispatched rid.

    A row is ``{"req", <column>: value, ..., "aux": {...}}``.
    Re-admitting a saved row keeps its constant columns and aux values and
    recomputes only the progress columns from the request.
    """

    def __init__(self, lut):
        self.lut = lut
        self.rows = []
        self.saved = {}
        self.aux = {"tokens": 0.0, "kid": -1.0}

    def register_aux(self, name, default):
        self.aux[name] = default
        for row in self.rows + list(self.saved.values()):
            row["aux"][name] = default

    def _progress(self, row):
        req = row["req"]
        row["last_run_end"] = req.last_run_end
        row["executed_time"] = req.executed_time
        row["true_remaining"] = req.true_remaining
        row["est_remaining"] = req.lut_entry(self.lut).remaining_suffix_t[req.next_layer]

    def add(self, req):
        row = self.saved.pop(req.rid, None)
        if row is not None:
            row["req"] = req
            self._progress(row)
        else:
            entry = req.lut_entry(self.lut)
            row = {
                "req": req, "rid": req.rid,
                "arrival": req.arrival, "deadline": req.deadline,
                "priority": req.priority,
                "true_isolated": req.isolated_latency,
                "true_remaining": req.true_remaining,
                "last_run_end": req.last_run_end,
                "executed_time": req.executed_time,
                "est_isolated": entry.avg_total_latency,
                "est_remaining": entry.remaining_suffix_t[req.next_layer],
                "aux": dict(self.aux),
            }
        self.rows.append(row)

    def index(self, req):
        for i, row in enumerate(self.rows):
            if row["req"] is req:
                return i
        return -1

    def remove(self, req, requeue=False):
        i = self.index(req)
        row = self.rows[i]
        self.rows[i] = self.rows[-1]
        self.rows.pop()
        if requeue:
            self.saved[req.rid] = row

    def forget(self, rid):
        self.saved.pop(rid, None)


class TestParkedRows:
    """Differential check: parked rows against :class:`_RowModel`, with the
    list mirrors checked after every op and the numpy twins at random steps."""

    _COLS = ("rid",) + KNOWN_COLUMNS

    @staticmethod
    def _slots(q, model):
        """``(slot, model row)`` for every live and parked row."""
        pairs = list(enumerate(model.rows))
        assert q._parked.keys() == model.saved.keys()
        pairs += [(j, model.saved[rid]) for rid, j in q._parked.items()]
        return pairs

    @staticmethod
    def _same(got, want, name):
        np.testing.assert_array_equal(np.array(got, dtype=float),
                                      np.array(want, dtype=float), err_msg=name)

    def check_lists(self, q, model, everyone):
        n = len(model.rows)
        live = [row["req"] for row in model.rows]
        assert len(q) == n
        assert list(q) == live
        assert all(a is b for a, b in zip(q, live))
        for req in everyone:
            i = model.index(req)
            assert (req in q) == (i >= 0)
            assert q.index_of(req) == i
        pairs = self._slots(q, model)
        slots = [j for j, _ in pairs]
        for col in self._COLS:
            ls = getattr(q, f"ls_{col}")
            self._same([ls[j] for j in slots], [row[col] for _, row in pairs], col)
        for name in model.aux:
            col = q._aux[name]
            # A stale mirror (only while vectorized) is read after aux_list().
            assert q._vectorized or not col.dirty
            got = col.arr[slots] if col.dirty else [col.ls[j] for j in slots]
            self._same(got, [row["aux"][name] for _, row in pairs], name)
        live_rids = {req.rid for req in live}
        assert not q._journal & model.saved.keys()
        assert q._journal <= live_rids

    def check_numpy(self, q, model):
        q.vectorize()
        pairs = self._slots(q, model)
        slots = [j for j, _ in pairs]
        for col in self._COLS:
            self._same(getattr(q, f"np_{col}")[slots], [row[col] for _, row in pairs], col)
        for name in model.aux:
            self._same(q.aux_np(name)[slots], [row["aux"][name] for _, row in pairs], name)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_ops_match_swap_remove_model(self, toy_lut, seed):
        rng = np.random.default_rng(seed)
        q = ReadyQueue(toy_lut, columns=KNOWN_COLUMNS)  # initial capacity 64
        model = _RowModel(toy_lut)
        for name, default in model.aux.items():
            q.register_aux(name, default)
        q.enable_journal()
        everyone, running = [], []
        now = 0.0
        grew_while_parked = False
        list_steps = vector_steps = stale_drains = 0

        def vector_write():
            # PREMA-style token accumulation over the live rows.
            arr = q.aux_np_writable("tokens")
            arr[: len(q)] += 0.5 * q.np_priority[: len(q)]
            for row in model.rows:
                row["aux"]["tokens"] += 0.5 * row["priority"]

        ops = ("arrive", "dispatch", "readmit", "forget", "remove",
               "vector", "point", "sync", "progress", "clear", "drain")
        # Arrivals dominate early so the queue outgrows 64 rows while
        # dispatched rows are parked; later the queue drains.
        early = np.array([8, 4, 3, 1, 1, 1, 2, 1, 1, 1, 0], dtype=float)
        late = np.array([1, 4, 3, 1, 3, 1, 2, 1, 1, 1, 0.5], dtype=float)
        for step in range(900):
            now += 0.001
            p = early if step < 400 else late
            op = ops[rng.choice(len(ops), p=p / p.sum())]
            cap = q._cap
            if "late" not in model.aux and len(running) >= 2:
                # A column registered while rows are parked covers them too.
                q.register_aux("late", 3.0)
                model.register_aux("late", 3.0)
            if op == "arrive":
                model_name = ("short", "long")[rng.choice(2)]
                req = make_request(rid=len(everyone), model=model_name, arrival=now,
                                   slo=float(rng.uniform(1.0, 4.0)),
                                   latencies=(0.001, 0.002, 0.003),
                                   sparsities=(0.5, 0.5, 0.5))
                req.priority = float(rng.choice([1.0, 2.0]))
                everyone.append(req)
                q.add(req)
                model.add(req)
                if q._cap > cap and running:
                    grew_while_parked = True
            elif op == "dispatch" and len(q):
                req = q[int(rng.integers(len(q)))]
                q.remove(req, requeue=True)
                model.remove(req, requeue=True)
                running.append(req)
            elif op == "readmit" and running:
                req = running.pop(int(rng.integers(len(running))))
                dt = req.layer_latencies[req.next_layer]
                req.next_layer += 1
                req.executed_time += dt
                req.last_run_end = now
                if req.is_done:
                    q.forget(req.rid)
                    model.forget(req.rid)
                else:
                    q.add(req)
                    model.add(req)
            elif op == "forget" and running:
                req = running.pop(int(rng.integers(len(running))))
                q.forget(req.rid)
                model.forget(req.rid)
            elif op == "forget" and len(q):
                q.forget(q[int(rng.integers(len(q)))].rid)  # live: a no-op
            elif op == "remove" and len(q):
                req = q[int(rng.integers(len(q)))]
                q.remove(req)
                model.remove(req)
            elif op == "vector":
                vector_write()
            elif op == "drain" and len(q):
                # Empty the live rows right after a vector write: leaving
                # vectorized mode must rebuild the stale tokens mirror,
                # parked rows included.
                vector_write()
                while len(q):
                    req = q[int(rng.integers(len(q)))]
                    requeue = bool(rng.integers(2))
                    if len(q) == 1:
                        stale_drains += q._aux["tokens"].dirty
                    q.remove(req, requeue=requeue)
                    model.remove(req, requeue=requeue)
                    if requeue:
                        running.append(req)
                assert not q._vectorized
            elif op == "point" and everyone:
                req = everyone[int(rng.integers(len(everyone)))]
                name = ("kid", "late")[int(rng.integers(2))] if "late" in model.aux else "kid"
                value = float(rng.integers(0, 5))
                q.aux_set_for(name, req, value)
                i = model.index(req)
                if i >= 0:
                    model.rows[i]["aux"][name] = value
            elif op == "sync":
                for name in model.aux:
                    q.aux_list(name)
            elif op == "progress" and everyone:
                # A layer advance; a parked request's refresh is a no-op.
                req = everyone[int(rng.integers(len(everyone)))]
                if req.next_layer + 1 < req.num_layers:
                    req.next_layer += 1
                    req.executed_time += 0.001
                    req.last_run_end = now
                    i = model.index(req)
                    if i >= 0:
                        model._progress(model.rows[i])
                q.update_progress(req)
            elif op == "clear":
                q.journal_clear()
            if q._vectorized:
                vector_steps += 1
            else:
                list_steps += 1
            self.check_lists(q, model, everyone)
            if rng.random() < 0.05:
                self.check_numpy(q, model)
        assert grew_while_parked and "late" in model.aux
        assert list_steps > 50 and vector_steps > 50
        assert stale_drains > 0 and q.num_vectorized >= 2
        self.check_numpy(q, model)


class TestMissingEntries:
    @staticmethod
    def state(q):
        """Everything a refused admission must leave as it was."""
        lists = {f"ls_{col}": list(getattr(q, f"ls_{col}"))
                 for col in ("rid",) + KNOWN_COLUMNS}
        aux = {name: list(col.ls) for name, col in q._aux.items()}
        return (len(q), q._n, list(q._requests), dict(q._pos),
                dict(q._parked), lists, list(q._ls_suffix),
                set(q._journal), q._journal_all, aux)

    @pytest.mark.parametrize("parked", (False, True))
    def test_unknown_model_rejected_at_admission(self, toy_lut, parked):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.5)
        q.enable_journal()
        q.journal_clear()
        known = [make_request(rid=i) for i in range(3)]
        for r in known:
            q.add(r)
        if parked:
            # A fresh row lands past a parked one before swapping in.
            q.remove(known[1], requeue=True)
        before = self.state(q)
        stranger = make_request(rid=9, model="alexnet")
        with pytest.raises(SchedulingError, match="no LUT entry for 'alexnet/dense'"):
            q.add(stranger)
        assert self.state(q) == before
        assert stranger not in q


class TestLexmin:
    def test_primary_only(self):
        assert np_lexmin(np.array([3.0, 1.0, 2.0])) == 1

    def test_tie_breaks_through_columns(self):
        primary = np.array([1.0, 1.0, 1.0, 2.0])
        second = np.array([5.0, 4.0, 4.0, 0.0])
        third = np.array([9, 8, 7, 6])
        assert np_lexmin(primary, second, third) == 2

    def test_all_known_columns_constructible(self, toy_lut):
        q = ReadyQueue(toy_lut, columns=KNOWN_COLUMNS)
        q.add(make_request(rid=0))
        assert len(q) == 1
