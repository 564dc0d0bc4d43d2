"""Array-backed ready queue: the vectorized scheduling core's data plane.

The scalar engines kept the ready queue as a plain ``List[Request]`` and let
every scheduler re-derive per-request scalars (deadline, LUT-average
remaining time, waiting clock, ...) through Python properties and dict
lookups at every layer boundary — O(queue) interpreter round trips per
decision.  :class:`ReadyQueue` instead keeps the scheduler-visible scalar
state in parallel **columns** (plain lists, with numpy twins for the
deep-queue kernels), maintained incrementally:

* **O(1) swap-remove** — removing a request moves the tail entry into its
  slot in every column; order is not preserved (no built-in policy is
  order-sensitive: every selection key ends in the unique rid).
* **O(1) incremental updates** — arrival fills a row from the request's
  cached state; a layer completion refreshes only the affected row.
* **column subsets** — the bound scheduler declares which columns it reads
  (``Scheduler.batch_columns``), and only those are maintained.
* **aux columns** — named scheduler-owned per-request state (PREMA tokens,
  Dysta's cached remaining estimate) that rides along with swap-removes.
* **parked rows** — a pool removes its winner with ``remove(request,
  requeue=True)`` while the request runs a layer block.  The row swaps into
  the last live slot and ``_n`` shrinks, so its columns (aux state
  included) wait just past the live rows; the re-``add`` at the block
  boundary swaps it back into slot ``_n`` and refreshes only its progress
  columns.  Both halves are O(1), and the live rows end up in the same
  order a swap-remove plus an append would give.  Parked rows are
  invisible to the ``Sequence`` protocol, lookups, progress updates and
  the change journal.
* **LUT entries checked at admission** — with an ``est_*`` column, a fresh
  request the LUT lacks is refused with the scalar estimators' error.

The queue also implements the ``Sequence`` protocol over the live
:class:`~repro.sim.request.Request` objects, so a policy's scalar
``select(queue, now)`` works on it unmodified.

The plain-list mirrors are the store: at small queue depths (the common
case at moderate load) a tight Python loop over list elements beats numpy's
per-ufunc dispatch overhead, and a list cell write costs a fraction of a
numpy one.  The numpy twins are filled on first read: every numpy reader
calls :meth:`~ReadyQueue.vectorize`, which copies the lists into the arrays
once, and from then on point writes go to both stores until the live queue
empties.  Vectorized writers (:meth:`~ReadyQueue.aux_np_writable`) mark an
aux column dirty, and its mirror is rebuilt lazily.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.sim.request import Request

#: Columns a scheduler may declare in ``batch_columns``.  ``rid`` is always
#: maintained.  ``est_*`` columns come from the (model, pattern) LUT entry;
#: ``true_*`` columns are ground truth (Oracle only by convention).
KNOWN_COLUMNS = (
    "arrival",
    "deadline",
    "priority",
    "est_isolated",
    "est_remaining",
    "true_isolated",
    "true_remaining",
    "last_run_end",
    "executed_time",
)

_INITIAL_CAPACITY = 64


class _AuxColumn:
    """One scheduler-owned aux column: list mirror + numpy twin.

    A single holder object keeps the hot point-write path to one dict lookup;
    ``arr`` is rebound on capacity growth, ``ls`` is mutated in place only.
    ``dirty`` (a vector write left ``ls`` stale) implies the queue is
    vectorized.
    """

    __slots__ = ("arr", "ls", "default", "dirty")

    def __init__(self, arr, ls, default):
        self.arr = arr
        self.ls = ls
        self.default = default
        self.dirty = False


def np_lexmin(primary: np.ndarray, *ties: np.ndarray) -> int:
    """Index of the lexicographic minimum of ``(primary, *ties)`` columns."""
    cand = np.flatnonzero(primary == primary.min())
    for arr in ties:
        if cand.size == 1:
            break
        vals = arr[cand]
        cand = cand[vals == vals.min()]
    return int(cand[0])


class ReadyQueue(Sequence):
    """Parallel-array ready queue shared by all three scheduling engines."""

    def __init__(self, lut=None, columns: Sequence[str] = (), capacity: int = _INITIAL_CAPACITY):
        for col in columns:
            if col not in KNOWN_COLUMNS:
                raise SchedulingError(f"unknown ready-queue column {col!r}")
        self._lut = lut
        self._cols = frozenset(columns)
        self._cap = max(int(capacity), 4)
        self._n = 0
        #: Live requests by slot, and live rid -> slot.
        self._requests: List[Request] = []
        self._pos: Dict[int, int] = {}
        #: Parked rid -> slot.  Parked rows fill slots
        #: ``[_n, _n + len(_parked))`` of every column; the list mirrors
        #: cover live and parked rows alike.
        self._parked: Dict[int, int] = {}
        #: Change journal for the incremental selection cache: live rids
        #: touched since the cache's previous lookup.  ``None`` until a
        #: cache attaches via :meth:`enable_journal`, so runs without a
        #: cache pay nothing.
        self._journal: Optional[set] = None
        self._journal_all = True
        #: True while the numpy twins match the list mirrors (see
        #: :meth:`vectorize`); point writes skip numpy otherwise.
        self._vectorized = False
        #: Copies :meth:`vectorize` made (list-only runs stay at 0).
        self.num_vectorized = 0

        self.np_rid = np.empty(self._cap, dtype=np.int64)
        self.ls_rid: List[int] = []
        self._need_entry = "est_isolated" in self._cols or "est_remaining" in self._cols
        #: Per row (live and parked): the LUT entry's remaining-suffix tuple.
        self._ls_suffix: List[Tuple[float, ...]] = []
        for col in KNOWN_COLUMNS:
            active = col in self._cols
            setattr(self, f"np_{col}", np.empty(self._cap) if active else None)
            setattr(self, f"ls_{col}", [] if active else None)
        #: Attribute names of the active columns, ``rid`` first.
        self._col_attrs: Tuple[Tuple[str, str], ...] = (("np_rid", "ls_rid"),) + tuple(
            (f"np_{c}", f"ls_{c}") for c in sorted(self._cols)
        )
        #: The list mirrors are stable objects (mutated in place, never
        #: rebound), so the row moves can hold direct references; the numpy
        #: twins are rebound on growth (see :meth:`_grow`).
        self._ls_cols: Tuple[list, ...] = tuple(
            getattr(self, ls_name) for _, ls_name in self._col_attrs
        )
        self._np_cols: Tuple[np.ndarray, ...] = tuple(
            getattr(self, np_name) for np_name, _ in self._col_attrs
        )
        # Which progress-dependent columns update_progress must refresh.
        self._up_lre = "last_run_end" in self._cols
        self._up_exec = "executed_time" in self._cols
        self._up_true_rem = "true_remaining" in self._cols
        self._up_est_rem = "est_remaining" in self._cols
        if self._up_lre and not (self._up_exec or self._up_true_rem or self._up_est_rem):
            # Single-column fast path (e.g. Dysta only tracks last_run_end).
            self.update_progress = self._update_progress_lre_only

        self._aux: Dict[str, _AuxColumn] = {}

    # -- Sequence protocol (scalar schedulers see a sequence of requests) ---

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, idx):
        return self._requests[idx]

    def __contains__(self, item) -> bool:
        i = self._pos.get(getattr(item, "rid", -1))
        return i is not None and self._requests[i] is item

    def index_of(self, request: Request) -> int:
        """Slot index of ``request``, or -1 when absent."""
        i = self._pos.get(request.rid)
        if i is not None and self._requests[i] is request:
            return i
        return -1

    # -- change journal (incremental selection cache) -----------------------

    def enable_journal(self) -> None:
        """Start recording touched rids (idempotent).

        Called by a :class:`~repro.sim.select_cache.SelectionCache` when it
        attaches.  ``_journal_all`` starts True so the first lookup forces a
        full scan.
        """
        if self._journal is None:
            self._journal = set()
        self._journal_all = True

    def journal_clear(self) -> None:
        """Reset the journal after a full re-scan rebuilt the cache."""
        self._journal.clear()
        self._journal_all = False

    # -- aux columns --------------------------------------------------------

    def register_aux(self, name: str, default: float = 0.0) -> None:
        """Create a scheduler-owned per-request column (idempotent); live
        and parked rows start at ``default``."""
        if name in self._aux:
            return
        end = self._n + len(self._parked)
        arr = np.empty(self._cap)
        arr[:end] = default
        self._aux[name] = _AuxColumn(arr, [default] * end, default)

    def aux_np(self, name: str) -> np.ndarray:
        """Full-capacity aux array (slice with ``[:len(queue)]``); read-only
        by convention — use :meth:`aux_np_writable` before vector writes."""
        self.vectorize()
        return self._aux[name].arr

    def aux_np_writable(self, name: str) -> np.ndarray:
        """Aux array for vectorized in-place writes; marks the mirror stale."""
        self.vectorize()
        col = self._aux[name]
        col.dirty = True
        # A vector write may touch every row: invalidate the whole journal.
        self._journal_all = True
        return col.arr

    def aux_list(self, name: str) -> List[float]:
        """Plain-list mirror of an aux column (rebuilt if stale).

        Slots ``[0, len(queue))`` hold the live rows; parked rows follow.
        The returned list object is stable for the queue's lifetime (synced
        in place), so hot paths may hold on to it as long as the column is
        only ever point-written (never through :meth:`aux_np_writable`).
        """
        col = self._aux[name]
        if col.dirty:
            col.ls[:] = col.arr[: self._n + len(self._parked)].tolist()
            col.dirty = False
        return col.ls

    def aux_set(self, name: str, i: int, value: float) -> None:
        """Point write to one aux cell (keeps both stores coherent; a stale
        mirror's cell is overwritten again when the mirror is rebuilt)."""
        col = self._aux[name]
        col.ls[i] = value
        if self._vectorized:
            col.arr[i] = value
        if self._journal is not None:
            self._journal.add(self.ls_rid[i])

    def aux_set_for(self, name: str, request: Request, value: float) -> None:
        """Fused ``aux_set(name, index_of(request), value)``; no-op when the
        request is not in the queue (hot path of the monitor callbacks)."""
        i = self._pos.get(request.rid)
        if i is None or self._requests[i] is not request:
            return
        col = self._aux[name]
        col.ls[i] = value
        if self._vectorized:
            col.arr[i] = value
        if self._journal is not None:
            self._journal.add(request.rid)

    def vectorize(self) -> None:
        """Fill the numpy twins (active and aux columns, live and parked
        rows) from the list mirrors; a no-op while already vectorized.

        Every numpy reader calls this first.  From then on point writes go
        to both stores, until the live queue empties (see :meth:`remove`).
        """
        if self._vectorized:
            return
        end = len(self.ls_rid)
        for arr, ls in zip(self._np_cols, self._ls_cols):
            arr[:end] = ls
        for col in self._aux.values():
            col.arr[:end] = col.ls
        self._vectorized = True
        self.num_vectorized += 1

    def forget(self, rid: int) -> None:
        """Drop the parked row of ``rid``, if any.

        Call when a dispatched request finishes outside the queue, so
        streaming replays stay bounded-memory.  The last parked row fills
        the hole; live rows do not move.
        """
        j = self._parked.pop(rid, None)
        if j is None:
            return
        last = self._n + len(self._parked)
        if j != last:
            self._swap(j, last)
            self._parked[self.ls_rid[j]] = j
        for ls in self._ls_cols:
            ls.pop()
        for col in self._aux.values():
            col.ls.pop()
        if self._need_entry:
            self._ls_suffix.pop()

    # -- mutation -----------------------------------------------------------

    def _grow(self) -> None:
        new_cap = self._cap * 2
        for np_name, _ in self._col_attrs:
            old = getattr(self, np_name)
            arr = np.empty(new_cap, dtype=old.dtype)
            arr[: self._cap] = old
            setattr(self, np_name, arr)
        for col in self._aux.values():
            arr = np.empty(new_cap)
            arr[: self._cap] = col.arr
            col.arr = arr
        self._np_cols = tuple(
            getattr(self, np_name) for np_name, _ in self._col_attrs
        )
        self._cap = new_cap

    def _swap(self, a: int, b: int) -> None:
        """Exchange slots ``a`` and ``b`` in every column; the caller fixes
        the rid maps.  While vectorized, numpy cells are written from their
        list mirrors, which hold the same values, except in a stale aux
        mirror."""
        for ls in self._ls_cols:
            ls[a], ls[b] = ls[b], ls[a]
        aux = self._aux.values()
        for col in aux:
            ls = col.ls
            ls[a], ls[b] = ls[b], ls[a]
        if self._need_entry:
            m = self._ls_suffix
            m[a], m[b] = m[b], m[a]
        if self._vectorized:
            for arr, ls in zip(self._np_cols, self._ls_cols):
                arr[a] = ls[a]
                arr[b] = ls[b]
            for col in aux:
                arr = col.arr
                if col.dirty:
                    arr[a], arr[b] = arr[b], arr[a]
                else:
                    arr[a] = col.ls[a]
                    arr[b] = col.ls[b]

    def add(self, request: Request) -> int:
        """Admit ``request``; returns its slot, always ``len(queue) - 1``.

        A parked request (one that left through ``remove(requeue=True)``)
        swaps back into slot ``_n`` with its columns and aux state as it
        left them, and :meth:`update_progress` refreshes the progress
        columns.  A fresh request fills every active column from its cached
        state in the first free slot, past any parked rows, and then swaps
        into slot ``_n``.  A fresh request the LUT lacks raises before
        anything is written (a parked row was checked when it arrived).
        """
        rid = request.rid
        n = self._n
        parked = self._parked
        if parked:
            j = parked.pop(rid, None)
            if j is not None:
                if j != n:
                    self._swap(j, n)
                    parked[self.ls_rid[j]] = j
                self._requests.append(request)
                self._pos[rid] = n
                self._n = n + 1
                self.update_progress(request)
                return n
            i = n + len(parked)
        else:
            i = n
        if self._need_entry:
            entry = request.lut_entry(self._lut) if self._lut is not None else None
            if entry is None:
                raise SchedulingError(f"no LUT entry for {request.key!r}")
        if i == self._cap:
            self._grow()
        self._requests.append(request)
        self._pos[rid] = n
        self._n = n + 1
        self.ls_rid.append(rid)
        if self._journal is not None:
            self._journal.add(rid)

        cols = self._cols
        if cols:
            if "arrival" in cols:
                self.ls_arrival.append(request.arrival)
            if "deadline" in cols:
                self.ls_deadline.append(request.deadline)
            if "priority" in cols:
                self.ls_priority.append(request.priority)
            if "true_isolated" in cols:
                self.ls_true_isolated.append(request.isolated_latency)
            if "true_remaining" in cols:
                self.ls_true_remaining.append(request.true_remaining)
            if "last_run_end" in cols:
                self.ls_last_run_end.append(request.last_run_end)
            if "executed_time" in cols:
                self.ls_executed_time.append(request.executed_time)
            if self._need_entry:
                suffix = entry.remaining_suffix_t
                self._ls_suffix.append(suffix)
                if "est_isolated" in cols:
                    self.ls_est_isolated.append(entry.avg_total_latency)
                if "est_remaining" in cols:
                    self.ls_est_remaining.append(suffix[request.next_layer])

        aux = self._aux.values()
        for col in aux:
            # A stale mirror still tracks length; contents rebuilt on sync.
            col.ls.append(col.default)
        if self._vectorized:
            for arr, ls in zip(self._np_cols, self._ls_cols):
                arr[i] = ls[i]
            for col in aux:
                col.arr[i] = col.default
        if i != n:
            self._swap(i, n)
            parked[self.ls_rid[i]] = i
        return n

    #: Pools admit with ``queue.append(...)``, so a plain list can stand in
    #: for the queue (the tests' reference pool does).
    append = add

    def remove(self, request: Request, requeue: bool = False) -> None:
        """Take ``request`` out of the live rows in O(1).

        The last live row takes its slot, as in a swap-remove, and the
        request's row moves just past the live rows (it is *parked*).  When
        the live rows run out, the queue leaves vectorized mode: the lists
        alone carry it again until the next :meth:`vectorize`.

        Args:
            requeue: The request is only leaving to run a layer block and
                will be re-added (pool dispatch): the row stays parked until
                the next :meth:`add` of the request swaps it back in or
                :meth:`forget` drops it.  Otherwise the row is dropped at
                once.
        """
        rid = request.rid
        i = self._pos.get(rid)
        if i is None or self._requests[i] is not request:
            raise SchedulingError(
                f"request {rid} is not in the ready queue"
            )
        del self._pos[rid]
        if self._journal is not None:
            # A parked or dropped row needs no mark (rids outside the live
            # rows are skipped by liveness checks); a re-add re-marks it.
            self._journal.discard(rid)
        last = self._n - 1
        reqs = self._requests
        if i != last:
            moved = reqs[last]
            reqs[i] = moved
            self._pos[moved.rid] = i
            self._swap(i, last)
        reqs.pop()
        self._n = last
        self._parked[rid] = last
        if not last and self._vectorized:
            for name in self._aux:
                self.aux_list(name)  # rebuilds a mirror a vector write left stale
            self._vectorized = False
        if not requeue:
            self.forget(rid)

    def _update_progress_lre_only(self, request: Request) -> None:
        """update_progress specialization when only last_run_end is live."""
        i = self._pos.get(request.rid)
        if i is not None:
            v = request.last_run_end
            self.ls_last_run_end[i] = v
            if self._vectorized:
                self.np_last_run_end[i] = v
            if self._journal is not None:
                self._journal.add(request.rid)

    def update_progress(self, request: Request) -> None:
        """Refresh the row of a live request after a layer advance.

        The engine has already mutated ``next_layer`` / ``executed_time`` /
        ``last_run_end``; this folds the new values into the progress
        columns in O(1).  A parked request is skipped: :meth:`add` calls
        this when it swaps the row back in.
        """
        i = self._pos.get(request.rid)
        if i is None:
            return
        if self._journal is not None:
            self._journal.add(request.rid)
        if self._up_lre:
            v = request.last_run_end
            self.ls_last_run_end[i] = v
            if self._vectorized:
                self.np_last_run_end[i] = v
        if self._up_exec:
            v = request.executed_time
            self.ls_executed_time[i] = v
            if self._vectorized:
                self.np_executed_time[i] = v
        if self._up_true_rem:
            v = request.true_remaining
            self.ls_true_remaining[i] = v
            if self._vectorized:
                self.np_true_remaining[i] = v
        if self._up_est_rem:
            v = self._ls_suffix[i][request.next_layer]
            self.ls_est_remaining[i] = v
            if self._vectorized:
                self.np_est_remaining[i] = v
