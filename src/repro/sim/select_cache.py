"""Incremental selection cache: stop re-scoring the whole queue per event.

Between two consecutive scheduler invocations only O(1) ready-queue rows
change — one arrival, one requeued winner, one monitor refresh — yet the
batch path re-scored every row on every ``select_batch``.  At 100k streamed
requests that is ~4.25M full-queue scans over queues thousands deep, and
``repro perf --profile`` attributed ~62% of cluster wall time to it.

:class:`SelectionCache` maintains the argmin incrementally:

* **Change journal.**  The bound :class:`~repro.sim.ready_queue.ReadyQueue`
  records the rids touched since the cache's previous lookup
  (:meth:`~repro.sim.ready_queue.ReadyQueue.enable_journal`); each lookup
  moves them into the cache's *epoch* set, the rows touched since the last
  full scan.  Permanent removals need no mark (they are discarded from the
  journal and simply stop being live; the epoch drops them when it grows
  past the cap), and a vectorized aux write invalidates wholesale via
  ``_journal_all``.

* **Changed rows + runner-up bound ``S``.**  Between two decisions usually
  only the previous winner changed: it ran a block and came back.  The
  cache keeps ``S``, a floor at time ``t_S`` and queue size ``n_S`` under
  the score of every live row except the previous decision's winner.  A
  lookup at time ``t`` first exactly re-scores only the rows touched since
  that decision plus the winner, if still live, and accepts the best iff::

      best < S - decay*(t - t_S) - margin    and    n <= n_S

  An untouched row's score falls at most at ``decay`` per unit of time
  (below), and its share of the Dysta penalty ``eta*(wait/iso)/n`` cannot
  shrink while the queue is no larger than at ``t_S``, so the best is
  strictly below every row it did not score.  ``S`` is reset by every
  decision: a full scan sets it to its second-smallest primary score; a
  ladder hit to the scan bound ``B - decay*(t - t0)`` less its queue-growth
  correction at the current size, or to the best losing row it scored if
  that is lower; an accepted changed-rows decision lowers it to its best
  losing candidate (scored by a second kernel pass over the losers).

* **Ladder + bound.**  A full scan (one numpy pass, the same arithmetic as
  before) additionally partitions the per-row primary score: the ``k``
  smallest rows become the *ladder* — the shortlist that survives winner
  removals — and the (k+1)-th smallest score becomes the *bound* ``B``, a
  floor under every non-ladder row's score at scan time ``t0``.

* **Confirmed lookup.**  When the changed rows cannot decide, the lookup
  exactly re-scores the live ladder rows plus the epoch's rows (the
  policy's own scalar arithmetic with full native tie-breaking) and
  accepts the best iff::

      best < B - decay*(t - t0) - pen_scale*max(0, 1 - n0/n) - margin

  ``decay`` bounds how fast an *untouched* row's score can fall per unit of
  simulated time: 0 for static-key policies; ``eta`` for the Dysta family,
  whose slack term ``max(deadline - now - rem, -iso)`` decreases at most at
  rate 1 while the waiting penalty only grows with time.  The
  ``pen_scale`` correction covers the one way a Dysta score can fall
  *faster*: the penalty ``eta*(wait/iso)/n`` shrinks when the queue grows,
  but by at most a factor ``n0/n``, so across all rows by at most
  ``max_row(eta*pen) * (1 - n0/n)``.  ``margin`` absorbs float rounding in
  the recomputation (static keys compare stored bits and use 0).  Any
  failure — guard change, journal overflow, bound miss — falls back to the
  full scan, which rebuilds the ladder.  The cache is therefore strictly
  conservative: it can only ever return the request the full scan would.

* **Clearing.**  A scored row whose *penalty-free* score anchor
  ``a = rem + eta*slack`` (for static keys, the score itself) lands at or
  above ``B - decay*(t - t0)`` can never beat an accepted winner for the
  rest of this scan epoch — the anchor and the acceptance limit decay at
  the same rate and the anchor never over-counts the shrinkable penalty —
  so the policy drops the rid from the epoch.  If the row is touched
  again it re-journals itself; otherwise ladder lookups cost the ladder
  plus only the rows dirtied since the scan that could still win.

Policies opt in via ``Scheduler.supports_incremental``; lookups run the
policy's list kernel ``inc_best`` and full scans its numpy kernel
``np_scores`` (through ``Scheduler.inc_full_scan``), plus ``inc_guard``
where selection depends on per-select state (see
:mod:`repro.schedulers.base`).  ``scheduler.incremental = False`` force-
disables the layer (used by the randomized lockstep parity tests and the
A/B benches).
"""

from __future__ import annotations

from typing import List

import numpy as np


class SelectionCache:
    """Per-(scheduler, queue) incremental argmin state."""

    __slots__ = (
        "sched", "queue", "k", "cap", "decay", "margin",
        "ladder", "ladder_set", "bound", "pen_scale", "n_scan", "t_scan",
        "guard", "valid", "epoch", "winner", "s_bound", "t_s", "n_s",
        "num_hits", "num_changed_hits", "num_scans",
    )

    def __init__(self, sched, queue):
        self.sched = sched
        self.queue = queue
        self.k = sched.inc_ladder_k
        self.cap = sched.inc_journal_cap
        self.decay = sched.inc_decay_rate
        self.margin = sched.inc_margin
        self.ladder: List[int] = []
        self.ladder_set = frozenset()
        self.bound = 0.0
        self.pen_scale = 0.0
        self.n_scan = 0
        self.t_scan = 0.0
        self.guard = None
        self.valid = False
        # The first full scan (rebuild) creates ``epoch`` (rids touched
        # since the last scan, up to the previous lookup; the queue's
        # journal holds the ones touched since) and the runner-up bound
        # ``s_bound``, taken at time ``t_s`` over ``n_s`` live rows; its
        # lookup sets ``winner``, the rid the previous lookup chose.  A run
        # whose queues stay shallow never pays for them.
        #: Lookups answered without a full scan (num_changed_hits of them
        #: from the changed rows alone) and full scans.
        self.num_hits = self.num_changed_hits = self.num_scans = 0
        queue.enable_journal()

    def lookup(self, now: float):
        """Return the policy's argmin request, incrementally when possible."""
        queue = self.queue
        sched = self.sched
        journal = queue._journal
        if (
            self.valid
            and not queue._journal_all
            and len(journal) <= self.cap
            and sched.inc_guard() == self.guard
        ):
            pos = queue._pos
            epoch = self.epoch
            n = queue._n
            decay = self.decay
            # clear_at = B - decay*dt: every row whose penalty-free anchor
            # sits at or above it is out of the running for the rest of the
            # epoch.
            clear_at = self.bound
            if decay:
                clear_at -= decay * (now - self.t_scan)
            idxs = None
            if n <= self.n_s:
                # Changed rows: touched since the previous decision (always
                # live: remove() unmarks a rid), plus that decision's winner.
                idxs = [pos[rid] for rid in journal]
                j = pos.get(self.winner)
                if j is not None and self.winner not in journal:
                    idxs.append(j)
            epoch |= journal
            journal.clear()
            if idxs:
                best_i, best_s = sched.inc_best(queue, idxs, now, clear_at, epoch)
                s_now = self.s_bound
                if decay:
                    s_now -= decay * (now - self.t_s)
                if best_i >= 0 and best_s < s_now - self.margin:
                    self.num_hits += 1
                    self.num_changed_hits += 1
                    if len(idxs) > 1:
                        self._reset_s(s_now, idxs, best_i, now, clear_at)
                    return self._won(best_i)
            if len(epoch) > self.cap:
                # Rows removed since they joined the epoch linger in it:
                # drop them before judging overflow.
                epoch.difference_update([rid for rid in epoch if rid not in pos])
            if len(epoch) <= self.cap:
                idxs = []
                for rid in self.ladder:
                    j = pos.get(rid)
                    if j is not None:
                        idxs.append(j)
                lset = self.ladder_set
                for rid in epoch:
                    if rid not in lset:
                        j = pos.get(rid)
                        if j is not None:
                            idxs.append(j)
                if idxs:
                    # The acceptance limit additionally subtracts the
                    # queue-growth penalty correction and the float-rounding
                    # margin.
                    floor = clear_at
                    ps = self.pen_scale
                    if ps:
                        n0 = self.n_scan
                        if n > n0:
                            floor -= ps * (1.0 - n0 / n)
                    best_i, best_s = sched.inc_best(queue, idxs, now, clear_at, epoch)
                    if best_i >= 0 and best_s < floor - self.margin:
                        self.num_hits += 1
                        self._reset_s(floor, idxs, best_i, now, clear_at)
                        return self._won(best_i)
        self.num_scans += 1
        chosen = sched.inc_full_scan(queue, now, self)
        self.winner = chosen.rid
        return chosen

    def _won(self, i: int):
        chosen = self.queue._requests[i]
        self.winner = chosen.rid
        return chosen

    def _reset_s(self, floor: float, idxs: List[int], best_i: int,
                 now: float, clear_at: float) -> None:
        """Set S to ``floor`` (a bound at ``now`` on every row not in
        ``idxs``), or to the best losing row of ``idxs`` if that is lower."""
        losers = [i for i in idxs if i != best_i]
        if losers:
            second = self.sched.inc_best(self.queue, losers, now, clear_at,
                                         self.epoch)[1]
            if second < floor:
                floor = second
        self.s_bound = floor
        self.t_s = now
        self.n_s = self.queue._n

    def rebuild(self, primary: np.ndarray, now: float, pen_scale: float = 0.0) -> None:
        """Refresh ladder/bound from a full scan's primary-score array.

        Called by ``Scheduler.inc_full_scan`` with the length-n per-row
        primary scores of the policy's ``np_scores`` (the exact values the
        winner was picked from, so the bound is in the policy's own float
        arithmetic) and, for penalty-bearing scores, the scan-time maximum
        of the shrinkable penalty term.
        """
        queue = self.queue
        n = queue._n
        k = self.k
        if n > k:
            part = np.argpartition(primary, k)
            self.ladder = queue.np_rid[part[:k]].tolist()
            self.bound = float(primary[int(part[k])])
            self.pen_scale = pen_scale
        else:
            self.ladder = queue.ls_rid[:n]
            self.bound = float("inf")
            self.pen_scale = 0.0
        self.ladder_set = frozenset(self.ladder)
        # The winner holds the smallest score, so the second smallest
        # bounds every other row.
        self.s_bound = float(np.partition(primary, 1)[1]) if n > 1 else float("inf")
        self.t_s = self.t_scan = now
        self.n_s = self.n_scan = n
        self.guard = self.sched.inc_guard()
        self.valid = True
        self.epoch = set()
        queue.journal_clear()
