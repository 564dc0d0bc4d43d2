"""Incremental selection cache: stop re-scoring the whole queue per event.

Between two consecutive scheduler invocations only O(1) ready-queue rows
change — one arrival, one requeued winner, one monitor refresh — yet the
batch path re-scored every row on every ``select_batch``.  At 100k streamed
requests that is ~4.25M full-queue scans over queues thousands deep, and
``repro perf --profile`` attributed ~62% of cluster wall time to it.

:class:`SelectionCache` maintains the argmin incrementally:

* **Change journal.**  The bound :class:`~repro.sim.ready_queue.ReadyQueue`
  records the rids touched since the cache last rebuilt
  (:meth:`~repro.sim.ready_queue.ReadyQueue.enable_journal`).  Permanent
  removals need no mark (they are discarded from the journal and simply
  stop being live), and a vectorized aux write invalidates wholesale via
  ``_journal_all``.

* **Ladder + bound.**  A full scan (one numpy pass, the same arithmetic as
  before) additionally partitions the per-row primary score: the ``k``
  smallest rows become the *ladder* — the shortlist that survives winner
  removals — and the (k+1)-th smallest score becomes the *bound* ``B``, a
  floor under every non-ladder row's score at scan time ``t0``.

* **Confirmed lookup.**  A lookup at time ``t`` exactly re-scores only the
  live ladder rows plus the journalled rows (the policy's own scalar
  arithmetic with full native tie-breaking) and accepts the best iff::

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

* **Clearing.**  A journalled row whose *penalty-free* score anchor
  ``a = rem + eta*slack`` (for static keys, the score itself) lands at or
  above ``B - decay*(t - t0)`` can never beat an accepted winner for the
  rest of this scan epoch — the anchor and the acceptance limit decay at
  the same rate and the anchor never over-counts the shrinkable penalty —
  so the policy drops the rid from the journal.  If the row is touched
  again it re-journals itself; otherwise steady-state lookups cost the
  ladder plus only the rows dirtied since the *previous* select.

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
        "guard", "valid", "num_hits", "num_scans",
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
        self.num_hits = 0
        self.num_scans = 0
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
            idxs: List[int] = []
            for rid in self.ladder:
                j = pos.get(rid)
                if j is not None:
                    idxs.append(j)
            if journal:
                lset = self.ladder_set
                # Journalled rids are always live: remove() discards the
                # rid whether it parks the row or drops it.
                idxs.extend(pos[rid] for rid in journal if rid not in lset)
            if idxs:
                # clear_at = B - decay*dt: every row whose penalty-free
                # anchor sits at or above it is out of the running for the
                # rest of the epoch.  The acceptance limit additionally
                # subtracts the queue-growth penalty correction and the
                # float-rounding margin.
                clear_at = self.bound
                if self.decay:
                    clear_at -= self.decay * (now - self.t_scan)
                limit = clear_at - self.margin
                ps = self.pen_scale
                if ps:
                    n = queue._n
                    n0 = self.n_scan
                    if n > n0:
                        limit -= ps * (1.0 - n0 / n)
                best_i, best_s = sched.inc_best(queue, idxs, now, clear_at, journal)
                if best_i >= 0 and best_s < limit:
                    self.num_hits += 1
                    return queue._requests[best_i]
        self.num_scans += 1
        return sched.inc_full_scan(queue, now, self)

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
        self.n_scan = n
        self.t_scan = now
        self.guard = self.sched.inc_guard()
        self.valid = True
        queue.journal_clear()
