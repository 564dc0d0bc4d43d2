"""Incremental selection cache: stop re-scoring the whole queue per event.

Between two consecutive scheduler invocations only O(1) ready-queue rows
change — one arrival, one requeued winner, one monitor refresh — yet the
batch path re-scored every row on every ``select_batch``.  At 100k streamed
requests that is ~4.25M full-queue scans over queues thousands deep, and
``repro perf --profile`` attributed ~62% of cluster wall time to it.

:class:`SelectionCache` keeps ``S``, a floor at time ``t_S`` and queue size
``n_S`` under the score of every live row except the previous decision's
winner.  The bound :class:`~repro.sim.ready_queue.ReadyQueue` journals the
rids touched since the previous lookup (a removed rid is unmarked, and a
vectorized aux write sets ``_journal_all``).  A lookup at time ``t``
exactly re-scores those rows plus the previous winner, if still live, with
the policy's list kernel ``inc_best`` (full native tie-breaking), and
accepts the best iff::

    best < S - decay*(t - t_S) - margin

``decay`` (``Scheduler.inc_decay_rate``) bounds how fast an untouched row's
score can fall per unit of simulated time: ``eta`` for the Dysta family,
whose slack term falls at most at rate 1 while the waiting penalty only
grows with time.  That penalty ``eta*(wait/iso)/n`` shrinks as the queue
grows, so a policy with ``decay > 0`` also refuses whenever ``n > n_S``.
``decay == 0`` promises a static key, independent of time and queue size,
so an arrival is simply a changed row.  ``margin`` absorbs float rounding
in the recomputation (static keys compare stored bits and use 0).

Any refusal — journal overflow past :data:`JOURNAL_CAP`, queue growth, an
``inc_guard`` change, no live candidate, a bound miss — runs the numpy
kernel ``np_scores`` over the whole queue (``Scheduler.inc_full_scan``),
which resets ``S`` to its second-smallest primary score.  An accepted
decision over several rows lowers ``S`` to its best losing candidate if
that is below the decayed bound.  The cache therefore returns only what the
full scan would.  ``scheduler.incremental = False`` force-disables it (the
randomized lockstep parity tests and the A/B benches).
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Most rows a lookup re-scores: a longer journal forces a full scan.
JOURNAL_CAP = 48


class SelectionCache:
    """Per-(scheduler, queue) incremental argmin state."""

    __slots__ = (
        "sched", "queue", "decay", "margin", "guard", "valid",
        "winner", "s_bound", "t_s", "n_s", "num_hits", "num_scans",
    )

    def __init__(self, sched, queue):
        self.sched = sched
        self.queue = queue
        self.decay = sched.inc_decay_rate
        self.margin = sched.inc_margin
        self.guard = None
        self.valid = False
        # The first full scan (rebuild) sets the runner-up bound ``s_bound``,
        # taken at time ``t_s`` over ``n_s`` live rows; every lookup sets
        # ``winner``, the rid it chose.
        #: Lookups answered from the changed rows, and full scans.
        self.num_hits = self.num_scans = 0
        queue.enable_journal()

    def lookup(self, now: float):
        """Return the policy's argmin request, incrementally when possible."""
        queue = self.queue
        sched = self.sched
        journal = queue._journal
        decay = self.decay
        if (
            self.valid
            and not queue._journal_all
            and len(journal) <= JOURNAL_CAP
            and (not decay or queue._n <= self.n_s)
            and sched.inc_guard() == self.guard
        ):
            # Changed rows: touched since the previous decision (always
            # live: remove() unmarks a rid), plus that decision's winner.
            pos = queue._pos
            idxs = [pos[rid] for rid in journal]
            winner = self.winner
            j = pos.get(winner)
            if j is not None and winner not in journal:
                idxs.append(j)
            if idxs:
                best_i, best_s = sched.inc_best(queue, idxs, now)
                s_now = self.s_bound
                if decay:
                    s_now -= decay * (now - self.t_s)
                if best_s < s_now - self.margin:
                    journal.clear()
                    self.num_hits += 1
                    if len(idxs) > 1:
                        self._reset_s(s_now, idxs, best_i, now)
                    chosen = queue._requests[best_i]
                    self.winner = chosen.rid
                    return chosen
        self.num_scans += 1
        chosen = sched.inc_full_scan(queue, now, self)
        self.winner = chosen.rid
        return chosen

    def _reset_s(self, s_now: float, idxs: List[int], best_i: int,
                 now: float) -> None:
        """Set S to ``s_now`` (a bound at ``now`` on every row not in
        ``idxs``), or to the best losing row of ``idxs`` if that is lower."""
        losers = [i for i in idxs if i != best_i]
        second = self.sched.inc_best(self.queue, losers, now)[1]
        self.s_bound = second if second < s_now else s_now
        self.t_s = now
        self.n_s = self.queue._n

    def rebuild(self, primary: np.ndarray, now: float) -> None:
        """Reset S from a full scan's primary-score array.

        Called by ``Scheduler.inc_full_scan`` with the length-n per-row
        primary scores of the policy's ``np_scores`` (the exact values the
        winner was picked from, so S is in the policy's own float
        arithmetic).
        """
        queue = self.queue
        n = queue._n
        # The winner holds the smallest score, so the second smallest
        # bounds every other row.
        self.s_bound = float(np.partition(primary, 1)[1]) if n > 1 else float("inf")
        self.t_s = now
        self.n_s = n
        self.guard = self.sched.inc_guard()
        self.valid = True
        queue.journal_clear()
