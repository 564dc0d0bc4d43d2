"""Left-to-right float summation, the same on every Python version.

From Python 3.12 on, ``sum()`` of floats uses Neumaier-compensated
summation, so a simulated total taken with ``sum()`` would change in its
last bits with the interpreter, and every pinned figure with it.  Float
totals on a simulated path are taken with :func:`seqsum` instead: it adds
in iteration order, as ``sum()`` did up to 3.11 and as ``np.cumsum`` and
``Request.isolated_latency`` do.  Integer and count sums keep ``sum()``,
which is exact on every version.
"""

from __future__ import annotations

from typing import Iterable


def seqsum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right from 0, without compensation.

    Returns what ``sum(values)`` returns on Python 3.11, type included
    (an empty input gives the integer 0).
    """
    total = 0
    for value in values:
        total += value
    return total
