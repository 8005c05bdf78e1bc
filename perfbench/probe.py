"""Machine-speed probe: the mean time of a fixed kernel of exact rational
arithmetic (Euclid's algorithm on polynomials with Fraction coefficients,
plus a dict keyed by tuples), the same kind of work hopf-forge does.

It imports nothing from hopf_forge, so no change to the program can change
what it measures.  Every setup process of run.py runs it right after its
timed setup; the probe time scales that setup time and the passes on either
side of the process by how fast the machine was at the time.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REPEATS = 9


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(p, q):
    p = list(p)
    while len(p) >= len(q):
        c = p[-1] / q[-1]
        off = len(p) - len(q)
        for k, qk in enumerate(q):
            p[off + k] -= c * qk
        p.pop()
        _trim(p)
    return p


def kernel():
    counts = {}
    for m in range(80):
        p = _trim([Fraction((k * 7 + m) % 13 - 6, k + 1) for k in range(9)])
        q = _trim([Fraction((k * 5 + m) % 11 - 5, k + 2) for k in range(8)])
        while q:
            p, q = q, _rem(p, q)
        key = tuple((m + k) % 17 for k in range(6))
        counts[key] = counts.get(key, 0) + len(p)
    return counts


def probe():
    """Mean seconds of REPEATS runs of the kernel.  The mean, not the median:
    a pass takes the mean speed of the machine over its run, and the mean
    of the probe tracked pass times more closely."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.mean(times)

