"""A speed probe, so that op times can be read at a fixed host speed.

A shared VM runs the same pure-Python code at speeds that drift by tens
of percent, in spells from under a second to minutes. A spell that lasts
a whole run moves every time in it, and no statistic taken inside the
run removes that. The probe does: it is a fixed piece of work from this
file, timed before every op and after the last one, and each op's time
is scaled by NOMINAL_S over the mean time of the two probes that
bracket it. The search workloads run each search as short windows so
that no op is long next to the drift.

The work is of the kind gcirc does: GF(2^16) shift-and-xor products,
like its schoolbook multiply, and a Laplace sweep of all minors of a
6 x 6 matrix over GF(2^8) through log tables, with tuple keys, dict
lookups and list indexing. It imports nothing from gcirc, so a change to
gcirc cannot change the probe.
"""

from __future__ import annotations

import bisect
import time
from itertools import combinations

# a probe's time on the 2-core VM the benchmark was tuned on, in a
# quiet spell; a scaled time is seconds at the speed where a probe
# takes this long
NOMINAL_S = 0.0025


def _gf16_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> 16:
            a ^= 0x1002B
    return r


def _gf8_tables():
    exp, log, x = [0] * 510, [0] * 256, 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x <<= 1
        if x >> 8:
            x ^= 0x11D
    return exp, log


_EXP, _LOG = _gf8_tables()
_MATRIX = [[(7 * i + 13 * j + 1) % 255 + 1 for j in range(6)] for i in range(6)]


def _minors(a) -> int:
    k = len(a)
    prev = {((i,), (j,)): a[i][j] for i in range(k) for j in range(k)}
    for s in range(2, k + 1):
        cur = {}
        col_sets = list(combinations(range(k), s))
        for rows in combinations(range(k), s):
            top, rest = a[rows[0]], rows[1:]
            for cols in col_sets:
                acc = 0
                for pos, j in enumerate(cols):
                    sub = prev[(rest, cols[:pos] + cols[pos + 1:])]
                    if sub:
                        acc ^= _EXP[_LOG[top[j]] + _LOG[sub]]
                cur[(rows, cols)] = acc
        prev = cur
    return prev[(tuple(range(k)), tuple(range(k)))]


def work() -> int:
    """The probe's fixed work; its result never changes."""
    acc, x = 0, 0x1A2B
    for b in range(1, 400):
        x = _gf16_mul(x, b * 1097 & 0xFFFF) or 1
        acc ^= x
    return acc ^ _minors(_MATRIX)


class Probe:
    """Probe times, each stamped with the perf_counter at its middle."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []

    def tick(self) -> None:
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.times.append(t1 - t0)

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean time of the last probe before t0 and
        the first after t1, or of the one of them that exists."""
        before = bisect.bisect_left(self.stamps, t0) - 1
        after = bisect.bisect_right(self.stamps, t1)
        near = [self.times[i] for i in (before, after) if 0 <= i < len(self.times)]
        return NOMINAL_S * len(near) / sum(near)
