"""Independent re-derivation of gcirc's outputs, used to check them.

Nothing here imports gcirc. Field arithmetic goes through log/antilog
tables built by this module, minors come from a Laplace dynamic
programme over (row set, column set) pairs instead of Gaussian
elimination, and the inverse is the adjugate those minors give.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import combinations


class Field:
    """GF(2^m) through exp/log tables over a generator found by order test."""

    def __init__(self, m: int, modulus: int):
        self.m, self.modulus, self.q = m, modulus, 1 << m
        n = self.q - 1
        gen = next(g for g in range(2, self.q) if self._order_is(g, n)) if n > 1 else 1
        exp = [0] * (2 * n)
        log = [0] * self.q
        x = 1
        for i in range(n):
            exp[i] = exp[i + n] = x
            log[x] = i
            x = self._slow_mul(x, gen)
        self.exp, self.log, self.n = exp, log, n

    def _slow_mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.modulus
        return r

    def _slow_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._slow_mul(r, a)
            a = self._slow_mul(a, a)
            e >>= 1
        return r

    def _order_is(self, g: int, n: int) -> bool:
        if self._slow_pow(g, n) != 1:
            return False
        primes, rest, p = [], n, 2
        while p * p <= rest:
            if rest % p == 0:
                primes.append(p)
                while rest % p == 0:
                    rest //= p
            p += 1
        if rest > 1:
            primes.append(rest)
        return all(self._slow_pow(g, n // p) != 1 for p in primes)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        return self.exp[self.n - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self.exp[self.log[a] * e % self.n]


def g_circulant(row, g: int) -> list[list[int]]:
    """The entry law A[i][j] = c[(j - i*g) mod k]."""
    k = len(row)
    return [[row[(j - i * g) % k] for j in range(k)] for i in range(k)]


def all_minors(f: Field, a) -> list[dict]:
    """minors[s][(rows, cols)] for every s x s minor, by Laplace expansion
    along the smallest row, reusing the (s-1)-minors."""
    k = len(a)
    levels = [None, {((i,), (j,)): a[i][j] for i in range(k) for j in range(k)}]
    for s in range(2, k + 1):
        prev, cur = levels[-1], {}
        col_sets = list(combinations(range(k), s))
        for rows in combinations(range(k), s):
            top, rest = a[rows[0]], rows[1:]
            for cols in col_sets:
                acc = 0
                for pos, j in enumerate(cols):
                    if top[j]:
                        sub = prev[(rest, cols[:pos] + cols[pos + 1:])]
                        if sub:
                            acc ^= f.mul(top[j], sub)
                cur[(rows, cols)] = acc
        levels.append(cur)
    return levels


def matmul(f: Field, a, b):
    k = len(a)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = 0
            for t in range(k):
                acc ^= f.mul(a[i][t], b[t][j])
            row.append(acc)
        out.append(row)
    return out


def _identity(k: int):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _sandwich_pair(f: Field, a, b, k: int):
    """The (d1, d2, k1, k2) with d1[i]*a[i][j]*d2[j] = b[i][j] and d2[0] = 1,
    or None. Only called when every entry of a is nonzero, so the ratio
    graph is connected and the anchored pair is unique."""
    if any(b[i][j] == 0 for i in range(k) for j in range(k)):
        return None
    r = [[f.mul(b[i][j], f.inv(a[i][j])) for j in range(k)] for i in range(k)]
    d1 = [r[i][0] for i in range(k)]
    d2 = [f.mul(r[0][j], f.inv(r[0][0])) for j in range(k)]
    if any(f.mul(d1[i], d2[j]) != r[i][j] for i in range(k) for j in range(k)):
        return None
    p1 = {f.pow(x, k) for x in d1}
    p2 = {f.pow(x, k) for x in d2}
    return (
        tuple(d1),
        tuple(d2),
        p1.pop() if len(p1) == 1 else None,
        p2.pop() if len(p2) == 1 else None,
    )


def report(f: Field, a) -> dict:
    """What `gcirc check` must say about matrix a.

    semi_involutory / semi_orthogonal are "unknown" when a has a zero
    entry: the anchored witness then depends on the component order,
    which this oracle does not re-derive.
    """
    k = len(a)
    minors = all_minors(f, a)
    witness = None
    for s in range(1, k + 1):
        witness = next((key for key, det in minors[s].items() if det == 0), None)
        if witness is not None:
            break
    det = minors[k][(tuple(range(k)), tuple(range(k)))]
    out = {"mds": witness is None, "mds_witness": witness}
    if det == 0:
        out.update(involutory=False, orthogonal=False, semi_involutory=None, semi_orthogonal=None)
        return out
    idet = f.inv(det)
    full = tuple(range(k))
    if k == 1:
        inv = [[idet]]
    else:
        cof = minors[k - 1]
        inv = [
            [f.mul(idet, cof[(full[:j] + full[j + 1:], full[:i] + full[i + 1:])]) for j in range(k)]
            for i in range(k)
        ]
    at = [list(col) for col in zip(*a)]
    out["involutory"] = matmul(f, a, a) == _identity(k)
    out["orthogonal"] = matmul(f, a, at) == _identity(k)
    if any(a[i][j] == 0 for i in range(k) for j in range(k)):
        out.update(semi_involutory="unknown", semi_orthogonal="unknown")
    else:
        out["semi_involutory"] = _sandwich_pair(f, a, inv, k)
        out["semi_orthogonal"] = _sandwich_pair(f, a, [list(c) for c in zip(*inv)], k)
    return out


def _pair_from_json(obj):
    if obj is None:
        return None
    d1, d2 = (tuple(int(x, 16) for x in obj[key]) for key in ("d1", "d2"))
    k1, k2 = (None if obj[key] is None else int(obj[key], 16) for key in ("k1", "k2"))
    return d1, d2, k1, k2


def report_mismatches(expected: dict, got: dict) -> list[str]:
    """Names of the report fields where gcirc's JSON report disagrees."""
    bad = []
    witness = got["mds_witness"]
    if witness is not None:
        witness = (tuple(witness["rows"]), tuple(witness["cols"]))
    if got["mds"] != expected["mds"] or witness != expected["mds_witness"]:
        bad.append("mds")
    for key in ("involutory", "orthogonal"):
        if got[key] != expected[key]:
            bad.append(key)
    for key in ("semi_involutory", "semi_orthogonal"):
        if expected[key] != "unknown" and _pair_from_json(got[key]) != expected[key]:
            bad.append(key)
    return bad


def target_holds(target: str, rep: dict) -> bool:
    if target == "INVOLUTORY_MDS":
        return rep["mds"] and rep["involutory"]
    if target == "SEMI_INVOLUTORY_MDS":
        return rep["mds"] and rep["semi_involutory"] not in (None, "unknown")
    if target == "SEMI_ORTHOGONAL_MDS":
        return rep["mds"] and rep["semi_orthogonal"] not in (None, "unknown")
    return rep["mds"]


def search_row(kind: str, q: int, k: int, ordinal: int, seed: int = 0) -> tuple[int, ...]:
    """The first row a search job assigns to an ordinal, per row-space kind."""
    if kind == "RANDOM":
        return tuple(
            int.from_bytes(
                hashlib.blake2b(struct.pack("<QQQ", seed, ordinal, pos), digest_size=8).digest(),
                "little",
            )
            % q
            for pos in range(k)
        )
    width = k if kind == "EXHAUSTIVE" else k - 1
    digits = []
    for _ in range(width):
        ordinal, d = divmod(ordinal, q)
        digits.append(d)
    digits.reverse()
    if kind == "EXHAUSTIVE":
        return tuple(digits)
    c0 = 1
    for d in digits:
        c0 ^= d
    return (c0, *digits)


def sqrt_one(k: int) -> list[int]:
    return [x for x in range(1, k) if x * x % k == 1]


def square_row(f: Field, row, g: int) -> list[int]:
    """First row of A @ A for the g-circulant with this row: out[l] sums
    c_i * c_j over g*i + j = l (mod k)."""
    k = len(row)
    out = [0] * k
    for i in range(k):
        for j in range(k):
            out[(g * i + j) % k] ^= f.mul(row[i], row[j])
    return out
