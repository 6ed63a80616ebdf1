"""Shared fixtures, independent oracles, a progress-hook recorder, and the
job-file writer that the round-trip tests use.

The oracles deliberately avoid the package's code paths: field products
by carry-less multiplication and reduction instead of log tables,
determinants by Laplace expansion instead of Gaussian elimination,
diagonal-pair search by exhaustive enumeration instead of ratio
propagation, A @ A = I entrywise instead of the square law.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from gcirc import GF2m, GCirculantSpec, Matrix, RowSpaceKind, SearchJob
from gcirc.jsonio import field_to_json


@pytest.fixture(scope="session")
def ctx165():
    """GF(2^8) with modulus 1 + x^2 + x^5 + x^6 + x^8."""
    return GF2m(8, 0x165)


@pytest.fixture(scope="session")
def ctx11d():
    """GF(2^8) with modulus x^8 + x^4 + x^3 + x^2 + 1."""
    return GF2m(8, 0x11D)


@pytest.fixture(scope="session")
def gf16():
    """GF(2^4) with modulus x^4 + x + 1."""
    return GF2m(4, 0x13)


@pytest.fixture(scope="session")
def gf4():
    """GF(2^2) with modulus x^2 + x + 1."""
    return GF2m(2, 0x7)


def schoolbook_mul(ctx: GF2m, a: int, b: int) -> int:
    """Carry-less product of a and b, then reduction mod the modulus from
    the top bit down."""
    prod = 0
    for i in range(ctx.m):
        if b >> i & 1:
            prod ^= a << i
    for d in range(2 * ctx.m - 2, ctx.m - 1, -1):
        if prod >> d & 1:
            prod ^= ctx.modulus << (d - ctx.m)
    return prod


def schoolbook_pow(ctx: GF2m, a: int, e: int) -> int:
    """a^e by square-and-multiply over schoolbook_mul."""
    r = 1
    while e:
        if e & 1:
            r = schoolbook_mul(ctx, r, a)
        a = schoolbook_mul(ctx, a, a)
        e >>= 1
    return r


def laplace_det(a: Matrix) -> int:
    """Determinant by first-row Laplace expansion (characteristic 2)."""
    k = a.rows
    if k == 1:
        return a[0, 0]
    ctx = a.ctx
    total = 0
    rest = list(range(1, k))
    for j in range(k):
        if a[0, j]:
            cols = [c for c in range(k) if c != j]
            total ^= ctx.mul(a[0, j], laplace_det(a.submatrix(rest, cols)))
    return total


def elimination_mds(a: Matrix):
    """is_mds by Gauss-Jordan elimination of every minor in (size, rows, cols)
    order: (True, None) or (False, first singular (rows, cols))."""
    k = a.rows
    for size in range(1, k + 1):
        for rows in combinations(range(k), size):
            for cols in combinations(range(k), size):
                if a.submatrix(rows, cols).determinant() == 0:
                    return False, (rows, cols)
    return True, None


def brute_force_sandwich_pairs(a: Matrix, b: Matrix) -> list[tuple[tuple, tuple]]:
    """Every (d1, d2) over nonzero diagonals with d1[i]*A[i,j]*d2[j] = B[i,j].

    Exponential in k; only for tiny matrices.
    """
    ctx, k = a.ctx, a.rows
    nonzero = range(1, ctx.q)
    out = []
    for d1 in product(nonzero, repeat=k):
        for d2 in product(nonzero, repeat=k):
            if all(
                ctx.mul(d1[i], ctx.mul(a[i, j], d2[j])) == b[i, j]
                for i in range(k)
                for j in range(k)
            ):
                out.append((d1, d2))
    return out


def diagonal(ctx: GF2m, d) -> Matrix:
    """The diagonal matrix with diagonal d."""
    return Matrix(ctx, [[x if i == j else 0 for j, x in enumerate(d)] for i in range(len(d))])


def sandwich_pair_exists(a: Matrix, b: Matrix) -> bool:
    """Whether nonzero diagonals D1, D2 with D1*A*D2*B = I exist, decided
    without inverting A: pairs scale as (lam*D1, lam^-1*D2), so d2[0] = 1
    loses nothing, and D1 exists iff A*D2*B is diagonal and nonsingular."""
    ctx, k = a.ctx, a.rows
    for tail in product(range(1, ctx.q), repeat=k - 1):
        m = a @ diagonal(ctx, (1, *tail)) @ b
        if all(bool(m[i, j]) == (i == j) for i in range(k) for j in range(k)):
            return True
    return False


def is_involutory(a: Matrix) -> bool:
    """A @ A = I, decided entrywise with early exit."""
    ctx, k, e = a.ctx, a.rows, a.entries
    for i in range(k):
        for j in range(k):
            acc = 0
            for t in range(k):
                if e[i][t] and e[t][j]:
                    acc ^= ctx.mul(e[i][t], e[t][j])
            if acc != (1 if i == j else 0):
                return False
    return True


def perm_matrix(ctx: GF2m, images) -> Matrix:
    """The permutation matrix with P[i, images[i]] = 1."""
    return Matrix(ctx, [[1 if j == img else 0 for j in range(len(images))] for img in images])


def random_row(rng: random.Random, ctx: GF2m, k: int, nonzero: bool = False) -> tuple[int, ...]:
    lo = 1 if nonzero else 0
    return tuple(rng.randrange(lo, ctx.q) for _ in range(k))


def random_spec(rng: random.Random, ctx: GF2m, k: int) -> GCirculantSpec:
    from math import gcd

    g = rng.choice([g for g in range(k) if gcd(g, k) == 1])
    return GCirculantSpec(ctx, k, g, random_row(rng, ctx, k))


class RangeLog(list):
    """A run_search progress hook: the list of (first, stop) token ranges
    it was called with, in call order."""

    def __call__(self, first: int, stop: int) -> None:
        self.append((first, stop))

    def tokens(self) -> list[int]:
        """Every token of the ranges, in order."""
        return [token for first, stop in self for token in range(first, stop)]


def job_to_json(job: SearchJob) -> dict:
    """A job file that `jsonio.job_from_json` reads back to `job`, every
    key written out."""
    rs: dict = {"kind": job.row_space.kind.value}
    if job.row_space.kind is RowSpaceKind.RANDOM:
        rs["count"] = job.row_space.count
        rs["seed"] = job.row_space.seed
    return {
        "field": field_to_json(job.ctx),
        "k": job.k,
        "target": job.target.value,
        "row_space": rs,
        "g_set": list(job.g_set),
        "resume_token": job.resume_token,
        "stop_token": job.stop_token,
        "pruning": job.pruning,
        "prune_power_of_two": job.prune_power_of_two,
        "debug_recheck": job.debug_recheck,
    }
