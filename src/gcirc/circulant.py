"""Constructors and structure theory for circulant, left-circulant,
g-circulant, and cyclic matrices.

A g-circulant matrix is determined by its order k, shift g, and first
row (c_0..c_{k-1}) through the entry law A[i,j] = c_{(j - i*g) mod k};
g = 1 gives the ordinary circulant, g = k-1 the (symmetric)
left-circulant. A cyclic matrix generalizes the row-to-row step to an
arbitrary k-cycle rho via C[i,j] = c_{rho^{-i}(j)}.

Structure laws computed here: the square as a (g^2, convolution row)
pair for every g, the characteristic-2 square law that decides A^2 = I
from the bare first row when g^2 = 1 (mod k) (square_is_identity, the
one function that decides it), and, for odd k dividing q - 1, the
rows it admits, listed as the inverse DFTs of the units of norm 1 in
GF(2^m)[x]/(x^k - 1) (c * sigma_g(c) = 1, sigma_g: x -> x^g). The
laws that are only asserted (the shift relation A[i,j] = A[i+1, j+g],
A = Q_g * circ(c), inverse and transpose g^{-1}-circulant, product of
a g- and an h-circulant gh-circulant, the permutation equivalence
between cyclic and circulant matrices, and the left-circulant minors
of a (2^{d-1}-1)-circulant of order 2^d) are checked against dense
arithmetic in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import xor

from .errors import DimensionError, NotKCycleError
from .field import GF2m
from .matrix import Matrix, Permutation, check_order


@dataclass(frozen=True)
class GCirculantSpec:
    """The (k, g, first row) triple that fully determines a g-circulant matrix.

    A spec is valid when it is made: its order passes matrix.check_order.
    g is stored reduced mod k, and every g is allowed: g = 0 repeats the
    first row in every row, a g not coprime to k repeats rows too, and
    the entry law and the structured square hold for both.
    """

    ctx: GF2m
    k: int
    g: int
    row: tuple[int, ...]

    def __post_init__(self):
        check_order(self.k)
        object.__setattr__(self, "g", self.g % self.k)
        object.__setattr__(self, "row", tuple(self.row))
        if len(self.row) != self.k:
            raise DimensionError(f"row length {len(self.row)} != order {self.k}")


@dataclass(frozen=True)
class CyclicSpec:
    """Order k (matrix.check_order), a k-cycle rho, and the first row of a cyclic matrix."""

    ctx: GF2m
    k: int
    rho: Permutation
    row: tuple[int, ...]

    def __post_init__(self):
        check_order(self.k)
        object.__setattr__(self, "row", tuple(self.row))
        if self.rho.size != self.k or len(self.row) != self.k:
            raise DimensionError("rho and row must both have size k")
        if not self.rho.is_k_cycle():
            raise NotKCycleError(f"rho is not a single {self.k}-cycle")


def build_g_circulant(spec: GCirculantSpec) -> Matrix:
    """Entry law A[i,j] = c_{(j - i*g) mod k}; row 0 is the given row."""
    k, g, row = spec.k, spec.g, spec.row
    return Matrix(spec.ctx, [[row[(j - i * g) % k] for j in range(k)] for i in range(k)])


def build_circulant(ctx: GF2m, row) -> Matrix:
    return build_g_circulant(GCirculantSpec(ctx, len(tuple(row)), 1, tuple(row)))


def build_left_circulant(ctx: GF2m, row) -> Matrix:
    row = tuple(row)
    return build_g_circulant(GCirculantSpec(ctx, len(row), len(row) - 1, row))


def build_cyclic(spec: CyclicSpec) -> Matrix:
    """Entry law C[i,j] = c_{rho^{-i}(j)}."""
    k = spec.k
    rho_inv = spec.rho.inverse()
    out = []
    index = list(range(k))  # rho^{-i} applied to each column index
    for _ in range(k):
        out.append([spec.row[t] for t in index])
        index = [rho_inv(t) for t in index]
    return Matrix(spec.ctx, out)


def shifted_convolution(ctx: GF2m, row, g: int) -> list[int]:
    """out[l] = sum of c_i * c_j over all pairs with g*i + j = l (mod k)."""
    row = tuple(row)
    k = len(row)
    out = [0] * k
    mul = ctx.mul
    for i in range(k):
        ci = row[i]
        if not ci:
            continue
        base = g * i
        for j in range(k):
            if row[j]:
                out[(base + j) % k] ^= mul(ci, row[j])
    return out


def square_structured(spec: GCirculantSpec):
    """The square of a g-circulant matrix as a (g^2 mod k, row) pair.

    row2[l] collects c_i*c_j over g*i + j = l (mod k); rebuilding with
    the constructor reproduces A @ A exactly, for every g in 0..k-1.
    """
    g2 = spec.g * spec.g % spec.k
    return g2, tuple(shifted_convolution(spec.ctx, spec.row, spec.g))


def involutory_g_filter(g: int, k: int) -> bool:
    """False (prune) iff g^2 != 1 (mod k), when no g-circulant of order k
    can be involutory; True only means "not excluded"."""
    return g * g % k == 1 % k


@cache
def square_plan(k: int, g: int):
    """The square law's plan for g^2 = 1 (mod k): (rules, orbits).

    Each rule (i, others, target) is one fixed l = g*l, l = 0 first, with
    a nonempty set {j : (g+1)*j = l}: i is its largest index and others
    the rest, and the c_j over the set must sum to target (1 at l = 0,
    else 0). Each orbit {l, g*l} with l < g*l lists the pairs (i, j)
    with g*i + j = l, whose product sum must vanish."""
    if not involutory_g_filter(g, k):
        raise ValueError(f"the square law needs g^2 = 1 (mod k), got g={g}, k={k}")
    fixed = [(l, [i for i in range(k) if (g + 1) * i % k == l]) for l in range(k) if g * l % k == l]
    rules = tuple((fs[-1], tuple(fs[:-1]), int(l == 0)) for l, fs in fixed if fs)
    orbits = tuple(tuple((i, (l - g * i) % k) for i in range(k)) for l in range(k) if l < g * l % k)
    return rules, orbits


def involutory_row_count(q: int, k: int, g: int) -> int | None:
    """How many rows involutory_rows lists over GF(q) for (k, g): one
    free DFT value in GF(q)* per orbit of square_plan(k, g), so
    (q - 1)^orbits. None where the inverse DFT does not apply: it needs
    odd k dividing q - 1 and g^2 = 1 (mod k)."""
    if k % 2 == 0 or (q - 1) % k or not involutory_g_filter(g, k):
        return None
    return (q - 1) ** len(square_plan(k, g)[1])


def involutory_rows(ctx: GF2m, k: int, g: int) -> list[tuple[int, ...]]:
    """Every first row c with c * sigma_g(c) = 1 in GF(2^m)[x]/(x^k - 1),
    sigma_g: x -> x^g: the rows whose g-circulant squares to I, for odd k
    dividing q - 1 and g^2 = 1 (mod k).

    x^k - 1 then has k distinct roots zeta^j, zeta a primitive k-th root
    of unity, so c is the inverse DFT c_i = sum_j l_j zeta^(-ij) of its
    values l_j = c(zeta^j) (k is odd: no 1/k factor), and the law reads
    l_j * l_{g*j} = 1. So l_j = 1 where g*j = j, and l_{g*j} = l_j^-1 on
    each pair {j, g*j}: involutory_row_count(q, k, g) rows in all."""
    q, mul = ctx.q, ctx.mul
    if involutory_row_count(q, k, g) is None:
        raise ValueError(f"the inverse DFT needs odd k | q - 1 and g^2 = 1 (mod k), got q={q}, k={k}, g={g}")
    zeta = ctx.root_of_unity(k)
    powers = [ctx.pow(zeta, -e % k) for e in range(k)]  # zeta^(-e)

    def column(j: int, value: int) -> list[int]:  # value * zeta^(-ij) over i
        return [mul(value, powers[i * j % k]) for i in range(k)]

    rows = [(0,) * k]
    for j in range(k):
        gj = g * j % k
        if gj == j:
            choices = [column(j, 1)]
        elif j < gj:
            choices = [list(map(xor, column(j, v), column(gj, ctx.inv(v)))) for v in range(1, q)]
        else:
            continue
        rows = [tuple(map(xor, row, choice)) for row in rows for choice in choices]
    return rows


def square_is_identity(ctx: GF2m, k: int, g: int, row) -> bool:
    """A @ A = I for the g-circulant of order k with this first row, for
    g^2 = 1 (mod k), from the row alone.

    Swapping i and j maps the pairs of square_structured's row2[l] onto
    those of row2[g*l]. On a fixed l (g*l = l) each pair with i != j
    cancels its swap in characteristic 2, so row2[l] is the square of the
    sum of c_i over (g+1)*i = l, which must be 1 at l = 0 and 0 elsewhere:
    square_plan(k, g)'s linear rules, checked first. Each other orbit
    {l, g*l} needs one product sum to vanish. Exits at the first failure."""
    rules, orbits = square_plan(k, g)
    for i, others, target in rules:
        acc = row[i]
        for j in others:
            acc ^= row[j]
        if acc != target:
            return False
    mul = ctx.mul
    for pairs in orbits:
        acc = 0
        for i, j in pairs:
            acc ^= mul(row[i], row[j])
        if acc:
            return False
    return True


def left_circulant_involutory_conditions(ctx: GF2m, row) -> bool:
    """A @ A = I for A = build_left_circulant(ctx, row), by the square law
    with g = k-1: the row sums to 1, and the product sum over
    g*i + j = l (mod k) vanishes for l = 1..floor((k-1)/2)."""
    row = tuple(row)
    return bool(row) and square_is_identity(ctx, len(row), len(row) - 1, row)
