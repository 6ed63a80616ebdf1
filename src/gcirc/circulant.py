"""Constructors and structure theory for circulant, left-circulant,
g-circulant, and cyclic matrices.

A g-circulant matrix is determined by its order k, shift g, and first
row (c_0..c_{k-1}) through the entry law A[i,j] = c_{(j - i*g) mod k};
g = 1 gives the ordinary circulant, g = k-1 the (symmetric)
left-circulant. A cyclic matrix generalizes the row-to-row step to an
arbitrary k-cycle rho via C[i,j] = c_{rho^{-i}(j)}.

Structure laws computed here: the shift relation
A[i,j] = A[i+1, j+g] and detection of g from it, the square as a
(g^2, convolution row) pair, the characteristic-2 square law that
decides A^2 = I from the first row when g^2 = 1 (mod k), the
permutation equivalence between cyclic and circulant matrices, and the
left-circulant minors of a (2^{d-1}-1)-circulant of order 2^d. The
laws that are only asserted (A = Q_g * circ(c), inverse and transpose
g^{-1}-circulant, product of a g- and an h-circulant gh-circulant) are
checked against dense arithmetic in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .errors import DimensionError, NotCoprimeError, NotKCycleError
from .field import GF2m
from .matrix import MAX_DIM, Matrix, Permutation


@dataclass(frozen=True)
class GCirculantSpec:
    """The (k, g, first row) triple that fully determines a g-circulant matrix.

    g is stored reduced mod k; g = 0 is permitted at construction (the
    constant-row degenerate) but rejected by every operation that needs
    an invertible shift.
    """

    ctx: GF2m
    k: int
    g: int
    row: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise DimensionError(f"order must be >= 1, got {self.k}")
        object.__setattr__(self, "g", self.g % self.k)
        object.__setattr__(self, "row", tuple(self.row))
        if len(self.row) != self.k:
            raise DimensionError(f"row length {len(self.row)} != order {self.k}")

    @property
    def gcd_flag(self) -> int:
        return math.gcd(self.g, self.k)

    def require_coprime(self):
        if self.gcd_flag != 1:
            raise NotCoprimeError(f"gcd(g={self.g}, k={self.k}) = {self.gcd_flag}")


@dataclass(frozen=True)
class CyclicSpec:
    """Order k, a k-cycle rho, and the first row of a cyclic matrix."""

    ctx: GF2m
    k: int
    rho: Permutation
    row: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise DimensionError(f"order must be >= 1, got {self.k}")
        object.__setattr__(self, "row", tuple(self.row))
        if self.rho.size != self.k or len(self.row) != self.k:
            raise DimensionError("rho and row must both have size k")
        if not self.rho.is_k_cycle():
            raise NotKCycleError(f"rho is not a single {self.k}-cycle")


def build_g_circulant(spec: GCirculantSpec) -> Matrix:
    """Entry law A[i,j] = c_{(j - i*g) mod k}; row 0 is the given row."""
    k, g, row = spec.k, spec.g, spec.row
    if k > MAX_DIM:  # Matrix's cap, checked before the k^2 entries are built
        raise DimensionError(f"dimensions capped at {MAX_DIM}")
    return Matrix(spec.ctx, [[row[(j - i * g) % k] for j in range(k)] for i in range(k)])


def build_circulant(ctx: GF2m, row) -> Matrix:
    return build_g_circulant(GCirculantSpec(ctx, len(tuple(row)), 1, tuple(row)))


def build_left_circulant(ctx: GF2m, row) -> Matrix:
    row = tuple(row)
    return build_g_circulant(GCirculantSpec(ctx, len(row), len(row) - 1, row))


def build_cyclic(spec: CyclicSpec) -> Matrix:
    """Entry law C[i,j] = c_{rho^{-i}(j)}."""
    k = spec.k
    if k > MAX_DIM:
        raise DimensionError(f"dimensions capped at {MAX_DIM}")
    rho_inv = spec.rho.inverse()
    out = []
    index = list(range(k))  # rho^{-i} applied to each column index
    for _ in range(k):
        out.append([spec.row[t] for t in index])
        index = [rho_inv(t) for t in index]
    return Matrix(spec.ctx, out)


def g_shift_cycle(k: int, g: int) -> Permutation:
    """The k-cycle (0, g, 2g mod k, ...), i.e. i -> i+g mod k.

    Requires gcd(g, k) = 1, otherwise the orbit of 0 is shorter than k.
    """
    if math.gcd(g % k, k) != 1:
        raise NotCoprimeError(f"gcd({g}, {k}) != 1: orbit of 0 does not cover 0..{k - 1}")
    return Permutation((i + g) % k for i in range(k))


def rotation_perm(k: int) -> Permutation:
    """P = circulant(0,1,0,...,0) as a permutation: i -> i+1 mod k."""
    return Permutation((i + 1) % k for i in range(k))


def satisfies_shift(a: Matrix, g: int) -> bool:
    """True iff A[i,j] = A[(i+1) mod k, (j+g) mod k] for all i, j."""
    if not a.is_square:
        return False
    k = a.rows
    e = a.entries
    g %= k
    return all(
        e[i][j] == e[(i + 1) % k][(j + g) % k] for i in range(k) for j in range(k)
    )


def detect_g_circulant(a: Matrix):
    """Smallest g in 0..k-1 whose shift relation the matrix satisfies,
    with row 0; None if no g works."""
    if not a.is_square:
        raise DimensionError("detection needs a square matrix")
    for g in range(a.rows):
        if satisfies_shift(a, g):
            return g, a.entries[0]
    return None


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
    the constructor reproduces A @ A exactly.
    """
    spec.require_coprime()
    g2 = spec.g * spec.g % spec.k
    return g2, tuple(shifted_convolution(spec.ctx, spec.row, spec.g))


@cache
def _square_plan(k: int, g: int):
    """square_is_identity's index sets: per fixed l, l = 0 first, the i
    with (g+1)*i = l; per orbit {l, g*l}, the pairs with g*i + j = l."""
    if g * g % k != 1 % k:
        raise ValueError(f"the square law needs g^2 = 1 (mod k), got g={g}, k={k}")
    fixed = tuple(tuple(i for i in range(k) if (g + 1) * i % k == l) for l in range(k) if g * l % k == l)
    orbits = tuple(tuple((i, (l - g * i) % k) for i in range(k)) for l in range(k) if l < g * l % k)
    return fixed, orbits


def square_is_identity(spec: GCirculantSpec) -> bool:
    """A @ A = I for a spec with g^2 = 1 (mod k), from the first row alone.

    Swapping i and j maps the pairs of square_structured's row2[l] onto
    those of row2[g*l]. On a fixed l (g*l = l) each pair with i != j
    cancels its swap in characteristic 2, so row2[l] is the square of the
    sum of c_i over (g+1)*i = l, which must be 1 at l = 0 and 0 elsewhere;
    each other orbit {l, g*l} needs one product sum to vanish. Exits at
    the first failure."""
    row = spec.row
    fixed, orbits = _square_plan(spec.k, spec.g)
    for n, indices in enumerate(fixed):
        acc = 0
        for i in indices:
            acc ^= row[i]
        if acc != (1 if n == 0 else 0):
            return False
    mul = spec.ctx.mul
    for pairs in orbits:
        acc = 0
        for i, j in pairs:
            acc ^= mul(row[i], row[j])
        if acc:
            return False
    return True


def cyclic_to_circulant(spec: CyclicSpec):
    """The unique permutation Q with cyclic * Q = circulant.

    Q[i,j] = 1 iff i = rho^j(0); the circulant's first row is
    (c_0, c_{rho(0)}, c_{rho^2(0)}, ...). Q^{-1} equals the cyclic
    matrix with first row (1,0,...,0).
    """
    orbit = spec.rho.orbit(0)
    images = [0] * spec.k
    for j, node in enumerate(orbit):
        images[node] = j
    q = Permutation(images)
    circ_row = tuple(spec.row[node] for node in orbit)
    return q, circ_row


def left_circulant_submatrices(spec: GCirculantSpec):
    """The two left-circulant minors of a (2^{d-1}-1)-circulant of order 2^d.

    Even rows x even columns give left-circulant(c_0, c_2, ...); even
    rows x odd columns give left-circulant(c_1, c_3, ...).
    """
    k = spec.k
    d = k.bit_length() - 1
    if k < 4 or k != 1 << d:
        raise DimensionError(f"order must be a power of two >= 4, got {k}")
    if spec.g != (1 << (d - 1)) - 1:
        raise DimensionError(f"shift must be 2^{d - 1} - 1 = {(1 << (d - 1)) - 1}, got {spec.g}")
    a = build_g_circulant(spec)
    evens = list(range(0, k, 2))
    odds = list(range(1, k, 2))
    return a.submatrix(evens, evens), a.submatrix(evens, odds)
