"""The MDS check, detection of semi-involutory and semi-orthogonal
structure with diagonal-pair recovery, and a lazy full report: each
check runs the first time its field is read, at most once, and
involutory, orthogonal and both detections share one inverse.

A matrix A is semi-involutory when D1 * A * D2 = A^{-1} for some
nonsingular diagonal matrices, and semi-orthogonal when
D1 * A * D2 = (A^{-1})^T. Witness pairs are only determined up to the
scaling family (lam*D1, lam^{-1}*D2) per connected component of A's
nonzero pattern (rows and columns joined by nonzero entries); detection
spreads values from d2 = 1 at the smallest column of each component and
checks each entry of a row when the spread first reaches that row.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

from .errors import SingularMatrixError, SpaceTooLargeError
from .field import GF2m
from .matrix import Matrix

MDS_HARD_CAP = 16
MDS_WARN_DIM = 12


@dataclass(frozen=True)
class DiagonalPair:
    """The (D1, D2) witness of a semi-property, with the k-th power scalars.

    scalar1/scalar2 hold the common value of d1[i]^k / d2[i]^k when all
    entries agree, else None.
    """

    d1: tuple[int, ...]
    d2: tuple[int, ...]
    scalar1: int | None = None
    scalar2: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "d1", tuple(self.d1))
        object.__setattr__(self, "d2", tuple(self.d2))
        if 0 in self.d1 or 0 in self.d2:
            raise ValueError("diagonal witnesses must be non-singular")


class PropertyReport:
    """The five property checks of one matrix. Each field is computed the
    first time it is read and kept: mds and mds_witness from one is_mds
    sweep, the other four from one shared inverse and its transpose (a
    singular matrix is neither involutory nor orthogonal and has no
    pairs). Reports compare and hash by the six fields."""

    FIELDS = ("mds", "mds_witness", "involutory", "orthogonal", "semi_involutory", "semi_orthogonal")

    def __init__(self, a: Matrix):
        self.matrix = a

    @cached_property
    def _mds(self) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
        return is_mds(self.matrix)

    mds = property(lambda self: self._mds[0])
    mds_witness = property(lambda self: self._mds[1])

    @cached_property
    def _inverse(self) -> Matrix | None:
        try:
            return self.matrix.inverse()
        except SingularMatrixError:
            return None

    @cached_property
    def _inverse_t(self) -> Matrix | None:
        return None if self._inverse is None else self._inverse.transpose()

    @cached_property
    def involutory(self) -> bool:
        return self._inverse is not None and self._inverse == self.matrix

    @cached_property
    def orthogonal(self) -> bool:
        return self._inverse_t is not None and self._inverse_t == self.matrix

    @cached_property
    def semi_involutory(self) -> DiagonalPair | None:
        return None if self._inverse is None else _solve_diagonal_sandwich(self.matrix, self._inverse)

    @cached_property
    def semi_orthogonal(self) -> DiagonalPair | None:
        return None if self._inverse_t is None else _solve_diagonal_sandwich(self.matrix, self._inverse_t)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        return isinstance(other, PropertyReport) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "PropertyReport(" + ", ".join(f"{n}={v!r}" for n, v in zip(self.FIELDS, self._fields())) + ")"


def is_mds(a: Matrix):
    """(True, None) iff every square submatrix is nonsingular.

    On failure returns (False, (rows, cols)) for the first singular
    minor in (size, lexicographic rows, lexicographic cols) order.
    Minor counts grow as sum_s C(k,s)^2, so k >= 16 is refused and
    k > 12 warns.

    Minors are computed in that order by Laplace expansion along their
    first row, det(R, C) = sum over j in C of a[min R][j] * det(R - min R,
    C - j), from the minors one size smaller, kept per row set in an
    array('H') indexed like the column sets, through a plan cached per size.
    """
    k = a.rows
    if k >= MDS_HARD_CAP:
        raise SpaceTooLargeError(f"full minor enumeration refused for k >= {MDS_HARD_CAP}")
    if k > MDS_WARN_DIM:
        warnings.warn(f"minor enumeration at k={k} is slow", stacklevel=2)
    mul, e = a.ctx.mul, a.entries
    prev = [array("H", [1])]
    for size in range(1, k + 1):
        sets, subs, expansions = _minor_plan(k, size)
        cur = []
        for rows, sub_rank in zip(sets, subs):
            top, sub, dets = e[rows[0]], prev[sub_rank], array("H")
            for cols, terms in zip(sets, expansions):
                det = 0
                for j, i in terms:
                    det ^= mul(top[j], sub[i])
                if det == 0:
                    return False, (rows, cols)
                dets.append(det)
            cur.append(dets)
        prev = cur
    return True, None


@cache
def _minor_plan(k: int, size: int):
    """is_mds's plan for one size: the size-subsets of range(k) in order,
    per row set the rank of rows[1:] one size down, and per column set
    its terms (j, rank of cols - j one size down)."""
    sets = tuple(combinations(range(k), size))
    rank = {cols: i for i, cols in enumerate(_minor_plan(k, size - 1)[0])} if size > 1 else {(): 0}
    subs = tuple(rank[rows[1:]] for rows in sets)
    expansions = tuple(tuple((j, rank[cols[:p] + cols[p + 1:]]) for p, j in enumerate(cols)) for cols in sets)
    return sets, subs, expansions


def _solve_diagonal_sandwich(a: Matrix, b: Matrix) -> DiagonalPair | None:
    """The anchored pair with d1[i]*A[i,j]*d2[j] = B[i,j] for all i, j,
    or None when no pair exists.

    Each column not yet reached, smallest first, anchors a component with
    d2 = 1; values spread along A's nonzero entries, d1[i] = B[i,j] /
    (A[i,j]*d2[j]) and d2[j] = B[i,j] / (A[i,j]*d1[i]), with 0 marking an
    unreached node. A row's entries are checked when it is first reached:
    a nonzero A entry in an unreached column needs a nonzero B entry and
    gives the column its d2, every other entry must satisfy the identity
    (B[i,t] = 0 where A[i,t] = 0). A row that stays unreached has no pair.
    """
    ctx, k = a.ctx, a.rows
    mul, inv = ctx.mul, ctx.inv
    ae, be = a.entries, b.entries
    d1, d2 = [0] * k, [0] * k
    for anchor in range(k):
        if d2[anchor]:
            continue
        d2[anchor], reached = 1, [anchor]
        while reached:
            j = reached.pop()
            for i in range(k):
                if ae[i][j] and not d1[i]:
                    if not be[i][j]:
                        return None
                    di = d1[i] = mul(be[i][j], inv(mul(ae[i][j], d2[j])))
                    for t, (x, y) in enumerate(zip(ae[i], be[i])):
                        if x and not d2[t]:
                            if not y:
                                return None
                            d2[t] = mul(y, inv(mul(x, di)))
                            reached.append(t)
                        elif mul(mul(di, x), d2[t]) != y:
                            return None
    if 0 in d1:
        return None
    return _scaled_pair(ctx, d1, d2, k)


def detect_semi_involutory(a: Matrix) -> DiagonalPair | None:
    """Anchored (D1, D2) with D1 A D2 = A^{-1}, or None.

    Raises SingularMatrixError when A has no inverse at all.
    """
    return _solve_diagonal_sandwich(a, a.inverse())


def detect_semi_orthogonal(a: Matrix) -> DiagonalPair | None:
    """Anchored (D1, D2) with D1 A D2 = (A^{-1})^T, or None."""
    return _solve_diagonal_sandwich(a, a.inverse().transpose())


def diagonal_power_scalar(ctx: GF2m, d, k: int) -> int | None:
    """The common value of d[i]^k when all k-th powers agree, else None."""
    powers = {ctx.pow(x, k) for x in d}
    if len(powers) == 1:
        return powers.pop()
    return None


def _scaled_pair(ctx: GF2m, d1, d2, k: int) -> DiagonalPair:
    """The pair (d1, d2) with its k-th power scalars filled in."""
    return DiagonalPair(d1, d2, diagonal_power_scalar(ctx, d1, k), diagonal_power_scalar(ctx, d2, k))


def rescale_pair(ctx: GF2m, pair: DiagonalPair, lam: int, k: int) -> DiagonalPair:
    """The orbit member (lam*D1, lam^{-1}*D2)."""
    ilam = ctx.inv(lam)
    d1 = tuple(ctx.mul(lam, x) for x in pair.d1)
    d2 = tuple(ctx.mul(ilam, x) for x in pair.d2)
    return _scaled_pair(ctx, d1, d2, k)


def full_report(a: Matrix) -> PropertyReport:
    """All five property checks of one square matrix, run lazily: nothing
    is computed until a field of the report is read."""
    return PropertyReport(a)
