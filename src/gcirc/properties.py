"""MDS and involutory checks, detection of semi-involutory and
semi-orthogonal structure with diagonal-pair recovery, and a lazy full
report: each check runs the first time its field is read, at most once,
and involutory, orthogonal and both detections share one inverse.

A matrix A is semi-involutory when D1 * A * D2 = A^{-1} for some
nonsingular diagonal matrices, and semi-orthogonal when
D1 * A * D2 = (A^{-1})^T. Witness pairs are only determined up to the
scaling family (lam*D1, lam^{-1}*D2) per connected component of the
ratio graph; detection returns the representative with d2 = 1 at the
smallest column node of each component.
"""

from __future__ import annotations

import warnings
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .circulant import shifted_convolution
from .errors import DimensionError, SingularMatrixError, SpaceTooLargeError
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
        return None if self._inverse is None else _detect(self.matrix, self._inverse)

    @cached_property
    def semi_orthogonal(self) -> DiagonalPair | None:
        return None if self._inverse_t is None else _detect(self.matrix, self._inverse_t)

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
    array('H') indexed like the column sets.
    """
    if not a.is_square:
        raise DimensionError("MDS check needs a square matrix")
    k = a.rows
    if k >= MDS_HARD_CAP:
        raise SpaceTooLargeError(f"full minor enumeration refused for k >= {MDS_HARD_CAP}")
    if k > MDS_WARN_DIM:
        warnings.warn(f"minor enumeration at k={k} is slow", stacklevel=2)
    mul, e = a.ctx.mul, a.entries
    rank, prev = {(): 0}, {(): [1]}
    for size in range(1, k + 1):
        col_sets = list(combinations(range(k), size))
        # per column set, its terms: (j, rank of cols - j one size down)
        expansions = [[(j, rank[cols[:p] + cols[p + 1:]]) for p, j in enumerate(cols)] for cols in col_sets]
        cur = {}
        for rows in combinations(range(k), size):
            top, sub, dets = e[rows[0]], prev[rows[1:]], array("H")
            for cols, terms in zip(col_sets, expansions):
                det = 0
                for j, i in terms:
                    det ^= mul(top[j], sub[i])
                if det == 0:
                    return False, (rows, cols)
                dets.append(det)
            cur[rows] = dets
        rank, prev = {cols: i for i, cols in enumerate(col_sets)}, cur
    return True, None


def is_involutory(a: Matrix) -> bool:
    """A @ A = I, decided entrywise with early exit."""
    if not a.is_square:
        return False
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


def ratio_components(a: Matrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components of the bipartite graph with an edge per
    nonzero entry, as (row indices, column indices) pairs sorted by
    smallest column."""
    k = a.rows
    row_adj = [[j for j in range(a.cols) if a.entries[i][j]] for i in range(k)]
    col_adj = [[i for i in range(k) if a.entries[i][j]] for j in range(a.cols)]
    seen_rows, seen_cols = set(), set()
    comps = []
    for start in range(a.cols):
        if start in seen_cols:
            continue
        rows, cols = set(), {start}
        queue = deque([("c", start)])
        seen_cols.add(start)
        while queue:
            kind, node = queue.popleft()
            neighbors = col_adj[node] if kind == "c" else row_adj[node]
            for nb in neighbors:
                if kind == "c" and nb not in seen_rows:
                    seen_rows.add(nb)
                    rows.add(nb)
                    queue.append(("r", nb))
                elif kind == "r" and nb not in seen_cols:
                    seen_cols.add(nb)
                    cols.add(nb)
                    queue.append(("c", nb))
        comps.append((tuple(sorted(rows)), tuple(sorted(cols))))
    return comps


def _solve_diagonal_sandwich(a: Matrix, b: Matrix):
    """Diagonals (d1, d2) with d1[i]*A[i,j]*d2[j] = B[i,j] for all i, j.

    The constraint is a multiplicative rank-1 condition on the nonzero
    pattern: propagate values over the ratio graph from a d2 = 1 anchor
    at the smallest column of each component, reject on inconsistent
    back edges, then re-verify the full identity. Returns None when no
    pair exists.
    """
    ctx, k = a.ctx, a.rows
    ae, be = a.entries, b.entries
    for i in range(k):
        for j in range(k):
            if (ae[i][j] == 0) != (be[i][j] == 0):
                return None
    ratio = [
        [ctx.mul(be[i][j], ctx.inv(ae[i][j])) if ae[i][j] else 0 for j in range(k)]
        for i in range(k)
    ]
    d1: list[int | None] = [None] * k
    d2: list[int | None] = [None] * k
    for anchor in range(k):
        if d2[anchor] is not None:
            continue
        d2[anchor] = 1
        queue = deque([("c", anchor)])
        while queue:
            kind, node = queue.popleft()
            if kind == "c":
                for i in range(k):
                    if ratio[i][node]:
                        val = ctx.mul(ratio[i][node], ctx.inv(d2[node]))
                        if d1[i] is None:
                            d1[i] = val
                            queue.append(("r", i))
                        elif d1[i] != val:
                            return None
            else:
                for j in range(k):
                    if ratio[node][j]:
                        val = ctx.mul(ratio[node][j], ctx.inv(d1[node]))
                        if d2[j] is None:
                            d2[j] = val
                            queue.append(("c", j))
                        elif d2[j] != val:
                            return None
    if None in d1 or None in d2:
        return None  # isolated node: a zero row or column
    for i in range(k):
        for j in range(k):
            if ae[i][j] and ctx.mul(d1[i], ctx.mul(ae[i][j], d2[j])) != be[i][j]:
                return None
    return tuple(d1), tuple(d2)


def _detect(a: Matrix, b: Matrix) -> DiagonalPair | None:
    sol = _solve_diagonal_sandwich(a, b)
    if sol is None:
        return None
    return _scaled_pair(a.ctx, *sol, a.rows)


def detect_semi_involutory(a: Matrix) -> DiagonalPair | None:
    """Anchored (D1, D2) with D1 A D2 = A^{-1}, or None.

    Raises SingularMatrixError when A has no inverse at all.
    """
    return _detect(a, a.inverse())


def detect_semi_orthogonal(a: Matrix) -> DiagonalPair | None:
    """Anchored (D1, D2) with D1 A D2 = (A^{-1})^T, or None."""
    return _detect(a, a.inverse().transpose())


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


def scaling_freedom_normalize(ctx: GF2m, pair: DiagonalPair, components) -> DiagonalPair:
    """Rescale so d2 = 1 at the smallest column node of each component.

    components is the (rows, cols) list from ratio_components() of the
    matrix the pair witnesses; detection output is already in this form.
    """
    k = len(pair.d1)
    d1, d2 = list(pair.d1), list(pair.d2)
    for rows, cols in components:
        anchor = min(cols)
        lam = d2[anchor]
        ilam = ctx.inv(lam)
        for i in rows:
            d1[i] = ctx.mul(d1[i], lam)
        for j in cols:
            d2[j] = ctx.mul(d2[j], ilam)
    return _scaled_pair(ctx, d1, d2, k)


def left_circulant_involutory_conditions(ctx: GF2m, row) -> bool:
    """Involutory test for left-circulant matrices from the first row alone.

    True iff the row sums to 1 and, with g = k-1, the convolution
    sum over g*i + j = l (mod k) vanishes for l = 1..floor((k-1)/2).
    Equivalent to is_involutory(build_left_circulant(ctx, row)).
    """
    row = tuple(row)
    k = len(row)
    total = 0
    for c in row:
        total ^= c
    if total != 1:
        return False
    if k == 1:
        return True
    conv = shifted_convolution(ctx, row, k - 1)
    return all(conv[l] == 0 for l in range(1, (k - 1) // 2 + 1))


def involutory_g_filter(g: int, k: int) -> bool:
    """False (prune) iff g^2 != 1 (mod k), when no g-circulant of order k
    can be involutory; True only means "not excluded"."""
    return g * g % k == 1 % k


def full_report(a: Matrix) -> PropertyReport:
    """All five property checks of one square matrix, run lazily: nothing
    is computed until a field of the report is read."""
    return PropertyReport(a)
