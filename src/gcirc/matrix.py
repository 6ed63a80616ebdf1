"""Dense exact-arithmetic k x k matrices over a GF2m context, plus
permutations.

Matrices are immutable values; every operation returns a fresh matrix.
check_order is the one order bound, 1 <= k <= MAX_DIM, of every matrix,
g-circulant and cyclic spec and search job, checked when each is made.
Determinant and inverse share one Gauss-Jordan pass with first-nonzero
pivoting (row swaps carry no sign in characteristic 2).
"""

from __future__ import annotations

from .errors import DimensionError, SingularMatrixError, excerpt
from .field import GF2m

MAX_DIM = 64


def check_order(k: int) -> None:
    """Raise DimensionError unless 1 <= k <= MAX_DIM."""
    if k < 1:
        raise DimensionError(f"order must be >= 1, got {excerpt(str(k))}")
    if k > MAX_DIM:
        raise DimensionError(f"dimensions capped at {MAX_DIM}")


class Matrix:
    """A k x k matrix of int-encoded GF(2^m) elements, row-major; rows is k."""

    __slots__ = ("ctx", "rows", "entries")

    def __init__(self, ctx: GF2m, entries):
        rows = tuple(tuple(r) for r in entries)
        k = len(rows)
        for i, r in enumerate(rows):
            if len(r) != k:
                raise DimensionError(f"matrix must be {k}x{k}, row {i} has length {len(r)}")
        check_order(k)
        for r in rows:
            for e in r:
                if not 0 <= e < ctx.q:
                    raise ValueError(f"entry {excerpt(f'{e:#x}')} not reduced in GF(2^{ctx.m})")
        self.ctx = ctx
        self.rows = k
        self.entries = rows

    @classmethod
    def identity(cls, ctx: GF2m, k: int) -> "Matrix":
        return cls(ctx, [[1 if i == j else 0 for j in range(k)] for i in range(k)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ctx == self.ctx
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.ctx, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(self.ctx.format_hex(e) for e in r) for r in self.entries)
        return f"Matrix({self.rows}x{self.rows}, [{body}])"

    # -- ring operations

    def __add__(self, other: "Matrix") -> "Matrix":
        if other.ctx != self.ctx or other.rows != self.rows:
            raise DimensionError("shape or field mismatch")
        return Matrix(
            self.ctx,
            [[a ^ b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.ctx != self.ctx:
            raise DimensionError("operands live in different fields")
        if self.rows != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.rows} by {other.rows}x{other.rows}")
        mul = self.ctx.mul
        bt = list(zip(*other.entries))
        out = []
        for arow in self.entries:
            orow = []
            for bcol in bt:
                acc = 0
                for a, b in zip(arow, bcol):
                    if a and b:
                        acc ^= mul(a, b)
                orow.append(acc)
            out.append(orow)
        return Matrix(self.ctx, out)

    def scale(self, c: int) -> "Matrix":
        mul = self.ctx.mul
        return Matrix(self.ctx, [[mul(c, e) for e in r] for r in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix(self.ctx, list(zip(*self.entries)))

    # -- elimination-based operations (one shared Gauss-Jordan pass)

    def _eliminate(self, rows: list[list[int]]) -> int:
        """In-place Gauss-Jordan on the leading k x k block with first-nonzero
        pivoting: each pivot row is scaled to 1 and its column cleared in
        every other row. Returns the determinant, or 0 when singular."""
        mul, inv = self.ctx.mul, self.ctx.inv
        k = self.rows
        det = 1
        for col in range(k):
            pivot = next((r for r in range(col, k) if rows[r][col]), None)
            if pivot is None:
                return 0
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = mul(det, rows[col][col])
            inv_p = inv(rows[col][col])
            prow = rows[col] = [mul(inv_p, x) for x in rows[col]]
            for r, row in enumerate(rows):
                f = row[col]
                if f and r != col:
                    rows[r] = [x ^ mul(f, y) for x, y in zip(row, prow)]
        return det

    def determinant(self) -> int:
        """Exact determinant by Gauss-Jordan elimination."""
        return self._eliminate([list(r) for r in self.entries])

    def inverse(self) -> "Matrix":
        """Gauss-Jordan on [A | I]: the right half once A is reduced to I."""
        k = self.rows
        aug = [list(r) + [1 if i == j else 0 for j in range(k)] for i, r in enumerate(self.entries)]
        if self._eliminate(aug) == 0:
            raise SingularMatrixError("matrix is singular")
        return Matrix(self.ctx, [r[k:] for r in aug])

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        """The minor selected by strictly increasing row and column index lists
        of one length (Matrix refuses an empty one)."""
        if len(row_idx) != len(col_idx):
            raise DimensionError(f"a minor needs as many rows as columns, got {len(row_idx)} and {len(col_idx)}")
        for name, idx in (("row", row_idx), ("col", col_idx)):
            if any(i < 0 or i >= self.rows for i in idx):
                raise DimensionError(f"{name} index out of range: {list(idx)}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise DimensionError(f"{name} indices must be strictly increasing: {list(idx)}")
        return Matrix(self.ctx, [[self.entries[i][j] for j in col_idx] for i in row_idx])


class Permutation:
    """A bijection on {0..k-1}; images[i] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        k = len(images)
        if sorted(images) != list(range(k)):
            raise ValueError(f"not a bijection on 0..{k - 1}: {excerpt(str(list(images)))}")
        self.images = images

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other):
        return isinstance(other, Permutation) and other.images == self.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)

    def orbit(self, start: int) -> list[int]:
        """The cycle through start: start, sigma(start), sigma^2(start), ..."""
        out = [start]
        cur = self.images[start]
        while cur != start:
            out.append(cur)
            cur = self.images[cur]
        return out

    def is_k_cycle(self) -> bool:
        """True iff the permutation is one cycle covering all k points."""
        return len(self.orbit(0)) == self.size
