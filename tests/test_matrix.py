"""Matrix core: exact product, transpose, determinant, inverse,
submatrices, and permutations."""

import random
from itertools import product

import pytest

from gcirc import (
    CyclicSpec,
    DimensionError,
    GF2m,
    GCirculantSpec,
    Matrix,
    Permutation,
    RowSpace,
    RowSpaceKind,
    SearchJob,
    SingularMatrixError,
    Target,
    build_circulant,
    build_g_circulant,
    build_left_circulant,
)
from gcirc.matrix import check_order
from conftest import laplace_det, perm_matrix


def rand_matrix(rng, ctx, k):
    return Matrix(ctx, [[rng.randrange(ctx.q) for _ in range(k)] for _ in range(k)])


def all_gf2_3x3():
    """Every 3x3 matrix over GF(2): all 512 zero patterns, so every pivot
    position and row swap the elimination can meet."""
    gf2 = GF2m(1, 0x3)
    return [Matrix(gf2, [bits[:3], bits[3:6], bits[6:]]) for bits in product((0, 1), repeat=9)]


class TestProduct:
    def test_identity_neutral(self, gf16):
        rng = random.Random(1)
        a = rand_matrix(rng, gf16, 4)
        i = Matrix.identity(gf16, 4)
        assert a @ i == a
        assert i @ a == a

    def test_circulant_square_entry(self, gf4):
        # circulant(1, a^2)^2 over GF(4): top-left entry is 1 + a^4 = 1 + a
        a = build_circulant(gf4, (1, gf4.mul(2, 2)))
        sq = a @ a
        assert sq[0, 0] == 1 ^ gf4.pow(2, 4) == 0x03

    def test_dim_mismatch(self, gf16):
        a = Matrix(gf16, [[1, 2], [3, 4]])
        b = Matrix(gf16, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(DimensionError):
            a @ b

    def test_cross_field_rejected(self, gf16, gf4):
        a = Matrix(gf16, [[1]])
        b = Matrix(gf4, [[1]])
        with pytest.raises(DimensionError):
            a @ b

    def test_dimension_cap(self, gf16):
        with pytest.raises(DimensionError):
            Matrix(gf16, [[0] * 65 for _ in range(65)])

    @pytest.mark.parametrize("k, message", [(0, "order must be >= 1, got 0"), (-3, "order must be >= 1, got -3"),
                                            (65, "dimensions capped at 64")])
    def test_order_bound_checked_when_made(self, gf4, k, message):
        # check_order bounds every spec and job of order k when it is made, before its row is read
        check_order(1)
        check_order(64)
        for make in (lambda: check_order(k),
                     lambda: GCirculantSpec(gf4, k, 1, (1,)),
                     lambda: CyclicSpec(gf4, k, Permutation([0]), (1,)),
                     lambda: SearchJob(gf4, k, Target.MDS_ONLY, RowSpace(RowSpaceKind.EXHAUSTIVE))):
            with pytest.raises(DimensionError) as info:
                make()
            assert str(info.value) == message

    def test_unreduced_entry_rejected(self, gf4):
        with pytest.raises(ValueError):
            Matrix(gf4, [[4]])


class TestTranspose:
    def test_involution(self, gf16):
        rng = random.Random(2)
        a = rand_matrix(rng, gf16, 5)
        assert a.transpose().transpose() == a

    def test_identity_fixed(self, gf16):
        i = Matrix.identity(gf16, 4)
        assert i.transpose() == i

    def test_left_circulant_symmetric(self, ctx165):
        rng = random.Random(3)
        for k in (2, 3, 5, 6):
            row = tuple(rng.randrange(ctx165.q) for _ in range(k))
            a = build_left_circulant(ctx165, row)
            assert a.transpose() == a


class TestDeterminant:
    def test_identity(self, gf16):
        assert Matrix.identity(gf16, 5).determinant() == 1

    def test_zero_row(self, gf16):
        a = Matrix(gf16, [[1, 2], [0, 0]])
        assert a.determinant() == 0

    def test_gf4_circulant(self, gf4):
        # 1*1 - a^2*a^2 = 1 + a^4 = 1 + a = a^2
        a = build_circulant(gf4, (1, 0x03))
        assert a.determinant() == 0x03 == gf4.mul(0x02, 0x02)

    def test_laplace_oracle(self, gf16, ctx165):
        rng = random.Random(4)
        for ctx in (gf16, ctx165):
            for k in (1, 2, 3, 4):
                for _ in range(40):
                    a = rand_matrix(rng, ctx, k)
                    assert a.determinant() == laplace_det(a)
        for a in all_gf2_3x3():
            assert a.determinant() == laplace_det(a), a

    def test_multiplicativity(self, gf16):
        rng = random.Random(5)
        for _ in range(60):
            k = rng.randrange(1, 5)
            a, b = rand_matrix(rng, gf16, k), rand_matrix(rng, gf16, k)
            assert (a @ b).determinant() == gf16.mul(a.determinant(), b.determinant())

    def test_transpose_invariant(self, gf16):
        rng = random.Random(6)
        for _ in range(60):
            a = rand_matrix(rng, gf16, rng.randrange(1, 6))
            assert a.determinant() == a.transpose().determinant()

    def test_non_square_rejected(self, gf16):
        with pytest.raises(DimensionError):
            Matrix(gf16, [[1, 2]]).determinant()


class TestInverse:
    def test_identity(self, gf16):
        i = Matrix.identity(gf16, 3)
        assert i.inverse() == i

    def test_round_trip_and_involution(self, ctx165):
        rng = random.Random(7)
        done = 0
        while done < 40:
            a = rand_matrix(rng, ctx165, rng.randrange(1, 6))
            if a.determinant() == 0:
                continue
            done += 1
            assert a @ a.inverse() == Matrix.identity(ctx165, a.rows)
            assert a.inverse() @ a == Matrix.identity(ctx165, a.rows)
            assert a.inverse().inverse() == a

    def test_fails_exactly_when_singular(self, gf4):
        rng = random.Random(8)
        for _ in range(200):
            a = rand_matrix(rng, gf4, rng.randrange(1, 4))
            if a.determinant() == 0:
                with pytest.raises(SingularMatrixError):
                    a.inverse()
            else:
                a.inverse()
        for a in all_gf2_3x3():
            if laplace_det(a) == 0:
                with pytest.raises(SingularMatrixError):
                    a.inverse()
            else:
                assert a @ a.inverse() == Matrix.identity(a.ctx, 3), a

    def test_semi_involutory_example_inverse(self, gf4):
        # inv(circulant(1, a^2)) equals diag(a,a) @ A @ I
        a_el = 0x02
        a = build_circulant(gf4, (1, gf4.mul(a_el, a_el)))
        scaled = a.scale(a_el)
        assert a.inverse() == scaled


class TestSubmatrix:
    def test_full_selection(self, gf16):
        rng = random.Random(9)
        a = rand_matrix(rng, gf16, 4)
        assert a.submatrix(range(4), range(4)) == a

    def test_single_entry(self, gf16):
        a = Matrix(gf16, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        for j in range(3):
            assert a.submatrix([0], [j]) == Matrix(gf16, [[a[0, j]]])

    def test_antidiagonal_minor_for_g_half_plus_one(self, gf16):
        # order 2^d, g = 2^(d-1)+1: the minor at rows {0, 2^(d-1)},
        # cols {2^(d-2), 3*2^(d-2)} has swapped entries in its second row
        rng = random.Random(10)
        for d in (2, 3):
            k = 1 << d
            g = (1 << (d - 1)) + 1
            row = tuple(rng.randrange(gf16.q) for _ in range(k))
            a = build_g_circulant(GCirculantSpec(gf16, k, g, row))
            quarter = 1 << (d - 2)
            sub = a.submatrix([0, 1 << (d - 1)], [quarter, 3 * quarter])
            assert sub[0, 0] == row[quarter]
            assert sub[0, 1] == row[3 * quarter]
            assert sub[1, 0] == row[3 * quarter]
            assert sub[1, 1] == row[quarter]

    def test_bad_indices(self, gf16):
        a = Matrix.identity(gf16, 3)
        with pytest.raises(DimensionError):
            a.submatrix([0, 0], [1])
        with pytest.raises(DimensionError):
            a.submatrix([2, 1], [0])
        with pytest.raises(DimensionError):
            a.submatrix([0], [3])
        with pytest.raises(DimensionError):
            a.submatrix([], [0])
        # a minor is square: index lists of unequal length are refused
        with pytest.raises(DimensionError, match="as many rows as columns, got 2 and 1"):
            a.submatrix([0, 1], [2])
        with pytest.raises(DimensionError, match="order must be >= 1, got 0"):
            a.submatrix([], [])


class TestPermutation:
    def test_identity_matrix(self, gf16):
        ident = Permutation(range(4))
        assert perm_matrix(gf16, ident.images) == Matrix.identity(gf16, 4)
        assert ident.inverse() == ident and ident.orbit(2) == [2]

    def test_rotation_is_p_circulant(self, gf16):
        k = 5
        p = Permutation((i + 1) % k for i in range(k))
        pm = perm_matrix(gf16, p.images)
        assert pm == build_circulant(gf16, (0, 1, 0, 0, 0))
        assert p.is_k_cycle()
        power = pm
        for _ in range(k - 1):
            power = power @ pm
        assert power == Matrix.identity(gf16, k)

    def test_matrix_of_compose_is_product(self, gf16):
        # P[i, p(i)] = 1, so P @ Q is the matrix of i -> q(p(i))
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randrange(1, 7)
            p, q = rng.sample(range(k), k), rng.sample(range(k), k)
            pq = perm_matrix(gf16, [q[p[i]] for i in range(k)])
            assert perm_matrix(gf16, p) @ perm_matrix(gf16, q) == pq

    def test_orthogonality(self, gf16):
        rng = random.Random(12)
        for _ in range(30):
            k = rng.randrange(1, 7)
            m = perm_matrix(gf16, rng.sample(range(k), k))
            assert m @ m.transpose() == Matrix.identity(gf16, k)

    def test_inverse(self):
        p = Permutation([1, 2, 0])
        assert p.inverse() == Permutation([2, 0, 1])
        assert [p.inverse()(p(i)) for i in range(3)] == [0, 1, 2]

    def test_not_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_k_cycle_detection(self):
        assert Permutation([1, 2, 0]).is_k_cycle()
        assert not Permutation([1, 0, 2]).is_k_cycle()
