"""Circulant family: constructors, the factoring A = Q_g * circ(c), the
shift laws for products, inverses and transposes, structured squares,
the cyclic-to-circulant equivalence and the left-circulant minors."""

import random
from itertools import product
from math import gcd

import pytest

from gcirc import (
    CyclicSpec,
    GCirculantSpec,
    Matrix,
    NotKCycleError,
    Permutation,
    SingularMatrixError,
    build_circulant,
    build_cyclic,
    build_g_circulant,
    build_left_circulant,
    involutory_rows,
    shifted_convolution,
    square_is_identity,
    square_structured,
)
from gcirc.circulant import involutory_row_count
from conftest import perm_matrix, random_row, random_spec

PAPER_ROW_STRS = ("1", "a", "1+a+a^4+a^5+a^7", "1+a+a^3+a^4+a^5+a^7", "a+a^3")


@pytest.fixture()
def paper_spec(ctx165):
    row = tuple(ctx165.parse(s) for s in PAPER_ROW_STRS)
    return GCirculantSpec(ctx165, 5, 3, row)


class TestBuilders:
    def test_entry_law_on_reference_matrix(self, paper_spec):
        a = build_g_circulant(paper_spec)
        # [1,3]: c_{(3 - 3) mod 5} = c_0
        assert a[1, 3] == paper_spec.row[0] == 1
        for i in range(5):
            for j in range(5):
                assert a[i, j] == paper_spec.row[(j - 3 * i) % 5]

    def test_g1_right_rotation(self, gf16):
        row = (1, 2, 3, 4)
        a = build_circulant(gf16, row)
        assert a.entries[1] == (4, 1, 2, 3)

    def test_gk1_left_rotation(self, gf16):
        row = (1, 2, 3, 4)
        a = build_left_circulant(gf16, row)
        assert a.entries[1] == (2, 3, 4, 1)

    def test_order_one(self, gf16):
        assert build_circulant(gf16, (7,)) == Matrix(gf16, [[7]])

    def test_unit_row_gives_rotation_matrix(self, gf16):
        p = build_circulant(gf16, (0, 1, 0, 0, 0))
        assert p == perm_matrix(gf16, [(i + 1) % 5 for i in range(5)])

    def test_g_reduced_mod_k(self, gf16):
        s = GCirculantSpec(gf16, 5, 8, (1, 2, 3, 4, 5))
        assert s.g == 3
        assert gcd(s.g, s.k) == 1

    def test_row_length_checked(self, gf16):
        with pytest.raises(Exception):
            GCirculantSpec(gf16, 4, 1, (1, 2, 3))


class TestCyclic:
    def test_rotation_cycle_gives_circulant(self, gf16):
        rng = random.Random(20)
        for k in (1, 2, 3, 5, 7):
            row = random_row(rng, gf16, k)
            spec = CyclicSpec(gf16, k, Permutation((i + 1) % k for i in range(k)), row)
            assert build_cyclic(spec) == build_circulant(gf16, row)

    def test_backward_cycle_gives_left_circulant(self, gf16):
        rng = random.Random(21)
        for k in (2, 3, 4, 5, 8):
            row = random_row(rng, gf16, k)
            rho = Permutation((i - 1) % k for i in range(k))  # the (0, k-1, k-2, ...) cycle
            spec = CyclicSpec(gf16, k, rho, row)
            assert build_cyclic(spec) == build_left_circulant(gf16, row)

    def test_g_shift_cycle_matches_g_circulant(self, gf16):
        rng = random.Random(22)
        for k in range(1, 9):
            for g in range(k):
                if gcd(g, k) != 1:
                    continue
                row = random_row(rng, gf16, k)
                rho = Permutation((i + g) % k for i in range(k))
                cyc = build_cyclic(CyclicSpec(gf16, k, rho, row))
                assert cyc == build_g_circulant(GCirculantSpec(gf16, k, g, row))

    def test_non_k_cycle_rejected(self, gf16):
        with pytest.raises(NotKCycleError):
            CyclicSpec(gf16, 4, Permutation([1, 0, 3, 2]), (1, 2, 3, 4))

    def test_g_shift_cycle_orbit(self):
        # i -> i + g walks 0, g, 2g, ... mod k
        assert Permutation((i + 3) % 5 for i in range(5)).orbit(0) == [0, 3, 1, 4, 2]
        assert Permutation((i + 1) % 6 for i in range(6)).orbit(0) == [0, 1, 2, 3, 4, 5]

    def test_g_shift_cycle_not_coprime(self, gf16):
        # i -> i + g is a k-cycle exactly when gcd(g, k) = 1
        for k in range(1, 13):
            for g in range(k):
                assert Permutation((i + g) % k for i in range(k)).is_k_cycle() == (gcd(g, k) == 1)
        with pytest.raises(NotKCycleError):
            CyclicSpec(gf16, 4, Permutation((i + 2) % 4 for i in range(4)), (1, 2, 3, 4))


def unit_shift(ctx, k, g):
    """Q_g: the g-circulant with first row (1, 0, ..., 0)."""
    return build_g_circulant(GCirculantSpec(ctx, k, g, (1,) + (0,) * (k - 1)))


def rotation_power(ctx, k, g):
    """P^g = circ(e_g), with P = circ(0, 1, 0, ..., 0)."""
    return build_circulant(ctx, [int(j == g % k) for j in range(k)])


def satisfies_shift(m, g):
    """The shift relation A[i, j] = A[i+1, j+g], indices mod k."""
    k = m.rows
    return all(m[i, j] == m[(i + 1) % k, (j + g) % k] for i in range(k) for j in range(k))


class TestPermutationRepresentation:
    """A = Q_g * circ(c), with P = circ(0, 1, 0, ..., 0) and P Q_g = Q_g P^g."""

    def test_circulant_case_uses_identity_q(self, gf16):
        rng = random.Random(23)
        row = random_row(rng, gf16, 6)
        assert unit_shift(gf16, 6, 1) == Matrix.identity(gf16, 6)
        assert build_circulant(gf16, (0, 1, 0, 0, 0, 0)) == perm_matrix(gf16, [1, 2, 3, 4, 5, 0])
        assert build_g_circulant(GCirculantSpec(gf16, 6, 1, row)) == build_circulant(gf16, row)

    def test_reconstruction_equals_direct(self, paper_spec, gf16):
        rng = random.Random(24)
        specs = [paper_spec] + [random_spec(rng, gf16, rng.randrange(1, 8)) for _ in range(30)]
        for spec in specs:
            qg = unit_shift(spec.ctx, spec.k, spec.g)
            assert build_g_circulant(spec) == qg @ build_circulant(spec.ctx, spec.row)

    def test_unit_row_reconstructs_qg(self, gf16):
        # Q_g is the permutation i -> i*g mod k
        for k, g in ((5, 2), (7, 3), (8, 5)):
            q = perm_matrix(gf16, [i * g % k for i in range(k)])
            assert unit_shift(gf16, k, g) == q

    def test_requires_coprime(self, gf16):
        # with gcd(g, k) > 1 the unit row's g-circulant repeats rows: no permutation
        for k, g in ((4, 2), (6, 3), (6, 4)):
            qg = unit_shift(gf16, k, g)
            assert qg.determinant() == 0
            with pytest.raises(SingularMatrixError):
                qg.inverse()

    def test_pq_g_commutation(self, gf16):
        # P Q_g = Q_g P^g for every coprime shift
        for k in range(2, 9):
            p = rotation_power(gf16, k, 1)
            for g in range(1, k):
                if gcd(g, k) != 1:
                    continue
                qg = unit_shift(gf16, k, g)
                pg = rotation_power(gf16, k, g)
                assert p @ qg == qg @ pg


class TestShiftRelation:
    def test_shift_relation_and_pa_identity(self, gf16):
        rng = random.Random(26)
        for _ in range(30):
            spec = random_spec(rng, gf16, rng.randrange(1, 8))
            a = build_g_circulant(spec)
            assert satisfies_shift(a, spec.g)
            p = rotation_power(gf16, spec.k, 1)
            pg = rotation_power(gf16, spec.k, spec.g)
            assert p @ a == a @ pg

    def test_round_trip_with_distinct_rows(self, ctx165):
        # with distinct entries the relation holds for g alone, and row 0 is the row
        rng = random.Random(25)
        for _ in range(30):
            k = rng.randrange(2, 8)
            row = tuple(rng.sample(range(ctx165.q), k))
            g = rng.choice([g for g in range(1, k) if gcd(g, k) == 1])
            a = build_g_circulant(GCirculantSpec(ctx165, k, g, row))
            assert [h for h in range(k) if satisfies_shift(a, h)] == [g]
            assert a.entries[0] == row

    def test_constant_matrix_detects_g0(self, gf16):
        a = Matrix(gf16, [[5] * 3 for _ in range(3)])
        assert a == build_g_circulant(GCirculantSpec(gf16, 3, 0, (5, 5, 5)))
        assert all(satisfies_shift(a, g) for g in range(3))

    def test_random_matrix_rejected(self, ctx165):
        rng = random.Random(27)
        rejected = 0
        for _ in range(20):
            a = Matrix(ctx165, [[rng.randrange(ctx165.q) for _ in range(4)] for _ in range(4)])
            rejected += all(build_g_circulant(GCirculantSpec(ctx165, 4, g, a.entries[0])) != a for g in range(4))
        assert rejected >= 19  # collision odds are negligible at q = 256

    def test_relation_implies_detection(self, gf16):
        # rows filled from row 0 by A[i+1, j+g] = A[i, j] give the g-circulant of row 0
        rng = random.Random(28)
        for _ in range(20):
            k = rng.randrange(2, 7)
            g = rng.choice([g for g in range(k) if gcd(g, k) == 1])
            rows = [random_row(rng, gf16, k)]
            for _ in range(k - 1):
                rows.append([rows[-1][(j - g) % k] for j in range(k)])
            a = Matrix(gf16, rows)
            assert satisfies_shift(a, g)
            assert a == build_g_circulant(GCirculantSpec(gf16, k, g, rows[0]))


class TestStructuredSquare:
    def test_reference_values(self, paper_spec, ctx165):
        g2, row2 = square_structured(paper_spec)
        assert g2 == 4
        assert row2 == (0x41, 0xB2, 0xB6, 0xAA, 0xEE)
        assert row2[0] == ctx165.parse("1+a^6")

    def test_unit_row(self, gf16):
        spec = GCirculantSpec(gf16, 5, 2, (1, 0, 0, 0, 0))
        g2, row2 = square_structured(spec)
        assert g2 == 4
        assert row2 == (1, 0, 0, 0, 0)
        a = build_g_circulant(spec)
        assert a @ a == unit_shift(gf16, 5, 4)

    def test_oracle_equality_random(self, gf16, ctx165):
        rng = random.Random(29)
        for ctx in (gf16, ctx165):
            for _ in range(60):
                spec = random_spec(rng, ctx, rng.randrange(1, 9))
                g2, row2 = square_structured(spec)
                a = build_g_circulant(spec)
                assert build_g_circulant(GCirculantSpec(ctx, spec.k, g2, row2)) == a @ a

    def test_every_g(self, gf16, ctx11d):
        # g = 0 and every g sharing a factor with k included: the square
        # law needs no invertible shift
        rng = random.Random(31)
        for ctx in (gf16, ctx11d):
            for k in range(1, 9):
                for g in range(k):
                    for _ in range(10):
                        spec = GCirculantSpec(ctx, k, g, random_row(rng, ctx, k))
                        g2, row2 = square_structured(spec)
                        a = build_g_circulant(spec)
                        assert g2 == g * g % k
                        assert build_g_circulant(GCirculantSpec(ctx, k, g2, row2)) == a @ a, spec


def square_law_gs(k):
    return [g for g in range(k) if g * g % k == 1 % k]


def square_is_identity_oracle(spec):
    g2, row2 = square_structured(spec)
    return row2 == (1,) + (0,) * (spec.k - 1)


def square_law(spec):
    return square_is_identity(spec.ctx, spec.k, spec.g, spec.row)


class TestSquareLaw:
    """square_is_identity against the full structured square."""

    def test_every_gf4_row(self, gf4):
        verdicts = set()
        for k in range(2, 7):
            for g in square_law_gs(k):
                for row in product(range(4), repeat=k):
                    spec = GCirculantSpec(gf4, k, g, row)
                    verdict = square_law(spec)
                    assert verdict == square_is_identity_oracle(spec), spec
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_random_rows_every_g_up_to_k24(self, gf16, ctx11d):
        rng = random.Random(61)
        covered = set()
        for ctx in (gf16, ctx11d):
            for k in range(2, 25):
                for g in square_law_gs(k):
                    covered.add((k, g))
                    for _ in range(12):
                        spec = GCirculantSpec(ctx, k, g, random_row(rng, ctx, k))
                        assert square_law(spec) == square_is_identity_oracle(spec), spec
        # the first orders with a g outside {1, k-1} and k not a power of two
        assert {(12, 5), (12, 7), (15, 4), (15, 11)} <= covered

    def test_planted_sparse_rows(self, gf16, ctx11d):
        # c_0 = 1 and one value at two other places: both verdicts occur
        rng = random.Random(62)
        verdicts = []
        for ctx in (gf16, ctx11d):
            for k in range(3, 25):
                for g in square_law_gs(k):
                    for _ in range(12):
                        row = [1] + [0] * (k - 1)
                        value = rng.randrange(1, ctx.q)
                        for i in rng.sample(range(1, k), 2):
                            row[i] = value
                        spec = GCirculantSpec(ctx, k, g, row)
                        verdicts.append(square_law(spec))
                        assert verdicts[-1] == square_is_identity_oracle(spec), spec
        assert 0 < sum(verdicts) < len(verdicts)

    def test_needs_g_squared_one(self, gf16):
        with pytest.raises(ValueError):
            square_is_identity(gf16, 5, 2, (1, 0, 0, 0, 0))


class TestInvolutoryRows:
    """involutory_rows against square_is_identity on every row."""

    @pytest.mark.parametrize("field, k", [("gf4", 3), ("gf16", 3), ("gf16", 5)])
    def test_equals_brute_force(self, request, field, k):
        ctx = request.getfixturevalue(field)
        for g in square_law_gs(k):
            brute = {row for row in product(range(ctx.q), repeat=k) if square_is_identity(ctx, k, g, row)}
            rows = involutory_rows(ctx, k, g)
            assert len(rows) == len(brute) == involutory_row_count(ctx.q, k, g), g
            assert set(rows) == brute, g

    @pytest.mark.parametrize("k, g", [(4, 3), (7, 6), (5, 2)])
    def test_needs_odd_k_dividing_q_minus_1_and_g_squared_one(self, gf16, k, g):
        assert involutory_row_count(gf16.q, k, g) is None
        with pytest.raises(ValueError, match="inverse DFT"):
            involutory_rows(gf16, k, g)


class TestShiftLaws:
    """Products of g- and h-circulants are gh-circulant; the inverse and the
    transpose of a g-circulant are g^{-1}-circulant."""

    @staticmethod
    def assert_g_circulant(m, k, g):
        # m satisfies the g shift and is rebuilt exactly from its first row
        assert satisfies_shift(m, g)
        assert build_g_circulant(GCirculantSpec(m.ctx, k, g, m.entries[0])) == m

    def test_product_examples(self, gf16):
        rng = random.Random(30)
        r1, r2 = random_row(rng, gf16, 5), random_row(rng, gf16, 5)
        for g, h in ((1, 1), (3, 2), (2, 4), (3, 3)):
            prod = build_g_circulant(GCirculantSpec(gf16, 5, g, r1)) @ build_g_circulant(
                GCirculantSpec(gf16, 5, h, r2)
            )
            self.assert_g_circulant(prod, 5, g * h % 5)

    def test_self_inverse_shift_squares_to_circulant(self, gf16):
        rng = random.Random(31)
        row = random_row(rng, gf16, 8)
        a = build_g_circulant(GCirculantSpec(gf16, 8, 3, row))  # 3^2 = 9 = 1 (mod 8)
        self.assert_g_circulant(a @ a, 8, 1)

    def test_inverse_law(self, gf16):
        rng = random.Random(32)
        done = 0
        while done < 25:
            spec = random_spec(rng, gf16, rng.randrange(1, 8))
            a = build_g_circulant(spec)
            if a.determinant() == 0:
                continue
            done += 1
            g_inv = pow(spec.g, -1, spec.k) if spec.k > 1 else 0
            inv = a.inverse()
            assert a @ inv == Matrix.identity(gf16, spec.k)
            self.assert_g_circulant(inv, spec.k, g_inv)

    def test_inverse_law_k5_g3(self, gf16):
        rng = random.Random(33)
        while True:
            a = build_g_circulant(GCirculantSpec(gf16, 5, 3, random_row(rng, gf16, 5)))
            if a.determinant():
                break
        self.assert_g_circulant(a.inverse(), 5, 2)  # 3 * 2 = 6 = 1 (mod 5)
        assert not satisfies_shift(a.inverse(), 3)

    def test_inverse_law_singular(self, gf16):
        with pytest.raises(SingularMatrixError):
            build_g_circulant(GCirculantSpec(gf16, 4, 1, (0, 0, 0, 0))).inverse()

    def test_transpose_law(self, gf16):
        rng = random.Random(34)
        a = build_g_circulant(GCirculantSpec(gf16, 5, 3, random_row(rng, gf16, 5)))
        self.assert_g_circulant(a.transpose(), 5, 2)
        for _ in range(20):
            spec = random_spec(rng, gf16, rng.randrange(1, 8))
            g_inv = pow(spec.g, -1, spec.k) if spec.k > 1 else 0
            self.assert_g_circulant(build_g_circulant(spec).transpose(), spec.k, g_inv)


def liu_sim_q(ctx, rho):
    """Q[i, j] = 1 iff i = rho^j(0), which makes cyclic(c) @ Q the circulant
    with first row (c_0, c_{rho(0)}, c_{rho^2(0)}, ...)."""
    return perm_matrix(ctx, rho.orbit(0)).transpose()


class TestCyclicToCirculant:
    def test_rotation_gives_identity_q(self, gf16):
        rng = random.Random(35)
        row = random_row(rng, gf16, 6)
        rho = Permutation((i + 1) % 6 for i in range(6))
        assert liu_sim_q(gf16, rho) == Matrix.identity(gf16, 6)
        assert tuple(row[node] for node in rho.orbit(0)) == row

    def test_left_circulant_reverses_tail(self, gf16):
        rng = random.Random(36)
        k = 6
        row = random_row(rng, gf16, k)
        rho = Permutation((i - 1) % k for i in range(k))
        circ_row = (row[0],) + tuple(reversed(row[1:]))
        cyc = build_cyclic(CyclicSpec(gf16, k, rho, row))
        assert cyc @ liu_sim_q(gf16, rho) == build_circulant(gf16, circ_row)

    def test_matrix_identity_and_q_inverse(self, gf16):
        rng = random.Random(37)
        for _ in range(25):
            k = rng.randrange(2, 8)
            # a random k-cycle: close a random arrangement of 0..k-1
            arrangement = rng.sample(range(k), k)
            images = [0] * k
            for idx, node in enumerate(arrangement):
                images[node] = arrangement[(idx + 1) % k]
            rho = Permutation(images)
            row = random_row(rng, gf16, k)
            spec = CyclicSpec(gf16, k, rho, row)
            circ_row = tuple(row[node] for node in rho.orbit(0))
            c = build_cyclic(spec)
            qm = liu_sim_q(gf16, rho)
            assert c @ qm == build_circulant(gf16, circ_row)
            assert qm @ qm.transpose() == Matrix.identity(gf16, k)
            unit = (1,) + (0,) * (k - 1)
            assert qm.inverse() == build_cyclic(CyclicSpec(gf16, k, rho, unit))


class TestLeftCirculantSubmatrices:
    """Even rows of a (2^{d-1}-1)-circulant of order 2^d by its even columns
    give left-circulant(c_0, c_2, ...), by its odd columns
    left-circulant(c_1, c_3, ...)."""

    def test_d2_extraction(self, gf16):
        row = (1, 2, 3, 4)
        a = build_g_circulant(GCirculantSpec(gf16, 4, 1, row))  # g = 2^(d-1) - 1 = 1
        assert a.submatrix([0, 2], [0, 2]) == build_left_circulant(gf16, (1, 3))
        assert a.submatrix([0, 2], [1, 3]) == build_left_circulant(gf16, (2, 4))

    def test_d3_extraction(self, ctx165):
        rng = random.Random(38)
        row = random_row(rng, ctx165, 8)
        a = build_g_circulant(GCirculantSpec(ctx165, 8, 3, row))
        evens, odds = [0, 2, 4, 6], [1, 3, 5, 7]
        even = a.submatrix(evens, evens)
        assert even == build_left_circulant(ctx165, row[0::2])
        assert a.submatrix(evens, odds) == build_left_circulant(ctx165, row[1::2])
        assert satisfies_shift(even, 3)  # left-circulant of order 4 has g = 3

    def test_all_ones(self, gf16):
        a = build_g_circulant(GCirculantSpec(gf16, 4, 1, (1, 1, 1, 1)))
        ones = Matrix(gf16, [[1, 1], [1, 1]])
        assert a.submatrix([0, 2], [0, 2]) == a.submatrix([0, 2], [1, 3]) == ones

    def test_guards(self, ctx165):
        # for any odd g the minors are the (g mod k/2)-circulants of the even and
        # odd entries, left-circulants only when g = -1 (mod k/2)
        rng = random.Random(40)
        for k in (4, 8, 16):
            row = random_row(rng, ctx165, k)
            evens, odds = list(range(0, k, 2)), list(range(1, k, 2))
            for g in range(1, k, 2):
                a = build_g_circulant(GCirculantSpec(ctx165, k, g, row))
                for cols, part in ((evens, row[0::2]), (odds, row[1::2])):
                    minor = a.submatrix(evens, cols)
                    assert minor == build_g_circulant(GCirculantSpec(ctx165, k // 2, g, part))
                    assert (minor == build_left_circulant(ctx165, part)) == (g % (k // 2) == k // 2 - 1)


class TestConvolution:
    def test_matches_definition(self, gf16):
        rng = random.Random(39)
        for _ in range(20):
            k = rng.randrange(1, 8)
            g = rng.randrange(k)
            row = random_row(rng, gf16, k)
            conv = shifted_convolution(gf16, row, g)
            for l in range(k):
                expected = 0
                for i in range(k):
                    for j in range(k):
                        if (g * i + j) % k == l:
                            expected ^= gf16.mul(row[i], row[j])
                assert conv[l] == expected
