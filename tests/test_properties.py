"""Property checks: MDS, involutory, orthogonal, semi-involutory,
semi-orthogonal, the anchoring of detected pairs and their scaling
freedom, detection against planted pairs, and the first-row involutory
conditions for left-circulant matrices."""

import random
import warnings
from itertools import islice, product
from math import gcd

import pytest

import gcirc.properties as properties_mod
from gcirc import (
    DiagonalPair,
    GF2m,
    GCirculantSpec,
    Matrix,
    Permutation,
    RowSpace,
    RowSpaceKind,
    SearchJob,
    SingularMatrixError,
    SpaceTooLargeError,
    Target,
    build_circulant,
    build_g_circulant,
    build_left_circulant,
    detect_semi_involutory,
    detect_semi_orthogonal,
    diagonal_power_scalar,
    full_report,
    involutory_g_filter,
    is_involutory,
    is_mds,
    left_circulant_involutory_conditions,
    rescale_pair,
    run_search,
    shifted_convolution,
)
from conftest import (
    brute_force_sandwich_pairs,
    elimination_mds,
    laplace_det,
    random_row,
    schoolbook_mul,
    schoolbook_pow,
)

PAPER_ROW_STRS = ("1", "a", "1+a+a^4+a^5+a^7", "1+a+a^3+a^4+a^5+a^7", "a+a^3")


class TestMds:
    def test_gf4_circulant_is_mds(self, gf4):
        a = build_circulant(gf4, (1, 0x03))
        assert is_mds(a) == (True, None)

    def test_identity_witness(self, gf16):
        ok, witness = is_mds(Matrix.identity(gf16, 3))
        assert not ok
        assert witness == ((0,), (1,))

    def test_reference_left_circulant(self, ctx165):
        row = tuple(ctx165.parse(s) for s in PAPER_ROW_STRS)
        assert is_mds(build_left_circulant(ctx165, row)) == (True, None)

    def test_witness_is_singular(self, gf16):
        rng = random.Random(40)
        found = 0
        while found < 10:
            a = Matrix(gf16, [[rng.randrange(gf16.q) for _ in range(3)] for _ in range(3)])
            ok, witness = is_mds(a)
            if ok:
                continue
            found += 1
            rows, cols = witness
            assert laplace_det(a.submatrix(rows, cols)) == 0

    def test_matches_elimination_sweep(self, gf4, gf16, ctx11d):
        # dense random matrices fail early; nonzero g-circulant rows reach
        # deeper witnesses or pass; a Cauchy matrix over GF(2^16) is MDS
        rng = random.Random(43)
        cases = [Matrix(gf4, [random_row(rng, gf4, k) for _ in range(k)])
                 for k in (2, 3, 4) for _ in range(30)]
        cases += [Matrix(gf16, [random_row(rng, gf16, 4, nonzero=True) for _ in range(4)])
                  for _ in range(30)]
        for ctx, k, count in ((gf16, 5, 40), (ctx11d, 6, 12)):
            for _ in range(count):
                g = rng.choice([g for g in range(1, k) if gcd(g, k) == 1])
                row = random_row(rng, ctx, k, nonzero=True)
                cases.append(build_g_circulant(GCirculantSpec(ctx, k, g, row)))
        f16 = GF2m(16, 0x1002B)
        cases.append(Matrix(f16, [[f16.inv(x ^ y) for y in range(5, 9)] for x in range(1, 5)]))
        outcomes = [is_mds(a) for a in cases]
        assert outcomes == [elimination_mds(a) for a in cases]
        sizes = {len(w[0]) for ok, w in outcomes if not ok}
        assert {1, 2, 3} <= sizes and (True, None) in outcomes

    def test_witness_order_smallest_first(self, gf16):
        # a zero entry anywhere must surface as a 1x1 witness before any 2x2
        a = Matrix(gf16, [[1, 2, 3], [4, 0, 5], [6, 7, 8]])
        assert is_mds(a) == (False, ((1,), (1,)))

    def test_every_entry_nonzero_when_mds(self, gf4):
        for entries in product(range(4), repeat=4):
            a = Matrix(gf4, [entries[:2], entries[2:]])
            ok, _ = is_mds(a)
            if ok:
                assert 0 not in entries

    def test_size_guards(self, gf16):
        with pytest.raises(SpaceTooLargeError):
            is_mds(Matrix.identity(gf16, 16))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            is_mds(Matrix(gf16, [[0] * 13 for _ in range(13)]))
        assert caught


def assert_verdicts(a, involutory=None, orthogonal=None):
    """full_report's involutory/orthogonal fields against A @ A = I and
    A @ A^T = I computed directly, and against expected values if given."""
    rep = full_report(a)
    identity = Matrix.identity(a.ctx, a.rows)
    assert rep.involutory == (a @ a == identity) == is_involutory(a)
    assert rep.orthogonal == (a @ a.transpose() == identity)
    if involutory is not None:
        assert rep.involutory == involutory
    if orthogonal is not None:
        assert rep.orthogonal == orthogonal
    return rep


class TestInvolutoryOrthogonal:
    def test_identity(self, gf16):
        i = Matrix.identity(gf16, 4)
        assert is_involutory(i)
        assert_verdicts(i, involutory=True, orthogonal=True)

    def test_reference_cases(self, ctx165):
        row = tuple(ctx165.parse(s) for s in PAPER_ROW_STRS)
        assert is_involutory(build_left_circulant(ctx165, row))
        assert not is_involutory(build_g_circulant(GCirculantSpec(ctx165, 5, 3, row)))
        # the left-circulant is symmetric, so involutory makes it orthogonal too
        assert_verdicts(build_left_circulant(ctx165, row), involutory=True, orthogonal=True)
        assert_verdicts(build_g_circulant(GCirculantSpec(ctx165, 5, 3, row)), involutory=False)

    def test_permutation_matrices_orthogonal(self, gf16):
        rng = random.Random(41)
        for _ in range(20):
            k = rng.randrange(1, 7)
            perm = Permutation(rng.sample(range(k), k))
            rep = assert_verdicts(perm.to_matrix(gf16), orthogonal=True)
            assert rep.involutory == (perm.compose(perm) == Permutation.identity(k))

    def test_symmetric_involutory_is_orthogonal(self, gf16):
        rng = random.Random(42)
        found = 0
        for _ in range(4000):
            row = random_row(rng, gf16, 4)
            a = build_left_circulant(gf16, row)
            if is_involutory(a):
                found += 1
                assert a == a.transpose()
                assert_verdicts(a, involutory=True, orthogonal=True)
        assert found > 0

    def test_verdicts_in_every_field(self, gf4, gf16, ctx165, ctx11d):
        # random matrices (almost never either), conjugates S (I + E_0,k-1) S^-1
        # (involutory) and singular ones (neither), in every test field
        rng = random.Random(46)
        for ctx in (gf4, gf16, ctx165, ctx11d):
            for _ in range(40):
                k = rng.randrange(1, 6)
                a = Matrix(ctx, [random_row(rng, ctx, k) for _ in range(k)])
                assert_verdicts(a)
                flip = [[1 if i == j or (i, j) == (0, k - 1) else 0 for j in range(k)] for i in range(k)]
                s = Matrix(ctx, [random_row(rng, ctx, k) for _ in range(k)])
                if s.determinant():
                    assert_verdicts(s @ Matrix(ctx, flip) @ s.inverse(), involutory=True)
                zero_row = Matrix(ctx, [[0] * k] + [random_row(rng, ctx, k) for _ in range(k - 1)])
                assert_verdicts(zero_row, involutory=False, orthogonal=False)


class TestSemiDetection:
    def test_2x2_reference_pair(self, gf4):
        a = build_circulant(gf4, (1, 0x03))
        pair = detect_semi_involutory(a)
        assert pair is not None
        assert pair.d1 == (0x02, 0x02)
        assert pair.d2 == (1, 1)
        assert pair.scalar1 == 0x03  # a^2 = a + 1
        assert pair.scalar2 == 1

    def test_4x4_reference_pair(self, gf16):
        row = tuple(gf16.parse(s) for s in ("a", "a^3", "1+a+a^2", "a^3"))
        pair = detect_semi_involutory(build_circulant(gf16, row))
        assert pair is not None
        assert pair.d1 == (0x09,) * 4
        assert pair.d2 == (1,) * 4
        assert pair.scalar1 == gf16.parse("a+a^2+a^3")
        assert pair.scalar2 == 1

    def test_pair_satisfies_identity_exactly(self, gf16):
        rng = random.Random(43)
        checked = 0
        for _ in range(400):
            a = Matrix(gf16, [[rng.randrange(gf16.q) for _ in range(3)] for _ in range(3)])
            if a.determinant() == 0:
                continue
            pair = detect_semi_involutory(a)
            if pair is None:
                continue
            checked += 1
            b = a.inverse()
            for i in range(3):
                for j in range(3):
                    assert gf16.mul(pair.d1[i], gf16.mul(a[i, j], pair.d2[j])) == b[i, j]
        assert checked > 0

    def test_brute_force_agreement_2x2_gf4(self, gf4):
        # exhaustive cross-check of the ratio-graph propagation
        for entries in product(range(4), repeat=4):
            a = Matrix(gf4, [entries[:2], entries[2:]])
            if a.determinant() == 0:
                with pytest.raises(SingularMatrixError):
                    detect_semi_involutory(a)
                continue
            pair = detect_semi_involutory(a)
            ground_truth = brute_force_sandwich_pairs(a, a.inverse())
            assert (pair is not None) == bool(ground_truth)
            if pair is not None:
                assert (pair.d1, pair.d2) in ground_truth

    def test_semi_orthogonal_brute_force_2x2_gf4(self, gf4):
        for entries in product(range(4), repeat=4):
            a = Matrix(gf4, [entries[:2], entries[2:]])
            if a.determinant() == 0:
                continue
            pair = detect_semi_orthogonal(a)
            ground_truth = brute_force_sandwich_pairs(a, a.inverse().transpose())
            assert (pair is not None) == bool(ground_truth)
            if pair is not None:
                assert (pair.d1, pair.d2) in ground_truth

    def test_orthogonal_matrix_gives_unit_pair(self, gf16):
        rng = random.Random(44)
        for _ in range(10):
            k = rng.randrange(1, 6)
            m = Permutation(rng.sample(range(k), k)).to_matrix(gf16)
            pair = detect_semi_orthogonal(m)
            assert pair is not None
            assert pair.d1 == (1,) * k
            assert pair.d2 == (1,) * k

    def test_involutory_implies_semi_involutory(self, gf16):
        rng = random.Random(45)
        found = 0
        for _ in range(4000):
            row = random_row(rng, gf16, 4)
            a = build_left_circulant(gf16, row)
            if not is_involutory(a):
                continue
            found += 1
            pair = detect_semi_involutory(a)
            assert pair is not None
        assert found > 0

    def test_singular_raises(self, gf16):
        with pytest.raises(SingularMatrixError):
            detect_semi_involutory(Matrix(gf16, [[1, 1], [1, 1]]))

    def test_nonzero_diagonals_enforced(self):
        with pytest.raises(ValueError):
            DiagonalPair((1, 0), (1, 1))


def component_anchors(a: Matrix) -> list[int]:
    """The smallest column of each connected component of the bipartite
    graph with an edge per nonzero entry: columns sharing a nonzero row
    are joined by union-find."""
    parent = list(range(a.cols))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for row in a.entries:
        cols = [j for j, x in enumerate(row) if x]
        for j in cols[1:]:
            parent[root(j)] = root(cols[0])
    return [j for j in range(a.cols) if all(root(i) != root(j) for i in range(j))]


def random_dense_block(rng, ctx, size):
    while True:
        block = Matrix(ctx, [[rng.randrange(1, ctx.q) for _ in range(size)] for _ in range(size)])
        if block.determinant():
            return block


def block_diagonal(ctx, blocks, perm=None):
    """blocks placed along the diagonal, then rows and columns both
    relabelled by perm (p[i] is the new index of i), which interleaves
    the components."""
    k = sum(b.rows for b in blocks)
    perm = perm or list(range(k))
    entries = [[0] * k for _ in range(k)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                entries[perm[at + i]][perm[at + j]] = b[i, j]
        at += b.rows
    return Matrix(ctx, entries)


def pattern_cases(rng, ctx):
    """(name, matrix, semi-involutory expected) for matrices whose nonzero
    pattern splits into several components. Every nonsingular dense 2x2
    block is semi-involutory and semi-orthogonal, so every case is
    semi-orthogonal; a permuted diagonal is semi-involutory only when
    its permutation is an involution, as A^{-1} then has A's pattern."""
    for k in (1, 2, 4):
        yield "diagonal", block_diagonal(ctx, [random_dense_block(rng, ctx, 1) for _ in range(k)]), True
    for sizes in ((2, 2), (1, 2, 2), (2, 1, 2, 1)):
        blocks = [random_dense_block(rng, ctx, s) for s in sizes]
        yield "block-diagonal", block_diagonal(ctx, blocks), True
        perm = list(range(sum(sizes)))
        rng.shuffle(perm)
        yield "interleaved blocks", block_diagonal(ctx, blocks, perm), True
    for perm in ((1, 0, 3, 2), (2, 1, 0), (1, 2, 0), (3, 0, 1, 2), (0, 2, 1, 4, 3)):
        k = len(perm)
        entries = [[rng.randrange(1, ctx.q) if perm[i] == j else 0 for j in range(k)] for i in range(k)]
        involution = all(perm[perm[i]] == i for i in range(k))
        yield "permuted diagonal", Matrix(ctx, entries), involution


class TestAnchoring:
    """Detection picks one pair per scaling family: d2 = 1 at the
    smallest column of every component of the nonzero pattern."""

    def test_reference_pair(self, gf4):
        a = build_circulant(gf4, (1, 0x03))
        assert detect_semi_involutory(a) == DiagonalPair((0x02, 0x02), (1, 1), scalar1=0x03, scalar2=1)

    @pytest.mark.parametrize("field", ["gf4", "gf16"])
    def test_d2_is_one_at_every_component_anchor(self, request, field):
        ctx = request.getfixturevalue(field)
        rng = random.Random(49)
        for _ in range(5):
            for name, a, semi_involutory in pattern_cases(rng, ctx):
                anchors = component_anchors(a)
                inverse = a.inverse()
                detected = [
                    (detect_semi_involutory(a), inverse, semi_involutory),
                    (detect_semi_orthogonal(a), inverse.transpose(), True),
                ]
                for pair, b, expected in detected:
                    assert (pair is not None) == expected, (name, a.entries)
                    if pair is None:
                        continue
                    assert all(pair.d2[j] == 1 for j in anchors), (name, a.entries, pair)
                    for i in range(a.rows):
                        for j in range(a.cols):
                            assert ctx.mul(pair.d1[i], ctx.mul(a[i, j], pair.d2[j])) == b[i, j]

    def test_component_anchors_oracle(self, gf16):
        assert component_anchors(Matrix(gf16, [[2, 0], [0, 3]])) == [0, 1]
        assert component_anchors(Matrix(gf16, [[2, 1], [1, 3]])) == [0]
        a = Matrix(gf16, [[0, 1, 0, 2], [3, 0, 1, 0], [0, 4, 0, 5], [6, 0, 7, 0]])
        assert component_anchors(a) == [0, 1]


def planted_patterns(rng, ctx, k):
    """(name, A) for zero patterns of order k >= 2 without a zero row:
    dense, and dense blocks of a random composition of k into two or more
    sizes, placed along the diagonal, interleaved (rows and columns
    relabelled by one permutation) and permuted (by two)."""
    cuts = sorted(rng.sample(range(1, k), rng.randint(1, k - 1)))
    sizes = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, k])]

    def place(row_perm, col_perm):
        entries = [[0] * k for _ in range(k)]
        at = 0
        for size in sizes:
            for i in range(at, at + size):
                for j in range(at, at + size):
                    entries[row_perm[i]][col_perm[j]] = rng.randrange(1, ctx.q)
            at += size
        return Matrix(ctx, entries)

    identity = list(range(k))
    perm = rng.sample(identity, k)
    yield "dense", Matrix(ctx, [random_row(rng, ctx, k, nonzero=True) for _ in range(k)])
    yield "block-diagonal", place(identity, identity)
    yield "interleaved", place(perm, perm)
    yield "permuted", place(perm, rng.sample(identity, k))


def plant(a, d1, d2):
    """D1 * A * D2 by schoolbook products."""
    ctx = a.ctx
    return Matrix(ctx, [
        [schoolbook_mul(ctx, x, schoolbook_mul(ctx, a[i, j], y)) for j, y in enumerate(d2)]
        for i, x in enumerate(d1)
    ])


def anchored_plant(a, d1, d2) -> DiagonalPair:
    """The planted pair moved along its scaling family to the anchoring:
    on each component of A's pattern (rows and columns joined by
    union-find over the nonzero entries), d2 divided and d1 multiplied
    by d2's value at the component's smallest column."""
    ctx, k = a.ctx, a.rows
    parent = list(range(2 * k))  # rows 0..k-1, columns k..2k-1

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(k):
        for j in range(k):
            if a[i, j]:
                parent[root(i)] = root(k + j)
    lam = {}
    for j in range(k):
        lam.setdefault(root(k + j), d2[j])
    inverse = {r: schoolbook_pow(ctx, x, ctx.q - 2) for r, x in lam.items()}
    e1 = tuple(schoolbook_mul(ctx, x, lam[root(i)]) for i, x in enumerate(d1))
    e2 = tuple(schoolbook_mul(ctx, x, inverse[root(k + j)]) for j, x in enumerate(d2))

    def scalar(d):
        powers = {schoolbook_pow(ctx, x, k) for x in d}
        return powers.pop() if len(powers) == 1 else None

    return DiagonalPair(e1, e2, scalar(e1), scalar(e2))


def perturbed(rng, a, b):
    """B with one entry changed, in each way that leaves no pair: a
    nonzero where A has a zero, and a new value where A's row has another
    nonzero. Every component is a dense block, so such an entry lies on a
    4-cycle and the rest of its block already fixes its ratio."""
    ctx, k = a.ctx, a.rows
    cells = [(i, j) for i in range(k) for j in range(k)]
    zeros = [(i, j) for i, j in cells if not a[i, j]]
    cycled = [(i, j) for i, j in cells if a[i, j] and sum(map(bool, a.entries[i])) > 1]
    for choices in (zeros, cycled):
        if choices:
            i, j = rng.choice(choices)
            entries = [list(r) for r in b.entries]
            entries[i][j] ^= rng.randrange(1, ctx.q)
            yield Matrix(ctx, entries)


class TestDetectionDifferential:
    """The solver on planted B = D1*A*D2 against the planted pair moved to
    the anchoring independently, and against None once B is perturbed."""

    @pytest.mark.parametrize("m, modulus", [(2, 0x7), (4, 0x13), (8, 0x11D), (16, 0x1002B)])
    def test_planted_pairs(self, m, modulus):
        ctx = GF2m(m, modulus)
        rng = random.Random(m)
        for k in range(2, 9):
            for _ in range(3):
                for name, a in planted_patterns(rng, ctx, k):
                    d1, d2 = random_row(rng, ctx, k, nonzero=True), random_row(rng, ctx, k, nonzero=True)
                    b = plant(a, d1, d2)
                    expected = anchored_plant(a, d1, d2)
                    assert properties_mod._solve_diagonal_sandwich(a, b) == expected, (name, a.entries, d1, d2)
                    for changed in perturbed(rng, a, b):
                        assert properties_mod._solve_diagonal_sandwich(a, changed) is None, (name, changed.entries)
                    hollow = Matrix(ctx, [[0] * k, *a.entries[1:]])  # d1[0] is left free: no pair
                    assert properties_mod._solve_diagonal_sandwich(hollow, plant(hollow, d1, d2)) is None

    def test_brute_force_gf4_k3(self, gf4):
        rng = random.Random(43)
        for _ in range(4):
            for name, a in planted_patterns(rng, gf4, 3):
                b = plant(a, random_row(rng, gf4, 3, nonzero=True), random_row(rng, gf4, 3, nonzero=True))
                anchors = component_anchors(a)
                for target in (b, *perturbed(rng, a, b)):
                    pair = properties_mod._solve_diagonal_sandwich(a, target)
                    anchored = [
                        (d1, d2) for d1, d2 in brute_force_sandwich_pairs(a, target)
                        if all(d2[j] == 1 for j in anchors)
                    ]
                    assert anchored == ([] if pair is None else [(pair.d1, pair.d2)]), (name, target.entries)
                    assert (target is b) == (pair is not None)


class TestScalingFreedom:
    def test_rescale_round_trips(self, gf16):
        rng = random.Random(46)
        checked = 0
        for _ in range(300):
            a = Matrix(gf16, [[rng.randrange(1, gf16.q) for _ in range(3)] for _ in range(3)])
            if a.determinant() == 0:
                continue
            pair = detect_semi_involutory(a)
            if pair is None:
                continue
            checked += 1
            lam = rng.randrange(2, gf16.q)
            moved = rescale_pair(gf16, pair, lam, 3)
            assert moved != pair
            assert rescale_pair(gf16, moved, gf16.inv(lam), 3) == pair
        assert checked > 0

    def test_rescaled_pair_still_witnesses(self, gf4):
        a = build_circulant(gf4, (1, 0x03))
        pair = detect_semi_involutory(a)
        b = a.inverse()
        for lam in range(1, 4):
            moved = rescale_pair(gf4, pair, lam, 2)
            for i in range(2):
                for j in range(2):
                    assert gf4.mul(moved.d1[i], gf4.mul(a[i, j], moved.d2[j])) == b[i, j]

    def test_semiortho_anchored_values(self, ctx11d):
        row = tuple(ctx11d.parse(s) for s in ("1", "1+a+a^3", "1+a+a^3", "a+a^3", "1+a^3+a^4+a^7"))
        pair = detect_semi_orthogonal(build_circulant(ctx11d, row))
        assert pair.d1 == (0x98, 0x93, 0x45, 0x99, 0xD7)
        assert pair.d2 == (0x01, 0x92, 0x0A, 0xDD, 0x44)


class TestScalarLawAllGCirculants:
    def test_detected_pairs_obey_power_law(self, gf4, gf16):
        """Every semi-involutory g-circulant (MDS or not) at small scale.

        For dense matrices the single scaling component makes the law
        hold for the whole orbit, so a violation there is a failure. A
        violation on a sparse zero pattern (several components, extra
        scaling freedom) would be recorded as a finding, not a failure;
        none occurs at this scale.
        """
        populations = [(gf4, 2), (gf4, 3), (gf16, 2)]
        findings = []
        checked = 0
        for ctx, k in populations:
            coprime = [g for g in range(k) if gcd(g, k) == 1]
            for g in coprime:
                for row in product(range(ctx.q), repeat=k):
                    a = build_g_circulant(GCirculantSpec(ctx, k, g, row))
                    try:
                        pair = detect_semi_involutory(a)
                    except SingularMatrixError:
                        continue
                    if pair is None:
                        continue
                    checked += 1
                    if pair.scalar1 is None or pair.scalar2 is None:
                        findings.append((ctx.m, k, g, row))
        assert checked > 0
        dense = [f for f in findings if 0 not in f[3]]
        assert dense == [], "power law failed on a fully dense matrix"
        for finding in findings:
            print(f"finding: power law fails for detected pair at {finding}")


class TestDiagonalPowerScalar:
    def test_reference_values(self, ctx11d, gf4):
        d1 = tuple(
            ctx11d.parse(s)
            for s in (
                "a^2+a",
                "a^7+a^2+1",
                "a^7+a^6+a^5+a^4+a^2",
                "a^5+a^4+a^3+a^2",
                "a^6+a^3+a+1",
            )
        )
        assert diagonal_power_scalar(ctx11d, d1, 5) == ctx11d.parse("a^5+a^3+a^2+a")
        assert diagonal_power_scalar(gf4, (0x02, 0x02), 2) == 0x03
        assert diagonal_power_scalar(gf4, (1, 1, 1), 7) == 1

    def test_disagreement_returns_none(self, gf16):
        assert diagonal_power_scalar(gf16, (1, 2), 3) is None


class TestLeftCirculantConditions:
    def test_reference_row(self, ctx165):
        row = tuple(ctx165.parse(s) for s in PAPER_ROW_STRS)
        assert left_circulant_involutory_conditions(ctx165, row)

    def test_unit_row(self, gf16):
        assert left_circulant_involutory_conditions(gf16, (1, 0, 0, 0, 0))

    def test_sum_zero_rejected(self, gf16):
        row = (1, 1, 0, 0)
        assert not left_circulant_involutory_conditions(gf16, row)
        assert not is_involutory(build_left_circulant(gf16, row))

    def test_exhaustive_equivalence_small(self, gf4):
        for row in product(range(4), repeat=3):
            want = is_involutory(build_left_circulant(gf4, row))
            assert left_circulant_involutory_conditions(gf4, row) == want

    def test_sampled_equivalence_k5(self, gf16):
        # 16^5 rows is past unit-test scale; sample instead, and take 50
        # involutory rows from the constrained search's first hits so
        # both kinds are exercised
        rng = random.Random(48)
        sampled = [random_row(rng, gf16, 5) for _ in range(2000)]
        job = SearchJob(gf16, 5, Target.INVOLUTORY_MDS, RowSpace(RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT))
        sampled += [res.spec.row for res in islice(run_search(job), 50)]
        hits = 0
        for row in sampled:
            want = is_involutory(build_left_circulant(gf16, row))
            hits += want
            assert left_circulant_involutory_conditions(gf16, row) == want
        assert hits >= 50

    def test_half_convolution_always_zero_for_even_k(self, gf16):
        rng = random.Random(47)
        for k in (4, 6, 8):
            for _ in range(50):
                row = random_row(rng, gf16, k)
                conv = shifted_convolution(gf16, row, k - 1)
                assert conv[k // 2] == 0


class TestGFilter:
    def test_examples(self):
        assert not involutory_g_filter(3, 5)  # 9 = 4 (mod 5)
        assert involutory_g_filter(1, 7)
        assert involutory_g_filter(3, 8)  # 9 = 1 (mod 8)

    def test_filter_blocks_are_never_involutory(self, gf4):
        # k=5, g=2: 2^2 = 4 != 1 (mod 5), so no row can be involutory
        assert not involutory_g_filter(2, 5)
        for row in product(range(4), repeat=5):
            assert not is_involutory(build_g_circulant(GCirculantSpec(gf4, 5, 2, row)))


class TestFullReport:
    def test_identity_report(self, gf16):
        rep = full_report(Matrix.identity(gf16, 3))
        assert not rep.mds
        assert rep.involutory and rep.orthogonal
        assert rep.semi_involutory is not None
        assert rep.semi_orthogonal is not None

    def test_singular_report(self, gf16):
        rep = assert_verdicts(Matrix(gf16, [[1, 1], [1, 1]]), involutory=False, orthogonal=False)
        assert not rep.mds
        assert rep.semi_involutory is None
        assert rep.semi_orthogonal is None

    def test_fields_computed_on_first_read_and_kept(self, gf16, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(properties_mod, "is_mds", counted("is_mds", properties_mod.is_mds))
        monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
        solve = properties_mod._solve_diagonal_sandwich
        monkeypatch.setattr(properties_mod, "_solve_diagonal_sandwich", counted("detect", solve))
        a = build_circulant(gf16, (1, 2, 4))
        rep = full_report(a)
        assert calls == []
        assert (rep.mds, rep.mds_witness) == elimination_mds(a) and calls == ["is_mds"]
        rep.semi_orthogonal, rep.semi_orthogonal, rep.orthogonal
        assert calls == ["is_mds", "inverse", "detect"]
        for name in properties_mod.PropertyReport.FIELDS:
            getattr(rep, name)
        assert sorted(calls) == ["detect", "detect", "inverse", "is_mds"]

    def test_equality_and_hash_follow_the_fields(self, gf16):
        a = build_circulant(gf16, (1, 2, 4))
        assert full_report(a) == full_report(Matrix(gf16, [list(r) for r in a.entries]))
        assert hash(full_report(a)) == hash(full_report(a))
        assert full_report(a) != full_report(build_circulant(gf16, (2, 1, 4)))
