"""Acceptance suite: twelve criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete. Every expected value is exact field arithmetic; the
stated wall-clock bounds are asserted, not advisory.
"""

import contextlib
import json
import random
import time
from itertools import combinations, product
from math import gcd

import pytest

from gcirc import (
    GCirculantSpec,
    Matrix,
    RowSpace,
    RowSpaceKind,
    SearchJob,
    Target,
    build_circulant,
    build_g_circulant,
    build_left_circulant,
    detect_semi_involutory,
    detect_semi_orthogonal,
    diagonal_power_scalar,
    involutory_g_filter,
    is_mds,
    left_circulant_involutory_conditions,
    predicted_sqrt_one_count,
    rescale_pair,
    run_search,
    shifted_convolution,
    square_structured,
)
from gcirc.cli import main as cli_main
from conftest import RangeLog, brute_force_sandwich_pairs, is_involutory

PAPER_ROW = ("1", "a", "1+a+a^4+a^5+a^7", "1+a+a^3+a^4+a^5+a^7", "a+a^3")


@contextlib.contextmanager
def criterion(num: int, desc: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"
    print(f"ACCEPTANCE {num:02d} PASS  {desc} [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def spec_population(gf16, ctx165):
    """1050 random g-circulant specs, k in 2..8, over GF(2^4) and GF(2^8)."""
    rng = random.Random(20260809)
    specs = []
    for i in range(1050):
        k = 2 + i % 7
        ctx = gf16 if i % 2 == 0 else ctx165
        g = rng.choice([g for g in range(1, k) if gcd(g, k) == 1])
        row = tuple(rng.randrange(ctx.q) for _ in range(k))
        specs.append(GCirculantSpec(ctx, k, g, row))
    return specs


def test_criterion_01_structured_square_of_reference_3circulant(capsys, ctx165):
    with criterion(1, "3-circulant 5x5 over GF(2^8)/0x165: g2 = 4, row2[0] = a^6+1", 1.0):
        code = cli_main(
            ["--field-m", "8", "--field-poly", "0x165", "square", "--k", "5", "--g", "3",
             "--row", *PAPER_ROW]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["g2"] == 4
        assert payload["row2"][0] == "0x41"  # a^6 + 1
        assert payload["verified"] is True
        row = tuple(ctx165.parse(s) for s in PAPER_ROW)
        a = build_g_circulant(GCirculantSpec(ctx165, 5, 3, row))
        sq = a @ a
        assert sq[1, 4] == ctx165.parse("1+a^6")
        assert sq[0, 0] == sq[1, 4]


def test_criterion_02_left_circulant_example(ctx165):
    with criterion(2, "left-circulant 5x5: row sums to 1, sums vanish, involutory, MDS", 1.0):
        row = tuple(ctx165.parse(s) for s in PAPER_ROW)
        total = 0
        for c in row:
            total ^= c
        assert total == 1
        conv = shifted_convolution(ctx165, row, 4)
        assert conv[1] == 0 and conv[2] == 0
        a = build_left_circulant(ctx165, row)
        assert is_involutory(a)
        # all 250 proper minors, then the full determinant via is_mds
        proper = 0
        for size in range(1, 5):
            for rows in combinations(range(5), size):
                for cols in combinations(range(5), size):
                    assert a.submatrix(rows, cols).determinant() != 0
                    proper += 1
        assert proper == 250
        assert is_mds(a) == (True, None)


def test_criterion_03_semi_orthogonal_example(ctx11d):
    with criterion(3, "semi-orthogonal 5x5 over GF(2^8)/0x11D: stated pair and scalars"):
        row = tuple(
            ctx11d.parse(s) for s in ("1", "1+a+a^3", "1+a+a^3", "a+a^3", "1+a^3+a^4+a^7")
        )
        a = build_circulant(ctx11d, row)
        pair = detect_semi_orthogonal(a)
        assert pair is not None
        stated_d1 = tuple(
            ctx11d.parse(s)
            for s in ("a^2+a", "a^7+a^2+1", "a^7+a^6+a^5+a^4+a^2", "a^5+a^4+a^3+a^2",
                      "a^6+a^3+a+1")
        )
        stated_d2 = tuple(
            ctx11d.parse(s)
            for s in ("a^7+a^6+a^3+a^2+a+1", "a^7+a^5+a^3", "a^7+a^5+a^4+a^2+1",
                      "a^6+a^5+a^2", "a^7+a^5+a^4+a^2+a")
        )
        scaled = rescale_pair(ctx11d, pair, ctx11d.inv(stated_d2[0]), 5)
        assert scaled.d1 == stated_d1
        assert scaled.d2 == stated_d2
        assert scaled.scalar1 == ctx11d.parse("a^5+a^3+a^2+a")
        assert scaled.scalar2 == ctx11d.parse("a^6+a^4+a^3+1")


def test_criterion_04_semi_involutory_examples(gf4, gf16):
    with criterion(4, "semi-involutory 2x2/GF(4) and 4x4/GF(16): stated pairs and scalars"):
        a2 = build_circulant(gf4, (1, gf4.mul(2, 2)))
        pair2 = detect_semi_involutory(a2)
        assert pair2 is not None
        assert pair2.d1 == (0x02, 0x02) and pair2.d2 == (1, 1)
        assert pair2.scalar1 == gf4.parse("1+a")
        assert pair2.scalar2 == 1

        row4 = tuple(gf16.parse(s) for s in ("a", "a^3", "1+a+a^2", "a^3"))
        pair4 = detect_semi_involutory(build_circulant(gf16, row4))
        assert pair4 is not None
        assert pair4.d1 == (gf16.parse("1+a^3"),) * 4 and pair4.d2 == (1,) * 4
        assert pair4.scalar1 == gf16.parse("a+a^2+a^3")
        assert pair4.scalar2 == 1


def test_criterion_05_sqrt_one_count_law():
    with criterion(5, "x^2 = 1 (mod k) count law for every k in 2..4096", 5.0):
        mismatches = []
        for k in range(2, 4097):
            found = sum(1 for x in range(1, k) if x * x % k == 1)
            if found != predicted_sqrt_one_count(k):
                mismatches.append(k)
        assert mismatches == []


def test_criterion_06_structured_square_oracle(spec_population):
    with criterion(6, "square_structured equals A @ A on 1050 random specs"):
        failures = 0
        for spec in spec_population:
            g2, row2 = square_structured(spec)
            a = build_g_circulant(spec)
            if build_g_circulant(GCirculantSpec(spec.ctx, spec.k, g2, row2)) != a @ a:
                failures += 1
        assert failures == 0


def test_criterion_07_shift_laws(spec_population):
    with criterion(7, "PA = AP^g, transpose/inverse are g^-1-circulant, products gh"):
        def satisfies_shift(m, g):  # A[i, j] = A[i+1, j+g], indices mod k
            n = m.rows
            return all(m[i, j] == m[(i + 1) % n, (j + g) % n] for i in range(n) for j in range(n))

        failures = 0
        by_key = {}
        for spec in spec_population:
            a = build_g_circulant(spec)
            k = spec.k
            p = build_circulant(spec.ctx, [int(j == 1 % k) for j in range(k)])
            pg = build_circulant(spec.ctx, [int(j == spec.g) for j in range(k)])
            if p @ a != a @ pg:
                failures += 1
            g_inv = pow(spec.g, -1, k)
            if not satisfies_shift(a.transpose(), g_inv):
                failures += 1
            if a.determinant() != 0 and not satisfies_shift(a.inverse(), g_inv):
                failures += 1
            partner = by_key.pop((spec.ctx.modulus, k), None)
            if partner is None:
                by_key[(spec.ctx.modulus, k)] = spec
            else:
                prod = build_g_circulant(partner) @ a
                if not satisfies_shift(prod, partner.g * spec.g % k):
                    failures += 1
        assert failures == 0


def test_criterion_08_no_involutory_mds_of_order_4(gf16):
    with criterion(8, "exhaustive GF(2^4) k=4, g in {1,3}: zero involutory MDS hits", 60.0):
        job = SearchJob(
            gf16,
            4,
            Target.INVOLUTORY_MDS,
            RowSpace(RowSpaceKind.EXHAUSTIVE),
            g_set=(1, 3),
            prune_power_of_two=False,
        )
        assert job.total_candidates() == 2 * 65536
        walked = RangeLog()
        hits = list(run_search(job, on_progress=walked))
        assert hits == []
        assert len(walked.tokens()) == 131072


def test_criterion_09_g_filter_theorem(gf16):
    with criterion(9, "GF(2^4) k=5 g=3: zero involutory among 10^5 sampled rows"):
        assert not involutory_g_filter(3, 5)  # 9 = 4 (mod 5)
        job = SearchJob(
            gf16,
            5,
            Target.INVOLUTORY_MDS,
            RowSpace(RowSpaceKind.RANDOM, count=100000, seed=42),
            g_set=(3,),
        )
        counterexamples = 0
        for ordinal in range(100000):
            row = job.row_at(3, ordinal)
            if is_involutory(build_g_circulant(GCirculantSpec(gf16, 5, 3, row))):
                counterexamples += 1
        assert counterexamples == 0


def test_criterion_10_iff_condition_equivalence(gf16):
    with criterion(10, "left-circulant involutory iff-conditions: all rows, k=3 and k=4", 30.0):
        disagreements = 0
        for k in (3, 4):
            for row in product(range(16), repeat=k):
                fast = left_circulant_involutory_conditions(gf16, row)
                direct = is_involutory(build_left_circulant(gf16, row))
                if fast != direct:
                    disagreements += 1
        assert disagreements == 0


def test_criterion_11_diagonal_power_scalar_law(gf4, gf16):
    with criterion(11, "D^k scalar law on every semi-* hit over GF(4) k=2, GF(16) k in {2,3}"):
        populations = [(gf4, 2), (gf16, 2), (gf16, 3)]
        violations = 0
        hits = 0
        for ctx, k in populations:
            for target in (Target.SEMI_INVOLUTORY_MDS, Target.SEMI_ORTHOGONAL_MDS):
                job = SearchJob(ctx, k, target, RowSpace(RowSpaceKind.EXHAUSTIVE))
                for res in run_search(job):
                    pair = (
                        res.report.semi_involutory
                        if target is Target.SEMI_INVOLUTORY_MDS
                        else res.report.semi_orthogonal
                    )
                    hits += 1
                    if (
                        diagonal_power_scalar(ctx, pair.d1, k) is None
                        or diagonal_power_scalar(ctx, pair.d2, k) is None
                    ):
                        violations += 1
        assert hits > 0
        assert violations == 0


def test_criterion_12_detection_matches_brute_force(gf4):
    with criterion(12, "detection vs exhaustive diagonal-pair search, all 2x2 over GF(4)", 10.0):
        disagreements = 0
        nonsingular = 0
        for entries in product(range(4), repeat=4):
            a = Matrix(gf4, [entries[:2], entries[2:]])
            if a.determinant() == 0:
                continue
            nonsingular += 1
            pair = detect_semi_involutory(a)
            truth = brute_force_sandwich_pairs(a, a.inverse())
            if (pair is None) == bool(truth):
                disagreements += 1
            elif pair is not None and (pair.d1, pair.d2) not in truth:
                disagreements += 1
        assert nonsingular == 180
        assert disagreements == 0
