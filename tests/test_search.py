"""Search harness: soundness, completeness, determinism, resume and
partition equality, constrained rows, and guards."""

import hashlib
import json
import random
import struct
from collections import Counter
from dataclasses import replace
from functools import cache, reduce
from itertools import product
from math import gcd
from operator import xor

import pytest

import gcirc.jsonio as jsonio_mod
import gcirc.properties as properties_mod
import gcirc.search as search_mod
from gcirc import (
    ConfigError,
    GCirculantSpec,
    GF2m,
    Matrix,
    ResumeTokenError,
    RowSpace,
    RowSpaceKind,
    SearchJob,
    SpaceTooLargeError,
    Target,
    build_circulant,
    build_g_circulant,
    build_left_circulant,
    full_report,
    run_search,
    square_is_identity,
    target_satisfied,
)
from gcirc.circulant import involutory_row_count
from gcirc.jsonio import job_from_json, result_to_json
from gcirc.search import job_part
from conftest import (
    RangeLog,
    diagonal,
    elimination_mds,
    is_involutory,
    job_to_json,
    random_row,
    sandwich_pair_exists,
    schoolbook_pow,
)

# every candidate of the three exhaustive spaces; the GF(2^4), k = 3
# sample adds non-symmetric g-circulants, on which involutory and
# orthogonal (and the two semi-properties) differ
SECOND_OPINION_SPACES = [("gf4", 2, None), ("gf4", 3, None), ("gf16", 2, None), ("gf16", 3, 48)]


def exhaustive_job(ctx, k, target, **kw):
    return SearchJob(ctx, k, target, RowSpace(RowSpaceKind.EXHAUSTIVE), **kw)


def collect(job):
    return list(run_search(job))


class TestSoundness:
    def test_reference_2x2_is_found(self, gf4):
        job = exhaustive_job(gf4, 2, Target.SEMI_INVOLUTORY_MDS)
        hits = collect(job)
        rows = {r.spec.row for r in hits}
        assert (1, 0x03) in rows  # circulant(1, a^2)
        for r in hits:
            assert r.report.semi_involutory is not None
            assert r.report.mds

    def test_every_hit_reverifies_from_scratch(self, gf16):
        for target in Target:
            job = exhaustive_job(gf16, 2, target)
            for res in collect(job):
                report = full_report(build_g_circulant(res.spec))
                assert target_satisfied(report, target)

    def test_no_involutory_mds_of_order_4_small_field(self, gf4):
        # order 2^d rule verified at GF(4) scale with the rule itself off
        job = exhaustive_job(gf4, 4, Target.INVOLUTORY_MDS, prune_power_of_two=False)
        assert job.g_set == (1, 3)
        assert collect(job) == []

    def test_power_of_two_rule_empties_the_stream(self, gf16):
        pruned = exhaustive_job(gf16, 4, Target.INVOLUTORY_MDS, prune_power_of_two=True)
        assert collect(pruned) == []

    def test_ordering(self, gf4):
        job = exhaustive_job(gf4, 2, Target.MDS_ONLY)
        hits = collect(job)
        keys = [(r.spec.g, r.ordinal) for r in hits]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestCompleteness:
    @pytest.mark.parametrize("target", list(Target))
    def test_gf4_k2_pruned_equals_unpruned(self, gf4, target):
        with_pruning = collect(exhaustive_job(gf4, 2, target, pruning=True))
        without = collect(exhaustive_job(gf4, 2, target, pruning=False))
        assert with_pruning == without

    @pytest.mark.parametrize("target", list(Target))
    def test_gf16_k2_pruned_equals_unpruned(self, gf16, target):
        with_pruning = collect(exhaustive_job(gf16, 2, target, pruning=True))
        without = collect(exhaustive_job(gf16, 2, target, pruning=False))
        assert with_pruning == without

    @pytest.mark.parametrize(
        "target", [Target.INVOLUTORY_MDS, Target.SEMI_INVOLUTORY_MDS]
    )
    def test_gf16_k3_pruned_equals_unpruned(self, gf16, target):
        with_pruning = collect(exhaustive_job(gf16, 3, target, pruning=True))
        without = collect(exhaustive_job(gf16, 3, target, pruning=False))
        assert with_pruning == without

    def test_debug_recheck_full_space(self, gf16):
        # re-verifies every pruned candidate; any unsound prune would raise
        job = exhaustive_job(gf16, 2, Target.INVOLUTORY_MDS, debug_recheck=1.0)
        collect(job)

    def test_debug_recheck_catches_an_unsound_prune(self, gf16, monkeypatch):
        # a g-block rule that drops a block holding hits fails the recheck
        job = exhaustive_job(gf16, 2, Target.INVOLUTORY_MDS, debug_recheck=1.0)
        assert collect(job)
        monkeypatch.setattr(search_mod, "_g_pruned", lambda _job, _g: True)
        with pytest.raises(AssertionError, match="pruning dropped a qualifying candidate"):
            collect(job)


class TestPrunedGBlocks:
    """g in {2, 3} fails g^2 = 1 (mod 5), and g = 1 with odd k forces an
    entry to 0: those blocks are walked without building a row, unless
    debug_recheck samples a token."""

    COUNT = 40

    @pytest.fixture()
    def recorded(self, monkeypatch):
        calls = {"hash": 0, "rows": [], "built": []}
        original_hash_entry, original_row_at = search_mod._hash_entry, SearchJob.row_at

        def hash_entry(*args):
            calls["hash"] += 1
            return original_hash_entry(*args)

        def row_at(job, g, ordinal):
            calls["rows"].append(g)
            return original_row_at(job, g, ordinal)

        def build(spec):
            calls["built"].append(spec)
            return build_g_circulant(spec)

        monkeypatch.setattr(search_mod, "_hash_entry", hash_entry)
        monkeypatch.setattr(SearchJob, "row_at", row_at)
        monkeypatch.setattr(search_mod, "build_g_circulant", build)
        return calls

    def job(self, ctx, **kw):
        return SearchJob(ctx, 5, Target.INVOLUTORY_MDS, RowSpace(RowSpaceKind.RANDOM, count=self.COUNT, seed=9), **kw)

    def test_rows_built_only_for_surviving_g(self, ctx11d, recorded):
        job = self.job(ctx11d)
        assert job.g_set == (1, 2, 3, 4)
        walked = RangeLog()
        list(run_search(job, on_progress=walked))
        assert walked.tokens() == list(range(4 * self.COUNT))
        assert recorded["rows"] == [4] * self.COUNT
        assert recorded["hash"] == self.COUNT * 5

    @pytest.mark.parametrize("k", [3, 7, 9])
    def test_g_1_odd_k_builds_no_row(self, ctx11d, recorded, k):
        job = SearchJob(
            ctx11d, k, Target.INVOLUTORY_MDS, RowSpace(RowSpaceKind.RANDOM, count=self.COUNT, seed=9), g_set=(1,)
        )
        walked = RangeLog()
        assert list(run_search(job, on_progress=walked)) == []
        assert walked.tokens() == list(range(self.COUNT))
        assert recorded["rows"] == [] and recorded["hash"] == 0

    def test_spec_built_only_for_admitted_rows(self, gf16, monkeypatch):
        # GF(2^4), k = 5, g = 4: about one row in 16 meets the l = 0 rule
        # (the row sums to 1), and about one of those in 256 squares to I
        built = []
        original = search_mod.GCirculantSpec

        def spec(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(search_mod, "GCirculantSpec", spec)
        count = 2000
        job = SearchJob(gf16, 5, Target.INVOLUTORY_MDS, RowSpace(RowSpaceKind.RANDOM, count=count, seed=3), g_set=(4,))
        collect(job)
        zero_free = [row for row in map(job.row_at, [4] * count, range(count)) if 0 not in row]
        admitted = [row for row in zero_free if is_involutory(build_left_circulant(gf16, row))]
        summing_to_one = [row for row in zero_free if reduce(xor, row) == 1]
        assert 0 < len(admitted) < len(summing_to_one)  # the quadratic stage rejects some rows
        assert [s.row for s in built] == admitted

    def test_debug_recheck_rebuilds_every_pruned_candidate(self, ctx11d, recorded):
        job = self.job(ctx11d, debug_recheck=1.0)
        walked = RangeLog()
        assert list(run_search(job, on_progress=walked)) == []
        assert walked.tokens() == list(range(4 * self.COUNT))
        # every candidate is pruned, so every one is rebuilt and re-checked, in token order
        assert [(s.g, s.row) for s in recorded["built"]] == [
            (g, job.row_at(g, o)) for g in job.g_set for o in range(self.COUNT)
        ]


class TestSemiInvolutoryGBlock:
    """For SEMI_INVOLUTORY_MDS with odd k > 1 the g = 1 block is pruned:
    no zero-free circulant of odd order k > 1 is semi-involutory."""

    def test_rule_is_g_1_with_odd_k(self, gf4):
        # INVOLUTORY_MDS has rules of its own (TestAdmittedRows); no other target prunes a block
        for k in range(1, 65):
            for target in (Target.SEMI_INVOLUTORY_MDS, Target.SEMI_ORTHOGONAL_MDS, Target.MDS_ONLY):
                job = exhaustive_job(gf4, k, target)
                for g in job.g_set:
                    rule = target is Target.SEMI_INVOLUTORY_MDS and g == 1 and k % 2 == 1 and k > 1
                    assert search_mod._g_pruned(job, g) == rule, (k, g, target)

    def test_gf16_k3_block_has_no_semi_involutory_row(self, gf16):
        # every zero-free row, through the dense detector
        semi = [row for row in product(range(1, 16), repeat=3)
                if full_report(build_circulant(gf16, row)).semi_involutory is not None]
        assert semi == []
        # while c_0 * I, which has zero entries, is semi-involutory
        assert full_report(build_circulant(gf16, (5, 0, 0))).semi_involutory is not None

    @pytest.mark.parametrize("m, modulus, k", [(4, 0x13, 5), (3, 0xB, 7)])
    def test_seeded_sample_has_no_semi_involutory_row(self, m, modulus, k):
        # k divides q - 1, so GF(2^m) holds the k-th roots of unity of the lam != 1 case
        ctx, rng = GF2m(m, modulus), random.Random(k)
        for _ in range(200):
            row = random_row(rng, ctx, k, nonzero=True)
            assert full_report(build_circulant(ctx, row)).semi_involutory is None, row

    def test_pruned_window_builds_no_g_1_row_unless_rechecked(self, gf16, monkeypatch):
        # tokens 3500..4599 span the end of the g = 1 block (4096 tokens) and the start of g = 2
        built = []

        def build(spec):
            built.append(spec)
            return build_g_circulant(spec)

        monkeypatch.setattr(search_mod, "build_g_circulant", build)
        job = exhaustive_job(gf16, 3, Target.SEMI_INVOLUTORY_MDS, resume_token=3500, stop_token=4600)
        walked = RangeLog()
        hits = list(run_search(job, on_progress=walked))
        assert hits and walked.tokens() == list(range(3500, 4600))
        assert {spec.g for spec in built} == {2}
        assert hits == collect(replace(job, pruning=False))
        built.clear()
        assert collect(replace(job, debug_recheck=1.0)) == hits
        # the recheck runs the unpruned job, which builds every row of the block, zero entries too
        assert [spec.row for spec in built if spec.g == 1] == [job.row_at(1, o) for o in range(3500, 4096)]


def square_roots_of_one(k):
    return [g for g in range(k) if gcd(g, k) == 1 and g * g % k == 1 % k]


# (m, modulus, k): every EXHAUSTIVE space whose admitted rows are checked
# against a brute force over all of its tokens
WALK_SPACES = [(2, 0x7, k) for k in range(1, 9)] + [(4, 0x13, k) for k in range(2, 6)]


@cache
def brute_force_admitted(m, modulus, k, g):
    """(ordinal, row) for every row of q^k with no zero entry whose square's
    row2 (shifted_convolution's out[l], summed over every pair) is 1 at
    l = 0 and 0 at every other l with g*l = l (mod k)."""
    ctx = GF2m(m, modulus)
    mul = [[ctx.mul(a, b) for b in range(ctx.q)] for a in range(ctx.q)]
    pairs = [(l, [(i, (l - g * i) % k) for i in range(k)]) for l in range(k) if g * l % k == l]
    out = []
    for ordinal, row in enumerate(product(range(ctx.q), repeat=k)):
        if 0 in row:
            continue
        for l, sums in pairs:
            acc = 0
            for i, j in sums:
                acc ^= mul[row[i]][row[j]]
            if acc != (l == 0):
                break
        else:
            out.append((ordinal, row))
    return out


class TestAdmittedRows:
    """An EXHAUSTIVE INVOLUTORY_MDS block builds only the rows the square
    law's linear conditions admit; every other token is pruned unbuilt."""

    def job(self, m, modulus, k, **kw):
        return exhaustive_job(GF2m(m, modulus), k, Target.INVOLUTORY_MDS, **kw)

    @pytest.mark.parametrize("m, modulus, k", WALK_SPACES)
    def test_equals_brute_force(self, m, modulus, k):
        job = self.job(m, modulus, k)
        per_g = job.per_g_size()
        for g in square_roots_of_one(k):
            expected = brute_force_admitted(m, modulus, k, g)
            assert list(search_mod._admitted_rows(job, g, 0, per_g)) == expected, g
            if k > 1 and g == 1 and k % 2:
                assert expected == []  # a lone index of a fixed set is forced to 0

    @pytest.mark.parametrize("m, modulus, k", WALK_SPACES)
    def test_windows(self, m, modulus, k):
        rng = random.Random(k * 100 + m)
        job = self.job(m, modulus, k)
        per_g = job.per_g_size()
        for g in square_roots_of_one(k):
            expected = brute_force_admitted(m, modulus, k, g)
            for _ in range(8):
                lo = rng.randrange(per_g + 1)
                hi = rng.randrange(lo, per_g + 1)
                walked = list(search_mod._admitted_rows(job, g, lo, hi))
                assert walked == [(o, row) for o, row in expected if lo <= o < hi], (g, lo, hi)
            cuts = sorted(rng.randrange(per_g + 1) for _ in range(5))
            bounds = [0, *cuts, per_g]
            parts = [search_mod._admitted_rows(job, g, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            assert [pair for part in parts for pair in part] == expected

    @pytest.mark.parametrize("m, modulus, k", WALK_SPACES)
    def test_progress_and_recheck_on_windows(self, m, modulus, k):
        rng = random.Random(k * 100 + m + 1)
        job = self.job(m, modulus, k)
        total = job.total_candidates()
        for _ in range(3):
            start = rng.randrange(total + 1)
            stop = min(total, start + rng.randrange(1, 600))
            window = replace(job, resume_token=start, stop_token=stop, debug_recheck=1.0)
            walked = RangeLog()
            list(run_search(window, on_progress=walked))
            assert walked.tokens() == list(range(start, stop))

    def test_partitions_concatenate(self, gf16):
        job = exhaustive_job(gf16, 3, Target.INVOLUTORY_MDS)
        whole = collect(job)
        assert len(whole) == 12
        for n in (2, 7, 64):
            walked = RangeLog()
            parts = []
            for i in range(n):
                part = job_part(job, i, n)
                parts += run_search(part, on_progress=walked)
            assert parts == whole and walked.tokens() == list(range(job.total_candidates()))

    @pytest.mark.parametrize("start", [0, 13_000, 65_536, 100_000])
    def test_gf16_k4_hits_equal_unpruned(self, gf16, start):
        job = exhaustive_job(gf16, 4, Target.INVOLUTORY_MDS, resume_token=start, stop_token=start + 3000)
        assert collect(job) == collect(replace(job, pruning=False))

    def test_forced_zero_rule_is_g_1_with_odd_k(self):
        for k in range(1, 65):
            for g in square_roots_of_one(k):
                job = exhaustive_job(GF2m(2, 0x7), k, Target.INVOLUTORY_MDS, g_set=(g,))
                assert search_mod._g_pruned(job, g) == (g == 1 and k % 2 == 1 and k > 1), (k, g)


def candidates(job):
    """(token, spec) for every candidate of an unconstrained job."""
    per_g = job.per_g_size()
    for token in range(job.total_candidates()):
        g = job.g_set[token // per_g]
        yield token, GCirculantSpec(job.ctx, job.k, g, job.row_at(g, token % per_g))


def oracle_scalar(ctx, d, k):
    powers = {schoolbook_pow(ctx, x, k) for x in d}
    return powers.pop() if len(powers) == 1 else None


class TestSecondOpinion:
    """Every hit's report, and the search's verdict on every candidate,
    against the conftest oracles and dense products, never through
    gcirc.properties."""

    @pytest.mark.parametrize("field, k, sample", SECOND_OPINION_SPACES)
    @pytest.mark.parametrize("target", list(Target))
    def test_hits_and_misses_match_oracles(self, request, field, k, sample, target):
        ctx = request.getfixturevalue(field)
        if sample is None:
            job = exhaustive_job(ctx, k, target)
        else:
            job = SearchJob(ctx, k, target, RowSpace(RowSpaceKind.RANDOM, count=sample, seed=7))
        hits = {res.token: res for res in collect(job)}
        identity = Matrix.identity(ctx, k)
        for token, spec in candidates(job):
            a = build_g_circulant(spec)
            at = a.transpose()
            mds = elimination_mds(a)
            involutory = a @ a == identity
            semi = {
                "semi_involutory": (a, sandwich_pair_exists(a, a)),
                "semi_orthogonal": (at, sandwich_pair_exists(a, at)),
            }
            satisfied = mds[0] and {
                Target.INVOLUTORY_MDS: involutory,
                Target.SEMI_INVOLUTORY_MDS: semi["semi_involutory"][1],
                Target.SEMI_ORTHOGONAL_MDS: semi["semi_orthogonal"][1],
                Target.MDS_ONLY: True,
            }[target]
            assert (token in hits) == satisfied, spec
            if token not in hits:
                continue
            res = hits.pop(token)
            assert res.spec == spec
            assert (res.report.mds, res.report.mds_witness) == mds
            assert res.report.involutory == involutory
            assert res.report.orthogonal == (a @ at == identity)
            for name, (b, exists) in semi.items():
                pair = getattr(res.report, name)
                assert (pair is not None) == exists, (spec, name)
                if pair is not None:
                    assert diagonal(ctx, pair.d1) @ a @ diagonal(ctx, pair.d2) @ b == identity
                    assert pair.scalar1 == oracle_scalar(ctx, pair.d1, k)
                    assert pair.scalar2 == oracle_scalar(ctx, pair.d2, k)
        assert not hits


class TestOneEvaluationPerCandidate:
    @pytest.mark.parametrize("field, k", [("gf4", 2), ("gf16", 2)])
    @pytest.mark.parametrize("target", list(Target))
    def test_each_survivor_built_and_checked_once(self, request, monkeypatch, field, k, target):
        ctx = request.getfixturevalue(field)
        calls = {"build": [], "is_mds": [], "inverse": [], "detect": []}

        def counted(name, fn):
            def wrapper(*args):
                call = [args, None]  # keeps args alive, so ids stay unique
                calls[name].append(call)
                call[1] = fn(*args)
                return call[1]

            return wrapper

        monkeypatch.setattr(search_mod, "build_g_circulant", counted("build", build_g_circulant))
        monkeypatch.setattr(properties_mod, "is_mds", counted("is_mds", properties_mod.is_mds))
        monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
        solve = properties_mod._solve_diagonal_sandwich
        monkeypatch.setattr(properties_mod, "_solve_diagonal_sandwich", counted("detect", solve))
        job = exhaustive_job(ctx, k, target)
        results = collect(job)
        for res in results:
            result_to_json(res)  # reads every field of the hit's report
        assert len(set(results)) == len(results)

        def survives(spec):  # no zero entry and, for INVOLUTORY_MDS, A @ A = I
            if 0 in spec.row:
                return False
            a = build_g_circulant(spec)
            return target is not Target.INVOLUTORY_MDS or a @ a == Matrix.identity(ctx, k)

        survivors = [spec for _, spec in candidates(job) if survives(spec)]
        assert [args[0] for args, _ in calls["build"]] == survivors
        built = {id(a) for _, a in calls["build"]}
        for name in ("is_mds", "inverse"):
            seen = Counter(id(args[0]) for args, _ in calls[name])
            assert set(seen) <= built and set(seen.values()) <= {1}, name
        detections = Counter((id(a), id(b)) for (a, b), _ in calls["detect"])
        assert set(detections.values()) <= {1}
        assert all(n <= 2 for n in Counter(a for a, _ in detections).values())

        # cheapest first: what a rejected candidate costs
        hit_ids = {id(res.report.matrix) for res in results}
        checked = {id(args[0]) for args, _ in calls["is_mds"]}
        mds_ids = {id(args[0]) for args, (ok, _) in calls["is_mds"] if ok}
        inverted = {id(args[0]) for args, _ in calls["inverse"]}
        paired = {id(args[0]) for args, pair in calls["detect"] if pair is not None}
        if target is Target.MDS_ONLY:
            assert checked == built and inverted == hit_ids
        elif target is Target.INVOLUTORY_MDS:
            assert checked == built and inverted == mds_ids
        else:
            assert inverted == built and checked <= paired


class TestDeterminism:
    def test_byte_identical_output(self, gf16):
        job = exhaustive_job(gf16, 2, Target.SEMI_INVOLUTORY_MDS)
        first = [json.dumps(result_to_json(r)) for r in run_search(job)]
        second = [json.dumps(result_to_json(r)) for r in run_search(job)]
        assert first == second
        assert first  # stream is not empty

    def test_random_rows_are_reproducible(self, gf16):
        job = SearchJob(
            gf16, 4, Target.MDS_ONLY, RowSpace(RowSpaceKind.RANDOM, count=50, seed=7)
        )
        assert job.row_at(1, 3) == (0, 5, 14, 15)  # frozen hash values
        again = SearchJob(
            gf16, 4, Target.MDS_ONLY, RowSpace(RowSpaceKind.RANDOM, count=50, seed=7)
        )
        assert collect(job) == collect(again)

    def test_random_seed_changes_rows(self, gf16):
        a = SearchJob(gf16, 4, Target.MDS_ONLY, RowSpace(RowSpaceKind.RANDOM, count=10, seed=1))
        b = SearchJob(gf16, 4, Target.MDS_ONLY, RowSpace(RowSpaceKind.RANDOM, count=10, seed=2))
        assert [a.row_at(1, i) for i in range(10)] != [b.row_at(1, i) for i in range(10)]

    def test_exhaustive_rows_are_base_q_numerals(self, gf4):
        job = exhaustive_job(gf4, 2, Target.MDS_ONLY)
        assert job.row_at(1, 0) == (0, 0)
        assert job.row_at(1, 1) == (0, 1)
        assert job.row_at(1, 4) == (1, 0)  # c_0 most significant
        assert job.row_at(1, 15) == (3, 3)


def hash_entry_oracle(seed, ordinal, pos, q):
    """Entry pos of a RANDOM row, by the formula as first written."""
    raw = hashlib.blake2b(struct.pack("<QQQ", seed, ordinal, pos), digest_size=8).digest()
    return int.from_bytes(raw, "little") & (q - 1)


class TestRandomEntries:
    """_hash_entry and row_at against hash_entry_oracle at the edges of
    the 64-bit seed and ordinal ranges."""

    SEEDS = [0, 1, (1 << 64) - 1, random.Random(16).randrange(1 << 64)]
    ORDINALS = [*range(4), *range((1 << 64) - 4, 1 << 64)]
    FIELDS = [(2, 0x7), (4, 0x13), (8, 0x11D), (16, 0x1002B)]

    @pytest.mark.parametrize("q", [1 << m for m, _ in FIELDS])
    def test_hash_entry(self, q):
        for seed, ordinal, pos in product(self.SEEDS, self.ORDINALS, range(6)):
            assert search_mod._hash_entry(seed, ordinal, pos, q) == hash_entry_oracle(seed, ordinal, pos, q)

    @pytest.mark.parametrize("m, modulus", FIELDS)
    def test_row_at(self, m, modulus):
        ctx, k = GF2m(m, modulus), 5
        for seed in self.SEEDS:
            job = SearchJob(ctx, k, Target.MDS_ONLY, RowSpace(RowSpaceKind.RANDOM, count=1 << 64, seed=seed))
            for g, ordinal in product(job.g_set, self.ORDINALS):
                expected = tuple(hash_entry_oracle(seed, ordinal, pos, ctx.q) for pos in range(k))
                assert job.row_at(g, ordinal) == expected, (seed, g, ordinal)


    def test_recheck_sample(self):
        # debug_recheck samples a token below 2^64 by the formula as first
        # written, and any other token as that token mod 2^64
        def unit(token):
            raw = hashlib.blake2b(struct.pack("<QQ", 0xDEB06, token % (1 << 64)), digest_size=8).digest()
            return int.from_bytes(raw, "little") / float(1 << 64)

        for token in [*self.ORDINALS, *(t + (1 << 64) for t in self.ORDINALS), 1 << 70, (1 << 80) + 3]:
            assert search_mod._hash_unit(0xDEB06, token) == unit(token), token


class TestResumePartition:
    def test_split_at_any_token(self, gf16):
        job = exhaustive_job(gf16, 2, Target.SEMI_INVOLUTORY_MDS)
        whole = collect(job)
        total = job.total_candidates()
        for cut in (0, 1, 17, 100, total):
            head = collect(
                exhaustive_job(
                    gf16, 2, Target.SEMI_INVOLUTORY_MDS, resume_token=0, stop_token=cut
                )
            )
            tail = collect(
                exhaustive_job(gf16, 2, Target.SEMI_INVOLUTORY_MDS, resume_token=cut)
            )
            assert head + tail == whole

    def test_partition_covers_disjointly(self, gf16):
        job = exhaustive_job(gf16, 2, Target.MDS_ONLY)
        whole = collect(job)
        for n in (1, 2, 8):
            parts = [job_part(job, i, n) for i in range(n)]
            assert parts[0].window()[0] == 0
            assert parts[-1].window()[1] == job.total_candidates()
            for left, right in zip(parts, parts[1:]):
                assert left.window()[1] == right.window()[0]
            merged = [r for p in parts for r in run_search(p)]
            assert merged == whole

    def test_partition_eight_ways_k4(self, gf16):
        job = SearchJob(
            gf16,
            4,
            Target.SEMI_INVOLUTORY_MDS,
            RowSpace(RowSpaceKind.RANDOM, count=400, seed=3),
        )
        whole = collect(job)
        merged = [r for i in range(8) for r in run_search(job_part(job, i, 8))]
        assert merged == whole

    def test_part_alone_matches_partition(self, gf16):
        job = exhaustive_job(gf16, 2, Target.MDS_ONLY, resume_token=5, stop_token=250)
        for n in (1, 3, 8, 300):
            windows = [job_part(job, i, n).window() for i in range(n)]
            assert windows[0][0] == 5 and windows[-1][1] == 250
            assert all(left[1] == right[0] for left, right in zip(windows, windows[1:]))
        for index in (-1, 3):
            with pytest.raises(ConfigError):
                job_part(job, index, 3)

    def test_part_of_a_huge_partition(self, gf16):
        job = SearchJob(gf16, 2, Target.MDS_ONLY, RowSpace(RowSpaceKind.RANDOM, count=2 * 10**12))
        assert job_part(job, 1, 10**12).window() == (2, 4)
        assert job_part(job, 10**12 - 1, 10**12).window() == (2 * 10**12 - 2, 2 * 10**12)

    def test_bad_tokens(self, gf4):
        with pytest.raises(ResumeTokenError):
            collect(exhaustive_job(gf4, 2, Target.MDS_ONLY, resume_token=17))
        with pytest.raises(ResumeTokenError):
            collect(exhaustive_job(gf4, 2, Target.MDS_ONLY, resume_token=-1))
        with pytest.raises(ResumeTokenError):
            collect(exhaustive_job(gf4, 2, Target.MDS_ONLY, stop_token=100))


def constrained_job(ctx, k, target, **kw):
    return SearchJob(ctx, k, target, RowSpace(RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT), **kw)


@pytest.fixture()
def squared(monkeypatch):
    """(row, verdict) for every square_is_identity call run_search makes, in order."""
    calls = []
    original = search_mod.square_is_identity

    def record(ctx, k, g, row):
        verdict = original(ctx, k, g, row)
        calls.append((row, verdict))
        return verdict

    monkeypatch.setattr(search_mod, "square_is_identity", record)
    return calls


class TestConstrainedRows:
    """row_at forces c_0 = 1 + the sum of the rest; run_search keeps the
    rows whose left-circulant squares to I as the row space's members."""

    def test_k2_rows_follow_linear_condition(self, gf16, squared):
        collect(constrained_job(gf16, 2, Target.MDS_ONLY, pruning=False))
        assert len({row for row, _ in squared}) == len(squared) == 16
        for (c0, c1), member in squared:
            assert c0 == 1 ^ c1
            assert member  # no quadratic conditions at k = 2

    @pytest.mark.parametrize("field", ["gf4", "gf16"])
    def test_k3_members_are_the_involutory_rows(self, request, squared, field):
        ctx = request.getfixturevalue(field)
        collect(constrained_job(ctx, 3, Target.MDS_ONLY, pruning=False))
        members = [row for row, member in squared if member]
        expected = [
            row
            for row in product(range(ctx.q), repeat=3)
            if is_involutory(build_left_circulant(ctx, row))
        ]
        assert members and sorted(members) == expected

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_each_row_squared_once(self, gf16, squared, k, pruning):
        job = constrained_job(gf16, k, Target.INVOLUTORY_MDS, pruning=pruning)
        hits = collect(job)
        assert len(hits) == {3: 12, 4: 0}[k]
        rows = [row for row, _ in squared]
        expected = [job.row_at(k - 1, o) for o in range(job.per_g_size())]
        if pruning:  # a row with a zero entry is pruned before it is squared
            expected = [row for row in expected if 0 not in row]
        if pruning and k == 3:  # odd k | q - 1: only the enumerated involutory rows are squared
            expected = [row for row in expected if is_involutory(build_left_circulant(gf16, row))]
            assert all(member for _, member in squared)
        assert sorted(rows) == sorted(expected)
        assert set(Counter(rows).values()) == {1}

    def test_search_agrees_with_plain_exhaustive(self, gf16):
        job = SearchJob(
            gf16,
            3,
            Target.INVOLUTORY_MDS,
            RowSpace(RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT),
        )
        assert job.g_set == (2,)
        constrained_hits = {r.spec.row for r in run_search(job)}
        plain = exhaustive_job(gf16, 3, Target.INVOLUTORY_MDS, g_set=(2,))
        plain_hits = {r.spec.row for r in run_search(plain)}
        assert constrained_hits == plain_hits
        for res in run_search(job):
            assert res.report.involutory and res.report.mds

    def test_gf256_reference_row_at_its_token(self, ctx165):
        # tail (a, ..., a+a^3) sits at numeral 0x02B3BB0A, and the row is
        # an involutory MDS left-circulant
        token = 0x02B3BB0A
        job = constrained_job(ctx165, 5, Target.INVOLUTORY_MDS, resume_token=token, stop_token=token + 1)
        assert [(r.token, r.spec.g, r.spec.row) for r in run_search(job)] == [
            (token, 4, (0x01, 0x02, 0xB3, 0xBB, 0x0A))
        ]

    # rows of the GF(2^4), k = 3 constrained space whose left-circulant is
    # not involutory (outside the row space) but meets the target
    NON_MEMBERS_MEETING = {
        Target.INVOLUTORY_MDS: 0,
        Target.SEMI_INVOLUTORY_MDS: 24,
        Target.SEMI_ORTHOGONAL_MDS: 24,
        Target.MDS_ONLY: 138,
    }

    @pytest.mark.parametrize("target", list(Target))
    def test_debug_recheck_skips_non_members(self, gf16, target):
        job = constrained_job(gf16, 3, target, debug_recheck=1.0)
        matrices = [build_left_circulant(gf16, job.row_at(2, o)) for o in range(job.per_g_size())]
        meeting = sum(not is_involutory(a) and target_satisfied(full_report(a), target) for a in matrices)
        assert meeting == self.NON_MEMBERS_MEETING[target]
        unpruned = collect(replace(job, pruning=False, debug_recheck=0.0))
        for pruning in (True, False):
            assert collect(replace(job, pruning=pruning)) == unpruned, pruning

    def test_wrong_g_set_rejected(self, gf16):
        with pytest.raises(ConfigError):
            SearchJob(
                gf16,
                3,
                Target.INVOLUTORY_MDS,
                RowSpace(RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT),
                g_set=(1,),
            )


@pytest.fixture()
def enumerated(monkeypatch):
    """(k, g) for every involutory_rows call run_search makes, in order."""
    calls = []
    original = search_mod.involutory_rows

    def record(ctx, k, g):
        calls.append((k, g))
        return original(ctx, k, g)

    monkeypatch.setattr(search_mod, "involutory_rows", record)
    return calls


class TestEnumeratedRows:
    """The enumerated source of GF(2^4) constrained blocks, k = 3 and 5
    (odd k | q - 1 = 15), against the walk with pruning off, which builds
    every row of the window."""

    def job(self, ctx, k, **kw):
        return constrained_job(ctx, k, Target.INVOLUTORY_MDS, **kw)

    def windows(self, rng, job, smallest, largest):
        """Four windows of smallest..largest tokens (at most the block):
        three hold a hit of the job, one starts anywhere."""
        per_g = job.per_g_size()
        hits = [r.token for r in run_search(job)]
        assert hits
        out = []
        for anchor in [*rng.sample(hits, 3), rng.randrange(per_g)]:
            width = min(rng.randrange(smallest, largest + 1), per_g)
            start = min(max(anchor - rng.randrange(width), 0), per_g - width)
            out.append((start, start + width))
        return out

    @pytest.mark.parametrize("k", [3, 5])
    def test_windows_match_the_unpruned_walk(self, gf16, enumerated, k):
        rng = random.Random(k * 10)
        job = self.job(gf16, k)
        count = involutory_row_count(16, k, k - 1)
        assert count == {3: 15, 5: 225}[k]
        for start, stop in self.windows(rng, job, count, count + 1500):
            window = replace(job, resume_token=start, stop_token=stop)
            enumerated.clear()  # windows() ran the whole job
            walked = RangeLog()
            hits = list(run_search(replace(window, debug_recheck=1.0), on_progress=walked))
            assert enumerated == [(k, k - 1)] and walked.tokens() == list(range(start, stop))
            assert hits == collect(replace(window, pruning=False)), (start, stop)

    @pytest.mark.parametrize("k", [3, 5])
    def test_small_windows_walk(self, gf16, enumerated, k):
        rng = random.Random(k * 10 + 1)
        job = self.job(gf16, k)
        windows = self.windows(rng, job, 1, involutory_row_count(16, k, k - 1) - 1)
        enumerated.clear()
        for start, stop in windows:
            window = replace(job, resume_token=start, stop_token=stop)
            assert collect(window) == collect(replace(window, pruning=False)), (start, stop)
        assert enumerated == []

    @pytest.mark.parametrize("k", [3, 5])
    def test_parts_concatenate(self, gf16, enumerated, k):
        rng = random.Random(k * 10 + 2)
        job = self.job(gf16, k)
        start, stop = self.windows(rng, job, 3000, 6000)[0]
        window = replace(job, resume_token=start, stop_token=stop)
        whole = collect(replace(window, pruning=False))
        assert whole
        enumerated.clear()
        for n in (2, 3, 7):
            walked, parts = RangeLog(), []
            for i in range(n):
                parts += run_search(job_part(window, i, n), on_progress=walked)
            assert parts == whole and walked.tokens() == list(range(start, stop)), n
        assert enumerated

    @pytest.mark.parametrize("m, modulus, k", [(4, 0x13, 3), (4, 0x13, 5), (8, 0x11D, 3), (8, 0x11D, 5)])
    def test_rows_are_the_walked_rows_that_square_to_identity(self, m, modulus, k):
        rng = random.Random(m * 10 + k)
        ctx = GF2m(m, modulus)
        job, g = self.job(ctx, k), k - 1
        per_g = job.per_g_size()
        every = search_mod._enumerated_rows(job, g, 0, per_g)
        assert len(every) == involutory_row_count(ctx.q, k, g)
        for ordinal, row in rng.sample(every, 4):
            start = max(ordinal - rng.randrange(5000), 0)
            stop = min(ordinal + rng.randrange(1, 5000), per_g)
            for lo, hi in (start, stop), (ordinal, stop), (start, ordinal):  # and an edge on a row
                walked = [(o, job.row_at(g, o)) for o in range(lo, hi)]
                walked = [(o, r) for o, r in walked if square_is_identity(ctx, k, g, r)]
                assert search_mod._enumerated_rows(job, g, lo, hi) == walked, (lo, hi)
                assert ((ordinal, row) in walked) == (hi > ordinal)

    def test_enumeration_is_capped(self):
        # 255^2 rows of GF(2^8), k = 5 fit the cap; 4095^2 of GF(2^12) do not,
        # though they fit a window of 2^24 tokens
        for m, modulus, enumerates in (8, 0x11D, True), (12, 0x1053, False):
            job = self.job(GF2m(m, modulus), 5)
            assert search_mod._enumerates(job, 4, 0, 1 << 24) is enumerates

    @pytest.mark.parametrize(
        "row_space",
        [RowSpace(RowSpaceKind.RANDOM, count=3000, seed=0), RowSpace(RowSpaceKind.EXHAUSTIVE)],
        ids=["random", "exhaustive"],
    )
    def test_only_constrained_rows_enumerated(self, gf16, enumerated, row_space):
        # k = 3 divides q - 1 and g = 2 squares to 1, yet a RANDOM row is a
        # hash, not its numeral, and an EXHAUSTIVE block builds _admitted_rows
        job = SearchJob(gf16, 3, Target.INVOLUTORY_MDS, row_space, g_set=(2,))
        hits = collect(job)
        assert hits and hits == collect(replace(job, pruning=False))
        assert enumerated == []


class TestGuards:
    def test_space_cap(self, ctx165):
        job = exhaustive_job(ctx165, 5, Target.MDS_ONLY)  # 256^5 rows
        with pytest.raises(SpaceTooLargeError):
            collect(job)

    def test_windowed_big_space_is_allowed(self, ctx165):
        job = exhaustive_job(
            ctx165, 5, Target.INVOLUTORY_MDS, g_set=(4,), resume_token=0, stop_token=64
        )
        collect(job)

    def test_non_coprime_g_rejected(self, gf16):
        with pytest.raises(ConfigError):
            exhaustive_job(gf16, 4, Target.MDS_ONLY, g_set=(2,))

    def test_row_space_validation(self):
        with pytest.raises(ConfigError):
            RowSpace(RowSpaceKind.RANDOM)  # missing count
        with pytest.raises(ConfigError):
            RowSpace(RowSpaceKind.EXHAUSTIVE, count=5)

    def test_progress_callback_sees_every_token(self, gf4):
        seen = RangeLog()
        job = exhaustive_job(gf4, 2, Target.MDS_ONLY)
        list(run_search(job, on_progress=seen))
        assert seen.tokens() == list(range(job.total_candidates()))

    @pytest.mark.parametrize("recheck", [0.0, 1.0])
    def test_range_hook_sees_every_token(self, ctx11d, recheck):
        # a hook gets consecutive nonempty ranges over the window: one per
        # pruned block in it (g = 2, 3; the window starts past g = 1's), or
        # with debug_recheck one per token; only ever as (first, stop)
        ranges = []

        def hook(first, stop):
            ranges.append((first, stop))

        job = SearchJob(
            ctx11d, 5, Target.INVOLUTORY_MDS, RowSpace(RowSpaceKind.RANDOM, count=40, seed=9),
            resume_token=50, stop_token=130, debug_recheck=recheck,
        )
        assert list(run_search(job, on_progress=hook)) == []
        firsts, stops = zip(*ranges)
        assert firsts == (50, *stops[:-1]) and stops[-1] == 130
        assert all(first < stop for first, stop in ranges)
        if recheck:
            assert ranges == [(t, t + 1) for t in range(50, 130)]
        else:
            assert ranges[:2] == [(50, 80), (80, 120)]


def split_at(ranges, cuts):
    """The (first, stop) ranges with each one split at every cut strictly inside it."""
    out = []
    for first, stop in ranges:
        for cut in sorted(c for c in cuts if first < c < stop):
            out.append((first, cut))
            first = cut
        out.append((first, stop))
    return out


# one job per row source that decides which tokens get a full report
ROW_SOURCES = {
    "walk": lambda: exhaustive_job(GF2m(2, 0x7), 3, Target.MDS_ONLY),
    "admitted": lambda: exhaustive_job(GF2m(4, 0x13), 3, Target.INVOLUTORY_MDS, resume_token=100, stop_token=7000),
    "enumerated": lambda: constrained_job(GF2m(4, 0x13), 5, Target.INVOLUTORY_MDS),
    "random-pruned": lambda: SearchJob(
        GF2m(8, 0x11D), 5, Target.INVOLUTORY_MDS, RowSpace(RowSpaceKind.RANDOM, count=40, seed=9),
        resume_token=30, stop_token=155,
    ),
    "unpruned": lambda: constrained_job(GF2m(4, 0x13), 3, Target.INVOLUTORY_MDS, pruning=False),
    "recheck": lambda: SearchJob(
        GF2m(8, 0x11D), 5, Target.INVOLUTORY_MDS, RowSpace(RowSpaceKind.RANDOM, count=40, seed=9),
        resume_token=30, stop_token=155, debug_recheck=1.0,
    ),
}


@pytest.mark.parametrize("source", ROW_SOURCES)
def test_progress_ranges_cover_the_window(source, enumerated):
    job = ROW_SOURCES[source]()
    start, stop = job.window()
    whole = RangeLog()
    hits = list(run_search(job, on_progress=whole))
    assert all(a < b for a, b in whole)
    firsts, stops = zip(*whole)
    assert firsts == (start, *stops[:-1]) and stops[-1] == stop
    assert (enumerated != []) == (source == "enumerated")
    if source == "recheck":
        assert whole == [(t, t + 1) for t in range(start, stop)]
    else:
        assert len(whole) < stop - start  # some range holds skipped tokens
    for n in (3, 7):
        part_jobs = [job_part(job, i, n) for i in range(n)]
        hooks = [RangeLog() for _ in part_jobs]
        assert [hit for part, hook in zip(part_jobs, hooks) for hit in run_search(part, on_progress=hook)] == hits
        cuts = [part.window()[0] for part in part_jobs[1:]]
        assert [r for hook in hooks for r in hook] == split_at(whole, cuts), n


class TestScalarLawOnSearchHits:
    def test_semi_hits_have_scalar_powers(self, gf4, gf16):
        # every detected pair on a fully dense matrix must obey the
        # k-th-power law; violations on sparse (non-MDS) zero patterns
        # would be findings, not failures, and none occur at this scale
        populations = [
            (gf4, 2, Target.SEMI_INVOLUTORY_MDS),
            (gf4, 2, Target.SEMI_ORTHOGONAL_MDS),
            (gf16, 2, Target.SEMI_INVOLUTORY_MDS),
            (gf16, 3, Target.SEMI_ORTHOGONAL_MDS),
        ]
        found = 0
        for ctx, k, target in populations:
            for res in run_search(exhaustive_job(ctx, k, target)):
                pair = (
                    res.report.semi_involutory
                    if target is Target.SEMI_INVOLUTORY_MDS
                    else res.report.semi_orthogonal
                )
                found += 1
                assert pair.scalar1 is not None
                assert pair.scalar2 is not None
        assert found > 0


class TestJobJson:
    def test_round_trip(self, gf16):
        job = SearchJob(
            gf16,
            4,
            Target.INVOLUTORY_MDS,
            RowSpace(RowSpaceKind.RANDOM, count=100, seed=11),
            g_set=(1, 3),
            resume_token=5,
            pruning=False,
        )
        assert job_from_json(job_to_json(job)) == job

    def test_left_out_keys_take_the_dataclass_defaults(self, gf4, monkeypatch):
        obj = {"field": {"m": 2, "poly": "0x7"}, "k": 2, "target": "MDS_ONLY", "row_space": {"kind": "EXHAUSTIVE"}}
        assert job_from_json(obj) == SearchJob(gf4, 2, Target.MDS_ONLY, RowSpace(RowSpaceKind.EXHAUSTIVE))
        passed = []

        def recording(cls):
            def make(*args, **kwargs):
                passed.append((cls.__name__, sorted(kwargs)))
                return cls(*args, **kwargs)
            return make

        monkeypatch.setattr(jsonio_mod, "SearchJob", recording(SearchJob))
        monkeypatch.setattr(jsonio_mod, "RowSpace", recording(RowSpace))
        job_from_json({**obj, "row_space": {"kind": "RANDOM", "count": 3}, "pruning": False, "stop_token": None})
        assert passed == [
            ("RowSpace", ["count"]),
            ("SearchJob", ["ctx", "k", "pruning", "row_space", "stop_token", "target"]),
        ]

    def test_malformed(self):
        with pytest.raises(ConfigError):
            job_from_json({"k": 2})
        with pytest.raises(ConfigError):
            job_from_json([1, 2, 3])

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"target": 5}, "'target' must be one of INVOLUTORY_MDS, SEMI_INVOLUTORY_MDS,"
             " SEMI_ORTHOGONAL_MDS, MDS_ONLY, got 5"),
            ({"target": "MDS"}, "'target' must be one of INVOLUTORY_MDS, SEMI_INVOLUTORY_MDS,"
             " SEMI_ORTHOGONAL_MDS, MDS_ONLY, got 'MDS'"),
            ({"row_space": {"kind": ["RANDOM"]}}, "'kind' must be one of EXHAUSTIVE, RANDOM,"
             " CONSTRAINED_LEFT_CIRCULANT, got ['RANDOM']"),
            ({"field": None}, "job needs key 'field'"),
            ({"k": None}, "job needs key 'k'"),
            ({"target": None}, "job needs key 'target'"),
            ({"row_space": None}, "job needs key 'row_space'"),
            ({"row_space": {}}, "row_space needs key 'kind'"),
        ],
    )
    def test_error_names_key(self, change, message):
        obj = {"field": {"m": 2, "poly": "0x7"}, "k": 2, "target": "MDS_ONLY", "row_space": {"kind": "EXHAUSTIVE"}}
        obj.update(change)
        obj = {key: value for key, value in obj.items() if value is not None}
        with pytest.raises(ConfigError) as info:
            job_from_json(obj)
        assert str(info.value) == message
