"""Search harness: soundness, completeness, determinism, resume and
partition equality, constrained rows, and guards."""

import json
from collections import Counter
from itertools import product

import pytest

import gcirc.properties as properties_mod
import gcirc.search as search_mod
from gcirc import (
    ConfigError,
    GCirculantSpec,
    Matrix,
    ResumeTokenError,
    RowSpace,
    RowSpaceKind,
    SearchJob,
    SpaceTooLargeError,
    Target,
    build_g_circulant,
    build_left_circulant,
    full_report,
    is_involutory,
    run_search,
    target_satisfied,
)
from gcirc.jsonio import job_from_json, job_to_json, result_to_json
from gcirc.search import job_part
from conftest import diagonal, elimination_mds, sandwich_pair_exists, schoolbook_pow

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


class TestPrunedGBlocks:
    """g in {2, 3} fails g^2 = 1 (mod 5): those blocks are walked without
    building a row, unless debug_recheck samples a token."""

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
        walked = []
        list(run_search(job, on_progress=walked.append))
        assert walked == list(range(4 * self.COUNT))
        assert recorded["rows"] == [1] * self.COUNT + [4] * self.COUNT
        assert recorded["hash"] == 2 * self.COUNT * 5

    def test_debug_recheck_rebuilds_every_pruned_candidate(self, ctx11d, recorded):
        job = self.job(ctx11d, debug_recheck=1.0)
        walked = []
        assert list(run_search(job, on_progress=walked.append)) == []
        assert walked == list(range(4 * self.COUNT))
        # every candidate is pruned, so every one is rebuilt and re-checked, in token order
        assert [(s.g, s.row) for s in recorded["built"]] == [
            (g, job.row_at(g, o)) for g in job.g_set for o in range(self.COUNT)
        ]


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

    def record(spec):
        verdict = original(spec)
        calls.append((spec.row, verdict))
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

    def test_wrong_g_set_rejected(self, gf16):
        with pytest.raises(ConfigError):
            SearchJob(
                gf16,
                3,
                Target.INVOLUTORY_MDS,
                RowSpace(RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT),
                g_set=(1,),
            )


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
        seen = []
        job = exhaustive_job(gf4, 2, Target.MDS_ONLY)
        list(run_search(job, on_progress=seen.append))
        assert seen == list(range(job.total_candidates()))


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

    def test_malformed(self):
        with pytest.raises(ConfigError):
            job_from_json({"k": 2})
        with pytest.raises(ConfigError):
            job_from_json([1, 2, 3])
