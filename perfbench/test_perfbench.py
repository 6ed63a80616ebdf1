"""Tests of the benchmark's own machinery, on a small op list.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

import run
import speed
import verify
import workloads
from tracer import Tracer, find_wrappers

sys.path.insert(0, run.SRC)


def _small_ops():
    tiny, = workloads._search_ops(
        "tiny",
        {"field": {"m": 3, "poly": "0xb"}, "k": 3, "target": "SEMI_ORTHOGONAL_MDS",
         "row_space": {"kind": "EXHAUSTIVE"}},
        None,
        parts=1,
    )
    wide = workloads.check_wide(7)
    checks = [op for op in wide if op.kind == "check"]
    others = [op for op in wide if op.kind in ("repro", "square")]
    return [tiny, checks[0], checks[45], *others, workloads.Op("sqrt1", "sqrt1-720", ["sqrt1", "720"])]


@pytest.fixture(scope="module")
def bench():
    """(gcirc, ops, work dir, untraced pass, two traced passes)."""
    ops = _small_ops()
    with run.work_dir(f"test-{os.getpid()}") as work:
        gcirc, _ = run.setup(ops, work)
        plain = run.run_pass(gcirc, ops, work)
        first = run.trace_pass(gcirc, ops, work)
        second = run.trace_pass(gcirc, ops, work)
        yield gcirc, ops, work, plain, first, second


def _counts(tracer, results):
    metrics = run.layer_metrics(tracer, results, 1.0, 1.0)
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def test_two_traced_runs_give_identical_counts(bench):
    _, _, _, _, (t1, r1), (t2, r2) = bench
    assert {k: v[0] for k, v in t1.calls.items()} == {k: v[0] for k, v in t2.calls.items()}
    assert _counts(t1, r1) == _counts(t2, r2)
    assert t1.count("properties.is_mds") > 0 and t1.count("field.mul") > 0


def test_self_times_are_nonnegative_and_within_the_traced_wall_time(bench):
    _, _, _, _, (tracer, results), _ = bench
    times, _ = tracer.summary()
    wall = sum(out.seconds for _, out in results)
    assert all(own >= 0.0 for _, own in times.values())
    assert all(own <= total for total, own in times.values())
    assert sum(own for _, own in times.values()) <= wall


def test_traced_and_untraced_outputs_have_equal_digests(bench):
    _, _, _, plain, (_, traced), _ = bench
    assert run.digests_of(traced) == run.digests_of(plain)
    ledger = run.Ledger({})
    ledger.check_pass(0, plain, None, deep=True)
    assert (ledger.failed, ledger.messages) == (0, [])


def test_a_corrupted_reference_digest_is_a_failed_op(bench):
    _, _, _, plain, _, _ = bench
    reference = {op.fingerprint(): {"exit": out.rc, "stdout_sha256": out.digest} for op, out in plain}
    ledger = run.Ledger(reference)
    ledger.check_pass(0, plain, None, deep=False)
    assert (ledger.attempted, ledger.failed) == (len(plain), 0)
    victim = plain[1][0].fingerprint()
    reference[victim] = dict(reference[victim], stdout_sha256="0" * 64)
    ledger = run.Ledger(reference)
    ledger.check_pass(0, plain, None, deep=False)
    assert ledger.failed == 1
    assert "reference digest" in ledger.messages[0]


def test_tracing_rebinds_imported_names_and_restores_them(bench):
    gcirc = bench[0]
    originals = (gcirc.properties.is_mds, gcirc.properties.full_report, gcirc.matrix.Matrix.__dict__["determinant"])
    with Tracer():
        assert gcirc.search.is_mds is gcirc.properties.is_mds is gcirc.catalog.is_mds is gcirc.is_mds
        assert gcirc.cli.full_report is gcirc.properties.full_report
        assert gcirc.search.is_mds is not originals[0]
        assert len(find_wrappers()) > 0
    assert find_wrappers() == []
    assert gcirc.search.is_mds is gcirc.catalog.is_mds is originals[0]
    assert gcirc.cli.full_report is originals[1]
    assert gcirc.matrix.Matrix.__dict__["determinant"] is originals[2]


def test_footer_accounting_catches_a_short_walk(bench):
    _, ops, _, plain, _, _ = bench
    op, out = plain[0]
    assert op.kind == "search" and verify.problems(op, out, {}, verify.Fields(), deep=False) == []
    short = verify.Outcome(out.rc, out.stdout, out.stderr.replace(f"{op.window} candidates", "1 candidates"), 0.0)
    assert any("window" in p for p in verify.problems(op, short, {}, verify.Fields(), deep=False))
    dropped = verify.Outcome(out.rc, "\n".join(out.stdout.splitlines()[1:]), out.stderr, 0.0)
    assert any("JSON lines" in p for p in verify.problems(op, dropped, {}, verify.Fields(), deep=False))


def test_the_oracle_flags_a_wrong_report(bench):
    _, _, _, plain, _, _ = bench
    fields = verify.Fields()
    search_op, search_out = plain[0]
    hit = json.loads(search_out.stdout.splitlines()[0])
    hit["report"]["semi_orthogonal"]["d1"][0] = "0x1" if hit["report"]["semi_orthogonal"]["d1"][0] != "0x1" else "0x2"
    lines = [json.dumps(hit)] + search_out.stdout.splitlines()[1:]
    tampered = verify.Outcome(0, "\n".join(lines) + "\n", search_out.stderr, 0.0)
    assert any("semi_orthogonal" in p for p in verify.problems(search_op, tampered, {}, fields, deep=True))
    check_op, check_out = next((op, out) for op, out in plain if op.kind == "check" and op.expect_report is None)
    report = json.loads(check_out.stdout)
    report["mds"] = not report["mds"]
    flipped = verify.Outcome(0, json.dumps(report) + "\n", "", 0.0)
    assert verify.problems(check_op, flipped, {}, fields, deep=True) == ["wrong mds"]


def test_a_search_run_as_windows_must_add_up_to_its_known_hit_count(bench):
    gcirc, _, work, _, _, _ = bench
    job = {"field": {"m": 2, "poly": "0x7"}, "k": 2, "target": "MDS_ONLY", "row_space": {"kind": "EXHAUSTIVE"}}
    parts = workloads._search_ops("split", job, 6, parts=4)
    workloads.write_inputs(parts, work)
    results = run.run_pass(gcirc, parts, work)
    assert [op.window for op in parts] == [4, 4, 4, 4]
    assert sum(op.kind == "check" for op, _ in results) == 6
    ledger = run.Ledger({})
    ledger.check_pass(0, results, None, deep=True)
    assert (ledger.failed, ledger.messages) == (0, [])
    wrong = [(dataclasses.replace(op, expect_hits=7), out) for op, out in results]
    assert verify.job_problems(wrong) == {"split/part-3": ["6 hits, expected 7"]}


def test_the_probe_scales_an_op_by_the_two_probes_around_it():
    probe = speed.Probe()
    probe.stamps = [0.0, 1.0, 2.0]
    probe.times = [speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert probe.scale(1.2, 1.8) == pytest.approx(0.5)
    assert probe.scale(0.2, 0.8) == pytest.approx(2 / 3)
    assert probe.scale(2.5, 3.0) == pytest.approx(0.5)
    probe.tick()
    assert probe.times[-1] > 0 and probe.stamps[-1] > 2.0
