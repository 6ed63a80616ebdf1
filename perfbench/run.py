#!/usr/bin/env python3
"""gcirc benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload search-mds --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; gcirc is imported from ./src. Every op
is a `gcirc` command line run in-process through `gcirc.cli.main`, with
stdout and stderr captured. With --trace 0 the run repeats whole passes
over the workload's ops, at least MIN_PASSES of them, until --seconds of
op time is measured, and prints the end-to-end metrics, every time
scaled to a fixed host speed by the speed probe (speed.py) that runs
between ops. With --trace 1 it runs one untraced and one traced pass
plus the kernel pass, and prints the per-layer metrics.
The last stdout line is the JSON result; the lines before it are a
human-readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import kernels  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# set-up is repeated and its median reported: one import varies by tens
# of percent between processes, the median of nine in one process does not
SETUP_REPEATS = 9
# each op is timed on at least this many passes, so its median means something
MIN_PASSES = 3


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["ops"]


def import_gcirc():
    """A fresh import of gcirc from ./src, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "gcirc" or n.startswith("gcirc.")]:
        del sys.modules[name]
    gcirc = importlib.import_module("gcirc")
    importlib.import_module("gcirc.cli")
    if not os.path.abspath(gcirc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gcirc imported from {gcirc.__file__}, not from {SRC}")
    return gcirc


def setup(ops, work: str, probe: speed.Probe | None = None):
    """Import gcirc, build the workload's field contexts and write its input
    files, SETUP_REPEATS times; returns the last import and the times,
    scaled by the probe when one is given."""
    fields = sorted(workloads.fields_of(ops))
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if probe is not None:
            probe.tick()
        t0 = time.perf_counter()
        gcirc = import_gcirc()
        for m, modulus in fields:
            gcirc.GF2m(m, modulus)
        workloads.write_inputs(ops, work)
        t1 = time.perf_counter()
        if probe is not None:
            probe.tick()
        times.append((t1 - t0) * (probe.scale(t0, t1) if probe is not None else 1.0))
    return gcirc, times


def run_op(cli_main, op, work: str) -> verify.Outcome:
    out, err = io.StringIO(), io.StringIO()
    argv = op.resolved_argv(work)
    error = rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except (Exception, SystemExit) as exc:  # a crashing op is a failed op, not a failed run
        error = repr(exc)
    seconds = time.perf_counter() - t0
    return verify.Outcome(rc, out.getvalue(), err.getvalue(), seconds, error, t0)


def run_pass(gcirc, ops, work: str, probe: speed.Probe | None = None) -> list:
    """[(op, outcome)] for the workload's ops, each search followed by
    `gcirc check` on its first hits; with a probe, a probe tick comes
    before every op and after the last."""
    main = gcirc.cli.main
    results = []

    def timed(op):
        if probe is not None:
            probe.tick()
        results.append((op, run_op(main, op, work)))
        return results[-1][1]

    for op in ops:
        timed(op)
        if op.kind == "search" and op.last_part:
            stdout = "".join(out.stdout for part, out in results if part.group == op.group)
            try:
                derived = workloads.hit_check_ops(op.group, stdout)
            except (ValueError, KeyError, TypeError):
                derived = []  # the search's own check reports the bad line
            for sub in derived:
                timed(sub)
    if probe is not None:
        probe.tick()
    return results


class Ledger:
    """Attempted and failed op executions, and what went wrong. A failure
    is keyed by (pass, label), so an op is counted once per execution."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.fields = verify.Fields()
        self.attempted = 0
        self.failures: set[tuple[object, str]] = set()
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, key: tuple[object, str], found: list[str]) -> None:
        if key not in self.failures:
            self.failures.add(key)
            self.messages.append(f"{key[1]}: {'; '.join(found)}")

    def check_pass(self, index: int, results, baseline: dict | None, deep: bool) -> set[str]:
        """Check pass number index; baseline, from digests_of, is an earlier
        pass that this one must repeat. Returns the labels that failed."""
        bad = set()
        job_found = verify.job_problems(results)
        for op, out in results:
            self.attempted += 1
            found = verify.problems(op, out, self.reference, self.fields, deep) + job_found.get(op.label, [])
            if baseline is not None and baseline.get(op.label) != (out.rc, out.digest):
                found.append("output differs from the first pass")
            if found:
                self.fail((index, op.label), found)
                bad.add(op.label)
        if baseline is not None:
            for label in sorted(set(baseline) - {op.label for op, _ in results}):
                self.attempted += 1
                self.fail((index, label), ["op missing from this pass"])
        return bad


def digests_of(results) -> dict:
    return {op.label: (out.rc, out.digest) for op, out in results}


def _walked(results) -> int:
    return sum((verify.footer_counts(out.stderr) or (0, 0))[0] for op, out in results if op.kind == "search")


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def end_to_end(workload: str, seed: int, seconds: float, work: str, ledger: Ledger) -> dict:
    ops = workloads.ops_for(workload, seed)
    probe = speed.Probe()
    gcirc, setup_times = setup(ops, work, probe)
    # (start, seconds) of each op's executions; outputs are not kept, so
    # that memory does not grow with the number of passes
    executions: dict[str, list[tuple[float, float]]] = {}
    first = run_pass(gcirc, ops, work, probe)
    baseline = digests_of(first)
    passes, results, measured = 0, first, 0.0
    while True:
        for op, out in results:
            executions.setdefault(op.label, []).append((out.start, out.seconds))
            measured += out.seconds
        passes += 1
        if passes >= MIN_PASSES and measured >= seconds:
            break
        results = run_pass(gcirc, ops, work, probe)
        ledger.check_pass(passes, results, baseline, deep=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the oracle re-derives the first pass after the RSS reading, so its
    # tables do not count as the program's memory; later passes repeated
    # the first one's output, so they fail with it
    for label in ledger.check_pass(0, first, None, deep=True):
        for index in range(1, passes):
            ledger.fail((index, label), ["same output as the first pass"])
    # each op's time is its median over the passes, each execution scaled
    # to the probe's nominal speed by the two probes that bracket it
    typical = {
        label: statistics.median(seconds * probe.scale(start, start + seconds) for start, seconds in runs)
        for label, runs in executions.items()
    }
    jobs: dict[str, list[float]] = {}
    for op, out in first:
        if op.kind == "search":
            job = jobs.setdefault(op.group, [0, 0.0])
            job[0] += (verify.footer_counts(out.stderr) or (0, 0))[0]
            job[1] += typical[op.label]
    for label, (walked, seconds) in jobs.items():
        print(f"# {label}: {walked} candidates, {seconds:.4f} s, {walked / seconds:.1f} candidates/s")
    checks = sorted(typical[op.label] for op, _ in first if op.kind == "check")
    rated = [(op, out) for op, out in first if op.kind == workloads.RATE_KIND[workload]]
    evaluated = sum((verify.footer_counts(out.stderr) or (0, 0))[0] if op.kind == "search" else 1 for op, out in rated)
    rate = evaluated / sum(typical[op.label] for op, _ in rated)
    checks_ms = [t * 1e3 for t in checks] or [0.0, 0.0]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(typical.values()), "s", passes),
        "cand_per_s": (rate, "1/s", passes),
        "check_ms_p50": (statistics.median(checks_ms), "ms", len(checks) * passes),
        "check_ms_p90": (_p90(checks_ms), "ms", len(checks) * passes),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def layer_metrics(tracer: Tracer, results, untraced_s: float, traced_s: float) -> dict:
    times, pairs = tracer.summary()
    count = tracer.count

    def total(name):
        return times.get(name, (0.0, 0.0))[0]

    def own(name):
        return times.get(name, (0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    candidates = _walked(results)
    hits = sum((verify.footer_counts(out.stderr) or (0, 0))[1] for op, out in results if op.kind == "search")
    mds_calls = count("properties.is_mds")
    out = {
        "properties.is_mds.calls": (mds_calls, "count"),
        "properties.is_mds.total_s": (total("properties.is_mds"), "s"),
        "properties.is_mds.self_s": (own("properties.is_mds"), "s"),
        "properties.is_mds.reject_ratio": (ratio(tracer.is_mds_rejects[0], mds_calls), "1"),
        "properties.minors_per_is_mds": (
            ratio(pairs[("matrix.determinant", "properties.is_mds")], mds_calls), "count"),
        "properties.full_report.calls": (count("properties.full_report"), "count"),
        "properties.full_report.total_s": (total("properties.full_report"), "s"),
        "properties.detect_semi_involutory.total_s": (total("properties.detect_semi_involutory"), "s"),
        "properties.detect_semi_orthogonal.total_s": (total("properties.detect_semi_orthogonal"), "s"),
    }
    for name in ("init", "determinant", "inverse", "submatrix", "matmul"):
        out[f"matrix.{name}.calls"] = (count(f"matrix.{name}"), "count")
        out[f"matrix.{name}.self_s"] = (own(f"matrix.{name}"), "s")
    for name in ("mul", "inv", "pow", "ctx"):
        out[f"field.{name}.calls"] = (count(f"field.{name}"), "count")
    out["field.ctx.total_s"] = (total("field.ctx"), "s")
    out.update({
        "circulant.square_structured.calls": (count("circulant.square_structured"), "count"),
        "circulant.square_structured.total_s": (total("circulant.square_structured"), "s"),
        "circulant.shifted_convolution.calls": (count("circulant.shifted_convolution"), "count"),
        "circulant.build_g_circulant.calls": (count("circulant.build_g_circulant"), "count"),
        "circulant.build_g_circulant.self_s": (own("circulant.build_g_circulant"), "s"),
        "search.candidates": (candidates, "count"),
        "search.hits": (hits, "count"),
        "search.hit_ratio": (ratio(hits, candidates), "1"),
        "search.full_report_per_hit": (ratio(pairs[("properties.full_report", "search.run_search")], hits), "1"),
        "search.row_at.calls": (count("search.row_at"), "count"),
        "search.row_at.total_s": (total("search.row_at"), "s"),
        "search.run_search.self_s": (own("search.run_search"), "s"),
        "jsonio.result_to_json.self_s": (own("jsonio.result_to_json"), "s"),
        "jsonio.report_to_json.self_s": (own("jsonio.report_to_json"), "s"),
        "cli.main.calls": (count("cli.main"), "count"),
        "cli.main.self_s": (own("cli.main"), "s"),
        "catalog.run_case.calls": (count("catalog.run_case"), "count"),
        "catalog.run_case.total_s": (total("catalog.run_case"), "s"),
        "modular.sqrt_one_solutions.calls": (count("modular.sqrt_one_solutions"), "count"),
        "modular.sqrt_one_solutions.total_s": (total("modular.sqrt_one_solutions"), "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "1"),
    })
    return out


def trace_pass(gcirc, ops, work: str):
    """(tracer, results) of one pass with every layer traced."""
    gc.collect()
    tracer = Tracer()
    with tracer:
        results = run_pass(gcirc, ops, work)
    return tracer, results


def traced(workload: str, seed: int, work: str, ledger: Ledger) -> dict:
    ops = workloads.ops_for(workload, seed)
    gcirc, _ = setup(ops, work)
    plain = run_pass(gcirc, ops, work)
    ledger.check_pass(0, plain, None, deep=True)
    tracer, spanned = trace_pass(gcirc, ops, work)
    ledger.check_pass(1, spanned, digests_of(plain), deep=False)
    untraced_s = sum(out.seconds for _, out in plain)
    traced_s = sum(out.seconds for _, out in spanned)
    metrics = layer_metrics(tracer, spanned, untraced_s, traced_s)
    timings, failed_kernels, attempted = kernels.run(gcirc, seed, ledger.fields)
    ledger.attempted += attempted
    for name in failed_kernels:
        ledger.fail(("kernels", name), ["result disagrees with the oracle"])
    metrics.update(timings)
    return metrics


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory under perfbench/.work, removed afterwards."""
    path = os.path.join(HERE, ".work", name)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcirc", "__init__.py")):
        print(f"error: no gcirc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ledger = Ledger(load_reference())
    with work_dir(str(os.getpid())) as work:
        if args.trace:
            metrics = traced(args.workload, args.seed, work, ledger)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, work, ledger)
    for message in ledger.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit, *n) in metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{name:44s} {shown} {unit}" + (f"  (n={n[0]})" if n else ""))
    print(f"{'fail_ratio':44s} {ledger.failed / ledger.attempted:>14.6g} 1  "
          f"({ledger.failed} of {ledger.attempted} ops)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
