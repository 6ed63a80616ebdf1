"""Checks on the output of one op.

`problems` returns an empty list when the op's output is right. The
cheap checks (exit code, reference digest, search footer accounting)
run on every execution; `deep=True` adds the independent re-derivation
through `oracle`, which a run applies to its first pass only.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property

import oracle
from workloads import Op

FOOTER = re.compile(r"search done: (\d+) candidates, (\d+) results")


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None
    start: float = 0.0  # perf_counter when the op began

    @cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


class Fields:
    """Oracle fields, built on first use and shared by all checks of a run."""

    def __init__(self):
        self._cache = {}

    def get(self, m: int, modulus: int) -> oracle.Field:
        if (m, modulus) not in self._cache:
            self._cache[(m, modulus)] = oracle.Field(m, modulus)
        return self._cache[(m, modulus)]


def footer_counts(stderr: str) -> tuple[int, int] | None:
    match = FOOTER.search(stderr)
    return (int(match.group(1)), int(match.group(2))) if match else None


def problems(op: Op, out: Outcome, reference: dict, fields: Fields, deep: bool) -> list[str]:
    if out.error is not None:
        return [f"raised {out.error}"]
    found = []
    if out.rc != 0:
        found.append(f"exit code {out.rc}")
    ref = reference.get(op.fingerprint())
    if ref is not None and (ref["exit"] != out.rc or ref["stdout_sha256"] != out.digest):
        found.append("output differs from the reference digest")
    try:
        if op.kind == "search":
            found += _search_problems(op, out, fields, deep)
        elif deep:
            found += _DEEP[op.kind](op, out, fields)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        found.append(f"malformed output: {exc!r}")
    return found


def job_problems(results) -> dict[str, list[str]]:
    """Where a search job's hit count is known, the hits of its windows
    must add up to it. Problems are keyed by the label of the job's last
    window."""
    hits: dict[str, int] = {}
    last: dict[str, Op] = {}
    for op, out in results:
        if op.kind == "search" and op.expect_hits is not None:
            hits[op.group] = hits.get(op.group, 0) + (footer_counts(out.stderr) or (0, 0))[1]
            last[op.group] = op
    return {
        last[job].label: [f"{n} hits, expected {last[job].expect_hits}"]
        for job, n in hits.items()
        if n != last[job].expect_hits
    }


def _search_problems(op: Op, out: Outcome, fields: Fields, deep: bool) -> list[str]:
    counts = footer_counts(out.stderr)
    if counts is None:
        return ["no search footer on stderr"]
    walked, hits = counts
    lines = out.stdout.splitlines()
    found = []
    if walked != op.window:
        found.append(f"footer walked {walked} candidates, the job's window is {op.window}")
    if len(lines) != hits:
        found.append(f"{len(lines)} JSON lines for {hits} reported hits")
    if not deep or found:
        return found
    job = op.job
    m, modulus, k = job["field"]["m"], int(job["field"]["poly"], 16), job["k"]
    f = fields.get(m, modulus)
    kind = job["row_space"]["kind"]
    seed = job["row_space"].get("seed", 0)
    for line in lines:
        hit = json.loads(line)
        row = oracle.search_row(kind, f.q, k, hit["ordinal"], seed)
        spec_row = tuple(int(c, 16) for c in hit["spec"]["row"])
        if spec_row != row or hit["spec"]["g"] != hit["g"]:
            found.append(f"hit {hit['g']}/{hit['ordinal']} has the wrong spec")
            continue
        expected = oracle.report(f, oracle.g_circulant(row, hit["g"]))
        bad = oracle.report_mismatches(expected, hit["report"])
        if bad or not oracle.target_holds(job["target"], expected):
            found.append(f"hit {hit['g']}/{hit['ordinal']}: wrong {bad or 'target'}")
    return found


def _check_problems(op: Op, out: Outcome, fields: Fields) -> list[str]:
    got = json.loads(out.stdout)
    if op.expect_report is not None and got != op.expect_report:
        return ["check disagrees with the search hit's report"]
    m, modulus, k, g, row = op.matrix
    expected = oracle.report(fields.get(m, modulus), oracle.g_circulant(row, g))
    bad = oracle.report_mismatches(expected, got)
    return [f"wrong {', '.join(bad)}"] if bad else []


def _repro_problems(op: Op, out: Outcome, fields: Fields) -> list[str]:
    cases = json.loads(out.stdout)
    failed = [c["example"] for c in cases if not c["passed"]]
    return [f"repro cases failed: {failed}"] if failed or not cases else []


def _square_problems(op: Op, out: Outcome, fields: Fields) -> list[str]:
    got = json.loads(out.stdout)
    f = fields.get(8, 0x165)
    row = [_poly(c) for c in op.argv[op.argv.index("--row") + 1:]]
    k, g = len(row), int(op.argv[op.argv.index("--g") + 1])
    want = oracle.square_row(f, row, g)
    ok = got["g2"] == g * g % k and [int(c, 16) for c in got["row2"]] == want and got["verified"]
    return [] if ok else ["wrong structured square"]


def _sqrt1_problems(op: Op, out: Outcome, fields: Fields) -> list[str]:
    got = json.loads(out.stdout)
    k = int(op.argv[-1])
    sols = oracle.sqrt_one(k)
    ok = got["k"] == k and got["solutions"] == sols and got["predicted"] == len(sols)
    return [] if ok else ["wrong solutions of x^2 = 1"]


def _poly(text: str) -> int:
    """A polynomial literal in a, like 1+a+a^4, as a bitmask."""
    mask = 0
    for term in text.split("+"):
        mask ^= 1 if term == "1" else 1 << int(term.partition("^")[2] or 1)
    return mask


_DEEP = {
    "check": _check_problems,
    "repro": _repro_problems,
    "square": _square_problems,
    "sqrt1": _sqrt1_problems,
}
