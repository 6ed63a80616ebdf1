"""The three workloads as lists of `gcirc` command lines.

Every input is a pure function of the workload seed, drawn through
blake2b so that it does not depend on the Python version's `random`.
Job and spec files are written by `write_inputs` during set-up; the ops
name them relative to a work directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

WORKLOADS = ("search-mds", "search-involutory", "check-wide")

# hit re-checks per search job: enough for a p90 with ten samples above it
HIT_CHECKS_PER_JOB = 100

# each search job of the search workloads runs as this many windows of
# its token range, a fraction of a second each, so that the speed probe
# that runs between ops (speed.py) samples the host all through a search
SEARCH_PARTS = 16

# (field m, modulus, order k, number of rows) for check-wide. GF(2^16)
# rows are MDS and sweep every minor, so their latency is steady; about
# half the GF(2^8) rows stop early at a singular minor and scatter. The
# counts put the p50 inside the (16,4) block and the p90 inside the
# (16,5) block, away from where the scattered GF(2^8) k=6 rows cross them.
CHECK_CLASSES = ((8, 0x11D, 5, 40), (8, 0x11D, 6, 20), (16, 0x1002B, 4, 50), (16, 0x1002B, 5, 20))

SEARCH_MDS_MODULI = (0x13, 0x19, 0x1F)
SEARCH_MDS_TARGETS = (("MDS_ONLY", 4500), ("SEMI_INVOLUTORY_MDS", 540), ("SEMI_ORTHOGONAL_MDS", 1080))

PAPER_ROW = ("1", "a", "1+a+a^4+a^5+a^7", "1+a+a^3+a^4+a^5+a^7", "a+a^3")
SQRT1_MODULI = (4096, 720720, 1 << 20)

# main op kind per workload: cand_per_s counts the candidates these ops
# evaluate, a search's walked candidates or one matrix per check
RATE_KIND = {"search-mds": "search", "search-involutory": "search", "check-wide": "check"}


def draw(seed: int, label: str, i: int, bound: int) -> int:
    """A value in [0, bound) fixed by (seed, label, i)."""
    raw = hashlib.blake2b(f"{seed}/{label}/{i}".encode(), digest_size=8).digest()
    return int.from_bytes(raw, "little") % bound


@dataclass
class Op:
    """One `gcirc` invocation and what its output must satisfy.

    argv may contain "{work}", replaced by the work directory at run
    time. files maps file names in that directory to their contents.
    """

    kind: str  # search, check, repro, square or sqrt1
    label: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    job: dict | None = None  # search: the job window, for window and hit checks
    window: int | None = None  # search: candidates the footer must report
    group: str | None = None  # search: the label of the whole job
    last_part: bool = False  # search: the job's last window; its hit checks follow
    expect_hits: int | None = None  # search: the whole job's hit count, where it is known
    matrix: tuple | None = None  # check: (m, modulus, k, g, row) of the input
    expect_report: dict | None = None  # check of a search hit: the hit's report

    def fingerprint(self) -> str:
        """Digest of the op's input, the key of its reference output."""
        blob = json.dumps({"argv": self.argv, "files": self.files}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def resolved_argv(self, work: str) -> list[str]:
        return [a.replace("{work}", work) for a in self.argv]


def _search_ops(label: str, job: dict, expect_hits: int | None, parts: int = SEARCH_PARTS) -> list[Op]:
    """The job as `parts` searches over consecutive windows of its tokens."""
    q = 1 << job["field"]["m"]
    k = job["k"]
    g_set = job.get("g_set") or [g for g in range(k) if math.gcd(g, k) == 1]
    kind = job["row_space"]["kind"]
    if kind == "CONSTRAINED_LEFT_CIRCULANT":
        g_set, per_g = [k - 1], q ** (k - 1)
    elif kind == "RANDOM":
        per_g = job["row_space"]["count"]
    else:
        per_g = q**k
    total = len(g_set) * per_g
    cuts = [total * i // parts for i in range(parts + 1)]
    ops = []
    for i, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        part = dict(job, resume_token=start, stop_token=stop)
        name = f"{label}-{i}.json"
        ops.append(Op(
            "search",
            f"{label}/part-{i}",
            ["search", "{work}/" + name],
            files={name: json.dumps(part, sort_keys=True)},
            job=part,
            window=stop - start,
            group=label,
            last_part=i == parts - 1,
            expect_hits=expect_hits,
        ))
    return ops


def _field(m: int, poly: int) -> dict:
    return {"m": m, "poly": f"0x{poly:x}"}


def _search_tail() -> list[Op]:
    """A search workload's tail: one small call into catalog and modular,
    which its searches never reach, so that every layer's traced time is
    measured on every workload, never a constant 0. check-wide's tail is
    its small search."""
    return [Op("repro", "tail-repro-all", ["repro", "all"]), Op("sqrt1", "tail-sqrt1-4096", ["sqrt1", "4096"])]


def search_mds(seed: int) -> list[Op]:
    poly = SEARCH_MDS_MODULI[draw(seed, "modulus", 0, len(SEARCH_MDS_MODULI))]
    ops = []
    for target, hits in SEARCH_MDS_TARGETS:
        ops += _search_ops(
            f"mds-{target}-{poly:#x}",
            {"field": _field(4, poly), "k": 3, "target": target, "row_space": {"kind": "EXHAUSTIVE"}},
            hits,
        )
    return ops + _search_tail()


def search_involutory(seed: int) -> list[Op]:
    row_seed = draw(seed, "row-seed", 0, 1 << 64)
    return [
        *_search_ops(
            "inv-crit08",
            {"field": _field(4, 0x13), "k": 4, "target": "INVOLUTORY_MDS",
             "row_space": {"kind": "EXHAUSTIVE"}, "g_set": [1, 3]},
            0,
        ),
        *_search_ops(
            "inv-leftcirc-k5",
            {"field": _field(4, 0x13), "k": 5, "target": "INVOLUTORY_MDS",
             "row_space": {"kind": "CONSTRAINED_LEFT_CIRCULANT"}},
            100,
        ),
        *_search_ops(
            f"inv-random-{row_seed}",
            {"field": _field(8, 0x11D), "k": 5, "target": "INVOLUTORY_MDS",
             "row_space": {"kind": "RANDOM", "count": 50000, "seed": row_seed}},
            None,
        ),
    ] + _search_tail()


def check_wide(seed: int) -> list[Op]:
    ops = []
    for m, poly, k, count in CHECK_CLASSES:
        coprime = [g for g in range(1, k) if math.gcd(g, k) == 1]
        for n in range(count):
            tag = f"m{m}k{k}-{n}"
            g = coprime[draw(seed, tag, 0, len(coprime))]
            row = tuple(1 + draw(seed, tag, 1 + i, (1 << m) - 1) for i in range(k))
            spec = {"field": _field(m, poly), "k": k, "g": g, "row": [f"0x{c:x}" for c in row]}
            name = f"check-{tag}.json"
            ops.append(
                Op("check", f"check-{tag}", ["check", "{work}/" + name],
                   files={name: json.dumps(spec, sort_keys=True)}, matrix=(m, poly, k, g, row))
            )
    ops.append(Op("repro", "repro-all", ["repro", "all"]))
    ops.append(
        Op("square", "square-paper-row",
           ["--field-m", "8", "--field-poly", "0x165", "square", "--k", "5", "--g", "3",
            "--row", *PAPER_ROW])
    )
    for k in SQRT1_MODULI:
        ops.append(Op("sqrt1", f"sqrt1-{k}", ["sqrt1", str(k)]))
    ops += _search_ops(
        "tail-search",
        {"field": _field(2, 0x7), "k": 2, "target": "MDS_ONLY", "row_space": {"kind": "EXHAUSTIVE"}},
        6,
        parts=1,
    )
    return ops


BUILDERS = {"search-mds": search_mds, "search-involutory": search_involutory, "check-wide": check_wide}


def ops_for(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)


def fields_of(ops: list[Op]) -> set[tuple[int, int]]:
    """The (m, modulus) pairs the ops work in."""
    out = set()
    for op in ops:
        if op.job is not None:
            out.add((op.job["field"]["m"], int(op.job["field"]["poly"], 16)))
        if op.matrix is not None:
            out.add(op.matrix[:2])
    return out


def write_inputs(ops: list[Op], work: str) -> None:
    for op in ops:
        for name, text in op.files.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)


def hit_check_ops(job_label: str, stdout: str) -> list[Op]:
    """`gcirc check` on the first hits a search job printed, each expected
    to reproduce the report the search attached to it."""
    ops = []
    for line in stdout.splitlines()[:HIT_CHECKS_PER_JOB]:
        hit = json.loads(line)
        spec = hit["spec"]
        m, poly = spec["field"]["m"], int(spec["field"]["poly"], 16)
        row = tuple(int(c, 16) for c in spec["row"])
        ops.append(
            Op(
                "check",
                f"{job_label}/hit-{hit['g']}-{hit['ordinal']}",
                ["--field-m", str(m), "--field-poly", spec["field"]["poly"], "check",
                 "--k", str(spec["k"]), "--g", str(spec["g"]), "--row", *spec["row"]],
                matrix=(m, poly, spec["k"], spec["g"], row),
                expect_report=hit["report"],
            )
        )
    return ops
