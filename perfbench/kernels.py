"""Direct timings of single layer functions on fixed seeded operands.

Each kernel calls one public gcirc function on a batch of operands drawn
from the seed, repeats the batch, and reports the median time per call.
Results are checked against `oracle`; a kernel whose result is wrong is
a failed op.
"""

from __future__ import annotations

import statistics
import time

import oracle
from workloads import draw

FIELDS = {4: 0x13, 8: 0x11D, 16: 0x1002B}
PAPER_ROW_165 = (0x01, 0x02, 0xB3, 0xBB, 0x0A)  # involutory, symmetric left-circulant over 0x165


def _per_call(fn, batch, repeats: int) -> float:
    """Median over repeats of the seconds one call takes, over a batch of
    argument tuples."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in batch:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(batch))
    return statistics.median(times)


def _cauchy(ctx, seed: int, k: int, tag: str):
    """A k x k Cauchy matrix 1/(x_i + y_j) over distinct seeded points,
    which is MDS."""
    points = []
    i = 0
    while len(points) < 2 * k:
        x = draw(seed, tag, i, ctx.q)
        if x not in points:
            points.append(x)
        i += 1
    xs, ys = points[:k], points[k:]
    return [[ctx.inv(xs[i] ^ ys[j]) for j in range(k)] for i in range(k)]


def run(gcirc, seed: int, fields) -> tuple[dict, list[str], int]:
    """(metrics, names of kernels with a wrong result, kernels run)."""
    GF2m, Matrix = gcirc.GF2m, gcirc.Matrix
    ctxs = {m: GF2m(m, poly) for m, poly in FIELDS.items()}
    out: dict[str, tuple[float, str]] = {}
    checks: dict[str, bool] = {}

    for m, ctx in ctxs.items():
        pairs = [
            (1 + draw(seed, f"mul-m{m}", 2 * i, ctx.q - 1), 1 + draw(seed, f"mul-m{m}", 2 * i + 1, ctx.q - 1))
            for i in range(2000)
        ]
        out[f"field.mul_ns.m{m}"] = (_per_call(ctx.mul, pairs, 7) * 1e9, "ns")
        elems = [(a,) for a, _ in pairs[:500]]
        out[f"field.inv_ns.m{m}"] = (_per_call(ctx.inv, elems, 5) * 1e9, "ns")
        f = fields.get(m, FIELDS[m])
        checks[f"mul-m{m}"] = all(ctx.mul(a, b) == f.mul(a, b) for a, b in pairs[:200])
        checks[f"inv-m{m}"] = all(ctx.inv(a) == f.inv(a) for (a,) in elems[:50])
    for m in (8, 16):
        out[f"field.ctx_ms.m{m}"] = (_per_call(GF2m, [(m, FIELDS[m])] * 3, 5) * 1e3, "ms")

    for m, k, repeats in ((8, 6, 5), (8, 7, 3), (16, 5, 3), (16, 6, 3)):
        a = Matrix(ctxs[m], _cauchy(ctxs[m], seed, k, f"cauchy-m{m}k{k}"))
        out[f"properties.is_mds_sweep_ms.m{m}k{k}"] = (_per_call(gcirc.is_mds, [(a,)], repeats) * 1e3, "ms")
        checks[f"is_mds-m{m}k{k}"] = gcirc.is_mds(a) == (True, None)

    f8, ctx8 = fields.get(8, FIELDS[8]), ctxs[8]
    for k in (4, 6):
        mats = [
            Matrix(ctx8, [[draw(seed, f"det-k{k}-{n}", i * k + j, 256) for j in range(k)] for i in range(k)])
            for n in range(40)
        ]
        out[f"matrix.determinant_us.k{k}"] = (_per_call(Matrix.determinant, [(a,) for a in mats], 5) * 1e6, "us")
        full = tuple(range(k))
        checks[f"determinant-k{k}"] = all(
            a.determinant() == oracle.all_minors(f8, [list(r) for r in a.entries])[k][(full, full)]
            for a in mats[:5]
        )
    mats = [Matrix(ctx8, _cauchy(ctx8, seed, 5, f"inv-k5-{n}")) for n in range(40)]
    out["matrix.inverse_us.k5"] = (_per_call(Matrix.inverse, [(a,) for a in mats], 5) * 1e6, "us")
    ident = [[int(i == j) for j in range(5)] for i in range(5)]
    checks["inverse-k5"] = all(
        oracle.matmul(f8, [list(r) for r in a.entries], [list(r) for r in a.inverse().entries]) == ident
        for a in mats[:5]
    )

    # D @ M with M involutory and symmetric is semi-involutory and
    # semi-orthogonal, so detection runs to a witness
    ctx165 = GF2m(8, 0x165)
    m_rows = oracle.g_circulant(PAPER_ROW_165, 4)
    sandwiches = []
    for n in range(20):
        d = [1 + draw(seed, f"detect-{n}", i, 255) for i in range(5)]
        sandwiches.append((Matrix(ctx165, [[ctx165.mul(d[i], x) for x in m_rows[i]] for i in range(5)]),))
    for name in ("detect_semi_involutory", "detect_semi_orthogonal"):
        fn = getattr(gcirc, name)
        out[f"properties.{name}_us.k5"] = (_per_call(fn, sandwiches, 5) * 1e6, "us")
        checks[name] = all(fn(a) is not None for (a,) in sandwiches)

    specs = [
        (gcirc.GCirculantSpec(ctx8, 5, 2, tuple(1 + draw(seed, f"square-{n}", i, 255) for i in range(5))),)
        for n in range(200)
    ]
    out["circulant.square_structured_us.k5"] = (_per_call(gcirc.square_structured, specs, 5) * 1e6, "us")
    checks["square_structured"] = all(
        list(gcirc.square_structured(s)[1]) == oracle.square_row(f8, s.row, 2) for (s,) in specs[:20]
    )

    row_seed = draw(seed, "row_at", 0, 1 << 64)
    jobs = {
        "exhaustive": gcirc.SearchJob(ctx8, 5, gcirc.Target.MDS_ONLY, gcirc.RowSpace(gcirc.RowSpaceKind.EXHAUSTIVE)),
        "random": gcirc.SearchJob(
            ctx8, 5, gcirc.Target.MDS_ONLY, gcirc.RowSpace(gcirc.RowSpaceKind.RANDOM, count=1 << 20, seed=row_seed)
        ),
        "constrained": gcirc.SearchJob(
            ctxs[4], 5, gcirc.Target.INVOLUTORY_MDS, gcirc.RowSpace(gcirc.RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT)
        ),
    }
    for kind, job in jobs.items():
        g = job.g_set[0]
        args = [(job, g, draw(seed, f"row_at-{kind}", i, job.per_g_size())) for i in range(1000)]
        out[f"search.row_at_us.{kind}"] = (_per_call(gcirc.SearchJob.row_at, args, 5) * 1e6, "us")
        space = {"exhaustive": "EXHAUSTIVE", "random": "RANDOM", "constrained": "CONSTRAINED_LEFT_CIRCULANT"}[kind]
        checks[f"row_at-{kind}"] = all(
            job.row_at(g, o) == oracle.search_row(space, job.ctx.q, 5, o, row_seed) for _, _, o in args[:50]
        )

    return out, [name for name, ok in checks.items() if not ok], len(checks)
