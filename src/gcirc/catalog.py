"""Bundled reference matrices with independently known properties, used
by the `repro` command. Each case re-derives its published facts from
scratch and reports one PASS/FAIL line per fact.
"""

from __future__ import annotations

from .circulant import (
    GCirculantSpec,
    build_circulant,
    build_g_circulant,
    build_left_circulant,
    left_circulant_involutory_conditions,
    shifted_convolution,
    square_structured,
)
from .field import GF2m
from .matrix import Matrix
from .properties import (
    detect_semi_involutory,
    detect_semi_orthogonal,
    is_mds,
    rescale_pair,
)

Fact = tuple[str, bool, str]


def _fact(name: str, ok: bool, detail: str = "") -> Fact:
    return name, bool(ok), detail


def _ex_3circ_5x5() -> list[Fact]:
    ctx = GF2m(8, 0x165)
    row = tuple(ctx.parse(s) for s in ("1", "a", "1+a+a^4+a^5+a^7", "1+a+a^3+a^4+a^5+a^7", "a+a^3"))
    spec = GCirculantSpec(ctx, 5, 3, row)
    g2, row2 = square_structured(spec)
    a = build_g_circulant(spec)
    sq = a @ a
    want = ctx.parse("1+a^6")
    facts = [
        _fact("g2 == 4", g2 == 4, f"g2 = {g2}"),
        _fact("row2[0] == a^6+1", row2[0] == want, ctx.format(row2[0])),
        _fact("(A@A)[0,0] == a^6+1", sq[0, 0] == want, ctx.format(sq[0, 0])),
        _fact("(A@A)[1,4] == a^6+1", sq[1, 4] == want, ctx.format(sq[1, 4])),
        _fact(
            "structured square rebuilds A@A",
            build_g_circulant(GCirculantSpec(ctx, 5, g2, row2)) == sq,
        ),
        _fact("A is not involutory", sq != Matrix.identity(ctx, 5)),
    ]
    return facts


def _ex_leftcirc_5x5() -> list[Fact]:
    ctx = GF2m(8, 0x165)
    row = tuple(ctx.parse(s) for s in ("1", "a", "1+a+a^4+a^5+a^7", "1+a+a^3+a^4+a^5+a^7", "a+a^3"))
    a = build_left_circulant(ctx, row)
    total = 0
    for c in row:
        total ^= c
    conv = shifted_convolution(ctx, row, 4)
    mds, witness = is_mds(a)
    return [
        _fact("sum of row == 1", total == 1, ctx.format(total)),
        _fact("convolution sum l=1 == 0", conv[1] == 0, ctx.format(conv[1])),
        _fact("convolution sum l=2 == 0", conv[2] == 0, ctx.format(conv[2])),
        _fact("first-row conditions hold", left_circulant_involutory_conditions(ctx, row)),
        _fact("A is involutory", a @ a == Matrix.identity(ctx, 5)),
        _fact("A is MDS", mds, f"witness {witness}" if witness else "all minors nonsingular"),
    ]


def _ex_semiortho_5x5() -> list[Fact]:
    ctx = GF2m(8, 0x11D)
    row = tuple(ctx.parse(s) for s in ("1", "1+a+a^3", "1+a+a^3", "a+a^3", "1+a^3+a^4+a^7"))
    a = build_circulant(ctx, row)
    stated_d1 = tuple(
        ctx.parse(s)
        for s in (
            "a^2+a",
            "a^7+a^2+1",
            "a^7+a^6+a^5+a^4+a^2",
            "a^5+a^4+a^3+a^2",
            "a^6+a^3+a+1",
        )
    )
    stated_d2 = tuple(
        ctx.parse(s)
        for s in (
            "a^7+a^6+a^3+a^2+a+1",
            "a^7+a^5+a^3",
            "a^7+a^5+a^4+a^2+1",
            "a^6+a^5+a^2",
            "a^7+a^5+a^4+a^2+a",
        )
    )
    pair = detect_semi_orthogonal(a)
    facts = [_fact("semi-orthogonal pair detected", pair is not None)]
    if pair is None:
        return facts
    scaled = rescale_pair(ctx, pair, ctx.inv(stated_d2[0]), 5)
    k1 = ctx.parse("a^5+a^3+a^2+a")
    k2 = ctx.parse("a^6+a^4+a^3+1")
    mds, _ = is_mds(a)
    facts += [
        _fact("D1 matches the stated diagonal", scaled.d1 == stated_d1,
              " ".join(map(ctx.format_hex, scaled.d1))),
        _fact("D2 matches the stated diagonal", scaled.d2 == stated_d2,
              " ".join(map(ctx.format_hex, scaled.d2))),
        _fact("k1 == a^5+a^3+a^2+a", scaled.scalar1 == k1,
              ctx.format(scaled.scalar1) if scaled.scalar1 is not None else "powers disagree"),
        _fact("k2 == a^6+a^4+a^3+1", scaled.scalar2 == k2,
              ctx.format(scaled.scalar2) if scaled.scalar2 is not None else "powers disagree"),
        _fact("A is MDS", mds),
    ]
    return facts


def _ex_semiinv_2x2() -> list[Fact]:
    ctx = GF2m(2, 0x7)
    a_elem = ctx.parse("a")
    a = build_circulant(ctx, (1, ctx.mul(a_elem, a_elem)))
    pair = detect_semi_involutory(a)
    facts = [_fact("semi-involutory pair detected", pair is not None)]
    if pair is None:
        return facts
    mds, _ = is_mds(a)
    facts += [
        _fact("D1 == diagonal(a, a)", pair.d1 == (a_elem, a_elem),
              " ".join(map(ctx.format_hex, pair.d1))),
        _fact("D2 == identity", pair.d2 == (1, 1), " ".join(map(ctx.format_hex, pair.d2))),
        _fact("k1 == a+1", pair.scalar1 == ctx.parse("1+a"),
              ctx.format(pair.scalar1) if pair.scalar1 is not None else "powers disagree"),
        _fact("k2 == 1", pair.scalar2 == 1),
        _fact("A is MDS", mds),
    ]
    return facts


def _ex_semiinv_4x4() -> list[Fact]:
    ctx = GF2m(4, 0x13)
    row = tuple(ctx.parse(s) for s in ("a", "a^3", "1+a+a^2", "a^3"))
    a = build_circulant(ctx, row)
    pair = detect_semi_involutory(a)
    facts = [_fact("semi-involutory pair detected", pair is not None)]
    if pair is None:
        return facts
    d = ctx.parse("1+a^3")
    facts += [
        _fact("D1 == diagonal(a^3+1, ..)", pair.d1 == (d,) * 4,
              " ".join(map(ctx.format_hex, pair.d1))),
        _fact("D2 == identity", pair.d2 == (1,) * 4, " ".join(map(ctx.format_hex, pair.d2))),
        _fact("k1 == a^3+a^2+a", pair.scalar1 == ctx.parse("a+a^2+a^3"),
              ctx.format(pair.scalar1) if pair.scalar1 is not None else "powers disagree"),
        _fact("k2 == 1", pair.scalar2 == 1),
    ]
    return facts


CASES = {
    "ex-3circ-5x5": _ex_3circ_5x5,
    "ex-leftcirc-5x5": _ex_leftcirc_5x5,
    "ex-semiortho-5x5": _ex_semiortho_5x5,
    "ex-semiinv-2x2": _ex_semiinv_2x2,
    "ex-semiinv-4x4": _ex_semiinv_4x4,
}


def run_case(case_id: str) -> dict:
    """{"example": id, "facts": [{name, pass, detail}], "passed": bool}."""
    if case_id not in CASES:
        raise KeyError(case_id)
    facts = CASES[case_id]()
    return {
        "example": case_id,
        "facts": [{"name": n, "pass": ok, "detail": detail} for n, ok, detail in facts],
        "passed": all(ok for _, ok, _ in facts),
    }
