"""JSON wire formats. Field blocks, matrices and specs are read and
written; diagonal pairs, reports and search results only written; search
jobs only read. Elements travel as hex strings; every payload embeds its
field block {"m": ..., "poly": ...} so files are self-describing.

The one reader of outside values: files and the `--row` elements. Each
value is type-checked by `_typed`, never coerced, and an error names its
key, and a bad element its position. A key that a field block, matrix,
spec, job or row space does not define is refused by name.
"""

from __future__ import annotations

import re

from .circulant import CyclicSpec, GCirculantSpec
from .errors import ConfigError, ParseError, excerpt
from .field import GF2m
from .matrix import Matrix, Permutation
from .properties import DiagonalPair, PropertyReport
from .search import RowSpace, RowSpaceKind, SearchJob, SearchResult, Target


_INT, _INT_OR_NULL = (int,), (int, type(None))
# A job's optional keys by the object that holds them: key -> (allowed
# types, description)
_OPTIONAL = {
    "row_space": {
        "count": (_INT_OR_NULL, "an integer"),
        "seed": (_INT_OR_NULL, "an integer"),
    },
    "job": {
        "resume_token": (_INT_OR_NULL, "an integer"),
        "stop_token": (_INT_OR_NULL, "an integer"),
        "pruning": ((bool,), "true or false"),
        "prune_power_of_two": ((bool,), "true or false"),
        "debug_recheck": ((int, float), "a number"),
    },
}
_JOB_KEYS = frozenset(("field", "k", "target", "row_space", "g_set", *_OPTIONAL["job"]))
_ROW_SPACE_KEYS = frozenset(("kind", *_OPTIONAL["row_space"]))
_FIELD_KEYS = frozenset(("m", "poly"))
_MATRIX_KEYS = frozenset(("k", "entries", "field"))
_SPEC_KEYS = frozenset(("k", "row", "field", "g", "rho"))
_HEX_NUMBER = re.compile(r"(?:0[xX])?[0-9A-Fa-f]+\Z")


def _typed(value, key: str, types: tuple, what: str, error=ConfigError):
    """`value` if its exact type is one of `types`, else `error` naming the
    key: JSON values are checked, never coerced, so true is no integer and
    2.7 is not 2."""
    if type(value) not in types:
        raise error(f"{key!r} must be {what}, got {excerpt(repr(value))}")
    return value


def _list(value, key: str, item_types: tuple, what: str, error=ConfigError) -> tuple:
    """The items of `value` if it is a JSON list and each item's exact type
    is one of `item_types`, else `error` naming the key."""
    items = _typed(value, key, (list,), what, error)
    return tuple(_typed(x, key, item_types, what, error) for x in items)


def elements(ctx: GF2m, value, key: str) -> tuple[int, ...]:
    """The elements of a list of element strings; a bad literal's error
    names the key and position: "row element 1: bad hex literal '0xzz'"."""
    strings = _list(value, key, (str,), "a list of element strings", ParseError)
    out = []
    for pos, literal in enumerate(strings):
        try:
            out.append(ctx.parse(literal))
        except ParseError as exc:
            raise type(exc)(f"{key} element {pos}: {exc}") from None
    return tuple(out)


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where} needs key {key!r}")
    return obj[key]


def _member(value, key: str, enum):
    """The member of `enum` whose value is `value`, else ConfigError naming
    the key and the allowed values."""
    try:
        return enum(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum)
        raise ConfigError(f"{key!r} must be one of {allowed}, got {excerpt(repr(value))}") from None


def _optional(obj: dict, where: str) -> dict:
    """The optional `where` keys that `obj` sets, each type-checked."""
    return {key: _typed(obj[key], key, *rule) for key, rule in _OPTIONAL[where].items() if key in obj}


def _known_keys(obj: dict, keys: frozenset, where: str) -> None:
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise ConfigError(f"unknown {where} key {excerpt(', '.join(map(repr, unknown)))}")


def field_to_json(ctx: GF2m) -> dict:
    return {"m": ctx.m, "poly": f"0x{ctx.modulus:x}"}


def field_from_json(obj) -> GF2m:
    """Read a field block; `m` must be an integer and `poly` a hex string
    or an integer, and no other key is allowed."""
    if not isinstance(obj, dict) or not _FIELD_KEYS <= obj.keys():
        raise ParseError(f"field block needs keys 'm' and 'poly', got {excerpt(repr(obj))}")
    _known_keys(obj, _FIELD_KEYS, "field")
    poly = obj["poly"]
    if type(poly) is str and _HEX_NUMBER.match(poly):
        poly = int(poly, 16)
    return GF2m(
        _typed(obj["m"], "m", _INT, "an integer", ParseError),
        _typed(poly, "poly", _INT, "a hex string or an integer", ParseError),
    )


def matrix_to_json(a: Matrix) -> dict:
    return {
        "k": a.rows,
        "entries": [[a.ctx.format_hex(e) for e in row] for row in a.entries],
        "field": field_to_json(a.ctx),
    }


def matrix_from_json(obj: dict) -> Matrix:
    """Read a matrix; `entries` must be a list of element-string lists and
    `k`, when present, an integer equal to the row count and every row's
    length. No other key is allowed."""
    _known_keys(obj, _MATRIX_KEYS, "matrix")
    ctx = field_from_json(obj.get("field", {}))
    if "entries" not in obj:
        raise ParseError("matrix JSON missing 'entries'")
    rows = _list(obj["entries"], "entries", (list,), "a list of rows", ParseError)
    entries = [elements(ctx, row, "entries") for row in rows]
    if "k" in obj:
        k = _typed(obj["k"], "k", _INT, "an integer", ParseError)
        if len(entries) != k or any(len(row) != k for row in entries):
            raise ParseError(f"'k' is {excerpt(str(k))} but 'entries' is not {excerpt(f'{k}x{k}')}")
    return Matrix(ctx, entries)


def spec_to_json(spec: GCirculantSpec | CyclicSpec) -> dict:
    out = {
        "k": spec.k,
        "row": [spec.ctx.format_hex(c) for c in spec.row],
        "field": field_to_json(spec.ctx),
    }
    if isinstance(spec, CyclicSpec):
        out["rho"] = list(spec.rho.images)
    else:
        out["g"] = spec.g
    return out


def spec_from_json(obj: dict) -> GCirculantSpec | CyclicSpec:
    """Read a g-circulant spec (`g`) or a cyclic one (`rho`): exactly one
    of the two, and no key the format does not define."""
    _known_keys(obj, _SPEC_KEYS, "spec")
    if "g" in obj and "rho" in obj:
        raise ParseError("spec JSON sets both 'g' and 'rho'; give one")
    ctx = field_from_json(obj.get("field", {}))
    try:
        k = _typed(obj["k"], "k", _INT, "an integer", ParseError)
        row = elements(ctx, obj["row"], "row")
    except KeyError as exc:
        raise ParseError(f"spec JSON missing {exc}") from None
    if "rho" in obj:
        rho = _list(obj["rho"], "rho", _INT, "a list of integers", ParseError)
        return CyclicSpec(ctx, k, Permutation(rho), row)
    if "g" not in obj:
        raise ParseError("spec JSON needs either 'g' or 'rho'")
    return GCirculantSpec(ctx, k, _typed(obj["g"], "g", _INT, "an integer", ParseError), row)


def pair_to_json(ctx: GF2m, pair: DiagonalPair) -> dict:
    return {
        "d1": [ctx.format_hex(x) for x in pair.d1],
        "d2": [ctx.format_hex(x) for x in pair.d2],
        "k1": ctx.format_hex(pair.scalar1) if pair.scalar1 is not None else None,
        "k2": ctx.format_hex(pair.scalar2) if pair.scalar2 is not None else None,
    }


def report_to_json(ctx: GF2m, report: PropertyReport) -> dict:
    witness = None
    if report.mds_witness is not None:
        rows, cols = report.mds_witness
        witness = {"rows": list(rows), "cols": list(cols)}
    return {
        "mds": report.mds,
        "mds_witness": witness,
        "involutory": report.involutory,
        "orthogonal": report.orthogonal,
        "semi_involutory": (
            pair_to_json(ctx, report.semi_involutory) if report.semi_involutory else None
        ),
        "semi_orthogonal": (
            pair_to_json(ctx, report.semi_orthogonal) if report.semi_orthogonal else None
        ),
    }


def result_to_json(res: SearchResult) -> dict:
    return {
        "g": res.spec.g,
        "ordinal": res.ordinal,
        "spec": spec_to_json(res.spec),
        "report": report_to_json(res.spec.ctx, res.report),
    }


def job_from_json(obj: dict) -> SearchJob:
    """Read a job; every key is type-checked, never coerced, and a bad or
    unknown one raises ConfigError naming it. Only the keys the file sets
    reach SearchJob and RowSpace, so a left-out key takes their default."""
    if not isinstance(obj, dict):
        raise ConfigError("job file must contain a JSON object")
    _known_keys(obj, _JOB_KEYS, "job")
    field = _required(obj, "field", "job")
    try:
        ctx = field_from_json(field)
    except ValueError as exc:
        raise ConfigError(f"malformed job: {exc}") from None
    k = _required(obj, "k", "job")
    target = _member(_required(obj, "target", "job"), "target", Target)
    rs_obj = _typed(_required(obj, "row_space", "job"), "row_space", (dict,), "an object")
    kind = _member(_required(rs_obj, "kind", "row_space"), "kind", RowSpaceKind)
    _known_keys(rs_obj, _ROW_SPACE_KEYS, "row_space")
    row_space = RowSpace(kind, **_optional(rs_obj, "row_space"))
    g_set = obj.get("g_set")
    given_g_set = {} if g_set is None else {"g_set": _list(g_set, "g_set", _INT, "a list of integers")}
    return SearchJob(
        ctx=ctx,
        k=_typed(k, "k", _INT, "an integer"),
        target=target,
        row_space=row_space,
        **given_g_set,
        **_optional(obj, "job"),
    )
