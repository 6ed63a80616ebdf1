"""Command-line frontend: build, check, square, sqrt1, search, repro.

JSON goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 a checked assertion failed (a repro fact, a square's verification, a
search's debug_recheck), 2 usage or configuration error,
3 resource guard tripped.

Files and `--row` elements are read by `jsonio`. A command fails by
raising (a usage error is a ConfigError), and `main` alone turns the
exception into an `error:` line and an exit code.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from dataclasses import replace
from functools import lru_cache

from . import catalog, jsonio
from .circulant import CyclicSpec, GCirculantSpec, build_cyclic, build_g_circulant, square_structured
from .errors import ConfigError, GcircError, ParseError, RecheckError, SpaceTooLargeError, excerpt
from .field import GF2m
from .matrix import Matrix
from .modular import sqrt_one_solutions
from .properties import full_report
from .search import job_part, run_search

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERRUPT = 130


def _common_options(parser: argparse.ArgumentParser, root: bool) -> None:
    # on subparsers the defaults are suppressed so values given before the
    # subcommand survive
    def dflt(value):
        return value if root else argparse.SUPPRESS

    parser.add_argument(
        "--field-m", type=int, default=dflt(None), help="extension degree m of GF(2^m)"
    )
    parser.add_argument(
        "--field-poly",
        type=lambda s: int(s, 0),
        default=dflt(None),
        help="irreducible modulus as a bitmask, e.g. 0x165",
    )
    parser.add_argument("--format", choices=("json", "text"), default=dflt("json"))
    parser.add_argument("-v", "--verbose", action="store_true", default=dflt(False))


def _spec_options(parser: argparse.ArgumentParser, required: bool) -> None:
    """--k/--g/--row, the g-circulant spec of build, check and square."""
    parser.add_argument("--k", type=int, required=required)
    parser.add_argument("--g", type=int, required=required)
    parser.add_argument("--row", nargs="+", required=required, metavar="ELEM")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on the first `main` call and reused by every
    later one in the process; each parse still returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="gcirc",
        description="g-circulant matrices over GF(2^m): construction, property checks, search",
    )
    _common_options(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _common_options(p, root=False)
        return p

    _spec_options(add_parser("build", help="construct a g-circulant matrix"), required=True)

    p_check = add_parser("check", help="run all five property checks")
    p_check.add_argument("input", nargs="?", help="matrix or spec JSON file")
    _spec_options(p_check, required=False)

    _spec_options(add_parser("square", help="structured square of a g-circulant spec"), required=True)

    p_sqrt1 = add_parser("sqrt1", help="solutions of x^2 = 1 (mod k)")
    p_sqrt1.add_argument("k", type=int)

    p_search = add_parser("search", help="run a search job from a JSON file")
    p_search.add_argument("jobfile")
    p_search.add_argument("--resume", type=int, help="start token")
    p_search.add_argument("--partition", help="I/N: run the I-th of N parts")
    p_search.add_argument("--no-prune", action="store_true")
    p_search.add_argument("--seed", type=int, help="override the RANDOM row seed")

    p_repro = add_parser("repro", help="reproduce a bundled reference case")
    p_repro.add_argument("example", help=f"one of {', '.join(catalog.CASES)}, or 'all'")

    return parser


def _spec_from_args(args) -> GCirculantSpec:
    if args.field_m is None or args.field_poly is None:
        raise ConfigError("--field-m and --field-poly are required for this command")
    ctx = GF2m(args.field_m, args.field_poly)
    return GCirculantSpec(ctx, args.k, args.g, jsonio.elements(ctx, args.row, "row"))


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_build(args) -> int:
    a = build_g_circulant(_spec_from_args(args))
    payload = jsonio.matrix_to_json(a)
    _emit(args, payload, (" ".join(a.ctx.format_hex(e) for e in row) for row in a.entries))
    return EXIT_OK


def _read_json(path: str, what: str):
    """The JSON value in the file at path, or ParseError when it is not
    valid JSON or nests deeper than the parser's recursion limit."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{what} is not valid JSON: {exc}") from None
        except RecursionError:
            raise ParseError(f"{what} {path!r} nests its arrays or objects too deeply to parse") from None


def _refuse_field_flags(args, what: str) -> None:
    """A file names its own field, so field flags next to one are refused."""
    if args.field_m is not None or args.field_poly is not None:
        raise ConfigError(f"--field-m and --field-poly do not apply to a {what}; its field block sets the field")


def _load_check_input(args) -> Matrix:
    if args.input is not None:
        if args.k is not None or args.g is not None or args.row is not None:
            raise ConfigError("check takes an input file or --k/--g/--row, not both")
        _refuse_field_flags(args, "check input file")
        obj = _read_json(args.input, "check input")
        if not isinstance(obj, dict):
            raise ParseError("check input must contain a JSON object")
        if "entries" in obj:
            return jsonio.matrix_from_json(obj)
        spec = jsonio.spec_from_json(obj)
        return build_cyclic(spec) if isinstance(spec, CyclicSpec) else build_g_circulant(spec)
    if args.k is None or args.g is None or args.row is None:
        raise ConfigError("check needs an input file or --k/--g/--row")
    return build_g_circulant(_spec_from_args(args))


def _cmd_check(args) -> int:
    a = _load_check_input(args)
    report = full_report(a)
    payload = jsonio.report_to_json(a.ctx, report)
    lines = [
        f"mds: {report.mds}" + (f" (witness {report.mds_witness})" if report.mds_witness else ""),
        f"involutory: {report.involutory}",
        f"orthogonal: {report.orthogonal}",
        f"semi_involutory: {payload['semi_involutory']}",
        f"semi_orthogonal: {payload['semi_orthogonal']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_square(args) -> int:
    spec = _spec_from_args(args)
    ctx = spec.ctx
    a = build_g_circulant(spec)  # refuses an oversized order before the O(k^2) square
    g2, row2 = square_structured(spec)
    verified = build_g_circulant(GCirculantSpec(ctx, spec.k, g2, row2)) == a @ a
    payload = {
        "g2": g2,
        "row2": [ctx.format_hex(c) for c in row2],
        "row2_poly": [ctx.format_poly(c) for c in row2],
        "verified": verified,
    }
    _emit(
        args,
        payload,
        [f"g2: {g2}", "row2: " + " ".join(ctx.format(c) for c in row2), f"verified: {verified}"],
    )
    return EXIT_OK if verified else EXIT_CHECK_FAILED


def _cmd_sqrt1(args) -> int:
    sols = sqrt_one_solutions(args.k)
    payload = sols.to_json()
    _emit(
        args,
        payload,
        [f"k: {sols.k}",
         "solutions: " + " ".join(map(str, sols.solutions)),
         f"predicted: {sols.predicted_count}"],
    )
    return EXIT_OK


def _cmd_search(args) -> int:
    _refuse_field_flags(args, "job file")
    job = jsonio.job_from_json(_read_json(args.jobfile, "job file"))
    if args.seed is not None:
        job = replace(job, row_space=replace(job.row_space, seed=args.seed))
    if args.no_prune:
        job = replace(job, pruning=False)
    resume_with = "--resume"
    if args.partition:
        try:
            part, total = (int(x) for x in args.partition.split("/"))
        except ValueError:
            raise ConfigError(f"--partition expects I/N, got {excerpt(repr(args.partition))}") from None
        if not 1 <= part <= total:
            raise ConfigError(f"partition index {part} outside 1..{total}")
        # the part is cut from the job's own window; --resume moves inside it
        job = job_part(job, part - 1, total)
        resume_with = f"--partition {part}/{total} --resume"
        lo, hi = job.window()
        if args.resume is not None and not lo <= args.resume <= hi:
            shown = "..".join(excerpt(str(t)) for t in (lo, hi))
            raise ConfigError(f"resume token {excerpt(str(args.resume))} outside part {part}/{total}'s tokens {shown}")
    if args.resume is not None:
        job = replace(job, resume_token=args.resume)

    start = job.window()[0]
    started = time.monotonic()
    progress = {"token": start - 1, "hits": 0}

    def walked(first: int, stop: int) -> None:
        progress["token"] = stop - 1
        if args.verbose:  # a line at each token t with (t + 1) % 100000 == 0
            for token in range(first + (-first - 1) % 100000, stop, 100000):
                print(f"...processed through token {token}", file=sys.stderr)

    try:
        for result in run_search(job, on_progress=walked):
            progress["hits"] += 1
            if args.format == "json":
                line = json.dumps(jsonio.result_to_json(result))
            else:
                ctx = result.spec.ctx
                line = (
                    f"g={result.spec.g} ordinal={result.ordinal} "
                    f"row={' '.join(ctx.format_hex(c) for c in result.spec.row)}"
                )
            # an interrupt before this point resumes at the hit, one while
            # its line is written resumes after it
            progress["token"] = result.token
            print(line)
    except KeyboardInterrupt:
        print(f"interrupted; resume with {resume_with} {progress['token'] + 1}", file=sys.stderr)
        sys.stdout.flush()
        return EXIT_INTERRUPT
    elapsed = time.monotonic() - started
    candidates = progress["token"] + 1 - start
    print(
        f"search done: {candidates} candidates, {progress['hits']} results, {elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_repro(args) -> int:
    ids = list(catalog.CASES) if args.example == "all" else [args.example]
    for case_id in ids:
        if case_id not in catalog.CASES:
            raise ConfigError(f"unknown example {excerpt(repr(case_id))}; choose from {', '.join(catalog.CASES)}")
    all_passed = True
    outputs = []
    for case_id in ids:
        outcome = catalog.run_case(case_id)
        outputs.append(outcome)
        all_passed &= outcome["passed"]
        if args.format == "text":
            print(f"== {case_id} ==")
            for fact in outcome["facts"]:
                status = "PASS" if fact["pass"] else "FAIL"
                detail = f"  [{fact['detail']}]" if fact["detail"] else ""
                print(f"{status}  {fact['name']}{detail}")
    if args.format == "json":
        print(json.dumps(outputs[0] if len(outputs) == 1 else outputs))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "build": _cmd_build,
    "check": _cmd_check,
    "square": _cmd_square,
    "sqrt1": _cmd_sqrt1,
    "search": _cmd_search,
    "repro": _cmd_repro,
}


def main(argv=None) -> int:
    if argv is None and hasattr(signal, "SIGPIPE"):
        # die quietly when a downstream pipe closes, like any stream filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpaceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (GcircError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
