"""Property-based tests of outside input.

Generated check and job files start from a valid file and replace or
drop up to two of its keys with arbitrary JSON: every run must exit 0,
2 or 3, raise nothing out of `main`, and on 2 or 3 print one `error:`
line. Specs, matrices and jobs must round-trip through `jsonio`. Runs
are derandomized and keep no example database.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from math import gcd
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import configuration, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gcirc import jsonio  # noqa: E402
from gcirc.circulant import CyclicSpec, GCirculantSpec  # noqa: E402
from gcirc.cli import main  # noqa: E402
from gcirc.field import GF2m  # noqa: E402
from gcirc.matrix import Matrix, Permutation  # noqa: E402
from gcirc.search import RowSpace, RowSpaceKind, SearchJob, Target  # noqa: E402

# Hypothesis still caches constants and Unicode tables without a database;
# keep them out of the checkout
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gcirc-hypothesis")

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# When a test here fails, Hypothesis's pytest plugin imports black to
# suggest a patch, and black's import warns; under the suite's "error"
# filter that warning would abort the whole session
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

FIELDS = [(2, 0x7), (4, 0x13), (8, 0x11D)]
ALL_FIELDS = FIELDS + [(1, 0x3), (16, 0x1002B)]

# Integers stay small: a job's order sets how long the job takes to set
# up (SearchJob lists every g coprime to k), and a check of a valid order
# above 12 warns, which the suite turns into an error.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["0x1", "0x3", "a", "1+a", "0xzz", "a^9", "", "0x03 (1+a)", "EXHAUSTIVE"])
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def k_cycle(draw, k: int) -> list[int]:
    """rho as a list of images: one cycle through a drawn order of 0..k-1."""
    order = draw(st.permutations(range(k)))
    rho = [0] * k
    for i, node in enumerate(order):
        rho[node] = order[(i + 1) % k]
    return rho


def drawn_elements(draw, ctx: GF2m, n: int) -> list[int]:
    return draw(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n))


@st.composite
def specs(draw, fields=ALL_FIELDS, max_k=64):
    ctx = GF2m(*draw(st.sampled_from(fields)))
    k = draw(st.integers(1, max_k))
    row = drawn_elements(draw, ctx, k)
    if draw(st.booleans()):
        return CyclicSpec(ctx, k, Permutation(k_cycle(draw, k)), row)
    return GCirculantSpec(ctx, k, draw(st.integers(-(1 << 70), 1 << 70)), row)


@st.composite
def jobs(draw, fields=ALL_FIELDS, max_k=64):
    ctx = GF2m(*draw(st.sampled_from(fields)))
    k = draw(st.integers(1, max_k))
    kind = draw(st.sampled_from(RowSpaceKind))
    if kind is RowSpaceKind.RANDOM:
        row_space = RowSpace(kind, draw(st.integers(0, 1 << 80)), draw(st.integers(0, (1 << 64) - 1)))
    else:
        row_space = RowSpace(kind)
    g_set = None
    if kind is not RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT and draw(st.booleans()):
        coprime = [g for g in range(k) if gcd(g, k) == 1]
        g_set = draw(st.lists(st.sampled_from(coprime), max_size=4))
    token = st.none() | st.integers(0, 1 << 100)
    return SearchJob(
        ctx,
        k,
        draw(st.sampled_from(Target)),
        row_space,
        g_set=g_set,
        resume_token=draw(token),
        stop_token=draw(token),
        pruning=draw(st.booleans()),
        prune_power_of_two=draw(st.booleans()),
        debug_recheck=draw(st.floats(0, 1)),
    )


def mutated(draw, obj: dict, fixed=()) -> dict:
    """obj with up to two of its keys, or of its nested objects' keys,
    each replaced by arbitrary JSON or dropped, and now and then one
    unknown key added; the keys in `fixed` are left alone."""
    out = json.loads(json.dumps(obj))
    paths = [(key,) for key in obj if key not in fixed]
    paths += [(key, sub) for key, value in obj.items() if isinstance(value, dict) for sub in value]
    for *parents, last in draw(st.lists(st.sampled_from(paths), max_size=2, unique=True)):
        owner = out.get(parents[0]) if parents else out
        if not isinstance(owner, dict):
            continue  # its parent was dropped or replaced already
        if draw(st.booleans()):
            owner.pop(last, None)
        else:
            owner[last] = draw(ANY_JSON)
    if draw(st.integers(0, 9)) == 0:
        out[draw(st.text(max_size=6))] = draw(ANY_JSON)
    return out


@st.composite
def check_files(draw):
    shape = draw(st.sampled_from(["spec", "matrix", "order 0 cyclic", "unswept order", "oversized", "any"]))
    if shape == "spec":
        obj = jsonio.spec_to_json(draw(specs(FIELDS, max_k=6)))
    elif shape == "matrix":
        ctx = GF2m(*draw(st.sampled_from(FIELDS)))
        k = draw(st.integers(1, 6))
        obj = jsonio.matrix_to_json(Matrix(ctx, [drawn_elements(draw, ctx, k) for _ in range(k)]))
        if draw(st.booleans()):
            del obj["k"]
    elif shape == "order 0 cyclic":
        obj = {"k": 0, "rho": [], "row": [], "field": {"m": 2, "poly": "0x7"}}
    elif shape in ("unswept order", "oversized"):
        # is_mds refuses k >= 16 (exit 3); no matrix is built above 64 (exit 2)
        k = draw(st.integers(16, 64) if shape == "unswept order" else st.integers(65, 400))
        obj = {"k": k, "g": 1, "row": ["0x1"] * k, "field": {"m": 2, "poly": 7}}
    else:
        return draw(ANY_JSON)
    return mutated(draw, obj)


@st.composite
def job_files(draw):
    job = draw(jobs(FIELDS, max_k=4))
    # every window stays within a few hundred tokens
    total = job.total_candidates()
    start = draw(st.integers(0, min(total, 40)))
    job = replace(job, resume_token=start, stop_token=draw(st.integers(start, min(total, start + 300))))
    obj = mutated(draw, jsonio.job_to_json(job), fixed=("stop_token",))
    if draw(st.integers(0, 9)) == 0:
        obj["stop_token"] = draw(ANY_JSON.filter(lambda v: type(v) is not int and v is not None))
    return obj


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(err: str):
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


class TestMalformedInput:
    @FUZZ
    @given(obj=check_files())
    def test_check_file(self, input_path, obj):
        input_path.write_text(json.dumps(obj))
        code, out, err = run_main(["check", str(input_path)])
        assert code in (0, 2, 3)
        if code == 0:
            assert set(json.loads(out)) >= {"mds", "involutory", "orthogonal"} and err == ""
        else:
            assert out == ""
            assert_one_error_line(err)

    @FUZZ
    @given(obj=job_files())
    def test_job_file(self, input_path, obj):
        input_path.write_text(json.dumps(obj))
        code, out, err = run_main(["search", str(input_path)])
        assert code in (0, 2, 3)
        if code == 0:
            assert err.startswith("search done: ")
            for line in out.splitlines():
                assert json.loads(line)["report"]["mds"] is True
        else:
            assert_one_error_line(err)


class TestRoundTrip:
    @FUZZ
    @given(spec=specs())
    def test_spec(self, spec):
        text = json.dumps(jsonio.spec_to_json(spec))
        assert jsonio.spec_from_json(json.loads(text)) == spec

    @FUZZ
    @given(data=st.data())
    def test_matrix(self, data):
        ctx = GF2m(*data.draw(st.sampled_from(ALL_FIELDS)))
        k = data.draw(st.integers(1, 8))
        a = Matrix(ctx, [drawn_elements(data.draw, ctx, k) for _ in range(k)])
        assert jsonio.matrix_from_json(json.loads(json.dumps(jsonio.matrix_to_json(a)))) == a

    @FUZZ
    @given(job=jobs())
    def test_job(self, job):
        text = json.dumps(jsonio.job_to_json(job))
        back = jsonio.job_from_json(json.loads(text))
        assert back == job
        assert json.dumps(jsonio.job_to_json(back)) == text
