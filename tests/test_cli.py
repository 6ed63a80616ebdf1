"""CLI contract: subcommands, JSON output on stdout, diagnostics on
stderr, exit codes 0/1/2/3."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import gcirc
import gcirc.cli as cli_mod
from gcirc import jsonio
from gcirc.cli import main

FIELD_165 = ["--field-m", "8", "--field-poly", "0x165"]
PAPER_ROW = ["1", "a", "1+a+a^4+a^5+a^7", "1+a+a^3+a^4+a^5+a^7", "a+a^3"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gcirc_env() -> dict:
    """Environment for a `python -m gcirc` child that imports this gcirc,
    installed or not, and wraps usage text at a fixed width."""
    src = os.path.dirname(os.path.dirname(gcirc.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), COLUMNS="80")


def run_fresh(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "gcirc", *argv],
        capture_output=True,
        text=True,
        env=gcirc_env(),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestBuild:
    def test_reference_matrix(self, capsys):
        code, out, _ = run(
            capsys, FIELD_165 + ["build", "--k", "5", "--g", "3", "--row"] + PAPER_ROW
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 5
        assert payload["field"] == {"m": 8, "poly": "0x165"}
        assert payload["entries"][0] == ["0x01", "0x02", "0xb3", "0xbb", "0x0a"]
        # row 1 is the right-shift by 3: c_{(j - 3) mod 5} = (c2, c3, c4, c0, c1)
        assert payload["entries"][1] == ["0xb3", "0xbb", "0x0a", "0x01", "0x02"]

    def test_trivial_circulant(self, capsys):
        code, out, _ = run(
            capsys, ["build", "--k", "2", "--g", "1", "--row", "0x1", "0x2"]
            + ["--field-m", "2", "--field-poly", "0x7"]
        )
        assert code == 0
        assert json.loads(out)["entries"] == [["0x1", "0x2"], ["0x2", "0x1"]]

    def test_bad_literal_positioned(self, capsys):
        code, _, err = run(
            capsys, FIELD_165 + ["build", "--k", "2", "--g", "1", "--row", "1", "b^2"]
        )
        assert code == 2
        assert "row element 1" in err

    def test_field_required(self, capsys):
        code, _, err = run(capsys, ["build", "--k", "2", "--g", "1", "--row", "1", "1"])
        assert code == 2
        assert "--field-m" in err

    def test_reducible_field_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["--field-m", "4", "--field-poly", "0x18", "build", "--k", "1", "--g", "0", "--row", "1"],
        )
        assert code == 2
        assert "reducible" in err.lower()


class TestCheck:
    def test_inline_identity(self, capsys):
        code, out, _ = run(
            capsys,
            ["--field-m", "4", "--field-poly", "0x13", "check", "--k", "3", "--g", "1",
             "--row", "1", "0", "0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["involutory"] is True
        assert payload["orthogonal"] is True
        assert payload["mds"] is False
        assert payload["mds_witness"] == {"rows": [0], "cols": [1]}

    def test_spec_file_left_circulant(self, capsys, tmp_path):
        spec = {
            "k": 5,
            "g": 4,
            "row": ["0x01", "0x02", "0xb3", "0xbb", "0x0a"],
            "field": {"m": 8, "poly": "0x165"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["involutory"] is True
        assert payload["mds"] is True
        assert payload["semi_involutory"] is not None

    def test_matrix_file(self, capsys, tmp_path):
        matrix = {
            "k": 2,
            "entries": [["0x1", "0x3"], ["0x3", "0x1"]],
            "field": {"m": 2, "poly": "0x7"},
        }
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["mds"] is True
        assert payload["semi_involutory"] == {
            "d1": ["0x2", "0x2"],
            "d2": ["0x1", "0x1"],
            "k1": "0x3",
            "k2": "0x1",
        }

    def test_cyclic_spec_file(self, capsys, tmp_path):
        spec = {
            "k": 3,
            "rho": [1, 2, 0],
            "row": ["0x1", "0x0", "0x0"],
            "field": {"m": 2, "poly": "0x7"},
        }
        path = tmp_path / "cyc.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0
        assert json.loads(out)["orthogonal"] is True

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "/nonexistent/x.json"])
        assert code == 2

    def test_directory_input(self, capsys, tmp_path):
        code, out, err = run(capsys, ["check", str(tmp_path)])
        assert code == 2 and out == ""
        assert "Is a directory" in err

    def test_deeply_nested_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, ["check", str(path)])
        assert code == 2 and out == ""
        assert "deep.json" in err and "too deeply" in err

    def test_oversized_order_refused_before_building(self, tmp_path):
        # a 350 KB spec of order 50,000: its 2.5 * 10^9 entries must never be
        # built, so the child's capped address space is never reached
        resource = pytest.importorskip("resource")
        spec = {"k": 50_000, "g": 1, "row": ["0x1"] * 50_000, "field": {"m": 2, "poly": "0x7"}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "gcirc", "check", str(path)],
            capture_output=True,
            text=True,
            env=gcirc_env(),
            timeout=30,
            preexec_fn=cap_memory,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: dimensions capped at 64\n"


class TestSpecTypes:
    @pytest.mark.parametrize(
        "change, named",
        [
            ({}, None),
            ({"k": 2.7}, "'k'"),
            ({"k": True}, "'k'"),
            ({"k": "2"}, "'k'"),
            ({"k": None}, "'k'"),
            ({"g": 1.9}, "'g'"),
            ({"g": True}, "'g'"),
            ({"g": "1"}, "'g'"),
            ({"g": None}, "'g'"),
        ],
    )
    def test_check_spec_k_g(self, capsys, tmp_path, change, named):
        # k = 2, g = 1 would make the identity spec valid, so only the type can fail
        spec = {"k": 2, "g": 1, "row": ["0x1", "0x0"], "field": {"m": 2, "poly": "0x7"}}
        spec.update(change)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["check", str(path)])
        if named is None:
            assert code == 0
            assert json.loads(out)["involutory"] is True
        else:
            assert code == 2
            assert out == ""
            assert named in err and "Traceback" not in err


class TestCheckStructure:
    SPEC = '{"k": 2, "g": 1, "row": %s, "field": {"m": 2, "poly": "0x7"}}'
    CYCLIC = '{"k": 2, "rho": %s, "row": ["0x1", "0x0"], "field": {"m": 2, "poly": "0x7"}}'
    MATRIX = '{%s"entries": %s, "field": {"m": 2, "poly": "0x7"}}'
    IDENTITY = '[["0x1", "0x0"], ["0x0", "0x1"]]'

    @pytest.mark.parametrize(
        "text, named",
        [
            (SPEC % '["0x1", "0x0"]', None),
            (CYCLIC % "[1, 0]", None),
            (MATRIX % ("", IDENTITY), None),
            (MATRIX % ('"k": 2, ', IDENTITY), None),
            ("[1, 2]", "JSON object"),
            ('"entries"', "JSON object"),
            ("null", "JSON object"),
            (SPEC % "5", "'row'"),
            (SPEC % '"10"', "'row'"),
            (SPEC % '{"1": 0, "0": 0}', "'row'"),
            (SPEC % '["0x1", 0]', "'row'"),
            (SPEC % "null", "'row'"),
            (CYCLIC % "5", "'rho'"),
            (CYCLIC % '"10"', "'rho'"),
            (CYCLIC % "[true, false]", "'rho'"),
            (CYCLIC % "[1.0, 0.0]", "'rho'"),
            ('{"k": 0, "rho": [], "row": [], "field": {"m": 2, "poly": "0x7"}}', "order must be >= 1"),
            (MATRIX % ("", "5"), "'entries'"),
            (MATRIX % ("", "[5]"), "'entries'"),
            (MATRIX % ("", '["10", "01"]'), "'entries'"),
            (MATRIX % ("", "[[1, 0], [0, 1]]"), "'entries'"),
            (MATRIX % ("", '{"0x1": 1}'), "'entries'"),
            (MATRIX % ('"k": 2, ', '[["0x1"]]'), "'k'"),
            (MATRIX % ('"k": 1, ', IDENTITY), "'k'"),
            (MATRIX % ('"k": 3, ', IDENTITY), "'k'"),
            (MATRIX % ('"k": 2, ', '[["0x1", "0x0", "0x0"], ["0x0", "0x1", "0x0"]]'), "'k'"),
            (MATRIX % ('"k": 2.0, ', IDENTITY), "'k'"),
            (MATRIX % ('"k": true, ', '[["0x1"]]'), "'k'"),
            (MATRIX % ('"k": "2", ', IDENTITY), "'k'"),
        ],
    )
    def test_check_file_structure(self, capsys, tmp_path, text, named):
        # every valid form is the identity, so only the structure can fail
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run(capsys, ["check", str(path)])
        if named is None:
            assert code == 0
            assert json.loads(out)["involutory"] is True
        else:
            assert code == 2
            assert out == ""
            assert named in err and "Traceback" not in err


class TestFieldBlock:
    @pytest.mark.parametrize(
        "field, named",
        [
            ({"m": 2, "poly": "0x7"}, None),
            ({"m": 2, "poly": 7}, None),
            ({"m": 2.7, "poly": "0x7"}, "'m'"),
            ({"m": True, "poly": 3}, "'m'"),
            ({"m": "2", "poly": "0x7"}, "'m'"),
            ({"poly": "0x7"}, "'m'"),
            ({"m": 8, "poly": 285.9}, "'poly'"),
            ({"m": 2, "poly": True}, "'poly'"),
            ({"m": 2, "poly": [7]}, "'poly'"),
            ({"m": 2, "poly": "0xzz"}, "'poly'"),
            ({"m": 2, "poly": -5}, "negative"),
        ],
    )
    def test_check_spec_field(self, capsys, tmp_path, field, named):
        # the identity spec is valid in every field, so only the block can fail
        spec = {"k": 2, "g": 1, "row": ["0x1", "0x0"], "field": field}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["check", str(path)])
        if named is None:
            assert code == 0
            assert json.loads(out)["involutory"] is True
        else:
            assert code == 2
            assert out == ""
            assert named in err


class TestSquare:
    def test_reference_square(self, capsys):
        code, out, _ = run(
            capsys, FIELD_165 + ["square", "--k", "5", "--g", "3", "--row"] + PAPER_ROW
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["g2"] == 4
        assert payload["row2"][0] == "0x41"
        assert payload["row2_poly"][0] == "1+a^6"
        assert payload["verified"] is True

    def test_unit_row(self, capsys):
        code, out, _ = run(
            capsys,
            ["--field-m", "4", "--field-poly", "0x13", "square", "--k", "5", "--g", "2",
             "--row", "1", "0", "0", "0", "0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["row2"] == ["0x1", "0x0", "0x0", "0x0", "0x0"]


class TestSqrt1:
    def test_examples(self, capsys):
        for k, sols in ((8, [1, 3, 5, 7]), (2, [1]), (9, [1, 8])):
            code, out, _ = run(capsys, ["sqrt1", str(k)])
            assert code == 0
            payload = json.loads(out)
            assert payload["solutions"] == sols

    def test_bad_modulus(self, capsys):
        code, _, err = run(capsys, ["sqrt1", "1"])
        assert code == 2


class TestSearch:
    def job_path(self, tmp_path, payload, name="job.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_semi_involutory_stream(self, capsys, tmp_path):
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 2, "poly": "0x7"},
                "k": 2,
                "target": "SEMI_INVOLUTORY_MDS",
                "row_space": {"kind": "EXHAUSTIVE"},
            },
        )
        code, out, err = run(capsys, ["search", path])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert {tuple(l["spec"]["row"]) for l in lines} >= {("0x1", "0x3")}
        assert "search done" in err
        assert all(l["report"]["mds"] for l in lines)

    def test_partition_merge_equals_whole(self, capsys, tmp_path):
        payload = {
            "field": {"m": 4, "poly": "0x13"},
            "k": 2,
            "target": "SEMI_INVOLUTORY_MDS",
            "row_space": {"kind": "EXHAUSTIVE"},
        }
        path = self.job_path(tmp_path, payload)
        _, whole, _ = run(capsys, ["search", path])
        merged = []
        for i in (1, 2, 3):
            code, out, _ = run(capsys, ["search", path, "--partition", f"{i}/3"])
            assert code == 0
            merged.append(out)
        assert "".join(merged) == whole

    def test_no_prune_same_output(self, capsys, tmp_path):
        payload = {
            "field": {"m": 4, "poly": "0x13"},
            "k": 2,
            "target": "INVOLUTORY_MDS",
            "row_space": {"kind": "EXHAUSTIVE"},
        }
        path = self.job_path(tmp_path, payload)
        _, pruned, _ = run(capsys, ["search", path])
        _, plain, _ = run(capsys, ["search", path, "--no-prune"])
        assert pruned == plain

    def test_malformed_job_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["search", str(path)])
        assert code == 2
        path2 = self.job_path(tmp_path, {"k": 2})
        code, _, err = run(capsys, ["search", path2])
        assert code == 2

    @pytest.mark.parametrize(
        "change, named",
        [
            ({}, None),
            ({"resume_token": None, "stop_token": None, "g_set": None}, None),
            ({"pruning": False, "prune_power_of_two": True, "debug_recheck": 1}, None),
            ({"row_space": {"kind": "RANDOM", "count": 30, "seed": 5}}, None),
            ({"k": 2.7}, "'k'"),
            ({"k": True}, "'k'"),
            ({"k": None}, "'k'"),
            ({"resume_token": "3"}, "'resume_token'"),
            ({"resume_token": 3.0}, "'resume_token'"),
            ({"stop_token": True}, "'stop_token'"),
            ({"stop_token": "10"}, "'stop_token'"),
            ({"g_set": [1.5]}, "'g_set'"),
            ({"g_set": [True]}, "'g_set'"),
            ({"g_set": "1"}, "'g_set'"),
            ({"row_space": {"kind": "RANDOM", "count": 30.0, "seed": 5}}, "'count'"),
            ({"row_space": {"kind": "RANDOM", "count": "30", "seed": 5}}, "'count'"),
            ({"row_space": {"kind": "RANDOM", "count": 30, "seed": True}}, "'seed'"),
            ({"row_space": {"kind": "RANDOM", "count": 30, "seed": 5.5}}, "'seed'"),
            ({"pruning": "false"}, "'pruning'"),
            ({"pruning": 0}, "'pruning'"),
            ({"pruning": None}, "'pruning'"),
            ({"prune_power_of_two": "true"}, "'prune_power_of_two'"),
            ({"prune_power_of_two": 1}, "'prune_power_of_two'"),
            ({"debug_recheck": "0.5"}, "'debug_recheck'"),
            ({"debug_recheck": True}, "'debug_recheck'"),
            ({"prune_power_of_2": True}, "'prune_power_of_2'"),
            ({"resume": 3, "stop": 10}, "'resume', 'stop'"),
            ({"row_space": {"kind": "EXHAUSTIVE", "sead": 5}}, "'sead'"),
            ({"row_space": {"kind": "RANDOM", "count": 30, "seed": 5, "size": 9}}, "'size'"),
        ],
    )
    def test_job_field_types(self, capsys, tmp_path, change, named):
        payload = {
            "field": {"m": 2, "poly": "0x7"},
            "k": 2,
            "target": "SEMI_INVOLUTORY_MDS",
            "row_space": {"kind": "EXHAUSTIVE"},
        }
        payload.update(change)
        code, out, err = run(capsys, ["search", self.job_path(tmp_path, payload)])
        if named is None:
            assert code == 0
            assert "search done" in err
        else:
            assert code == 2
            assert out == ""
            assert named in err and "Traceback" not in err

    def test_space_guard_exit_3(self, capsys, tmp_path):
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 8, "poly": "0x165"},
                "k": 5,
                "target": "MDS_ONLY",
                "row_space": {"kind": "EXHAUSTIVE"},
            },
        )
        code, _, err = run(capsys, ["search", path])
        assert code == 3
        assert "partition" in err

    def test_space_guard_message_is_bounded(self, capsys, tmp_path):
        # 3200 coprime g times 4^8000 rows: a window of over 16,000 bits
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 2, "poly": "0x7"},
                "k": 8000,
                "target": "MDS_ONLY",
                "row_space": {"kind": "EXHAUSTIVE"},
            },
        )
        code, _, err = run(capsys, ["search", path])
        assert code == 3
        assert "2^24 cap" in err and len(err) < 200

    @pytest.mark.parametrize(
        "tokens, named",
        [({"resume_token": -1}, "resume token -1"), ({"stop_token": -1}, "stop token -1")],
    )
    def test_bad_token_message_is_bounded(self, capsys, tmp_path, tokens, named):
        # the same window of over 16,000 bits: the bad token is named, the total is not printed
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 2, "poly": "0x7"},
                "k": 8000,
                "target": "MDS_ONLY",
                "row_space": {"kind": "EXHAUSTIVE"},
                **tokens,
            },
        )
        code, out, err = run(capsys, ["search", path])
        assert code == 2 and out == ""
        assert named in err and len(err) < 200

    def test_deeply_nested_job_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, ["search", str(path)])
        assert code == 2 and out == ""
        assert "deep.json" in err and "too deeply" in err

    def test_partition_builds_only_its_part(self, tmp_path):
        # 2 * 10^12 tokens, every one a hit: part 2 of 10^12 is exactly the
        # tokens [2, 4); the child's address space is capped, so building
        # all 10^12 sub-jobs fails fast instead of exhausting memory
        resource = pytest.importorskip("resource")
        payload = {
            "field": {"m": 8, "poly": "0x165"},
            "k": 2,
            "target": "MDS_ONLY",
            "row_space": {"kind": "RANDOM", "count": 2 * 10**12, "seed": 0},
        }
        path = self.job_path(tmp_path, payload)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "gcirc", "search", path, "--partition", "2/1000000000000"],
            capture_output=True,
            text=True,
            env=gcirc_env(),
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 0, proc.stderr
        assert [json.loads(line)["ordinal"] for line in proc.stdout.splitlines()] == [2, 3]
        assert "search done: 2 candidates, 2 results" in proc.stderr

    def test_directory_job(self, capsys, tmp_path):
        code, out, err = run(capsys, ["search", str(tmp_path)])
        assert code == 2 and out == ""
        assert "Is a directory" in err

    def test_resume_concatenation(self, capsys, tmp_path):
        payload = {
            "field": {"m": 4, "poly": "0x13"},
            "k": 2,
            "target": "SEMI_INVOLUTORY_MDS",
            "row_space": {"kind": "EXHAUSTIVE"},
        }
        path = self.job_path(tmp_path, payload)
        _, whole, _ = run(capsys, ["search", path])
        payload["stop_token"] = 100
        head_path = self.job_path(tmp_path, payload, name="head.json")
        _, head, _ = run(capsys, ["search", head_path])
        _, tail, _ = run(capsys, ["search", path, "--resume", "100"])
        assert head + tail == whole

    def test_seed_override(self, capsys, tmp_path):
        payload = {
            "field": {"m": 4, "poly": "0x13"},
            "k": 2,
            "target": "MDS_ONLY",
            "row_space": {"kind": "RANDOM", "count": 30, "seed": 1},
        }
        path = self.job_path(tmp_path, payload)
        _, out1, _ = run(capsys, ["search", path])
        _, out2, _ = run(capsys, ["search", path, "--seed", "2"])
        _, out1_again, _ = run(capsys, ["search", path, "--seed", "1"])
        assert out1 != out2
        assert out1 == out1_again

    def test_broken_pipe_dies_quietly(self, tmp_path):
        import subprocess
        import sys as _sys

        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 4, "poly": "0x13"},
                "k": 3,
                "target": "SEMI_ORTHOGONAL_MDS",
                "row_space": {"kind": "EXHAUSTIVE"},
            },
        )
        proc = subprocess.Popen(
            [_sys.executable, "-m", "gcirc", "search", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=gcirc_env(),
        )
        proc.stdout.readline()
        proc.stdout.close()  # downstream consumer goes away
        proc.wait(timeout=60)
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert b"Traceback" not in stderr
        assert proc.returncode in (0, -13, 141)  # SIGPIPE death, no crash

    def test_interrupt_prints_resume_token(self, capsys, tmp_path, monkeypatch):
        def interrupted(job, on_progress=None):
            for token in range(job.window()[0], job.window()[0] + 40):
                if on_progress is not None:
                    on_progress(token)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "run_search", interrupted)
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 4, "poly": "0x13"},
                "k": 2,
                "target": "MDS_ONLY",
                "row_space": {"kind": "EXHAUSTIVE"},
            },
        )
        code, _, err = run(capsys, ["search", path])
        assert code == 130
        assert "--resume 40" in err


class InterruptAfterLines(io.StringIO):
    """A stdout that raises KeyboardInterrupt once `lines` lines are written."""

    def __init__(self, lines: int):
        super().__init__()
        self.left = lines

    def write(self, text):
        written = super().write(text)
        self.left -= text.count("\n")
        if self.left <= 0:
            raise KeyboardInterrupt
        return written


class TestInterruptResume:
    JOB = {
        "field": {"m": 4, "poly": "0x13"},
        "k": 2,
        "target": "SEMI_INVOLUTORY_MDS",
        "row_space": {"kind": "EXHAUSTIVE"},
    }

    def job_argv(self, tmp_path, *extra):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(self.JOB))
        return ["search", str(path), *extra]

    def resumed_output(self, capsys, argv, err):
        token = re.search(r"--resume (\d+)", err).group(1)
        _, tail, _ = run(capsys, argv + ["--resume", token])
        return tail

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_each_hit_printed_once(self, capsys, tmp_path, fmt):
        # interrupted once the n-th hit's line is written: the resumed
        # run must not print it again
        argv = self.job_argv(tmp_path, "--format", fmt)
        _, whole, _ = run(capsys, argv)
        n_hits = len(whole.splitlines())
        assert n_hits > 3
        for n in (1, 2, n_hits // 2, n_hits - 1):
            head = InterruptAfterLines(n)
            with contextlib.redirect_stdout(head):
                code = main(argv)
            err = capsys.readouterr().err
            assert code == 130
            assert len(head.getvalue().splitlines()) == n
            assert head.getvalue() + self.resumed_output(capsys, argv, err) == whole

    def test_no_hit_lost_while_formatting(self, capsys, tmp_path, monkeypatch):
        # interrupted while the n-th hit's line is built, before any of it
        # is written: the resumed run must print it
        argv = self.job_argv(tmp_path)
        _, whole, _ = run(capsys, argv)
        n_hits = len(whole.splitlines())
        to_json = jsonio.result_to_json
        for n in (1, 2, n_hits // 2, n_hits):
            calls = []

            def interrupt_nth(result):
                calls.append(result)
                if len(calls) == n:
                    raise KeyboardInterrupt
                return to_json(result)

            monkeypatch.setattr(jsonio, "result_to_json", interrupt_nth)
            code, head, err = run(capsys, argv)
            monkeypatch.setattr(jsonio, "result_to_json", to_json)
            assert code == 130
            assert len(head.splitlines()) == n - 1
            assert head + self.resumed_output(capsys, argv, err) == whole


class TestRepro:
    @pytest.mark.parametrize(
        "case_id",
        ["ex-3circ-5x5", "ex-leftcirc-5x5", "ex-semiortho-5x5", "ex-semiinv-2x2", "ex-semiinv-4x4"],
    )
    def test_each_case_passes(self, capsys, case_id):
        code, out, _ = run(capsys, ["repro", case_id])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(f["pass"] for f in payload["facts"])

    def test_all(self, capsys):
        code, out, _ = run(capsys, ["repro", "all"])
        assert code == 0
        assert len(json.loads(out)) == 5

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, ["repro", "ex-bogus"])
        assert code == 2
        assert "unknown example" in err

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["repro", "ex-semiinv-2x2", "--format", "text"])
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestUsageErrors:
    """Each argument error exits 2 with exactly one `error:` line on stderr."""

    JOB = {
        "field": {"m": 2, "poly": "0x7"},
        "k": 2,
        "target": "MDS_ONLY",
        "row_space": {"kind": "EXHAUSTIVE"},
    }

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["build", "--k", "2", "--g", "1", "--row", "1", "1"],
             "--field-m and --field-poly are required for this command"),
            (["check"], "check needs an input file or --k/--g/--row"),
            (["search", "JOB", "--partition", "1-3"], "--partition expects I/N, got '1-3'"),
            (["search", "JOB", "--partition", "4/3"], "partition index 4 outside 1..3"),
            (["repro", "ex-bogus"],
             f"unknown example 'ex-bogus'; choose from {', '.join(gcirc.catalog.CASES)}"),
        ],
    )
    def test_exact_message(self, capsys, tmp_path, argv, line):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(self.JOB))
        code, out, err = run(capsys, [str(path) if a == "JOB" else a for a in argv])
        assert (code, out, err) == (2, "", f"error: {line}\n")


class TestFormatting:
    def test_text_build(self, capsys):
        code, out, _ = run(
            capsys,
            ["--field-m", "2", "--field-poly", "0x7", "--format", "text",
             "build", "--k", "2", "--g", "1", "--row", "1", "a"],
        )
        assert code == 0
        assert out.splitlines() == ["0x1 0x2", "0x2 0x1"]

    def test_global_flags_after_subcommand(self, capsys):
        code, out, _ = run(
            capsys,
            ["build", "--k", "1", "--g", "0", "--row", "1",
             "--field-m", "2", "--field-poly", "0x7", "--format", "text"],
        )
        assert code == 0
        assert out.strip() == "0x1"


class TestRepeatedCalls:
    """In-process `main` calls share one parser; each must still print what a
    fresh `gcirc` process prints for the same arguments."""

    CHECK = FIELD_165 + ["check", "--k", "5", "--g", "4", "--row"] + PAPER_ROW

    @staticmethod
    def footer_free(err: str) -> str:
        # the search footer carries the elapsed time; everything before it must match
        return err.rpartition("search done:")[0]

    def test_text_then_json(self, capsys):
        text = run(capsys, self.CHECK + ["--format", "text"])
        plain = run(capsys, self.CHECK)
        assert text[0] == plain[0] == 0
        assert text[1].startswith("mds: True") and json.loads(plain[1])["mds"] is True
        assert text == run_fresh(self.CHECK + ["--format", "text"])
        assert plain == run_fresh(self.CHECK)

    def test_verbose_search_then_plain(self, capsys, tmp_path):
        # a window across token 99999 gets exactly one -v progress line
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "field": {"m": 4, "poly": "0x13"},
            "k": 4,
            "target": "MDS_ONLY",
            "row_space": {"kind": "EXHAUSTIVE"},
            "resume_token": 99990,
            "stop_token": 100010,
        }))
        verbose = run(capsys, ["-v", "search", str(path)])
        plain = run(capsys, ["search", str(path)])
        assert "processed through token 99999" in verbose[2]
        assert "processed" not in plain[2]
        for argv, (code, out, err) in ((["-v", "search", str(path)], verbose),
                                       (["search", str(path)], plain)):
            f_code, f_out, f_err = run_fresh(argv)
            assert (code, out) == (f_code, f_out)
            assert self.footer_free(err) == self.footer_free(f_err)
            assert "search done: 20 candidates" in err

    def test_usage_error_then_valid(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["sqrt1"])
        bad = exc.value.code, *capsys.readouterr()
        good = run(capsys, ["sqrt1", "12"])
        assert bad[0] == 2 and "required" in bad[2]
        assert bad == run_fresh(["sqrt1"])
        assert good == run_fresh(["sqrt1", "12"])
        assert json.loads(good[1])["solutions"] == [1, 5, 7, 11]

    def test_parser_built_once(self, capsys):
        cli_mod._build_parser.cache_clear()
        calls = (["sqrt1", "8"], ["sqrt1", "9", "--format", "text"], ["repro", "ex-semiinv-2x2"])
        for argv in calls:
            assert run(capsys, argv)[0] == 0
        info = cli_mod._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_parser_not_built_at_import(self):
        probe = "import gcirc.cli as c; print(c._build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=gcirc_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"
