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
import gcirc.search as search_mod
from gcirc import jsonio, modular
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

    def test_long_degree_positioned(self, capsys):
        # int() refuses a degree of over 4300 digits with a plain ValueError
        code, _, err = run(
            capsys, FIELD_165 + ["build", "--k", "2", "--g", "1", "--row", "1", "a^" + "9" * 4400]
        )
        assert (code, err) == (
            2, "error: row element 1: term at position 0 has a 4400-digit degree, field degree is 8\n"
        )

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

    def test_g_not_coprime_to_k(self, capsys):
        code, out, err = run(
            capsys,
            ["--field-m", "4", "--field-poly", "0x13", "square", "--k", "4", "--g", "2",
             "--row", "1", "a", "a^2", "a^3"],
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["g2"] == 0 and payload["verified"] is True


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
        # 32 coprime g times 2^(16*64) rows: a window of over 1,000 bits
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 16, "poly": "0x1002b"},
                "k": 64,
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
        # the same window of over 1,000 bits: the bad token is named, the total is not printed
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 16, "poly": "0x1002b"},
                "k": 64,
                "target": "MDS_ONLY",
                "row_space": {"kind": "EXHAUSTIVE"},
                **tokens,
            },
        )
        code, out, err = run(capsys, ["search", path])
        assert code == 2 and out == ""
        assert named in err and len(err) < 200

    @pytest.mark.parametrize("k", [65, 8000, 3 * 10**7, 10**9])
    def test_oversized_order_refused_first(self, capsys, tmp_path, k):
        # refused before the g set is listed or the window computed, which
        # took seconds and memory at k = 3 * 10^7
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 2, "poly": "0x7"},
                "k": k,
                "target": "MDS_ONLY",
                "row_space": {"kind": "EXHAUSTIVE"},
                "resume_token": -1,
            },
        )
        code, out, err = run(capsys, ["search", path])
        assert (code, out, err) == (2, "", "error: dimensions capped at 64\n")

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

    def test_failed_recheck_exit_1(self, capsys, tmp_path, monkeypatch):
        # a g-block rule that drops a block holding hits, caught by debug_recheck
        monkeypatch.setattr(search_mod, "_g_pruned", lambda _job, _g: True)
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 4, "poly": "0x13"},
                "k": 2,
                "target": "INVOLUTORY_MDS",
                "row_space": {"kind": "EXHAUSTIVE"},
                "debug_recheck": 1.0,
            },
        )
        code, out, err = run(capsys, ["search", path])
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: pruning dropped a qualifying candidate: GCirculantSpec(")

    def test_recheck_tokens_above_2_64(self, capsys, tmp_path):
        # g = 1 with odd k is a pruned block, so debug_recheck rebuilds all 10 tokens
        path = self.job_path(
            tmp_path,
            {
                "field": {"m": 16, "poly": "0x1002b"},
                "k": 5,
                "target": "INVOLUTORY_MDS",
                "row_space": {"kind": "EXHAUSTIVE"},
                "resume_token": 1 << 70,
                "stop_token": (1 << 70) + 10,
                "debug_recheck": 1.0,
            },
        )
        code, out, err = run(capsys, ["search", path])
        assert (code, out) == (0, "")
        assert err.startswith("search done: 10 candidates, 0 results, ")

    def test_interrupt_prints_resume_token(self, capsys, tmp_path, monkeypatch):
        def interrupted(job, on_progress):
            start = job.window()[0]
            on_progress(start, start + 30)
            for token in range(start + 30, start + 40):
                on_progress(token, token + 1)
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


class TestRangeProgress:
    """run_search reports a range of tokens the filters skip with one call
    to the CLI hook's walked method; -v, the footer and --resume still
    count every token."""

    # GF(2^8), k = 5: g = 2, 3 fail g^2 = 1 (mod 5) and g = 1 forces an entry
    # to 0, so tokens 0..149999 are three pruned blocks, each one range
    JOB = {
        "field": {"m": 8, "poly": "0x11d"},
        "k": 5,
        "target": "INVOLUTORY_MDS",
        "row_space": {"kind": "RANDOM", "count": 50000, "seed": 16},
    }

    def search(self, capsys, tmp_path, *extra, **window):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({**self.JOB, **window}))
        return run(capsys, ["-v", "search", str(path), *extra])

    @staticmethod
    def progress_lines(err):
        return re.findall(r"^\.\.\.processed through token (\d+)$", err, re.M)

    def test_whole_job(self, capsys, tmp_path):
        code, out, err = self.search(capsys, tmp_path)
        assert code == 0
        assert self.progress_lines(err) == ["99999", "199999"]
        assert f"search done: 200000 candidates, {len(out.splitlines())} results, " in err

    @pytest.mark.parametrize(
        "start, stop",
        [(30000, 140000), (60000, 100000), (99999, 100000), (120000, 160000), (99999, 150000), (100000, 100000)],
    )
    def test_windows(self, capsys, tmp_path, start, stop):
        code, _, err = self.search(capsys, tmp_path, resume_token=start, stop_token=stop)
        assert code == 0
        expected = [str(t) for t in range(start, stop) if (t + 1) % 100000 == 0]
        assert self.progress_lines(err) == expected
        assert f"search done: {stop - start} candidates, 0 results, " in err

    def test_resume_inside_a_pruned_block(self, capsys, tmp_path):
        code, _, err = self.search(capsys, tmp_path, "--resume", "75000", stop_token=125000)
        assert code == 0
        assert self.progress_lines(err) == ["99999"]
        assert "search done: 50000 candidates, 0 results, " in err

    def test_interrupt_in_a_skipped_range(self, capsys, tmp_path, monkeypatch):
        # GF(16), k = 3: g = 1 is pruned and g = 2 builds every row with
        # row_at, so the n-th row_at call interrupts g = 2's walk between
        # hits, after the pruned block was reported as one range
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "field": {"m": 4, "poly": "0x13"},
            "k": 3,
            "target": "INVOLUTORY_MDS",
            "row_space": {"kind": "RANDOM", "count": 3000, "seed": 0},
            "g_set": [1, 2],
        }))
        argv = ["search", str(path)]
        _, whole, _ = run(capsys, argv)
        ordinals = [json.loads(line)["ordinal"] for line in whole.splitlines()]
        assert len(ordinals) >= 3
        row_at = search_mod.SearchJob.row_at
        # before the first row, at the first hit, just after it, between two hits, at the last row
        for n in (1, ordinals[0] + 1, ordinals[0] + 2, (ordinals[1] + ordinals[2]) // 2 + 1, 3000):
            calls = []

            def interrupt_nth(job, g, ordinal):
                calls.append(ordinal)
                if len(calls) == n:
                    raise KeyboardInterrupt
                return row_at(job, g, ordinal)

            monkeypatch.setattr(search_mod.SearchJob, "row_at", interrupt_nth)
            code, head, err = run(capsys, argv)
            monkeypatch.setattr(search_mod.SearchJob, "row_at", row_at)
            assert code == 130
            token = int(re.search(r"--resume (\d+)", err).group(1))
            assert 3000 <= token <= 3000 + n - 1, n
            _, tail, _ = run(capsys, argv + ["--resume", str(token)])
            assert head + tail == whole, n


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


    @pytest.mark.parametrize("part", ["1/2", "2/3"])
    def test_resume_inside_a_part(self, capsys, tmp_path, part):
        # the resumed run walks the rest of the interrupted part, not a
        # part of the rest of the window
        argv = self.job_argv(tmp_path, "--partition", part)
        _, whole, _ = run(capsys, argv)
        n_hits = len(whole.splitlines())
        assert n_hits > 3
        for n in (1, n_hits // 2, n_hits - 1):
            head = InterruptAfterLines(n)
            with contextlib.redirect_stdout(head):
                code = main(argv)
            err = capsys.readouterr().err
            assert code == 130
            assert f"resume with --partition {part} --resume " in err
            assert head.getvalue() + self.resumed_output(capsys, argv, err) == whole

    def test_resumed_part_prints_no_hit_of_the_next(self, capsys, tmp_path):
        # part 1/2 is tokens 0..7: resumed at 4 it walks 4..7, not 4..9
        path = tmp_path / "job.json"
        path.write_text(json.dumps(TestUsageErrors.JOB))
        _, second, _ = run(capsys, ["search", str(path), "--partition", "2/2"])
        _, resumed, _ = run(capsys, ["search", str(path), "--partition", "1/2", "--resume", "4"])
        assert [json.loads(line)["ordinal"] for line in resumed.splitlines()] == [6, 7]
        assert not set(resumed.splitlines()) & set(second.splitlines())


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
    """Each argument or input error exits 2, or 3 for a resource guard,
    with exactly one `error:` line on stderr."""

    FIELD = {"m": 2, "poly": "0x7"}
    JOB = {"field": FIELD, "k": 2, "target": "MDS_ONLY", "row_space": {"kind": "EXHAUSTIVE"}}
    SPEC = {"k": 3, "g": 2, "row": ["0x1", "0x2", "0x3"], "field": FIELD}
    CYCLIC_65 = {"k": 65, "rho": [(i + 1) % 65 for i in range(65)], "row": ["0x1"] + ["0x0"] * 64, "field": FIELD}

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["build", "--k", "2", "--g", "1", "--row", "1", "1"], 2,
             "--field-m and --field-poly are required for this command"),
            (["check"], 2, "check needs an input file or --k/--g/--row"),
            (["search", JOB, "--partition", "1-3"], 2, "--partition expects I/N, got '1-3'"),
            (["search", JOB, "--partition", "4/3"], 2, "partition index 4 outside 1..3"),
            (["repro", "ex-bogus"], 2,
             f"unknown example 'ex-bogus'; choose from {', '.join(gcirc.catalog.CASES)}"),
            (["--field-m", "2", "--field-poly", "0x7", "build", "--k", "0", "--g", "1", "--row", "1"], 2,
             "order must be >= 1, got 0"),
            (["check", {"k": 2, "rho": [1, 0], "row": ["0x1"], "field": FIELD}], 2,
             "rho and row must both have size k"),
            (["check", CYCLIC_65], 2, "dimensions capped at 64"),
            (["check", {"entries": [], "field": FIELD}], 2, "order must be >= 1, got 0"),
            (["check", {"entries": [["0x1", "0x0"], ["0x1"]], "field": FIELD}], 2,
             "matrix must be 2x2, row 1 has length 1"),
            (["check", {"entries": [["0x1", "0x0"]], "field": FIELD}], 2, "matrix must be 1x1, row 0 has length 2"),
            (["check", {"k": 2, "row": ["0x1", "0x0"], "field": FIELD}], 2, "spec JSON needs either 'g' or 'rho'"),
            (["check", {"k": 2, "g": 1, "rho": [1, 0], "row": ["0x1", "0x2"], "field": FIELD}], 2,
             "spec JSON sets both 'g' and 'rho'; give one"),
            (["check", {"k": 2, "g": 1, "row": ["0x1", "0x2"], "bogus": 1, "field": FIELD}], 2,
             "unknown spec key 'bogus'"),
            (["check", {"entries": [["0x1"]], "bogus": 1, "field": FIELD}], 2, "unknown matrix key 'bogus'"),
            (["check", {"entries": [["0x1"]], "g": 5, "field": FIELD}], 2, "unknown matrix key 'g'"),
            (["check", {"k": 2, "g": 1, "row": ["0x1", "0x2"], "field": {**FIELD, "modulus": "0x19"}}], 2,
             "unknown field key 'modulus'"),
            (["search", {**JOB, "field": {**FIELD, "modulus": "0x19"}}], 2,
             "malformed job: unknown field key 'modulus'"),
            (["search", {**JOB, "row_space": {"kind": "RANDOM", "count": 3, "seed": 1 << 64}}], 2,
             "seed must fit in 64 bits"),
            (["search", {**JOB, "row_space": {"kind": "RANDOM", "count": (1 << 64) + 1, "seed": 1}}], 2,
             "RANDOM count must be at most 2^64"),
            (["search", {**JOB, "k": 0}], 2, "order must be >= 1, got 0"),
            (["search", {**JOB, "debug_recheck": 1.5}], 2, "debug_recheck must be a fraction in [0, 1]"),
            # several bad keys: the first in reading order is named
            (["search", {**JOB, "g_set": [1.5], "k": 2.5, "pruning": 0}], 2,
             "'g_set' must be a list of integers, got 1.5"),
            (["search", {**JOB, "k": 2.5, "resume_token": "0", "debug_recheck": "x"}], 2,
             "'k' must be an integer, got 2.5"),
            (["search", {**JOB, "stop_token": 1.0, "pruning": 0, "debug_recheck": True}], 2,
             "'stop_token' must be an integer, got 1.0"),
            (["search", {**JOB, "prune_power_of_two": 1, "debug_recheck": None}], 2,
             "'prune_power_of_two' must be true or false, got 1"),
            (["search", {**JOB, "row_space": {"kind": "RANDOM", "count": 1.0, "seed": 1.0}, "g_set": "x"}], 2,
             "'count' must be an integer, got 1.0"),
            (["sqrt1", "1"], 2, "modulus must be >= 2, got 1"),
            (["sqrt1", "1099511627776"], 3, "modulus 1099511627776 exceeds the 2^32 cap"),
            # part 1/2 is tokens 0..7; 8 is its end, where nothing is left to walk
            (["search", JOB, "--partition", "1/2", "--resume", "9"], 2,
             "resume token 9 outside part 1/2's tokens 0..8"),
            (["search", JOB, "--partition", "2/2", "--resume", "7"], 2,
             "resume token 7 outside part 2/2's tokens 8..16"),
            (["--field-m", "8", "--field-poly", "0x11d", "search", JOB], 2,
             "--field-m and --field-poly do not apply to a job file; its field block sets the field"),
            (["search", JOB, "--field-m", "2"], 2,
             "--field-m and --field-poly do not apply to a job file; its field block sets the field"),
            (["--field-m", "8", "--field-poly", "0x11d", "check", SPEC], 2,
             "--field-m and --field-poly do not apply to a check input file; its field block sets the field"),
            (["check", SPEC, "--k", "3", "--g", "2", "--row", "1", "a", "a^2"], 2,
             "check takes an input file or --k/--g/--row, not both"),
            # the spec's order is bounded before its row length is compared
            (["--field-m", "2", "--field-poly", "0x7", "build", "--k", "65", "--g", "1", "--row", "1"], 2,
             "dimensions capped at 64"),
            (["--field-m", "4", "--field-poly", "0x12", "build", "--k", "1", "--g", "0", "--row", "1"], 2,
             "modulus 0x12 is reducible"),
        ],
    )
    def test_exact_message(self, capsys, tmp_path, argv, code, line):
        # a dict argument is written to a file and passed as its path
        for n, arg in enumerate(argv):
            if isinstance(arg, dict):
                (tmp_path / f"{n}.json").write_text(json.dumps(arg))
        argv = [str(tmp_path / f"{n}.json") if isinstance(a, dict) else a for n, a in enumerate(argv)]
        assert run(capsys, argv) == (code, "", f"error: {line}\n")

    def test_long_input_excerpted(self, capsys, tmp_path):
        # the message names a long literal or value by its head and length
        path = tmp_path / "check.json"
        path.write_text(json.dumps({"k": 2, "g": 1, "row": ["0x1", "0x0"], "field": {"m": "1" * 100000, "poly": "0x7"}}))
        job = tmp_path / "job.json"
        job.write_text(json.dumps(self.JOB))
        huge = 10**4000
        stop_job = tmp_path / "stop_job.json"
        stop_job.write_text(json.dumps({**self.JOB, "stop_token": huge}))
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"k": huge, "entries": [["0x1"]], "field": self.FIELD}))
        for argv, want in ((FIELD_165 + ["build", "--k", "2", "--g", "1", "--row", "1", "0x" + "f" * 5000], 2),
                           (["check", str(path)], 2),
                           (["search", str(job), "--partition", "1/2", "--resume", str(huge)], 2),
                           (["search", str(job), "--resume", str(huge)], 2),
                           (["search", str(job), "--resume", str(-huge)], 2),
                           (["search", str(stop_job)], 2),
                           (["search", str(job), "--partition", f"{huge}/3"], 2),
                           (["check", str(matrix)], 2),
                           (["sqrt1", str(huge)], 3),
                           (["sqrt1", str(-huge)], 2)):
            code, out, err = run(capsys, argv)
            assert (code, out, err.count("\n")) == (want, "", 1), argv[:3]
            assert err.startswith("error: ") and len(err.encode()) <= 200, err[:300]
        # library checks that no command reaches with such a value excerpt it too
        ctx = gcirc.GF2m(2, 0x7)
        for call in (lambda: search_mod.job_part(jsonio.job_from_json(self.JOB), huge, huge),
                     lambda: modular.factorize(huge),
                     lambda: modular.crt_sqrt_one_solutions(-huge),
                     lambda: modular.mod_inverse(2 * huge, 4 * huge),
                     lambda: gcirc.Matrix(ctx, [[1 << 20000]])):
            with pytest.raises(ValueError) as info:
                call()
            assert len(f"error: {info.value}\n".encode()) <= 200, str(info.value)[:300]
        # argparse's own line for a bad integer argument, excerpted the same way
        bad = "9" * 4999 + "x"
        for argv, last in ((FIELD_165 + ["build", "--k", bad, "--g", "1", "--row", "1"], "gcirc build: error: argument --k"),
                           (FIELD_165 + ["build", "--k", "1", "--g", bad, "--row", "1"], "gcirc build: error: argument --g"),
                           (["search", str(job), "--resume", bad], "gcirc search: error: argument --resume"),
                           (["search", str(job), "--seed", bad], "gcirc search: error: argument --seed"),
                           (["--field-m", bad, "sqrt1", "5"], "gcirc: error: argument --field-m"),
                           (["--field-poly", "0x" + "f" * 4999 + "z", "sqrt1", "5"], "gcirc: error: argument --field-poly"),
                           (["sqrt1", bad], "gcirc sqrt1: error: argument k")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            line = err.splitlines()[-1]
            assert (exc.value.code, out) == (2, "")
            assert line.startswith(f"{last}: invalid int value: '") and len(line.encode()) <= 200, line[:300]
        # a short bad value is named in full, by the same line for every integer argument
        for argv, last in ((["search", str(job), "--resume", "1.5"], "gcirc search: error: argument --resume: invalid int value: '1.5'"),
                           (["--field-poly", "zz", "sqrt1", "5"], "gcirc: error: argument --field-poly: invalid int value: 'zz'")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert (exc.value.code, capsys.readouterr().err.splitlines()[-1]) == (2, last)


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
