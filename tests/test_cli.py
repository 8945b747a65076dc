import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import isoprod
import isoprod.cli as cli
from isoprod.cli import (
    CaseFileError,
    case_file_json,
    case_to_file,
    main,
    parse_case_file,
)
from isoprod import InvariantFactors, builtin_case

# A valid case with composite k = 4, outside the cocycle method's scope.
COMPOSITE_K = {"group_orders": [4], "phi": [[1], [1], [1], [1]], "psi": [[1], [3], [1], [3]]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCaseFile:
    def test_round_trip_of_builtin(self):
        text = case_file_json(case_to_file(builtin_case(3)))
        cf = parse_case_file(text)
        assert cf.group_orders == (3, 3)
        assert len(cf.phi) == 4 and len(cf.psi) == 4

    def test_malformed_json_positions(self):
        with pytest.raises(CaseFileError, match=r"line \d+ column \d+"):
            parse_case_file("{\n  broken\n}")

    def test_unknown_key_rejected(self):
        with pytest.raises(CaseFileError, match="unknown key"):
            parse_case_file('{"group_orders": [2], "phi": [], "psi": [], "extra": 1}')

    def test_missing_key_rejected(self):
        with pytest.raises(CaseFileError, match="missing key"):
            parse_case_file('{"group_orders": [2], "phi": []}')

    def test_vector_shape_mismatch_named(self):
        doc = '{"group_orders": [2, 2, 2], "phi": [[1, 0]], "psi": []}'
        with pytest.raises(CaseFileError, match=r"phi\[0\]: expected 3 entries"):
            parse_case_file(doc)

    def test_group_order_below_two_rejected(self):
        doc = '{"group_orders": [2, 1], "phi": [[1, 0]], "psi": [[1, 0]]}'
        with pytest.raises(CaseFileError, match=r"group_orders\[1\]: .*>= 2, got 1"):
            parse_case_file(doc)

    def test_non_integer_entries_rejected(self):
        doc = '{"group_orders": [2, 2], "phi": [[1, "x"]], "psi": []}'
        with pytest.raises(CaseFileError, match="integers"):
            parse_case_file(doc)


class TestCommands:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("case 1: G = (Z/2)^3")

    def test_compute_both_methods(self, capsys):
        code, out, err = run_cli(capsys, "compute", "2", "--method", "both")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "case: case 2 (G = (Z/2)^4)"
        expected = "Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4"
        assert lines[1] == f"paper:  {expected}"
        assert lines[2] == f"oracle: {expected}"

    def test_compute_single_method(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "4", "--method", "paper")
        assert code == 0
        assert "oracle" not in out
        assert "Z/5 ⊕ Z/5 ⊕ Z/5" in out

    def test_compute_json_deterministic(self, capsys):
        code, first, _ = run_cli(capsys, "compute", "1", "--json")
        assert code == 0
        code, second, _ = run_cli(capsys, "compute", "1", "--json")
        assert first == second
        doc = json.loads(first)
        assert doc["methods"]["paper"]["torsion"] == [2, 2, 2, 2, 4, 4]
        assert doc["methods"]["oracle"] == doc["methods"]["paper"]

    def test_verify_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all("MATCH" in line for line in lines)

    def test_verify_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "3")
        assert code == 0
        assert out.splitlines() == ["case 3: MATCH  Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3"]

    def test_verify_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "9")
        assert code == 2
        assert "unknown case id" in err

    def test_export_then_compute_round_trips(self, capsys, tmp_path):
        for case_id in ("1", "2", "3", "4"):
            code, exported, _ = run_cli(capsys, "export", case_id, "--format", "json")
            assert code == 0
            path = tmp_path / f"case{case_id}.json"
            path.write_text(exported, encoding="utf-8")
            code, from_file, _ = run_cli(capsys, "compute", str(path))
            assert code == 0
            code, from_builtin, _ = run_cli(capsys, "compute", case_id)
            assert from_file == from_builtin

    def test_export_text(self, capsys):
        code, out, _ = run_cli(capsys, "export", "1", "--format", "text")
        assert code == 0
        assert "a5 -> e2 + e3" in out
        assert "b6 -> e1 + e2 + e3" in out

    def test_export_requires_builtin_id(self, capsys):
        code, _, err = run_cli(capsys, "export", "nope")
        assert code == 2
        assert "builtin case id" in err


class TestFailureModes:
    def test_nonfree_case_warns_but_computes(self, capsys, tmp_path):
        case = builtin_case(3)
        doc = {
            "group_orders": [3, 3],
            "phi": [list(img.coeffs) for img in case.phi.images],
            "psi": [list(img.coeffs) for img in case.phi.images],  # psi = phi: not free
            "label": "self-paired",
        }
        path = tmp_path / "nonfree.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "compute", str(path))
        assert code == 0
        assert "action not free" in err
        assert "paper:" in out and "oracle:" in out

    def test_method_disagreement_exits_one(self, capsys, monkeypatch):
        import isoprod.cli as cli

        monkeypatch.setattr(cli, "kernel_h1", lambda phi, psi: InvariantFactors((7,)))
        code, out, err = run_cli(capsys, "compute", "4")
        assert code == 1 and err == "error: methods disagree\n"
        assert out.splitlines()[1:] == ["paper:  Z/5 ⊕ Z/5 ⊕ Z/5", "oracle: Z/7"]
        code, out, _ = run_cli(capsys, "verify", "3", "4")
        assert code == 1
        assert out.splitlines() == [
            "case 3: MISMATCH  cocycle=Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3  oracle=Z/7",
            "case 4: MISMATCH  cocycle=Z/5 ⊕ Z/5 ⊕ Z/5  oracle=Z/7",
        ]

    def test_invalid_case_exits_one(self, capsys, tmp_path):
        doc = {
            "group_orders": [2, 2],
            "phi": [[1, 0], [1, 0], [1, 0]],  # product nonzero
            "psi": [[1, 0], [0, 1], [1, 1]],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 1
        assert "error:" in err

    def test_empty_phi_is_validation_error(self, capsys, tmp_path):
        doc = {"group_orders": [2, 2], "phi": [], "psi": [[1, 0], [0, 1], [1, 1]]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 1
        assert "empty generating system" in err

    def test_composite_k_both_runs_oracle_and_says_why(self, capsys, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(COMPOSITE_K), encoding="utf-8")
        code, out, err = run_cli(capsys, "compute", str(path))
        assert code == 0
        assert "cocycle method skipped" in err and "needs prime k" in err
        assert "paper:" not in out
        assert "oracle: Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4" in out

    def test_composite_k_paper_alone_exits_one(self, capsys, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(COMPOSITE_K), encoding="utf-8")
        code, out, err = run_cli(capsys, "compute", str(path), "--method", "paper")
        assert code == 1
        assert "needs prime k" in err and out == ""

    def test_group_order_below_two_exits_two(self, capsys, tmp_path):
        path = tmp_path / "order1.json"
        doc = {"group_orders": [1], "phi": [[0], [0], [0]], "psi": [[0], [0], [0]]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 2
        assert "group_orders[0]" in err

    @pytest.mark.parametrize("method", ["paper", "oracle", "both"])
    def test_fewer_than_three_images_fails_for_every_method(self, capsys, tmp_path, method):
        path = tmp_path / "two.json"
        doc = {"group_orders": [3], "phi": [[1], [2]], "psi": [[1], [1], [1]]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "compute", str(path), "--method", method)
        assert (code, out, err) == (1, "", "error: need at least 3 images, got 2\n")

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[" * 100000, "nested too deeply"),
            (b'{"group_orders": [3], "label": "\xff"}', "not UTF-8"),
            (b'{"group_orders": [' + b"1" * 5000 + b'], "phi": [], "psi": []}', "4300 digits"),
        ],
        ids=["deep-nesting", "non-utf8", "long-integer"],
    )
    def test_unreadable_case_file_exits_two(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "compute", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_parse_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 2
        assert "line 1" in err

    def test_unknown_case_argument_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "compute", "7")
        assert code == 2
        assert "not a case id" in err

    @pytest.mark.parametrize("argv", [("compute", "5"), ("export", "0"), ("verify", "9")])
    def test_out_of_catalog_id_names_the_range(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "1..4" in err

    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["compute", "1", "--method", "bogus"]) == 2
        capsys.readouterr()


# A sequence that changes subcommand, options and exit code from call to call.
REUSE_SEQUENCE = [
    ["compute", "1", "--json"],
    ["compute", "1", "--method", "paper"],
    ["compute"],
    ["verify", "9"],
    ["export", "3", "--format", "text"],
    ["compute", "1"],
]

# Runs each command first thing after a fresh import of isoprod.
FRESH_IMPORT_SCRIPT = """
import importlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
results = []
for argv in json.loads(sys.argv[2]):
    for name in [m for m in sys.modules if m == "isoprod" or m.startswith("isoprod.")]:
        del sys.modules[name]
    cli = importlib.import_module("isoprod.cli")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


class TestParserReuse:
    """main() builds its parser once per process; no call may see another's options."""

    def test_same_results_as_fresh_imports(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
        src = str(Path(isoprod.__file__).resolve().parent.parent)
        fresh = subprocess.run(
            [sys.executable, "-c", FRESH_IMPORT_SCRIPT, src, json.dumps(REUSE_SEQUENCE)],
            capture_output=True, text=True, check=True,
        )
        expected = json.loads(fresh.stdout)
        monkeypatch.setattr(cli, "_parser", None)
        reused = [captured_main(argv) for argv in REUSE_SEQUENCE]
        assert reused == expected
        assert [code for code, _, _ in reused] == [0, 0, 2, 2, 0, 0]
        assert reused[1][1].startswith("case:") and "oracle:" not in reused[1][1]
        assert "oracle:" in reused[5][1] and "paper:" in reused[5][1]

    def test_one_parser_for_many_calls(self, monkeypatch, capsys):
        built = []
        original_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "isoprod":  # subcommand parsers get "isoprod <name>"
                built.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "_parser", None)
        for argv in (["list"], ["compute", "3", "--method", "paper"], ["export", "2"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(built) == 1
        assert cli._parser is built[0]
        assert cli.build_parser() is not cli.build_parser()  # still a factory


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "isoprod", "verify", "--all"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.count("MATCH") == 4
