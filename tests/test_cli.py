"""Command-line interface, driven in-process through main(argv)."""

import json
import sys
from importlib.metadata import (
    EntryPoint,
    PackageNotFoundError,
    distribution,
    entry_points,
)
from pathlib import Path

import pytest

from endpoint_uniform import (
    CSV_HEADER,
    amn_table,
    from_offset,
    leading_order,
)
from endpoint_uniform import cli
from endpoint_uniform.cli import main

SCRIPT = "endpoint-uniform"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_scripts():
    """[project.scripts] as pyproject.toml in this checkout declares it."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _installed(name):
    try:
        distribution(name)
    except PackageNotFoundError:
        return False
    return True


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_leading_matches_library_bit_for_bit(self, capsys):
        code, out, err = run(
            capsys, "eval", "--t", "1e5", "--Lambda", "0.4",
            "--method", "leading",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["subcommand"] == "eval"
        expect = leading_order(from_offset(1e5, 0.5, 0.5, 0.4)).value
        assert payload["result"]["re"] == expect.real
        assert payload["result"]["im"] == expect.imag
        assert payload["result"]["method"] == "LeadingOrder"

    def test_flags_are_echoed(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--t", "1e5", "--Lambda", "0.4",
            "--method", "leading", "--tol", "1e-8",
        )
        flags = json.loads(out)["flags"]
        assert flags["t"] == 1e5
        assert flags["Lambda"] == 0.4
        assert flags["tol"] == 1e-8
        assert flags["delta"] == 0.5
        assert "func" not in flags

    def test_missing_lambda_is_parameter_error(self, capsys):
        code, out, err = run(capsys, "eval", "--t", "1e5",
                             "--method", "leading")
        assert code == 1 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "InvalidParam"
        assert "lambda" in msg["message"].lower()

    def test_conflicting_lambda_flags(self, capsys):
        code, _, err = run(
            capsys, "eval", "--t", "1e5", "--lambda", "0.01",
            "--Lambda", "0.5", "--method", "leading",
        )
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"

    def test_unknown_method_choice(self, capsys):
        code, _, err = run(
            capsys, "eval", "--t", "1e5", "--Lambda", "0.4",
            "--method", "bogus",
        )
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"

    def test_regime_mismatch_is_parameter_error(self, capsys):
        # omega = 0 at the critical point, below the large-omega threshold
        code, _, err = run(
            capsys, "eval", "--t", "1e5", "--Lambda", "0",
            "--method", "large-omega",
        )
        assert code == 1
        assert json.loads(err)["error"] == "RegimeMismatch"

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--t", "1e5", "--Lambda", "0.4",
            "--method", "leading", "--format", "text",
        )
        assert code == 0
        lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
        assert set(lines) >= {"re", "im", "method", "regime"}

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "eval", "--t", "1e5", "--Lambda", "0.4",
            "--method", "leading", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["subcommand"] == "eval"


class TestOracle:
    def test_whole_result_schema(self, capsys):
        code, out, _ = run(capsys, "oracle", "--t", "1e4", "--Lambda", "0.5")
        assert code == 0
        res = json.loads(out)["result"]
        assert {"re", "im", "abs_err", "truncation_bound", "panels"} <= set(res)

    def test_panel_cap_forces_nonconvergence(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--t", "1e4", "--Lambda", "0.5",
            "--panel-cap", "3",
        )
        assert code == 2
        assert json.loads(err)["error"] == "NonConvergence"

    def test_piece_jb2(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--t", "1e4", "--Lambda", "0.5",
            "--piece", "jb2",
        )
        assert code == 0
        assert json.loads(out)["piece"] == "jb2"


class TestCompare:
    def test_result_keys_and_small_error(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--t", "1e4", "--Lambda", "0.5",
            "--method", "leading",
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert {"approx_re", "approx_im", "oracle_re", "oracle_im",
                "abs_err", "rel_err", "budget", "error"} == set(res)
        assert res["rel_err"] < 0.05
        assert res["error"] == ""

    @pytest.mark.parametrize("argv, name", [
        (("--t", "1e6", "--Lambda", "0.5", "--sigma", "0.75",
          "--method", "all-orders"), "SigmaUnsupported"),
        (("--t", "1e4", "--Lambda", "0.001", "--method", "large-omega"),
         "RegimeMismatch"),
    ])
    def test_parameter_error_keeps_its_type(self, capsys, argv, name):
        # same typed error and exit code as eval on the same point
        code, _, err = run(capsys, "compare", *argv)
        assert code == 1
        assert json.loads(err)["error"] == name


class TestSweep:
    def test_csv_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "sweep", "--t", "1e4", "--method", "leading",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        status = json.loads(out)
        assert status["rows"] == 1
        assert status["out"] == str(path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER

    def test_config_file(self, capsys, tmp_path):
        cfg = {
            "t_grid": [1e4, 1e5],
            "lambda_spec": {"kind": "omega", "values": [0.5]},
            "methods": ["leading", "corollary"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        assert json.loads(out)["rows"] == 4

    def test_config_file_csv_to_stdout(self, capsys, tmp_path):
        cfg = {"t_grid": [1e4], "methods": ["leading"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg_path),
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_needs_t_or_config(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"


class TestTerms:
    def test_table_dump_matches_library(self, capsys):
        code, out, _ = run(capsys, "terms", "--N", "2")
        assert code == 0
        table = json.loads(out)["table"]
        assert table["level"] == 2
        assert table["entries"] == amn_table(2).as_strings()

    def test_term_values(self, capsys):
        code, out, _ = run(
            capsys, "terms", "--t", "3e4", "--Lambda", "0.6",
            "--j-max", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert [term["j"] for term in payload["terms"]] == [1, 2]
        assert {"re", "im", "bound", "k", "a"} == set(payload["series"])

    def test_needs_something(self, capsys):
        code, _, err = run(capsys, "terms")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "FresnelAsym")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["suite"] == "FresnelAsym"

    def test_unknown_suite_choice(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "Nope")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"

    def test_console_script_is_wired(self, capsys, monkeypatch):
        scripts = _declared_scripts()
        assert scripts.get(SCRIPT) == "endpoint_uniform.cli:entry"
        # resolve the declared value the way an installer does
        target = EntryPoint(SCRIPT, scripts[SCRIPT], "console_scripts").load()
        assert target is cli.entry
        monkeypatch.setattr(sys, "argv", [SCRIPT])
        with pytest.raises(SystemExit) as exc:
            target()
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidParam"

    @pytest.mark.skipif(not _installed(SCRIPT),
                        reason=f"distribution {SCRIPT} is not installed")
    def test_installed_console_script_matches_pyproject(self):
        eps = entry_points(group="console_scripts")
        installed = {ep.name: ep.value for ep in eps}
        assert installed.get(SCRIPT) == _declared_scripts()[SCRIPT]
