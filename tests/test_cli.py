"""Command-line interface, driven in-process through main(argv)."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from importlib.metadata import (
    EntryPoint,
    PackageNotFoundError,
    distribution,
    entry_points,
)
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from endpoint_uniform import (
    CSV_HEADER,
    ProblemParams,
    all_orders,
    amn_table,
    choose_split,
    derive,
    from_offset,
    jb1_oracle,
    jb_oracle,
    jtilde_oracle,
    leading_order,
    select_phi,
    split_from_a,
)
from endpoint_uniform import cli, harness, ibp, phase
from endpoint_uniform.cli import main
from endpoint_uniform.ibp import MAX_TABLE_LEVEL

SCRIPT = "endpoint-uniform"
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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
            "--method", "all-orders", "--m", "5",
        )
        flags = json.loads(out)["flags"]
        assert flags["t"] == 1e5
        assert flags["Lambda"] == 0.4
        assert flags["m"] == 5
        assert flags["delta"] == 0.5
        assert "func" not in flags

    def test_order_above_the_table_cap_is_refused_by_name(self, capsys, monkeypatch):
        # term m-3 reads the level-(m-4) table, so m = MAX_TABLE_LEVEL + 4 is
        # the last order; above it no term is formed
        monkeypatch.setattr(ibp, "_operator", lambda *args: pytest.fail("term formed"))
        code, out, err = run(capsys, "eval", "--method", "all-orders", "--m", "100",
                             "--t", "1e4", "--Lambda", "0.5")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "OrderViolation",
            "message": f"expansion order m must lie in [4, {MAX_TABLE_LEVEL + 4}], got 100"}

    def test_oracle_method_is_refused(self, capsys):
        # the direct quadrature runs as oracle --piece whole
        code, out, err = run(
            capsys, "eval", "--t", "1e5", "--Lambda", "0.4",
            "--method", "oracle",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidParam"

    def test_missing_lambda_is_parameter_error(self, capsys):
        code, out, err = run(capsys, "eval", "--t", "1e5",
                             "--method", "leading")
        assert code == 1 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "InvalidParam"
        assert "lambda" in msg["message"].lower()

    @pytest.mark.parametrize("flags", [("--t", "3.9"), ("--t", "1e4", "--delta", "0.99")],
                             ids=["t-3.9", "delta-0.99"])
    def test_empty_lambda_window_is_parameter_error(self, capsys, flags):
        # t^(1-delta) < 2 leaves the window [lambda_c, t^(1-delta) - 1] empty
        code, out, err = run(capsys, "eval", *flags, "--Lambda", "0", "--method", "leading")
        assert code == 1 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "InvalidParam"
        assert "admit no lambda" in msg["message"]

    def test_infinite_offset_is_parameter_error_naming_it(self, capsys):
        # it was refused as "lambda must be finite and > 0, got inf"
        code, out, err = run(capsys, "eval", "--t", "1e4", "--Lambda", "inf",
                             "--method", "leading")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "InvalidParam",
                                   "message": "Lambda must be finite, got inf"}

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

    def test_all_orders_applies_split_exponent(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--t", "1e6", "--Lambda", "0.5",
            "--method", "all-orders", "--b", "0.44",
        )
        assert code == 0
        p = from_offset(1e6, 0.5, 0.5, 0.5)
        split = choose_split(p, 4, 0.44)
        assert json.loads(out)["result"] == all_orders(p, 4, split).as_dict()
        assert json.loads(out)["result"] != all_orders(p, 4).as_dict()

    def test_all_orders_rejects_split_exponent_outside_sandwich(self, capsys):
        code, out, err = run(
            capsys, "eval", "--t", "1e6", "--Lambda", "0.5",
            "--method", "all-orders", "--b", "0.40",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidSplit"

    def test_overflowing_order_is_numerical_error(self, capsys):
        # the remainder bound at order 2m - 2 = 126 is about 1e367
        code, out, err = run(
            capsys, "eval", "--t", "1e4", "--Lambda", "0.5",
            "--method", "all-orders", "--m", "64",
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "NumericalError",
            "message": "remainder bound at order N=126 overflows a double at t=10000"}

    def test_high_order_reports_its_remainder_bound(self, capsys):
        # at order 2m - 2 = 94 the bound is about 1.9e261: t^-94 alone
        # underflows, and the bound must not come out as 0
        code, out, _ = run(
            capsys, "eval", "--t", "1e4", "--Lambda", "0.5",
            "--method", "all-orders", "--m", "48",
        )
        assert code == 0
        bound = json.loads(out)["result"]["error_budget"]["R-term"]
        assert bound == pytest.approx(1.9030671238819798e261, rel=1e-12)

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

    def test_whole_matches_library_bit_for_bit(self, capsys):
        code, out, err = run(capsys, "oracle", "--piece", "whole",
                             "--t", "1e5", "--Lambda", "0.4")
        assert code == 0 and err == ""
        expect = jb_oracle(from_offset(1e5, 0.5, 0.5, 0.4)).as_dict()
        assert json.loads(out)["result"] == expect

    def test_panel_cap_forces_nonconvergence(self, capsys):
        # the CLI's exit-2 path: at t = 1e12 the quadrature stops at its
        # roundoff floor, well below the panel cap
        code, out, err = run(capsys, "oracle", "--t", "1e12", "--Lambda", "0")
        assert code == 2 and out == ""
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

    @pytest.mark.parametrize("Lam", ["0", "0.5", "10"])
    @pytest.mark.parametrize("method", ["leading", "all-orders", "corollary"])
    def test_converges_at_t_1e10(self, capsys, method, Lam):
        # each row compares with the oracle at --tol, which the z-frame
        # oracle meets here, not at a tolerance below its phase floor
        code, out, err = run(capsys, "compare", "--t", "1e10", "--Lambda", Lam,
                             "--method", method)
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["error"] == ""

    def test_no_budget_is_null_in_json_and_nan_in_csv(self, capsys):
        argv = ("compare", "--t", "1e6", "--Lambda", "0.5", "--method", "leading")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["result"]["budget"] is None
        code, out, _ = run(capsys, *argv, "--format", "csv")
        row, = csv.DictReader(io.StringIO(out))
        assert code == 0 and row["budget"] == "nan"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ("eval", "--method", "leading"), ("eval", "--method", "all-orders"),
    ("eval", "--method", "corollary"), ("oracle",),
    ("compare", "--method", "leading"), ("compare", "--method", "large-omega"),
    ("compare", "--method", "all-orders"), ("compare", "--method", "corollary"),
    ("terms", "--j-max", "3"),
], ids=" ".join)
def test_json_output_has_no_nan_or_infinity(capsys, argv):
    # RFC 8259 has no NaN or Infinity; verify keeps its NaN margin, which
    # test_a_nan_margin_anywhere_exits_2 pins
    code, out, _ = run(capsys, *argv, "--t", "1e6", "--Lambda", "0.5")
    assert code == 0
    json.loads(out, parse_constant=_refuse_constant)


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

    def test_overflowing_order_fails_only_its_rows(self, capsys, tmp_path):
        # the remainder bound at order 2m - 2 = 104 fits at t = 1e4, not at 1e6
        cfg = {"t_grid": [1e4, 1e6], "methods": ["leading", "all-orders"], "m_order": 53}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg_path), "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["method"], r["error"].split(":")[0]) for r in rows] == [
            ("leading", ""), ("all-orders", ""),
            ("leading", ""), ("all-orders", "NumericalError")]

    def test_needs_t_or_config(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"

    @pytest.mark.parametrize("grid_flag", [
        ("--method", "oracle"), ("--t", "1e4"), ("--Lambda", "0.5"),
        ("--delta", "0.5"), ("--tol", "1e-8"), ("--m", "5"),
    ], ids=lambda flag: flag[0])
    def test_config_refuses_grid_flags(self, capsys, grid_flag):
        config = str(ROOT / "configs" / "large_omega_gap.json")
        code, out, err = run(capsys, "sweep", "--config", config, *grid_flag)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidParam"


# The configs' sweep CSVs, as written by `sweep --config configs/<name>.json
# --format csv` before the sweep became one serial loop.
PINNED_CSVS = sorted((ROOT / "tests" / "data").glob("*.csv"))
TEXT_COLUMNS = ("t", "delta", "sigma", "lambda", "Lambda", "omega", "method", "m",
                "a", "runtime_ms", "error")
VALUE_COLUMNS = ("approx_re", "approx_im", "oracle_re", "oracle_im", "abs_err", "budget")


def _same_number(got: str, want: str, tol: float) -> bool:
    if want == "nan":
        return got == "nan"
    return abs(float(got) - float(want)) <= tol


@pytest.mark.parametrize("pinned", PINNED_CSVS, ids=lambda path: path.stem)
def test_config_sweeps_match_their_pinned_csv(capsys, pinned):
    # the ~t-sized phase turns a last-ulp libm difference between numpy builds
    # into ~t eps relative, so the numbers get 1e-6 of the row's |oracle|
    config = ROOT / "configs" / f"{pinned.stem}.json"
    code, out, err = run(capsys, "sweep", "--config", str(config), "--format", "csv")
    assert code == 0 and err == ""
    got = list(csv.DictReader(io.StringIO(out)))
    want = list(csv.DictReader(io.StringIO(pinned.read_text())))
    assert out.splitlines()[0] == CSV_HEADER and len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert [g[c] for c in TEXT_COLUMNS] == [w[c] for c in TEXT_COLUMNS]
        scale = abs(complex(float(w["oracle_re"]), float(w["oracle_im"])))
        for c in VALUE_COLUMNS:
            assert _same_number(g[c], w[c], 1e-6 * scale), (c, g[c], w[c])
        assert _same_number(g["rel_err"], w["rel_err"], 1e-6), (g["rel_err"], w["rel_err"])


# `verify --suite all` with the default config.  Its contour-scan records are
# checked against mpmath below, not only against this program's own output.
PINNED_VERIFY = ROOT / "tests" / "data" / "verify_all.json"


def test_default_verify_matches_its_pinned_report(capsys):
    # CovDecomposition's two residuals are both roundoff (~4e-17), so which of
    # its points is worst may flip; its margin gets 1e-15.  Every other suite
    # matches exactly
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert code == 0 and err == ""
    got, want = json.loads(out), json.loads(PINNED_VERIFY.read_text())
    assert got["pass"] is want["pass"] is True
    assert [r["suite"] for r in got["reports"]] == [r["suite"] for r in want["reports"]]
    for g, w in zip(got["reports"], want["reports"]):
        if w["suite"] == "CovDecomposition":
            assert g["pass"] == w["pass"]
            assert abs(g["worst_margin"] - w["worst_margin"]) <= 1e-15
        else:
            assert g == w


def _pinned_worst(suite):
    reports = json.loads(PINNED_VERIFY.read_text())["reports"]
    (rep,) = [r for r in reports if r["suite"] == suite]
    return rep["worst_margin"], rep["worst_point"], rep["grid"]["delta"]


def _pinned_z(point):
    # the sample point in doubles, formed as the scan forms it
    phi = select_phi(point["lambda"])
    return complex((1.0 - point["k"]) + point["R"] * np.exp(1j * phi)), phi


def test_pinned_im_f_margin_matches_mpmath():
    # Im F(z; lambda) at the pinned worst sample, F = (1-z) log(1-z) + z log z
    # + z log lambda, at 30 digits
    margin, point, _delta = _pinned_worst("ImFNonneg")
    z, _phi = _pinned_z(point)
    with mp.workdps(30):
        zm = mp.mpc(z)
        f = (1 - zm) * mp.log(1 - zm) + zm * mp.log(zm) + zm * mp.log(mp.mpf(point["lambda"]))
        assert abs(margin - f.imag) <= 1e-9 * abs(f.imag)


def test_pinned_phase_bound_margin_matches_mpmath():
    # |F'(z; lambda)| - min(pi/2 - phi, log(t^(delta-1)/k)), with F' = log z
    # - log(1-z) + log lambda, at 30 digits
    margin, point, delta = _pinned_worst("PhaseLowerBound")
    z, phi = _pinned_z(point)
    with mp.workdps(30):
        zm = mp.mpc(z)
        d_f = mp.log(zm) - mp.log(1 - zm) + mp.log(mp.mpf(point["lambda"]))
        p_end = mp.mpf(point["t"]) ** (mp.mpf(delta) - 1)
        bound = min(mp.pi / 2 - mp.mpf(phi), mp.log(p_end / mp.mpf(point["k"])))
        want = abs(d_f) - bound
        assert abs(margin - want) <= 1e-9 * abs(want)


def test_verify_loads_no_numpy_random():
    # the scan jitter and the slope fits need neither numpy.random (+5.7 MB
    # of hashlib, OpenSSL and Cython runtime) nor LAPACK
    code = ("import contextlib, io, sys\n"
            "from endpoint_uniform import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--suite', 'all'])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 []"


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

    def test_one_term_without_j_max(self, capsys):
        code, out, _ = run(capsys, "terms", "--t", "3e4", "--Lambda", "0.6")
        assert code == 0
        payload = json.loads(out)
        assert [term["j"] for term in payload["terms"]] == [1]
        assert "j_max" not in payload["flags"]

    def test_needs_something(self, capsys):
        code, _, err = run(capsys, "terms")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"

    @pytest.mark.parametrize("argv", [
        ("--N", "-1"), ("--t", "3e4", "--Lambda", "0.6", "--j-max", "-1"),
    ], ids=["N", "j-max"])
    def test_negative_order_is_order_violation(self, capsys, argv):
        code, out, err = run(capsys, "terms", *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "OrderViolation"

    @pytest.mark.parametrize("level", ["100000000", "300"])
    def test_table_level_above_the_cap_is_refused_at_once(self, capsys, level):
        start = time.perf_counter()
        code, out, err = run(capsys, "terms", "--N", level)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "OrderViolation",
            "message": f"table level must lie in [0, {MAX_TABLE_LEVEL}], got {level}"}

    def test_j_max_above_the_table_cap_is_refused_by_name(self, capsys, monkeypatch):
        # term j reads the level-(j-1) table, so j_max = MAX_TABLE_LEVEL + 1
        # is the last; above it no term is formed
        monkeypatch.setattr(ibp, "_operator", lambda *args: pytest.fail("term formed"))
        code, out, err = run(capsys, "terms", "--t", "1e4", "--Lambda", "0.5",
                             "--j-max", "100")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "OrderViolation",
            "message": f"j_max must lie in [0, {MAX_TABLE_LEVEL + 1}], got 100"}

    def test_terms_whose_factors_overflow_are_formed(self, capsys):
        # t^j leaves the doubles from j = 39 at t = 1e8; the terms do not
        code, out, _ = run(capsys, "terms", "--t", "1e8", "--Lambda", "0.5",
                           "--j-max", "50")
        assert code == 0
        terms = json.loads(out)["terms"]
        assert [term["j"] for term in terms] == list(range(1, 51))
        assert all(math.isfinite(term["re"]) and math.isfinite(term["im"]) for term in terms)
        assert 0.0 < abs(complex(terms[38]["re"], terms[38]["im"])) < 1e-70


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


# Each config is refused where it is read, with the JSON error and exit 1.
BAD_CONFIGS = {
    "missing-file": None,
    "malformed-json": '{"t_grid": [1e4],',
    "unknown-key": '{"t_grid": [1e4], "mehtods": ["oracle"]}',
    "missing-t-grid": '{"methods": ["leading"]}',
    "unknown-kind": '{"t_grid": [1e4], "lambda_spec": {"kind": "omgea", "values": [1]}}',
    "unknown-method": '{"t_grid": [1e4], "methods": ["leadnig"]}',
    "t-grid-not-a-list": '{"t_grid": 1e4}',
    "lambda-spec-not-an-object": '{"t_grid": [1e4], "lambda_spec": "critical"}',
    "tol-not-a-number": '{"t_grid": [1e4], "tol": "small"}',
    "tol-zero": '{"t_grid": [1e4], "tol": 0}',
    "tol-negative": '{"t_grid": [1e4], "methods": ["oracle"], "tol": -1e-10}',
    "t-grid-has-a-string": '{"t_grid": ["1e4"]}',
    "t-grid-has-a-bool": '{"t_grid": [1e4, true]}',
    "omega-values-have-a-string": '{"t_grid": [1e4], '
                                  '"lambda_spec": {"kind": "omega", "values": ["0.5"]}}',
    "lambda-values-not-a-list": '{"t_grid": [1e4], '
                                '"lambda_spec": {"kind": "lambda", "values": 0.5}}',
    "delta-is-a-string": '{"t_grid": [1e4], "delta": "0.5"}',
    "m-order-not-an-integer": '{"t_grid": [1e4], "m_order": 4.9}',
    "seed-is-a-bool": '{"t_grid": [1e4], "seed": true}',
    "seed-is-a-float": '{"t_grid": [1e4], "seed": 1.0}',
    "sigma-is-a-bool": '{"t_grid": [1e4], "sigma": true}',
    "methods-not-a-list": '{"t_grid": [1e4], "methods": "leading"}',
    # no row or contour scan can run these: they ended in a ZeroDivisionError
    # (t = 1, delta = 1) or a math domain error (t < 1, delta > 1) traceback
    "t-grid-at-one": '{"t_grid": [1.0]}',
    "t-grid-below-one": '{"t_grid": [0.5]}',
    "delta-one": '{"t_grid": [1e4], "delta": 1.0}',
    "delta-above-one": '{"t_grid": [1e4], "delta": 1.5}',
    # every row and scan point would be OutOfRange (window [10.37, 0.096])
    "empty-lambda-window": '{"t_grid": [1e4], "delta": 0.99, "methods": ["leading", "oracle"]}',
    "sigma-above-one": '{"t_grid": [1e4], "sigma": 1.5, "methods": ["leading", "oracle"]}',
    "config-is-a-list": '[1e4]',
    "config-is-null": 'null',
}


class TestConfigFiles:
    @pytest.mark.parametrize("subcommand", [
        ("sweep",), ("verify", "--suite", "FresnelAsym"),
    ], ids=["sweep", "verify"])
    @pytest.mark.parametrize("name", list(BAD_CONFIGS))
    def test_bad_config_is_parameter_error(self, capsys, tmp_path, subcommand, name):
        path = tmp_path / "cfg.json"
        if BAD_CONFIGS[name] is not None:
            path.write_text(BAD_CONFIGS[name])
        code, out, err = run(capsys, *subcommand, "--config", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidParam"

    def test_omega_whose_offset_overflows_is_out_of_range(self, capsys, tmp_path):
        # the offset's exponent omega (1 + lambda_c) sqrt(2/(lambda_c t)) is
        # 1.4e5, past the ~710 where expm1 overflows: a typed error on
        # stderr, where an OverflowError traceback was
        path = tmp_path / "cfg.json"
        path.write_text('{"t_grid": [1e4], "lambda_spec": {"kind": "omega", '
                        '"values": [1e6]}, "methods": ["leading"]}')
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "OutOfRange"
        assert "omega=1000000.0" in json.loads(err)["message"]

    def test_infinite_omega_is_parameter_error_naming_it(self, capsys, tmp_path):
        # JSON reads 1e400 as inf, which was refused as a lambda
        path = tmp_path / "cfg.json"
        path.write_text('{"t_grid": [1e4], "lambda_spec": {"kind": "omega", '
                        '"values": [1e400]}, "methods": ["leading"]}')
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "InvalidParam",
                                   "message": "omega must be finite, got inf"}

    def test_verify_with_no_t_is_parameter_error(self, capsys, tmp_path):
        # the contour scans, SplitConsistency and ExponentIdentity would check
        # nothing and pass with worst margin Infinity
        path = tmp_path / "cfg.json"
        path.write_text('{"t_grid": []}')
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "InvalidParam",
                                   "message": "ImFNonneg has no points to check: "
                                              "its t_grid is empty"}


# A tolerance that is not finite and > 0 is refused before any quadrature
# runs, whichever subcommand reads it; eval, which runs none, has no --tol.
BAD_QUADRATURE_FLAGS = {
    "oracle-tol-zero": ("oracle", "--tol", "0"),
    "oracle-tol-nan": ("oracle", "--piece", "jb1", "--tol", "nan"),
    "eval-tol-negative": ("eval", "--method", "leading", "--tol", "-1"),
    "sweep-tol-zero": ("sweep", "--method", "oracle", "--tol", "0"),
    "compare-tol-inf": ("compare", "--method", "leading", "--tol", "inf"),
}


@pytest.mark.parametrize("name", list(BAD_QUADRATURE_FLAGS))
def test_bad_tol_or_panel_cap_is_parameter_error(capsys, name):
    subcommand, *flags = BAD_QUADRATURE_FLAGS[name]
    code, out, err = run(capsys, subcommand, "--t", "1e5", "--Lambda", "0.5", *flags)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidParam"


# What each subcommand reads; every other option is refused.
FLAGS = {
    "eval": {"--t", "--delta", "--sigma", "--lambda", "--Lambda", "--method",
             "--m", "--b", "--a", "--out", "--format"},
    "oracle": {"--t", "--delta", "--sigma", "--lambda", "--Lambda", "--piece", "--tol",
               "--m", "--b", "--a", "--out", "--format"},
    "compare": {"--t", "--delta", "--sigma", "--lambda", "--Lambda", "--method", "--tol",
                "--m", "--out", "--format"},
    "sweep": {"--config", "--t", "--delta", "--sigma", "--lambda", "--Lambda", "--method",
              "--tol", "--m", "--out", "--format"},
    "terms": {"--N", "--j-max", "--t", "--delta", "--sigma", "--lambda", "--Lambda",
              "--m", "--b", "--a", "--out", "--format"},
    "verify": {"--suite", "--config", "--out", "--format"},
}

# A valid command per subcommand, a value per flag, and the flags each refuses.
BASE = {
    "eval": ("eval", "--t", "1e4", "--Lambda", "0.5", "--method", "leading"),
    "oracle": ("oracle", "--t", "1e4", "--Lambda", "0.5"),
    "compare": ("compare", "--t", "1e4", "--Lambda", "0.5", "--method", "leading"),
    "sweep": ("sweep", "--t", "1e4", "--method", "leading"),
    "terms": ("terms", "--N", "2"),
    "verify": ("verify", "--suite", "FresnelAsym"),
}
VALUES = {"--seed": "7", "--config": "cfg.json", "--panel-cap": "100", "--b": "0.44",
          "--a": "0.1", "--t": "1e4", "--delta": "0.5", "--sigma": "0.5",
          "--lambda": "0.01", "--Lambda": "0.5", "--tol": "1e-8", "--m": "4"}
REMOVED = [
    (sub, flag)
    for sub, flags in (
        ("eval", ("--seed", "--config", "--tol", "--panel-cap")),
        ("oracle", ("--seed", "--config", "--panel-cap")),
        ("compare", ("--b", "--a", "--seed", "--config", "--panel-cap")),
        ("sweep", ("--b", "--a", "--seed", "--panel-cap")),
        ("terms", ("--tol", "--seed", "--config", "--panel-cap")),
        ("verify", ("--t", "--delta", "--sigma", "--lambda", "--Lambda", "--tol", "--m",
                    "--b", "--a", "--seed", "--panel-cap")),
    )
    for flag in flags
]


class TestFlags:
    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        # the parser is built once per process and reused: one call's flags
        # do not reach the next
        real, built = cli.build_parser, []

        def spy():
            built.append(None)
            return real()

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        first = run(capsys, "sweep", "--t", "1e4", "--method", "oracle", "--sigma", "0.7")
        second = run(capsys, "sweep", "--t", "1e4")
        assert first[0] == second[0] == 0 and len(built) == 1
        assert json.loads(second[1])["flags"] == {
            "delta": 0.5, "format": "json", "sigma": 0.5, "t": 1e4, "tol": 1e-10}

    def test_each_subcommand_declares_only_what_it_reads(self):
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        declared = {
            name: {opt for action in sp._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, sp in subparsers.items()
        }
        assert declared == FLAGS
        assert sum(len(flags) for flags in declared.values()) == 60

    @pytest.mark.parametrize("sub, flag", REMOVED, ids=[f"{s}{f}" for s, f in REMOVED])
    def test_removed_flag_is_refused(self, capsys, sub, flag):
        code, out, err = run(capsys, *BASE[sub], flag, VALUES[flag])
        assert code == 1 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "InvalidParam"
        assert flag in msg["message"]


# Flags the chosen method, piece or mode never reads, each named in the one
# refusal.  eval declares no --tol or --panel-cap: no eval method reads them.
UNREAD = {
    "eval-leading-b": (("eval", "--method", "leading", "--t", "1e6", "--Lambda", "0.5",
                        "--b", "0.44"), ["--b"]),
    "eval-leading-tol-panel-cap": (("eval", "--method", "leading", "--t", "1e6",
                                    "--Lambda", "0.5", "--tol", "1e-3", "--panel-cap", "5"),
                                   ["--tol", "--panel-cap"]),
    "oracle-whole-m": (("oracle", "--piece", "whole", "--t", "1e6", "--Lambda", "0.5",
                        "--m", "5"), ["--m"]),
    "terms-table-b": (("terms", "--N", "2", "--b", "0.44"), ["--b"]),
    "terms-table-point": (("terms", "--N", "2", "--lambda", "0.01", "--j-max", "2"),
                          ["--lambda", "--j-max"]),
    "oracle-jb1-a-m": (("oracle", "--piece", "jb1", "--t", "1e4", "--Lambda", "0.5",
                        "--a", "0.1", "--m", "5"), ["--m"]),
    "all-orders-a-b": (("eval", "--method", "all-orders", "--t", "1e6", "--Lambda", "0.5",
                        "--a", "0.01", "--b", "0.44"), ["--b"]),
}


class TestUnreadFlags:
    @pytest.mark.parametrize("name", list(UNREAD))
    def test_unread_flag_is_refused(self, capsys, name):
        argv, flags = UNREAD[name]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "InvalidParam"
        assert all(flag in msg["message"] for flag in flags)

    def test_split_flags_stay_accepted_where_read(self, capsys):
        code, _, _ = run(capsys, "oracle", "--piece", "jb1", "--t", "1e4", "--Lambda", "0.5",
                         "--m", "5", "--b", "0.45")
        assert code == 0


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


# lambda itself, given by --lambda, at Lambda = 1.5 for t = 1e6
LAM = 0.0025025025025025025


class TestUncoveredPaths:
    def test_oracle_piece_jtilde(self, capsys):
        code, out, err = run(capsys, "oracle", "--piece", "jtilde",
                             "--t", "1e5", "--Lambda", "0.4")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["piece"] == "jtilde"
        assert payload["result"] == jtilde_oracle(from_offset(1e5, 0.5, 0.5, 0.4)).as_dict()

    def test_lambda_flag_on_eval_oracle_and_compare(self, capsys):
        p = derive(ProblemParams(t=1e6, delta=0.5, sigma=0.5, lam=LAM))
        point = ("--t", "1e6", "--lambda", repr(LAM))
        code, out, _ = run(capsys, "eval", "--method", "leading", *point)
        assert code == 0
        result = json.loads(out)["result"]
        assert complex(result["re"], result["im"]) == leading_order(p).value
        code, out, _ = run(capsys, "oracle", *point)
        assert code == 0
        assert json.loads(out)["result"] == jb_oracle(p).as_dict()
        code, out, _ = run(capsys, "compare", "--method", "leading", *point)
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["lam"] == LAM
        result = payload["result"]
        assert complex(result["approx_re"], result["approx_im"]) == leading_order(p).value
        assert result["error"] == ""

    def test_sweep_lambda_outside_the_window_is_a_row_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--t", "1e6", "--lambda", "1e9",
                             "--format", "csv")
        assert code == 0 and err == ""
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["error"].startswith("OutOfRange: lambda=1000000000.0 outside")
        assert row["approx_re"] == "nan"

    def test_a_split_on_oracle_jb1(self, capsys):
        p = from_offset(1e8, 0.5, 0.5, 0.5)
        code, out, _ = run(capsys, "oracle", "--piece", "jb1", "--a", "0.02",
                           "--t", "1e8", "--Lambda", "0.5")
        assert code == 0
        split = split_from_a(p, 0.02)
        assert json.loads(out)["result"] == jb1_oracle(p, split).as_dict()

    def test_a_split_on_eval_all_orders_keeps_its_width(self, capsys):
        # the R-term of the split built from --a, not of one whose a was
        # rebuilt from k
        p = from_offset(1e8, 0.5, 0.5, 0.5)
        code, out, _ = run(capsys, "eval", "--method", "all-orders", "--a", "0.02",
                           "--t", "1e8", "--Lambda", "0.5")
        assert code == 0
        expect = all_orders(p, 4, split_from_a(p, 0.02)).as_dict()
        assert json.loads(out)["result"] == expect

    def test_a_split_on_terms(self, capsys):
        p = from_offset(1e8, 0.5, 0.5, 0.5)
        code, out, _ = run(capsys, "terms", "--a", "0.02", "--j-max", "2",
                           "--t", "1e8", "--Lambda", "0.5")
        assert code == 0
        series = json.loads(out)["series"]
        assert series["a"] == 0.02
        assert series["k"] == split_from_a(p, 0.02).k

    def test_failing_verify_suite_exits_2(self, capsys, monkeypatch):
        def broken(cfg):
            yield -1.0, {"planted": True}, 1

        monkeypatch.setitem(harness._SCANS, "FresnelAsym", (broken, 0.0))
        code, out, err = run(capsys, "verify", "--suite", "all")
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["exit_hint"] == "one or more suites failed"
        failed = [r["suite"] for r in payload["reports"] if not r["pass"]]
        assert failed == ["FresnelAsym"]

    @pytest.mark.parametrize("call, at", [(0, (0, 0, 0)), (0, (5, 5, 5)),
                                          (1, (5, 5, 5)), (2, (-1, -1, -1))])
    def test_a_nan_margin_anywhere_exits_2(self, capsys, monkeypatch, call, at):
        # one NaN in the ImF margins of one t, in any t and at any sample
        calls = []
        big_f = phase.big_f

        def planted(z, lam):
            out = big_f(z, lam)
            if len(calls) == call:
                out[at] = complex(math.nan, math.nan)
            calls.append(z.shape)
            return out

        monkeypatch.setattr(phase, "big_f", planted)
        code, out, err = run(capsys, "verify", "--suite", "ImFNonneg")
        assert code == 2 and err == ""
        assert len(calls) == 3
        report = json.loads(out)["reports"][0]
        assert report["pass"] is False
        assert math.isnan(report["worst_margin"])
