"""Sweep driver, CSV serialisation, slope fits, and the property scans."""

import inspect
import math

import numpy as np
import pytest

from endpoint_uniform import harness, quadrature
from endpoint_uniform import (
    CSV_HEADER,
    SUITES,
    ComparisonRow,
    DegenerateData,
    InvalidParam,
    NonConvergence,
    SweepConfig,
    big_f,
    choose_split,
    d_f,
    derive,
    fit_error_slope,
    from_offset,
    from_omega,
    property_scan,
    rows_to_csv,
    run_all_scans,
    run_sweep,
    select_phi,
    split_from_a,
    sweep_config_from_dict,
    write_csv,
)
from endpoint_uniform.params import corollary_split


def small_cfg(**kw):
    base = dict(t_grid=[1e4, 1e5], methods=["leading"], tol=1e-9)
    base.update(kw)
    return SweepConfig(**base)


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "t,delta,sigma,lambda,Lambda,omega,method,m,a,approx_re,approx_im,"
            "oracle_re,oracle_im,abs_err,rel_err,budget,runtime_ms,error"
        )

    def test_first_line_is_header(self):
        rows = run_sweep(small_cfg(t_grid=[1e4]))
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER

    def test_identical_configs_identical_bytes(self):
        a = rows_to_csv(run_sweep(small_cfg()))
        b = rows_to_csv(run_sweep(small_cfg()))
        assert a == b

    def test_runtime_column_zeroed_by_default(self):
        rows = run_sweep(small_cfg(t_grid=[1e4]))
        for line in rows_to_csv(rows).splitlines()[1:]:
            assert line.split(",")[16] == "0"

    def test_runtime_column_kept_on_request(self):
        rows = run_sweep(small_cfg(t_grid=[1e4]))
        for line in rows_to_csv(rows, deterministic=False).splitlines()[1:]:
            assert float(line.split(",")[16]) >= 0.0

    def test_write_csv_matches_string(self, tmp_path):
        rows = run_sweep(small_cfg(t_grid=[1e4]))
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        assert path.read_text() == rows_to_csv(rows)


class TestSweep:
    def test_grid_shape_and_order(self):
        cfg = small_cfg(
            t_grid=[1e4, 1e5, 1e6],
            lambda_spec=("omega", [0.3, 0.8]),
            methods=["leading", "corollary"],
        )
        rows = run_sweep(cfg)
        assert len(rows) == 3 * 2 * 2
        # submission order: t outermost, then lambda, then method
        ts = [r.t for r in rows]
        assert ts == sorted(ts)
        assert [r.method for r in rows[:2]] == ["leading", "corollary"]
        assert rows[0].lam != rows[2].lam

    def test_oracle_rows_self_compare(self):
        rows = run_sweep(small_cfg(t_grid=[1e4], methods=["oracle"]))
        (r,) = rows
        assert r.error == ""
        assert r.approx == r.oracle
        assert r.abs_err == 0.0 and r.rel_err == 0.0
        assert r.budget >= 0.0

    def test_leading_rows_have_small_rel_err(self):
        rows = run_sweep(small_cfg())
        for r in rows:
            assert r.error == ""
            assert r.rel_err < 0.05

    def test_failures_land_in_error_column(self):
        # at the critical point omega = 0, so the large-omega form refuses
        rows = run_sweep(small_cfg(t_grid=[1e4], methods=["large-omega"]))
        (r,) = rows
        assert r.error.startswith("RegimeMismatch")
        assert math.isnan(r.approx.real)
        line = rows_to_csv(rows).splitlines()[1]
        assert "nan" in line and "RegimeMismatch" in line

    def test_empty_grid_gives_no_rows(self):
        assert run_sweep(small_cfg(t_grid=[])) == []

    def test_one_run_point_call_per_row(self, monkeypatch):
        # run_sweep looks _run_point up at each row, so a wrapper sees every row
        calls = []
        real = harness._run_point

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(harness, "_run_point", counted)
        cfg = small_cfg(lambda_spec=("omega", [0.5, 2.0]), methods=["leading", "corollary"])
        rows = run_sweep(cfg)
        assert calls == [r.method for r in rows] and len(rows) == 2 * 2 * 2

    def test_raise_errors_raises_the_oracle_error_itself(self, monkeypatch):
        # not a copy rebuilt from the error column: the partial result stays
        failure = NonConvergence("panel cap reached", result="partial")
        count_oracle(monkeypatch, raises=failure)
        with pytest.raises(NonConvergence) as exc:
            run_sweep(small_cfg(t_grid=[1e4], methods=["leading"]), raise_errors=True)
        assert exc.value is failure and exc.value.result == "partial"


ALL_ROUTES = ["oracle", "leading", "all-orders", "corollary"]


def count_oracle(monkeypatch, raises=None):
    """Patch the sweep's jb_oracle to record (t, lambda, tol) per call, and to
    raise raises instead of integrating when it is given."""
    calls = []
    real = harness.jb_oracle

    def oracle(p, tol):
        calls.append((p.t, p.lam, tol))
        if raises is not None:
            raise raises
        return real(p, tol=tol)

    monkeypatch.setattr(harness, "jb_oracle", oracle)
    return calls


class TestSharedOracle:
    def test_one_quadrature_per_point_and_tolerance(self, monkeypatch):
        calls = count_oracle(monkeypatch)
        cfg = small_cfg(lambda_spec=("omega", [0.5, 2.0]), methods=ALL_ROUTES, tol=1e-10)
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 4
        assert len(calls) == len(set(calls))
        assert {(r.t, r.lam) for r in rows} == {call[:2] for call in calls}

    def test_failed_quadrature_runs_once_and_fails_every_row(self, monkeypatch):
        # at tol 1e-13 every route asks the oracle for the same tolerance
        calls = count_oracle(monkeypatch, raises=NonConvergence("panel cap reached"))
        rows = run_sweep(small_cfg(t_grid=[1e4], methods=ALL_ROUTES, tol=1e-13))
        assert len(calls) == 1
        assert [r.error for r in rows] == ["NonConvergence: panel cap reached"] * 4


class TestConfig:
    def test_from_dict_full(self):
        cfg = sweep_config_from_dict(
            {
                "t_grid": [1e4, 1e6],
                "delta": 0.4,
                "sigma": 0.5,
                "lambda_spec": {"kind": "omega", "values": [0.5, 2.0]},
                "methods": ["leading", "all-orders"],
                "tol": 1e-8,
                "seed": 7,
                "m_order": 5,
            }
        )
        assert cfg.t_grid == [1e4, 1e6]
        assert cfg.delta == 0.4
        assert cfg.lambda_spec == ("omega", [0.5, 2.0])
        assert cfg.methods == ["leading", "all-orders"]
        assert cfg.tol == 1e-8
        assert cfg.seed == 7
        assert cfg.m_order == 5

    def test_from_dict_defaults(self):
        cfg = sweep_config_from_dict({"t_grid": [100.0]})
        assert cfg.lambda_spec == ("critical", None)
        assert cfg.methods == ["leading"]
        assert cfg.tol == 1e-10
        assert cfg.m_order == 4

    def test_lambda_values_kinds(self):
        cfg = small_cfg(lambda_spec=("lambda", [0.25, 0.5]))
        assert cfg.lambda_values(1e4) == [0.25, 0.5]
        with pytest.raises(InvalidParam):
            small_cfg(lambda_spec=("bogus", None))

    @pytest.mark.parametrize("kw", [
        {"lambda_spec": ("omega", None)},
        {"methods": ["bogus"]},
        {"methods": ["leading", "oracel"]},
        {"t_grid": ["1e4"]},
        {"delta": "0.5"},
        {"methods": "leading"},
        {"seed": True},
        {"m_order": 4.9},
        {"lambda_spec": ("lambda", ["0.25"])},
        {"lambda_spec": "critical"},
    ], ids=["values-missing", "unknown-method", "one-unknown-method", "t-grid-has-a-string",
            "delta-is-a-string", "methods-a-string", "seed-is-a-bool", "m-order-not-an-integer",
            "lambda-values-have-a-string", "lambda-spec-not-a-pair"])
    def test_direct_config_refused_like_a_file(self, kw):
        # the CLI and the demos build SweepConfig directly; what a config file
        # may not hold is InvalidParam there too, not a ValueError or
        # TypeError out of run_sweep, nor a string read letter by letter
        with pytest.raises(InvalidParam):
            run_sweep(small_cfg(**kw))

    def test_direct_config_takes_tuples_and_numpy_numbers(self):
        cfg = small_cfg(t_grid=(1e4, np.float64(1e5)), seed=np.int64(3),
                        methods=("leading",), lambda_spec=("lambda", np.array([0.25])))
        assert len(run_sweep(cfg)) == 2

    def test_from_dict_keeps_values_as_given(self):
        cfg = sweep_config_from_dict({"t_grid": [1e4], "tol": 1, "seed": 3})
        assert cfg.tol == 1 and isinstance(cfg.tol, int)
        assert cfg.seed == 3


class TestSlopeFit:
    @staticmethod
    def synthetic_rows(slope, n=6):
        rows = []
        for i in range(n):
            t = 10.0 ** (4 + i / 2.0)
            rows.append(
                ComparisonRow(
                    t=t, delta=0.5, sigma=0.5, lam=0.1, Lambda=0.5,
                    omega=1.0, method="leading", abs_err=2.0 * t**slope,
                )
            )
        return rows

    def test_recovers_synthetic_slope(self):
        slope, r2 = fit_error_slope(self.synthetic_rows(-0.75))
        assert slope == pytest.approx(-0.75, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(DegenerateData):
            fit_error_slope(self.synthetic_rows(-0.75, n=2))

    def test_integer_t_is_fitted(self):
        # a config's t_grid may hold JSON integers, which reach the rows as
        # given; they count as any other t
        rows = self.synthetic_rows(-0.75)
        for r in rows:
            r.t = round(r.t)
            r.abs_err = 2.0 * r.t**-0.75
        slope, _ = fit_error_slope(rows)
        assert slope == pytest.approx(-0.75, abs=1e-10)

    def test_error_rows_are_skipped(self):
        rows = self.synthetic_rows(-0.75)
        for r in rows:
            r.error = "NumericalError: synthetic"
        with pytest.raises(DegenerateData):
            fit_error_slope(rows)



class TestPropertyScans:
    def test_unknown_suite(self):
        with pytest.raises(InvalidParam):
            property_scan("NoSuchSuite")

    def test_contour_scans_take_the_first_three_t_of_any_grid(self):
        grid = [1e4, 1e5, 1e6, 1e7]
        for t_grid in (grid, tuple(grid), np.array(grid), grid[:2]):
            ts = [t for t, *_rest in harness._contour_samples(SweepConfig(t_grid=t_grid))]
            assert ts == grid[:min(3, len(t_grid))]

    def test_cov_decomposition_reads_the_config_sigma(self, monkeypatch):
        seen = []

        def spy(t, delta, Lambda, **kwargs):
            seen.append(kwargs.get("sigma", 0.5))
            return 0.0

        monkeypatch.setattr(harness.substitution, "decomposition_residual", spy)
        rep = property_scan("CovDecomposition", small_cfg(sigma=0.7))
        assert seen == [0.7, 0.7]
        assert rep["pass"]

    def test_report_schema(self):
        rep = property_scan("FresnelAsym", small_cfg())
        assert set(rep) == {"suite", "grid", "pass", "worst_margin",
                            "worst_point"}
        assert rep["suite"] == "FresnelAsym"
        assert rep["pass"] is True
        assert {"points", "t_grid", "delta", "seed"} <= set(rep["grid"])

    def test_all_suites_pass_on_small_grid(self):
        cfg = small_cfg()
        out = run_all_scans(cfg)
        assert out["pass"] is True
        assert [r["suite"] for r in out["reports"]] == list(SUITES)
        for rep in out["reports"]:
            assert rep["pass"] is True, rep

    def test_scan_is_seeded(self):
        a = property_scan("ImFNonneg", small_cfg(seed=3))
        b = property_scan("ImFNonneg", small_cfg(seed=3))
        assert a["worst_margin"] == b["worst_margin"]
        assert a["worst_point"] == b["worst_point"]


def record_loop(cfg, margins_of):
    """property_scan's choice, worst margin, point and count, from one record
    per (t, lambda, k), each the least margin over its radii (np.argmin: a
    row holding NaN gives its first NaN), with margins_of(ti, il, z, t, lam,
    ks, phi) evaluated one lambda at a time: the contour scans before they
    reduced each t to one record.  The first NaN record is kept, or else the
    first least one."""
    worst, worst_point, count = math.inf, None, 0
    for ti, (t, lams, ks, r) in enumerate(harness._contour_samples(cfg)):
        for il, (lam, r_lam) in enumerate(zip(lams, r)):
            lam = float(lam)
            phi = select_phi(lam)
            z = (1.0 - ks[:, None]) + r_lam * np.exp(1j * phi)
            margin = margins_of(ti, il, z, t, lam, ks, phi)
            for k, m_row, r_row, i in zip(ks, margin, r_lam, np.argmin(margin, axis=1)):
                count += len(r_row)
                m = float(m_row[i])
                first_nan = math.isnan(m) and not math.isnan(worst)
                if worst_point is None or m < worst or first_nan:
                    worst = m
                    worst_point = {"t": t, "lambda": lam, "k": float(k), "R": float(r_row[i])}
    return worst, worst_point, count


def _im_f_of_lambda(ti, il, z, t, lam, ks, phi):
    return np.asarray(big_f(z, lam)).imag


def _phase_bound_of_lambda(ti, il, z, t, lam, ks, phi):
    # delta = 0.5, the configs' default
    bound = [min(math.pi / 2.0 - phi, math.log(t ** (0.5 - 1.0) / k)) for k in ks]
    return np.abs(np.asarray(d_f(z, lam))) - np.array(bound)[:, None]


def _same(report, worst, point, count):
    got = report["worst_margin"]
    assert got == worst or (math.isnan(got) and math.isnan(worst))
    assert report["worst_point"] == point
    assert report["grid"]["points"] == count


@pytest.mark.parametrize("suite, margins_of", [("ImFNonneg", _im_f_of_lambda),
                                               ("PhaseLowerBound", _phase_bound_of_lambda)],
                         ids=["ImFNonneg", "PhaseLowerBound"])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("t_grid", [[1e4, 1e5, 1e6], [2e3, 3e7, 1e9, 1e10], [1.2e4]],
                         ids=["desk", "wide", "one-t"])
def test_contour_scans_equal_the_record_loop(suite, margins_of, seed, t_grid):
    # one phase call per t, at lambda = 1 with z log lambda added last, and one
    # record per t: the bits of the per-lambda calls and per-k records
    cfg = SweepConfig(t_grid=t_grid, seed=seed)
    _same(property_scan(suite, cfg), *record_loop(cfg, margins_of))


NAN = math.nan


def _plant(case, arrays):
    """Write the case's NaNs and minima into the per-t margin arrays."""
    if case == "nan-first":            # the scan's first record is NaN: reported
        arrays[0][0, 0, 3] = NAN
        arrays[0][0, 0, 5] = -9.0
        arrays[1][4, 4, 4] = -20.0
    elif case == "nan-first-in-a-later-t":   # reported, as any NaN is
        arrays[1][0, 0, :] = -9.0
        arrays[1][0, 0, 6] = NAN
        arrays[1][5, 5, 5] = -4.0
    elif case == "nan-in-the-middle":
        arrays[0][7, 2, :] = -3.0
        arrays[0][7, 2, 0] = NAN
        arrays[0][9, 1, 4] = -3.0
    elif case == "ties":               # the first of equal minima, across t too
        arrays[0][3, 4, 9] = -2.0
        arrays[0][3, 4, 5] = -2.0
        arrays[1][0, 0, 0] = -2.0
        arrays[2][16, 16, 11] = -2.0
    elif case == "all-nan-in-a-later-t":
        arrays[1][:] = NAN
    elif case == "all-nan-in-the-first-t":
        arrays[0][:] = NAN
        arrays[2][1, 1, 1] = -7.0


@pytest.mark.parametrize("case", ["nan-first", "nan-first-in-a-later-t", "nan-in-the-middle",
                                  "ties", "all-nan-in-a-later-t", "all-nan-in-the-first-t"])
def test_per_t_reduction_keeps_the_record_property_scan_keeps(monkeypatch, case):
    cfg = SweepConfig(t_grid=[1e4, 1e5, 1e6], seed=5)
    shape = next(harness._contour_samples(cfg))[3].shape
    rng = np.random.default_rng(1)
    # small integers: exact ties everywhere
    arrays = [rng.integers(0, 6, shape).astype(float) for _ in range(3)]
    _plant(case, arrays)
    calls = iter(arrays)

    def margins(z, t, log_lams, ks, phis):
        assert z.shape == shape
        return next(calls)

    monkeypatch.setitem(harness._SCANS, "ImFNonneg",
                        (lambda c: harness._scan_contour(c, margins), -1e-12))
    want = record_loop(cfg, lambda ti, il, *_: arrays[ti][il])
    _same(property_scan("ImFNonneg", cfg), *want)


@pytest.mark.parametrize("tol", [0, -1e-10, math.inf, math.nan])
def test_sweep_config_refuses_bad_tol(tol):
    # refused before run_sweep, which would raise it on every oracle row
    with pytest.raises(InvalidParam):
        sweep_config_from_dict({"t_grid": [1e4], "methods": ["oracle"], "tol": tol})
    with pytest.raises(InvalidParam):
        SweepConfig(t_grid=[1e4], tol=tol)


class TestEvalMethod:
    def test_split_columns_are_the_routes_own_split(self):
        # all-orders and corollary report the split they used; eval_method
        # passes it on rather than choosing it again
        p = from_omega(1e8, 0.5, 0.5, 1.0)
        d = derive(p)
        _ap, m, a = harness.eval_method("all-orders", p, 5)
        assert (m, a) == (5, choose_split(d, 5).a)
        _ap, m, a = harness.eval_method("all-orders", p, 4, split=split_from_a(d, 0.02))
        assert (m, a) == (4, 0.02)
        _ap, m, a = harness.eval_method("corollary", p)
        assert (m, a) == ("", corollary_split(d).a)
        far = from_omega(3e4, 0.5, 0.5, 6.0)
        for method in ("leading", "large-omega"):
            assert harness.eval_method(method, far)[1:] == ("", "")

    def test_a_split_is_refused_where_it_is_not_read(self):
        # refused, not dropped: corollary at t = 1e8, Lambda = 0.5 would keep
        # its own width 0.0178 given 0.02; m_order stays accepted everywhere
        p = from_offset(1e8, 0.5, 0.5, 0.5)
        split = split_from_a(derive(p), 0.02)
        for method in ("leading", "large-omega", "corollary"):
            with pytest.raises(InvalidParam, match=f"{method} reads no split"):
                harness.eval_method(method, p, 7, split)
        for method in ("leading", "corollary"):
            assert harness.eval_method(method, p, 7)[1] == ""

    def test_unknown_method_is_invalid_param(self):
        with pytest.raises(InvalidParam, match="unknown method 'oracle'"):
            harness.eval_method("oracle", from_omega(1e6, 0.5, 0.5, 1.0))

    def test_defaults_are_the_stated_constants(self):
        p = from_omega(1e6, 0.5, 0.5, 1.0)
        assert harness.eval_method("all-orders", p)[1] == harness.DEFAULT_ORDER
        cfg = SweepConfig(t_grid=[1e4])
        assert (cfg.tol, cfg.m_order) == (quadrature.DEFAULT_TOL, harness.DEFAULT_ORDER)
        for oracle in (quadrature.jb_oracle, quadrature.jb1_oracle, quadrature.jb2_oracle,
                       quadrature.jtilde_oracle, quadrature.phi_oracle):
            tol = inspect.signature(oracle).parameters["tol"].default
            assert tol is quadrature.DEFAULT_TOL

    def test_suites_are_the_scans_in_order(self):
        assert SUITES == tuple(harness._SCANS)
        assert SUITES == ("ImFNonneg", "PhaseLowerBound", "SplitConsistency",
                          "FresnelAsym", "CovDecomposition", "ExponentIdentity")
