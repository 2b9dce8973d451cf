"""Batch verification: sweeps, oracle comparisons, slope fits, property scans.

Everything here is about checking the asymptotic formulas against the direct
quadrature oracle and against each other.  Output is deterministic: grids are
fixed by the config, randomness is seeded, a sweep runs its rows one after
another in grid order, and CSV serialization zeroes the wall-clock column by
default so identical configs give identical bytes.

A sweep runs the oracle once per grid point and tolerance: the method rows of
a point share each quadrature, and a failed one gives each row that needs it
the same error.  So with deterministic=False the runtime_ms of the first row
that needs a quadrature includes it, and the later rows do not.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import asymptotics, phase as phase_mod, substitution
from .errors import DegenerateData, EndpointUniformError, InvalidParam
from .fresnel import fresnel_tail, fresnel_tail_asymptotic
from .params import (
    ProblemParams,
    admissible_lambda_range,
    check_tolerance,
    corollary_split,
    critical_lambda,
    derive,
    endpoint_offset,
    from_offset,
    from_omega,
    select_phi,
)
from .quadrature import DEFAULT_TOL, jb1_oracle, jb2_oracle, jb_oracle

CSV_HEADER = (
    "t,delta,sigma,lambda,Lambda,omega,method,m,a,approx_re,approx_im,"
    "oracle_re,oracle_im,abs_err,rel_err,budget,runtime_ms,error"
)

# the methods eval_method runs; a sweep also runs the oracle itself
APPROXIMATIONS = ("leading", "large-omega", "all-orders", "corollary")
METHODS = ("oracle",) + APPROXIMATIONS

DEFAULT_T_GRID = (1e4, 1e5, 1e6, 1e7, 1e8)
# the expansion order of all-orders when none is given
DEFAULT_ORDER = 4


# the type of each scalar field and of methods; a bool is none of them
_FIELD_TYPES = {
    "delta": (numbers.Real, "a number"),
    "sigma": (numbers.Real, "a number"),
    "tol": (numbers.Real, "a number"),
    "seed": (numbers.Integral, "an integer"),
    "m_order": (numbers.Integral, "an integer"),
    "methods": ((list, tuple), "a list"),
}


def _check_numbers(name: str, values):
    """Refuse values unless it is a list of numbers (a bool is not one)."""
    if not isinstance(values, (list, tuple, np.ndarray)) or any(
            isinstance(v, bool) or not isinstance(v, numbers.Real) for v in values):
        raise InvalidParam(f"{name} must be a list of numbers, got {values!r}")


@dataclass
class SweepConfig:
    """A sweep's grid and settings, refused with InvalidParam unless
    run_sweep can run it, whether built directly or read from a file."""

    t_grid: list
    delta: float = 0.5
    sigma: float = 0.5
    # ("critical", None) | ("lambda", [values]) | ("omega", [values])
    lambda_spec: tuple = ("critical", None)
    methods: list = field(default_factory=lambda: ["leading"])
    tol: float = DEFAULT_TOL
    seed: int = 0
    m_order: int = DEFAULT_ORDER

    def __post_init__(self):
        _check_numbers("t_grid", self.t_grid)
        for key, (types, name) in _FIELD_TYPES.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, types):
                raise InvalidParam(f"{key} must be {name}, got {value!r}")
        if not isinstance(self.lambda_spec, tuple) or len(self.lambda_spec) != 2:
            raise InvalidParam(f"lambda_spec must be a (kind, values) pair, "
                               f"got {self.lambda_spec!r}")
        kind, values = self.lambda_spec
        if kind not in ("critical", "lambda", "omega"):
            raise InvalidParam(f"unknown lambda_spec kind {kind!r}")
        if kind != "critical":
            if values is None:
                raise InvalidParam(f"lambda_spec kind {kind!r} needs values")
            _check_numbers("lambda_spec values", values)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise InvalidParam(f"unknown methods {bad}; known: {list(METHODS)}")
        check_tolerance(self.tol)

    def lambda_values(self, t: float) -> list:
        kind, values = self.lambda_spec
        if kind == "critical":
            return [critical_lambda(t, self.delta)]
        if kind == "lambda":
            return list(values)
        return [from_omega(t, self.delta, self.sigma, w).lam for w in values]


def sweep_config_from_dict(d: dict) -> SweepConfig:
    """Read a config file's object; SweepConfig checks the values."""
    if not isinstance(d, dict):
        raise InvalidParam("a config must be a JSON object")
    known = [f.name for f in fields(SweepConfig)]
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise InvalidParam(f"unknown config keys {unknown}; known: {known}")
    if "t_grid" not in d:
        raise InvalidParam("a config needs t_grid")
    spec = d.get("lambda_spec", {"kind": "critical"})
    if not isinstance(spec, dict):
        raise InvalidParam(f"lambda_spec must be a JSON object, got {spec!r}")
    given = {key: d[key] for key in _FIELD_TYPES if key in d}
    return SweepConfig(t_grid=d["t_grid"], lambda_spec=(spec.get("kind", "critical"),
                                                        spec.get("values")), **given)


@dataclass
class ComparisonRow:
    t: float
    delta: float
    sigma: float
    lam: float
    Lambda: float
    omega: float
    method: str
    m: object = ""
    a: object = ""
    approx: complex = complex("nan")
    oracle: complex = complex("nan")
    abs_err: float = float("nan")
    rel_err: float = float("nan")
    budget: float = float("nan")
    runtime_ms: float = 0.0
    error: str = ""


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return format(x, ".17g")


def _expected_method_error(approx: complex, budget: float,
                           p: ProblemParams) -> float:
    """Scale used only to tighten the oracle tolerance, not reported."""
    mag = abs(approx)
    if not math.isfinite(mag) or mag == 0.0:
        mag = p.t**-0.5
    guess = mag * p.t ** (-p.delta / 2.0)
    if math.isfinite(budget) and budget > 0.0:
        guess = min(guess, budget)
    return guess


def eval_method(method: str, p: ProblemParams, m_order: int = DEFAULT_ORDER, split=None):
    """One asymptotic method at p: (approximation, m, a), where m and a are
    the expansion order and split width the method used, "" if it has none.
    Only all-orders reads m_order and split: it splits at split (a
    params.Split), by default at choose_split's for m_order.  Any other
    method given a split, or an unknown method, is InvalidParam; every
    method accepts m_order, as a sweep passes its own to every row."""
    if split is not None and method != "all-orders":
        raise InvalidParam(f"{method} reads no split; only all-orders does")
    if method == "leading":
        return asymptotics.leading_order(p), "", ""
    if method == "large-omega":
        return asymptotics.leading_order_large_omega(p), "", ""
    if method == "all-orders":
        ap = asymptotics.all_orders(p, m_order, split)
        return ap, m_order, ap.split.a
    if method == "corollary":
        ap = asymptotics.corollary_leading(p)
        return ap, "", ap.split.a
    raise InvalidParam(f"unknown method {method!r}; choose from {APPROXIMATIONS}")


def _oracle(memo: dict, p: ProblemParams, tol: float):
    """jb_oracle(p, tol) once per tolerance at this point: memo keeps the
    result, or the typed error, which is raised again for every row."""
    if tol not in memo:
        try:
            memo[tol] = jb_oracle(p, tol=tol)
        except EndpointUniformError as exc:
            memo[tol] = exc
    res = memo[tol]
    if isinstance(res, EndpointUniformError):
        raise res
    return res


def _run_point(cfg, t, lam, method, memo, raise_errors=False):
    """The row of one method at (t, lam); memo is shared by the point's rows."""
    start = time.perf_counter()
    row = ComparisonRow(
        t=t, delta=cfg.delta, sigma=cfg.sigma, lam=lam,
        Lambda=float("nan"), omega=float("nan"), method=method,
    )
    try:
        p = ProblemParams(t=t, delta=cfg.delta, sigma=cfg.sigma, lam=lam)
        d = derive(p)
        row.Lambda = d.Lambda
        row.omega = d.omega
        if method == "oracle":
            res = _oracle(memo, p, cfg.tol)
            row.approx = res.value
            row.oracle = res.value
            row.abs_err = 0.0
            row.rel_err = 0.0
            row.budget = res.abs_error_estimate + res.truncation_bound
        else:
            ap, row.m, row.a = eval_method(method, p, cfg.m_order)
            row.approx = ap.value
            # leading_order has no budget, and its column stays nan
            if ap.error_budget:
                row.budget = sum(v for _k, v in ap.error_budget)
            expected = _expected_method_error(ap.value, row.budget, p)
            oracle_tol = max(1e-13, min(cfg.tol, 1e-3 * expected))
            res = _oracle(memo, p, oracle_tol)
            row.oracle = res.value
            row.abs_err = abs(ap.value - res.value)
            if abs(res.value) > 0.0:
                row.rel_err = row.abs_err / abs(res.value)
    except EndpointUniformError as exc:
        if raise_errors:
            raise
        row.error = f"{type(exc).__name__}: {exc}"
    row.runtime_ms = 1000.0 * (time.perf_counter() - start)
    return row


def run_sweep(cfg: SweepConfig, raise_errors: bool = False) -> list:
    """Cross product of (t grid) x (lambda spec) x (methods), one row each,
    in that order.

    The rows of a point share its oracle quadratures, one per tolerance.  A
    row's failure lands in its error column and the sweep goes on; with
    raise_errors the typed error is raised instead.
    """
    rows = []
    for t in cfg.t_grid:
        for lam in cfg.lambda_values(t):
            memo = {}
            for method in cfg.methods:
                rows.append(_run_point(cfg, t, lam, method, memo, raise_errors))
    return rows


def rows_to_csv(rows, deterministic: bool = True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow(
            [
                _fmt(r.t), _fmt(r.delta), _fmt(r.sigma), _fmt(r.lam),
                _fmt(r.Lambda), _fmt(r.omega), r.method, _fmt(r.m), _fmt(r.a),
                _fmt(r.approx.real), _fmt(r.approx.imag),
                _fmt(r.oracle.real), _fmt(r.oracle.imag),
                _fmt(r.abs_err), _fmt(r.rel_err), _fmt(r.budget),
                _fmt(0.0 if deterministic else r.runtime_ms),
                r.error,
            ]
        )
    return buf.getvalue()


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


def fit_error_slope(rows):
    """Least-squares slope of log(abs_err) against log(t)."""
    xs, ys = [], []
    for r in rows:
        if r.error:
            continue
        if (
            math.isfinite(r.t)
            and r.t > 0.0
            and math.isfinite(r.abs_err)
            and r.abs_err > 0.0
        ):
            xs.append(math.log(r.t))
            ys.append(math.log(r.abs_err))
    if len(xs) < 3:
        raise DegenerateData(
            f"need >= 3 usable rows for a slope fit, have {len(xs)}"
        )
    xs = np.array(xs)
    ys = np.array(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


# ---------------------------------------------------------------------------
# Property scans
# ---------------------------------------------------------------------------


# the contour scans' samples per t: (lambdas, split points k, radii R)
SCAN_SHAPE = (17, 17, 12)


def _contour_samples(cfg: SweepConfig):
    """Per t: the lambdas, the split points k and the SCAN_SHAPE radii R of
    the sampled points on the ray-piece contour."""
    n_lam, n_k, n_r = SCAN_SHAPE
    rng = np.random.default_rng(cfg.seed)
    for t in cfg.t_grid[:3]:
        p_end = endpoint_offset(t, cfg.delta)
        lo, hi = admissible_lambda_range(t, cfg.delta)
        lams = np.exp(np.linspace(math.log(lo), math.log(hi), n_lam))
        ks = p_end * np.linspace(0.02, 0.98, n_k)
        r = np.exp(
            np.linspace(math.log(1e-6), math.log(50.0), n_r)
            + rng.uniform(-0.05, 0.05, SCAN_SHAPE)
        )
        yield t, lams, ks, r


def _scan_contour(cfg: SweepConfig, margins):
    """One record per t: the least of margins(z, t, log_lams, ks, phis) over
    that t's samples, with its point.

    margins gets every sample of a t as one (n_lam, n_k, n_r) array z and
    returns an array of that shape.  The record is np.argmin's sample: the
    first NaN, or else the first least margin, in (lambda, k, R) order.
    """
    for t, lams, ks, r in _contour_samples(cfg):
        phis = np.array([select_phi(float(lam)) for lam in lams])
        log_lams = np.array([math.log(lam) for lam in lams])[:, None, None]
        rays = np.array([np.exp(1j * phi) for phi in phis])[:, None, None]
        z = (1.0 - ks[:, None]) + r * rays
        margin = margins(z, t, log_lams, ks, phis)
        il, ik, ir = np.unravel_index(np.argmin(margin), margin.shape)
        point = {"t": t, "lambda": float(lams[il]), "k": float(ks[ik]),
                 "R": float(r[il, ik, ir])}
        yield float(margin[il, ik, ir]), point, r.size


def _scan_im_f(cfg: SweepConfig):
    # F at lambda = 1, then z log lambda added last, as big_f adds it
    def margins(z, t, log_lams, ks, phis):
        return phase_mod.big_f(z, 1.0).imag + z.imag * log_lams

    return _scan_contour(cfg, margins)


def _scan_phase_bound(cfg: SweepConfig):
    def margins(z, t, log_lams, ks, phis):
        mod = np.abs(phase_mod.d_f(z, 1.0) + log_lams)
        p_end = endpoint_offset(t, cfg.delta)
        bound = np.minimum(math.pi / 2.0 - phis[:, None],
                           np.array([math.log(p_end / k) for k in ks]))
        return mod - bound[:, :, None]

    return _scan_contour(cfg, margins)


def _scan_split_consistency(cfg: SweepConfig):
    """|segment piece + ray piece - whole| against 3x the quadrature estimates."""
    for t in cfg.t_grid:
        for Lam in (0.0, 1.0):
            p = from_offset(t, cfg.delta, 0.5, Lam)
            split = corollary_split(derive(p))
            whole = jb_oracle(p, tol=cfg.tol)
            part1 = jb1_oracle(p, split, tol=cfg.tol)
            part2 = jb2_oracle(p, split, tol=cfg.tol)
            gap = abs(part1.value + part2.value - whole.value)
            est = (
                whole.abs_error_estimate
                + whole.truncation_bound
                + part1.abs_error_estimate
                + part2.abs_error_estimate
                + part2.truncation_bound
            )
            yield 3.0 * est - gap, {"t": t, "Lambda": Lam, "gap": gap, "est": est}, 1


def _scan_fresnel_asym(cfg: SweepConfig):
    ws = np.array([5.0, 10.0, 20.0, 40.0])
    errs = np.array(
        [abs(fresnel_tail(w) - fresnel_tail_asymptotic(w)) for w in ws]
    )
    slope, _r2 = np.polyfit(np.log(ws), np.log(errs), 1)
    margin = 0.15 - abs(slope + 3.0)
    yield float(margin), {"slope": float(slope), "targets": list(ws)}, len(ws)


def _scan_cov_decomposition(cfg: SweepConfig):
    for Lam in (0.0, 1.0):
        res = substitution.decomposition_residual(200.0, cfg.delta, Lam, sigma=cfg.sigma)
        yield 1e-6 - res, {"t": 200.0, "Lambda": Lam, "residual": res}, 1


def _scan_exponent_identity(cfg: SweepConfig):
    for t in cfg.t_grid:
        for Lam in (0.0, 0.5, 1.0, 5.0):
            p = from_offset(t, cfg.delta, cfg.sigma, Lam)
            res1 = asymptotics.exponent_identity_residual(p)
            m1 = 1e-9 * (1.0 + t) - res1
            a = corollary_split(derive(p)).a
            res2 = asymptotics.phase_difference_residual(p, a)
            m2 = 10.0 * a**3 * t**cfg.delta - res2
            point = {
                "t": t, "Lambda": Lam,
                "exponent_residual": res1, "split_residual": res2,
            }
            yield min(m1, m2), point, 1


_SCANS = {
    "ImFNonneg": (_scan_im_f, -1e-12),
    "PhaseLowerBound": (_scan_phase_bound, 0.0),
    "SplitConsistency": (_scan_split_consistency, 0.0),
    "FresnelAsym": (_scan_fresnel_asym, 0.0),
    "CovDecomposition": (_scan_cov_decomposition, 0.0),
    "ExponentIdentity": (_scan_exponent_identity, 0.0),
}
SUITES = tuple(_SCANS)


def property_scan(suite: str, cfg: SweepConfig | None = None) -> dict:
    """Run one invariant scan; failures are data, not exceptions.  An
    unknown suite is InvalidParam."""
    if suite not in _SCANS:
        raise InvalidParam(f"unknown suite {suite!r}; choose from {SUITES}")
    if cfg is None:
        cfg = SweepConfig(t_grid=list(DEFAULT_T_GRID))
    scan, threshold = _SCANS[suite]
    worst, worst_point, count = math.inf, None, 0
    for margin, point, n in scan(cfg):
        count += n
        # the first NaN record is kept, or else the first least one
        first_nan = math.isnan(margin) and not math.isnan(worst)
        if worst_point is None or margin < worst or first_nan:
            worst, worst_point = margin, point
    return {
        "suite": suite,
        "grid": {"points": count, "t_grid": list(cfg.t_grid), "delta": cfg.delta,
                 "seed": cfg.seed},
        "pass": bool(worst >= threshold),
        "worst_margin": worst,
        "worst_point": worst_point,
    }


def run_all_scans(cfg: SweepConfig | None = None) -> dict:
    reports = [property_scan(s, cfg) for s in SUITES]
    return {"reports": reports, "pass": all(r["pass"] for r in reports)}
