"""Batch verification: sweeps, oracle comparisons, slope fits, property scans.

Everything here is about checking the asymptotic formulas against the direct
quadrature oracle and against each other.  Output is deterministic: grids are
fixed by the config, the contour scans jitter sample j by the Kronecker
sequence 0.1 (frac(c + j (sqrt 5 - 1)/2) - 0.5) from a start c that the seed
fixes in integer arithmetic (_scan_jitter), a sweep runs its rows one after
another in grid order, and CSV serialization zeroes the wall-clock column by
default so identical configs give identical bytes.  The jitter depends only
on IEEE arithmetic, not on a numpy random stream that a release may change,
so a pinned verify report stays reproducible across numpy versions.

A sweep derives each grid point once, and runs the oracle at most once per
point, at the config's tol: every row of a point reads its one point record,
and the rows compare against the one quadrature that its oracle row reports.
A typed error from either lands on each row that needs it, with the same
text.  So with deterministic=False the runtime_ms of the first row that needs
the quadrature includes it, and the later rows do not.
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
    DerivedParams,
    ProblemParams,
    admissible_lambda_range,
    check_delta,
    check_lambda_window,
    check_sigma,
    check_t,
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
    run_sweep and the scans can run it, whether built directly or read from
    a file: every t finite and > 1, delta in (0, 1) and sigma in [1/2, 1),
    as ProblemParams asks, and a non-empty lambda window at every t."""

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
        check_delta(self.delta)
        for t in self.t_grid:
            check_t(t)
            check_lambda_window(t, self.delta)
        check_sigma(self.sigma)
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
    approx: complex = complex(math.nan, math.nan)
    oracle: complex = complex(math.nan, math.nan)
    abs_err: float = float("nan")
    rel_err: float = float("nan")
    budget: float = float("nan")
    runtime_ms: float = 0.0
    error: str = ""


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return format(x, ".17g")


def eval_method(method: str, d: DerivedParams, m_order: int = DEFAULT_ORDER, split=None):
    """One asymptotic method at the derived point d: (approximation, m, a),
    where m and a are the expansion order and split width the method used,
    "" if it has none.  Only all-orders reads m_order and split: it splits
    at split (a params.Split), by default at choose_split's for m_order.
    Any other method given a split, or an unknown method, is InvalidParam;
    every method accepts m_order, as a sweep passes its own to every row."""
    if split is not None and method != "all-orders":
        raise InvalidParam(f"{method} reads no split; only all-orders does")
    if method == "leading":
        return asymptotics.leading_order(d), "", ""
    if method == "large-omega":
        return asymptotics.leading_order_large_omega(d), "", ""
    if method == "all-orders":
        ap = asymptotics.all_orders(d, m_order, split)
        return ap, m_order, ap.split.a
    if method == "corollary":
        ap = asymptotics.corollary_leading(d)
        return ap, "", ap.split.a
    raise InvalidParam(f"unknown method {method!r}; choose from {APPROXIMATIONS}")


def _oracle(memo: list, d: DerivedParams, tol: float):
    """jb_oracle(d, tol) once at this point: memo keeps the result, or the
    typed error, which is raised again for every row."""
    if not memo:
        try:
            memo.append(jb_oracle(d, tol=tol))
        except EndpointUniformError as exc:
            memo.append(exc)
    res = memo[0]
    if isinstance(res, EndpointUniformError):
        raise res
    return res


def _run_point(cfg, t, lam, d, method, memo, raise_errors=False):
    """The row of one method at (t, lam), derived once as d (or the typed
    error its derivation raised); memo is shared by the point's rows."""
    start = time.perf_counter()
    row = ComparisonRow(
        t=t, delta=cfg.delta, sigma=cfg.sigma, lam=lam,
        Lambda=float("nan"), omega=float("nan"), method=method,
    )
    try:
        if isinstance(d, EndpointUniformError):
            raise d
        row.Lambda = d.Lambda
        row.omega = d.omega
        if method == "oracle":
            res = _oracle(memo, d, cfg.tol)
            row.approx = res.value
            row.oracle = res.value
            row.abs_err = 0.0
            row.rel_err = 0.0
            row.budget = res.abs_error_estimate + res.truncation_bound
        else:
            ap, row.m, row.a = eval_method(method, d, cfg.m_order)
            row.approx = ap.value
            # leading_order has no budget, and its column stays nan
            if ap.error_budget:
                row.budget = sum(v for _k, v in ap.error_budget)
            res = _oracle(memo, d, cfg.tol)
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

    The rows of a point share its one derivation and its one oracle
    quadrature, at cfg.tol.  A row's failure lands in its error column and
    the sweep goes on; with raise_errors the typed error is raised instead.
    """
    rows = []
    for t in cfg.t_grid:
        for lam in cfg.lambda_values(t):
            try:
                d = derive(ProblemParams(t=t, delta=cfg.delta, sigma=cfg.sigma, lam=lam))
            except EndpointUniformError as exc:
                d = exc
            memo = []
            for method in cfg.methods:
                rows.append(_run_point(cfg, t, lam, d, method, memo, raise_errors))
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
    """Least-squares slope, and r^2, of log(abs_err) against log(t);
    DegenerateData with fewer than 3 usable rows, or all of them at one t."""
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
    slope, intercept = _line_fit(xs, ys)
    y_mean = math.fsum(ys) / len(ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


def _line_fit(xs, ys):
    """Least-squares (slope, intercept) of the line through the points
    (xs, ys), in closed form from centred sums; DegenerateData unless x
    varies."""
    if len(set(xs)) < 2:
        raise DegenerateData(f"x does not vary: no line fits {len(xs)} points at one x")
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    slope = (math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys))
             / math.fsum(dx * dx for dx in dxs))
    return slope, y_mean - slope * x_mean


# ---------------------------------------------------------------------------
# Property scans
# ---------------------------------------------------------------------------


# the contour scans' samples per t: (lambdas, split points k, radii R)
SCAN_SHAPE = (17, 17, 12)
# the golden-ratio step (sqrt 5 - 1)/2 of the scan jitter, and the same step
# in 32-bit fixed point (2654435769, odd)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_32 = round(2**32 * _GOLDEN)


def _scan_jitter(seed: int, i: int):
    """The log-radius jitter of the i-th t's SCAN_SHAPE samples, in
    [-0.05, 0.05): sample j, in C order, gets 0.1 (frac(c + j _GOLDEN) - 0.5),
    a Kronecker sequence.  Its start c = frac((seed + i N) _GOLDEN), N samples
    per t, is taken in 32-bit fixed point, so any integer seed gives one, and
    seeds below 2^32 give different ones (an odd multiplier is a bijection
    mod 2^32)."""
    n = math.prod(SCAN_SHAPE)
    c = ((int(seed) + i * n) * _GOLDEN_32 % 2**32) / 2.0**32
    j = np.arange(n, dtype=float).reshape(SCAN_SHAPE)
    return 0.1 * ((c + j * _GOLDEN) % 1.0 - 0.5)


def _contour_samples(cfg: SweepConfig):
    """Per t: the lambdas, the split points k and the SCAN_SHAPE radii R of
    the sampled points on the ray-piece contour."""
    n_lam, n_k, n_r = SCAN_SHAPE
    for i, t in enumerate(cfg.t_grid[:3]):
        p_end = endpoint_offset(t, cfg.delta)
        lo, hi = admissible_lambda_range(t, cfg.delta)
        lams = np.exp(np.linspace(math.log(lo), math.log(hi), n_lam))
        ks = p_end * np.linspace(0.02, 0.98, n_k)
        r = np.exp(
            np.linspace(math.log(1e-6), math.log(50.0), n_r)
            + _scan_jitter(cfg.seed, i)
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
            d = from_offset(t, cfg.delta, 0.5, Lam)
            split = corollary_split(d)
            whole = jb_oracle(d, tol=cfg.tol)
            part1 = jb1_oracle(d, split, tol=cfg.tol)
            part2 = jb2_oracle(d, split, tol=cfg.tol)
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
    slope, _intercept = _line_fit(np.log(ws), np.log(errs))
    margin = 0.15 - abs(slope + 3.0)
    yield float(margin), {"slope": float(slope), "targets": list(ws)}, len(ws)


def _scan_cov_decomposition(cfg: SweepConfig):
    for Lam in (0.0, 1.0):
        res = substitution.decomposition_residual(from_offset(200.0, cfg.delta, cfg.sigma, Lam))
        yield 1e-6 - res, {"t": 200.0, "Lambda": Lam, "residual": res}, 1


def _scan_exponent_identity(cfg: SweepConfig):
    for t in cfg.t_grid:
        for Lam in (0.0, 0.5, 1.0, 5.0):
            d = from_offset(t, cfg.delta, cfg.sigma, Lam)
            res1 = asymptotics.exponent_identity_residual(d)
            m1 = 1e-9 * (1.0 + t) - res1
            a = corollary_split(d).a
            res2 = asymptotics.phase_difference_residual(d, a)
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
    unknown suite, or a config that gives the scan no point to check, is
    InvalidParam."""
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
    if count == 0:
        raise InvalidParam(f"{suite} has no points to check: its t_grid is empty")
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
