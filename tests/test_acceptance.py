"""Headline acceptance checks.

Ten end-to-end criteria covering the coefficient tables, the contour
invariant scans, Fresnel evaluation, split exactness, the leading-order and
split-expansion error decay, the exponent identities, the variable-change
decomposition, and the derivative oracles.  Each test prints a one-line
PASS/FAIL summary straight to the terminal (bypassing capture) so the run
log doubles as the acceptance report.
"""

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from endpoint_uniform import (
    amn_table,
    apply_ibp_operator,
    big_f,
    corollary_leading,
    critical_lambda,
    d_f,
    decomposition_residual,
    double_factorial,
    dzeta_du,
    endpoint_prefactor,
    exponent_identity_residual,
    fresnel_tail,
    fresnel_tail_asymptotic,
    from_offset,
    from_omega,
    jb1_oracle,
    jb2_oracle,
    jb_oracle,
    leading_order,
    leading_order_large_omega,
    phase_difference_residual,
    property_scan,
    zeta_of_u,
    Split,
)
from conftest import fit_loglog

RAY = cmath.exp(1j * math.pi / 4)

_CAPFD = None


@pytest.fixture(autouse=True)
def _terminal_bridge(capfd):
    # lets report() suspend pytest's capture so the summary lines land in
    # the terminal log even when every test passes
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(line + "\n")
    assert ok, line


def test_01_coefficient_tables():
    F = Fraction
    ok = amn_table(1).as_dict() == {(0, 0): F(1, 2), (1, 1): F(-1)}
    ok = ok and amn_table(2).as_dict() == {
        (0, 0): F(3, 4), (1, 1): F(-7, 2), (2, 1): F(1), (2, 2): F(3)}
    for N in range(1, 9):
        entries = amn_table(N).as_dict()
        ok = ok and entries[(N, N)] == F(-1) ** N * double_factorial(2 * N - 1)
        ok = ok and all(n <= m <= N for (m, n) in entries)
        ok = ok and all((m, N) not in entries for m in range(N))
        ok = ok and all(abs(v) < math.factorial(3 * N) for v in entries.values())
    report(1, "coefficient tables exact through level 8", ok)


def test_02_contour_invariant_scans():
    imf = property_scan("ImFNonneg")
    bound = property_scan("PhaseLowerBound")
    pts = imf["grid"]["points"] + bound["grid"]["points"]
    ok = imf["pass"] and bound["pass"] and pts >= 2 * 10**4
    report(2, "contour lemmas (Im F >= 0, |F'| lower bound)", ok,
           f"{pts} sampled points, worst margins "
           f"{imf['worst_margin']:.2e} / {bound['worst_margin']:.2e}")


def test_03_fresnel_tail():
    anchor = abs(fresnel_tail(0.0) - 0.5 * math.sqrt(math.pi) * RAY)
    ws = [5.0, 10.0, 20.0, 40.0]
    errs = [abs(fresnel_tail(w) - fresnel_tail_asymptotic(w)) for w in ws]
    slope, _ = fit_loglog(ws, errs)
    ok = anchor <= 1e-12 and abs(slope + 3.0) <= 0.15
    report(3, "Fresnel tail value and cubic remainder decay", ok,
           f"anchor err {anchor:.1e}, slope {slope:+.3f}")


def test_04_split_exactness():
    delta = 0.5
    worst = -math.inf
    count = 0
    for t in np.geomspace(1e4, 1e8, 10):
        t = float(t)
        a = t ** (-7.0 * delta / 16.0)
        split = Split(t ** (delta - 1.0) * (1.0 - a), a)
        for Lam in (0.0, 1.0):
            p = from_offset(t, delta, 0.5, Lam)
            whole = jb_oracle(p, tol=1e-10)
            p1 = jb1_oracle(p, split, tol=1e-10)
            p2 = jb2_oracle(p, split, tol=1e-10)
            gap = abs(p1.value + p2.value - whole.value)
            est = (whole.abs_error_estimate + whole.truncation_bound
                   + p1.abs_error_estimate
                   + p2.abs_error_estimate + p2.truncation_bound)
            worst = max(worst, gap / (3.0 * est))
            count += 1
    ok = worst <= 1.0 and count == 20
    report(4, "contour split reproduces the whole integral", ok,
           f"{count} points, worst gap/(3 est) = {worst:.3f}")


def test_05_leading_order_decay_and_uniformity():
    # decay at the critical point
    errs = []
    for t in (1e4, 1e6, 1e8):
        p = from_offset(t, 0.5, 0.5, 0.0)
        orc = jb_oracle(p, tol=1e-10).value
        errs.append(abs(leading_order(p).value - orc) / abs(orc))
    decay_ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.05
    # uniformity proxy across the offset grid at fixed t
    rel = []
    for Lam in (0.0, 0.05, 0.1, 0.25, 0.5, 0.8, 1.2):
        p = from_offset(1e6, 0.5, 0.5, Lam)
        orc = jb_oracle(p, tol=1e-10).value
        rel.append(abs(leading_order(p).value - orc) / abs(orc))
    spread = max(rel) / min(rel)
    ok = decay_ok and spread <= 10.0
    report(5, "uniform leading order: monotone decay, bounded spread", ok,
           f"errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, "
           f"spread {spread:.2f}")


def test_06_regime_scaling_slopes():
    # |J_B| against lambda_c t at fixed small omega
    xs, ys = [], []
    for t in np.geomspace(1e4, 1e8, 5):
        d = from_omega(float(t), 0.5, 0.5, 0.5)
        mag = abs(jb_oracle(d, tol=1e-10).value) / abs(endpoint_prefactor(d))
        xs.append(d.lambda_c * d.t)
        ys.append(mag)
    slope_small, _ = fit_loglog(xs, ys)
    # gap between the two closed forms against omega
    gs, es = [], []
    for w in (6.0, 9.0, 13.0, 18.0):
        p = from_omega(1e6, 0.5, 0.5, w)
        lw = leading_order_large_omega(p).value
        lo = leading_order(p).value
        gs.append(w)
        es.append(abs(lw - lo) / abs(lo))
    slope_large, _ = fit_loglog(gs, es)
    ok = abs(slope_small + 0.5) <= 0.1 and abs(slope_large + 2.0) <= 0.3
    report(6, "regime scaling exponents -1/2 and -2", ok,
           f"slopes {slope_small:+.3f}, {slope_large:+.3f}")


def test_07_split_expansion_error_decay():
    # log-log error slope of the two-term closed form against the oracle,
    # held away from the coalescence point
    ts = [1e4, 1e5, 1e6, 1e7, 1e8]
    errs = []
    for t in ts:
        p = from_offset(t, 0.5, 0.5, 0.5)
        orc = jb_oracle(p, tol=1e-10).value
        errs.append(abs(corollary_leading(p).value - orc))
    slope, r2 = fit_loglog(ts, errs)
    target = -(0.5 + 0.5 / 4.0) + 0.1
    slope_ok = slope <= target and r2 >= 0.95
    # agreement with the uniform leading form at the largest t
    gaps = []
    for Lam in (0.25, 0.5, 1.0, 2.0):
        p = from_offset(1e8, 0.5, 0.5, Lam)
        c = corollary_leading(p).value
        l = leading_order(p).value
        gaps.append(abs(c - l) / abs(l))
    gap_ok = max(gaps) < 0.02
    ok = slope_ok and gap_ok
    report(7, "two-term form: error slope and leading-order agreement", ok,
           f"slope {slope:+.3f} (need <= {target:+.3f}, r2 {r2:.4f}), "
           f"max gap {max(gaps):.2%}")


def test_08_exponent_identities():
    worst_e = 0.0
    worst_p = 0.0
    ok = True
    for t in (1e4, 1e5, 1e6, 1e7, 1e8):
        a = t ** (-7.0 * 0.5 / 16.0)
        for Lam in (0.0, 0.5, 1.0, 5.0):
            p = from_offset(t, 0.5, 0.5, Lam)
            r1 = exponent_identity_residual(p)
            r2 = phase_difference_residual(p, a)
            worst_e = max(worst_e, r1 / (1e-9 * (1.0 + t)))
            worst_p = max(worst_p, r2 / (10.0 * a**3 * t**0.5))
            ok = ok and r1 <= 1e-9 * (1.0 + t) and r2 <= 10.0 * a**3 * t**0.5
    report(8, "oscillation-exponent identities on the full grid", ok,
           f"worst residual fractions {worst_e:.2e}, {worst_p:.2e}")


def test_09_decomposition_identity():
    residuals = [decomposition_residual(from_offset(200.0, 0.5, 0.5, Lam))
                 for Lam in (0.0, 1.0)]
    ok = all(r < 1e-6 for r in residuals)
    report(9, "frame-change decomposition closes", ok,
           f"residuals {residuals[0]:.2e}, {residuals[1]:.2e}")


def test_10_derivative_oracles():
    lam = 0.02
    rng = np.random.default_rng(12)
    zs = rng.uniform(0.2, 0.8, 8) + 1j * rng.uniform(0.1, 0.6, 8)
    slopes = {}

    # first derivative of the phase
    errs = []
    for h in (1e-4, 1e-5):
        worst = 0.0
        for z in zs:
            fd = (big_f(z + h, lam) - big_f(z - h, lam)) / (2 * h)
            worst = max(worst, abs(fd - d_f(z, lam)))
        errs.append(worst)
    slopes["d_f"], _ = fit_loglog([1e-4, 1e-5], errs)

    # second derivative, d2F/dz2 = 1/(z(1-z))
    errs = []
    for h in (1e-4, 1e-5):
        worst = 0.0
        for z in zs:
            fd = (d_f(z + h, lam) - d_f(z - h, lam)) / (2 * h)
            worst = max(worst, abs(fd - 1.0 / (z * (1.0 - z))))
        errs.append(worst)
    slopes["d2F"], _ = fit_loglog([1e-4, 1e-5], errs)

    # variable-change map derivative
    st = from_offset(200.0, 0.5, 0.5, 0.8)
    hs = [3e-2, 1e-2, 3e-3]
    errs = []
    for h in hs:
        worst = 0.0
        for r in (0.05, 0.2, 0.6):
            u = r * RAY
            fd = (zeta_of_u(u + h, st) - zeta_of_u(u - h, st)) / (2 * h)
            worst = max(worst, abs(fd - dzeta_du(u, st)))
        errs.append(worst)
    slopes["dzeta_du"], _ = fit_loglog(hs, errs)

    # iterated boundary-term operator, levels 1..3
    T = 5e3
    for N in (1, 2, 3):
        hs = [1e-3, 3e-4, 1e-4]
        errs = []
        for h in hs:
            worst = 0.0
            for z in (0.95 + 0.1j, 0.9 + 0.3j, 1.0 + 0.5j):
                def inner(w):
                    return (apply_ibp_operator(N - 1, w, T, lam)
                            / (-1j * T * d_f(w, lam)))
                fd = (inner(z + h) - inner(z - h)) / (2 * h)
                worst = max(worst, abs(fd - apply_ibp_operator(N, z, T, lam)))
            errs.append(worst)
        slopes[f"operator_{N}"], _ = fit_loglog(hs, errs)

    ok = all(abs(s - 2.0) <= 0.2 for s in slopes.values())
    detail = ", ".join(f"{k} {v:.2f}" for k, v in slopes.items())
    report(10, "finite-difference derivative checks are O(h^2)", ok, detail)
