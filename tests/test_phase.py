import cmath
import math

import mpmath
import numpy as np
import pytest

from endpoint_uniform import (
    BranchViolation,
    ProblemParams,
    SingularPoint,
    amp_g,
    big_f,
    critical_lambda,
    d2_f,
    d_f,
    d_f1,
    derive,
    exponent_identity_residual,
    f0,
    f1,
    from_offset,
    stationary_point,
)
from conftest import fit_loglog

# 50-digit arbitrary-precision evaluation of the phase at z=0.75+0.25i,
# lambda=1/3 (independent oracle, rounded to double precision)
BIG_F_PIN = complex(-1.536927949626735217951264, -0.02850995816464530837657814)


def test_phase_symmetric_point():
    assert big_f(0.5, 1.0) == pytest.approx(math.log(0.5), rel=1e-15)


def test_phase_lambda_term_exact():
    assert big_f(0.5, math.e ** 2) == pytest.approx(math.log(0.5) + 1.0, rel=1e-14)


def test_phase_complex_point_high_precision_pin():
    v = big_f(0.75 + 0.25j, 1.0 / 3.0)
    assert abs(v - BIG_F_PIN) < 1e-14 * abs(BIG_F_PIN)


def test_phase_cut_rejection():
    for z in (-0.5, 1.5, 0.0, 1.0, -0.5 + 1e-14j, 1.5 - 1e-14j):
        with pytest.raises(BranchViolation):
            big_f(z, 1.0)
    # interior of (0,1) on the real axis is fine
    big_f(0.25, 1.0)
    big_f(-0.5 + 1e-3j, 1.0)


def test_phase_derivative_zeros():
    assert abs(d_f(0.5, 1.0)) < 1e-14
    assert abs(d_f(0.25, 3.0)) < 1e-14


def test_second_derivative_value():
    assert d2_f(0.5) == pytest.approx(4.0, rel=1e-14)


def test_derivative_singularities():
    for z in (0.0, 1.0):
        with pytest.raises((SingularPoint, BranchViolation)):
            d_f(z, 1.0)


def test_stationary_point_values():
    assert stationary_point(1.0) == pytest.approx(0.5, rel=1e-15)
    assert stationary_point(3.0) == pytest.approx(0.25, rel=1e-15)
    lc = critical_lambda(16.0, 0.5)
    assert stationary_point(lc) == pytest.approx(1.0 - 16.0 ** -0.5, rel=1e-14)


def test_stationary_point_kills_derivative_on_grid():
    for lam in np.geomspace(0.05, 20.0, 25):
        z = stationary_point(lam)
        assert abs(d_f(z, lam)) < 1e-12


def test_f0_zero_offset_formula():
    lc = 0.2
    expect = math.log(lc / (1.0 + lc)) - lc * math.log((1.0 + lc) / lc)
    assert f0(0.0, lc) == pytest.approx(expect, rel=1e-14)


def test_f1_vanishes_at_origin():
    assert f1(0.0, 0.25, 0.5) == 0.0


def test_amp_g_unity_at_origin():
    assert amp_g(0.0, 0.25, 0.75) == 1.0


def _mp_offset_terms(zeta, lc, Lam):
    """f1 and f1' at 40 digits, with the summed magnitudes of their terms."""
    with mpmath.workdps(40):
        z, lc = mpmath.mpc(zeta), mpmath.mpf(lc)
        lg = mpmath.log1p(mpmath.mpf(Lam))
        la, lb = mpmath.log(1 + lc * z), mpmath.log(1 - z)
        f = lc * z * (lg + la - lb) + la + lc * lb
        df = lc * (lg + la - lb)
        f_size = abs(lc * z * (lg + la - lb)) + abs(la) + abs(lc * lb)
        df_size = lc * (abs(lg) + abs(la) + abs(lb))
        return complex(f), complex(df), float(f_size), float(df_size)


@pytest.mark.parametrize("lc", [1e-7, 1e-2, 1.0])
@pytest.mark.parametrize("Lam", [0.0, 0.5])
def test_f1_and_derivative_against_mpmath_at_small_zeta(lc, Lam):
    # log(1 + lc zeta) and log(1 - zeta) must keep the low bits of zeta: each
    # value is good to a few ulp of its largest term, not to eps absolute
    eps = np.finfo(float).eps
    zetas = [r * cmath.exp(1j * a) for r in (1e-12, 1e-8, 1e-4, 1e-2, 0.3, 0.7)
             for a in (math.pi / 4, 0.1, -2.0)]
    got_f = f1(np.array(zetas), lc, Lam)
    got_df = d_f1(np.array(zetas), lc, Lam)
    for i, zeta in enumerate(zetas):
        f, df, f_size, df_size = _mp_offset_terms(zeta, lc, Lam)
        for value in (f1(zeta, lc, Lam), got_f[i]):
            assert abs(value - f) <= 8 * eps * f_size
        for value in (d_f1(zeta, lc, Lam), got_df[i]):
            assert abs(value - df) <= 8 * eps * df_size


def test_f1_derivative_consistency():
    lc, Lam = 0.15, 0.8
    for zeta in (0.1 + 0.1j, 0.4 + 0.3j, 0.02 + 0.05j):
        h = 1e-6
        fd = (f1(zeta + h, lc, Lam) - f1(zeta - h, lc, Lam)) / (2 * h)
        assert abs(fd - d_f1(zeta, lc, Lam)) < 1e-8


def _fd_slope_first(lam, zs, hs):
    errs_per_h = []
    for h in hs:
        errs = []
        for z in zs:
            fd = (big_f(z + h, lam) - big_f(z - h, lam)) / (2 * h)
            errs.append(abs(fd - d_f(z, lam)))
        errs_per_h.append(max(errs))
    return fit_loglog(hs, errs_per_h)[0]


def test_derivative_finite_difference_order():
    rng = np.random.default_rng(7)
    zs = [complex(r, i) for r, i in zip(rng.uniform(0.2, 0.8, 40),
                                        rng.uniform(0.05, 0.5, 40))]
    slope = _fd_slope_first(0.7, zs, [1e-4, 1e-5])
    assert slope == pytest.approx(2.0, abs=0.2)


def test_second_derivative_finite_difference_order():
    rng = np.random.default_rng(8)
    zs = [complex(r, i) for r, i in zip(rng.uniform(0.2, 0.8, 40),
                                        rng.uniform(0.05, 0.5, 40))]
    hs = [1e-4, 1e-5]
    errs_per_h = []
    for h in hs:
        errs = [abs((d_f(z + h, 0.7) - d_f(z - h, 0.7)) / (2 * h) - d2_f(z))
                for z in zs]
        errs_per_h.append(max(errs))
    slope = fit_loglog(hs, errs_per_h)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_exponent_identity_on_grid():
    for t in (1e4, 1e6, 1e8):
        for Lam in (0.0, 0.5, 2.0):
            p = from_offset(t, 0.5, 0.5, Lam)
            assert exponent_identity_residual(p) <= 1e-9 * t
