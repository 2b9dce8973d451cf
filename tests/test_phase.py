import cmath
import math

import mpmath
import numpy as np
import pytest

from endpoint_uniform import phase
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
    # dF/dz's singular points lie on the cuts, which refuse them first
    for z in (0.0, 1.0, np.array([0.5 + 1j, 1.0])):
        with pytest.raises(BranchViolation):
            d_f(z, 1.0)


def test_second_derivative_singularities():
    for z in (0.0, 1.0, np.array([0.5 + 1j, 0.0])):
        with pytest.raises(SingularPoint):
            d2_f(z)


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


# ---------------------------------------------------------------------------
# Node logarithms from real functions: edge cases against 50-digit mpmath.
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
SHAPES = ("scalar", "0-d", "array")


def _shaped(points, shape):
    """The points as Python complex scalars, 0-d arrays or one array."""
    if shape == "array":
        return [np.array(points)]
    if shape == "0-d":
        return [np.array(z) for z in points]
    return list(points)


def _values(out, shape):
    """Flatten what an evaluator returned for _shaped inputs, checking its type."""
    if shape == "array":
        (arr,) = out
        assert isinstance(arr, np.ndarray) and arr.dtype == complex
        return list(arr)
    if shape == "scalar":
        assert all(type(v) is complex for v in out)
    return [complex(v) for v in out]


def _mp_z_frame(z, lam, sigma):
    """F and dF/dz with the summed magnitudes of their terms, and the
    amplitude (1-z)^(-1/2) z^(sigma-1/2), at 50 digits."""
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)
        log_w, log_z, log_lam = mpmath.log(1 - zm), mpmath.log(zm), mpmath.log(lam)
        terms = ((1 - zm) * log_w, zm * log_z, zm * log_lam)
        dterms = (log_z, -log_w, log_lam)
        amp = mpmath.exp(-log_w / 2 + (mpmath.mpf(sigma) - mpmath.mpf(0.5)) * log_z)
        return (complex(sum(terms)), float(sum(abs(x) for x in terms)),
                complex(sum(dterms)), float(sum(abs(x) for x in dterms)), complex(amp))


def _check_z_frame(points, lam, sigma, shape):
    args = _shaped(points, shape)
    pairs = [big_f(z, lam, sigma) for z in args]
    fs = _values([f for f, _ in pairs], shape)
    amps = _values([a for _, a in pairs], shape)
    dfs = _values([d_f(z, lam) for z in args], shape)
    for z, f, amp, df in zip(points, fs, amps, dfs):
        f_mp, f_size, df_mp, df_size, amp_mp = _mp_z_frame(z, lam, sigma)
        assert abs(f - f_mp) <= 4 * EPS * f_size, z
        assert abs(df - df_mp) <= 4 * EPS * df_size, z
        assert abs(amp - amp_mp) <= 8 * EPS * abs(amp_mp), z


def _unit_circle():
    """e^(i theta) rounded, with Re z moved one ulp either way: |z| = 1 to 1 ulp."""
    points = []
    for theta in (1e-12, 1e-8, 1e-4, 0.1, 1.0, 3.0):
        z = cmath.exp(1j * theta)
        for x in (np.nextafter(z.real, -2.0), z.real, np.nextafter(z.real, 2.0)):
            points.append(complex(x, z.imag))
    return points


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sigma", [0.5, 0.7, 0.2])
@pytest.mark.parametrize("lam", [1e-4, 1.0, 30.0])
def test_z_frame_on_the_unit_circle(shape, sigma, lam):
    # log z from z - 1, exact there: no loss of the small real part of log z
    _check_z_frame(_unit_circle(), lam, sigma, shape)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sigma", [0.5, 0.7])
def test_z_frame_next_to_the_origin(shape, sigma):
    # |z|^2 < 1/2: log z falls back to log|z| of z itself, not of 1 + (z - 1),
    # which dF/dz and the amplitude show
    _check_z_frame([0.3 + 0.2j, -0.5 + 1e-3j], 0.7, sigma, shape)


SMALL_Z = [0.01 - 0.01j, 1e-3 + 1e-4j, 1e-6 + 1e-6j, 1e-9 + 1e-8j, 1e-12 - 1e-10j,
           -1e-7 + 3e-7j, 0.2 + 0.3j, -0.3 - 0.1j]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("lam", [1e-4, 0.7, 30.0])
def test_z_frame_at_small_z(shape, lam):
    # (1-z) log(1-z) ~ -z cancels against z log z and z log lambda only to
    # the accuracy of log(1-z), which log1p(-z) keeps and log of the rounded
    # 1 - z does not; an array that also holds points next to z = 1 (the
    # oracle's, which keep log(1-z) from 1 - z) takes log1p only where it must
    near_one = [1.0 - 1e-3 + 1e-3j, 0.6 + 0.05j]
    _check_z_frame(SMALL_Z + near_one, lam, 0.7, shape)


def test_z_frame_of_an_empty_array():
    empty = np.array([], dtype=complex)
    assert big_f(empty, 0.7).shape == d_f(empty, 0.7).shape == (0,)


def test_log1p_fallback_next_to_the_branch_point():
    # s = |1 + z|^2 - 1 < -1/2: log(1 + z) from 1 + z itself (exact here by
    # Sterbenz), scalar and array alike
    zs = [-0.9 + 0.1j, -1.0 + 1e-3j, -0.5 + 0.45j, -1.2 - 0.3j, -1.0 + 1e-200j]
    got = list(phase._log1p(np.array(zs))) + [phase._log1p(z) for z in zs]
    for z, value in zip(zs + zs, got):
        with mpmath.workdps(50):
            want = mpmath.log(1 + mpmath.mpc(z))
        assert abs(value - complex(want)) <= 2 * EPS * abs(want), z


@pytest.mark.parametrize("shape", SHAPES)
def test_log_keeps_moduli_from_1e_300_to_1e300(shape):
    ws = [r * cmath.exp(1j * a) for r in (1e-300, 1e300) for a in (0.3, 2.0, -2.5)]
    ws += [complex(1e-300, 0.0), complex(0.0, -1e-300)]
    for w, value in zip(ws, _values([phase._log(w) for w in _shaped(ws, shape)], shape)):
        with mpmath.workdps(50):
            want = mpmath.log(mpmath.mpc(w))
        assert abs(value - complex(want)) <= 2 * EPS * abs(want), w


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sigma", [0.5, 0.7])
def test_offset_frame_at_one_minus_zeta_1e_300(shape, sigma):
    # |1 - zeta| = 1e-300: |1 - zeta|^2 would underflow to 0.  The amplitude
    # is exp(e) with |e| ~ 345, whose rounding exp turns into ~|e| ulp
    lc, Lam = 0.25, 0.5
    zetas = [complex(1.0, 1e-300), complex(1.0, -1e-300)]
    args = _shaped(zetas, shape)
    pairs = [f1(z, lc, Lam, sigma) for z in args]
    fs = _values([f for f, _ in pairs], shape)
    amps = _values([a for _, a in pairs], shape)
    alone = _values([amp_g(z, lc, sigma) for z in args], shape)
    for zeta, f, amp, amp_alone in zip(zetas, fs, amps, alone):
        f_mp, _df, f_size, _dsize = _mp_offset_terms(zeta, lc, Lam)
        with mpmath.workdps(50):
            zm = mpmath.mpc(zeta)
            want = complex((1 - zm) ** -0.5 * (1 + lc * zm) ** (mpmath.mpf(sigma) - 0.5))
        assert abs(f - f_mp) <= 8 * EPS * f_size
        assert amp == amp_alone
        assert abs(amp - want) <= 8 * EPS * abs(want) * (1.0 + abs(cmath.log(want)))


@pytest.mark.parametrize("sigma", [0.5, 0.7])
def test_amp_g_takes_numpys_side_of_its_cuts(sigma):
    # signed zeros on zeta >= 1 and on zeta <= -1/lambda_c: the upper side,
    # as numpy's powers take it, for scalars and arrays
    lc = 0.25
    zetas = [complex(2.0, 0.0), complex(2.0, -0.0), complex(-8.0, 0.0), complex(-8.0, -0.0)]
    za = np.array(zetas)
    want = (1.0 - za) ** -0.5 * (1.0 + lc * za) ** (sigma - 0.5)
    for got in (amp_g(za, lc, sigma), [amp_g(z, lc, sigma) for z in zetas]):
        for value, expect in zip(got, want):
            assert abs(value - expect) <= 8 * EPS * abs(expect)


def test_z_frame_refuses_either_side_of_its_cuts():
    for z in (complex(2.0, 0.0), complex(2.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0)):
        for evaluate in (lambda z: big_f(z, 1.0, 0.7), lambda z: d_f(z, 1.0)):
            with pytest.raises(BranchViolation):
                evaluate(z)
            with pytest.raises(BranchViolation):
                evaluate(np.array([0.5 + 0.5j, z]))
