import cmath
import math

import mpmath
import numpy as np
import pytest

from endpoint_uniform import phase
from endpoint_uniform import (
    BranchViolation,
    Split,
    amp_g,
    big_f,
    choose_split,
    critical_lambda,
    d_f,
    d_f1,
    exponent_identity_residual,
    f0,
    f1,
    from_offset,
    split_from_a,
)
from endpoint_uniform.params import corollary_split, endpoint_offset
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


def test_derivative_singularities():
    # dF/dz's singular points lie on the cuts, which refuse them first
    for z in (0.0, 1.0, np.array([0.5 + 1j, 1.0])):
        with pytest.raises(BranchViolation):
            d_f(z, 1.0)


def test_stationary_point_kills_derivative_on_grid():
    # dF/dz vanishes at z = 1/(1+lambda), which meets the left endpoint
    # 1 - t^(delta-1) at lambda = lambda_c
    for lam in np.geomspace(0.05, 20.0, 25):
        assert abs(d_f(1.0 / (1.0 + lam), lam)) < 1e-12
    lc = critical_lambda(16.0, 0.5)
    assert 1.0 / (1.0 + lc) == pytest.approx(1.0 - 16.0 ** -0.5, rel=1e-14)


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
        # d2F/dz2 = 1/(z(1-z))
        errs = [abs((d_f(z + h, 0.7) - d_f(z - h, 0.7)) / (2 * h) - 1.0 / (z * (1.0 - z)))
                for z in zs]
        errs_per_h.append(max(errs))
    slope = fit_loglog(hs, errs_per_h)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_exponent_identity_on_grid():
    for t in (1e4, 1e6, 1e8):
        for Lam in (0.0, 0.5, 2.0):
            p = from_offset(t, 0.5, 0.5, Lam)
            assert exponent_identity_residual(p) <= 1e-9 * t


def _mp_split_phases(d, a):
    """t F(1-k; lambda) at the split k = e (1-a) and at the endpoint k = e, at
    40 digits from the doubles t, lambda, a and e = endpoint_offset."""
    with mpmath.workdps(40):
        t, lam = mpmath.mpf(d.t), mpmath.mpf(d.lam)
        e = mpmath.mpf(endpoint_offset(d.t, d.delta))

        def t_f(k):
            return t * (k * mpmath.log(k) + (1 - k) * mpmath.log((1 - k) * lam))

        return t_f(e * (1 - mpmath.mpf(a))), t_f(e)


@pytest.mark.parametrize("t", (1e4, 1e8, 1e12, 1e14))
@pytest.mark.parametrize("Lam", (0.0, 0.5, 10.0))
def test_split_oscillation_is_the_endpoints_times_the_collapsed_difference(t, Lam):
    d = from_offset(t, 0.5, 0.5, Lam)
    for split in (corollary_split(d), choose_split(d, 8), split_from_a(d, 0.1)):
        at_split, at_end = _mp_split_phases(d, split.a)
        osc = phase.split_oscillation(d, split)
        # the whole value: no double rounding of the t-sized phase beats this
        assert abs(osc - complex(mpmath.expj(at_split))) <= 64 * EPS * float(abs(at_split))
        # relative to the endpoint: only the collapsed terms' rounding is left
        td, a, lc = d.t**d.delta, split.a, d.lambda_c
        terms = (td * a * math.log1p(Lam), td * (1 - a) * math.log1p(-a),
                 (d.t - td * (1 - a)) * math.log1p(a * lc))
        ratio = osc / phase._endpoint_oscillation(d)
        with mpmath.workdps(40):
            exact = complex(mpmath.expj(at_split - at_end))
        assert abs(ratio - exact) <= 64 * EPS * (sum(map(abs, terms)) + 1.0)


def test_split_oscillation_at_zero_width_is_the_endpoints():
    d = from_offset(1e14, 0.5, 0.5, 0.5)
    end = Split(endpoint_offset(d.t, d.delta), 0.0)
    assert phase.split_oscillation(d, end) == phase._endpoint_oscillation(d)


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
    else:
        assert all(isinstance(v, np.ndarray) and v.shape == () for v in out)
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
    # Sterbenz), one array and 0-d arrays alike
    zs = [-0.9 + 0.1j, -1.0 + 1e-3j, -0.5 + 0.45j, -1.2 - 0.3j, -1.0 + 1e-200j]
    got = list(phase._log1p(np.array(zs))) + [phase._log1p(np.array(z)) for z in zs]
    for z, value in zip(zs + zs, got):
        with mpmath.workdps(50):
            want = mpmath.log(1 + mpmath.mpc(z))
        assert abs(value - complex(want)) <= 2 * EPS * abs(want), z


@pytest.mark.parametrize("shape", SHAPES)
def test_log_keeps_moduli_from_1e_300_to_1e300(shape):
    # a Python number reaches _log as the one-element array that the public
    # wrapper hands it, and leaves it as a complex
    ws = [r * cmath.exp(1j * a) for r in (1e-300, 1e300) for a in (0.3, 2.0, -2.5)]
    ws += [complex(1e-300, 0.0), complex(0.0, -1e-300)]
    if shape == "scalar":
        out = [complex(phase._log(np.array([w]))[0]) for w in ws]
    else:
        out = [phase._log(w) for w in _shaped(ws, shape)]
    for w, value in zip(ws, _values(out, shape)):
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


# ---------------------------------------------------------------------------
# f1 at small zeta: no cancellation of its linear terms.
# ---------------------------------------------------------------------------

def _mp_f1_relative_error(value, zeta, lc, Lam):
    """|value - f1| / |f1|, with f1 at 50 digits."""
    with mpmath.workdps(50):
        z, lc = mpmath.mpc(zeta), mpmath.mpf(lc)
        la, lb = mpmath.log(1 + lc * z), mpmath.log(1 - z)
        f = lc * z * (mpmath.log1p(mpmath.mpf(Lam)) + la - lb) + la + lc * lb
        return float(abs(mpmath.mpc(value) - f) / abs(f))


@pytest.mark.parametrize("lc", [1e-2, 1e-4, 1e-7])
@pytest.mark.parametrize("Lam", [0.0, 1e-6, 0.5])
def test_f1_to_4_eps_of_itself_on_the_ray(lc, Lam):
    # log(1 + lc zeta) + lc log(1 - zeta) cancels its linear terms down to
    # -lc (1+lc) zeta^2/2, which is all of f1 at Lambda = 0: f1 must not take
    # its value from that sum
    zetas = [r * cmath.exp(1j * math.pi / 4)
             for r in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5)]
    got = list(f1(np.array(zetas), lc, Lam)) + [f1(z, lc, Lam) for z in zetas]
    for zeta, value in zip(zetas + zetas, got):
        assert _mp_f1_relative_error(value, zeta, lc, Lam) <= 4 * EPS, zeta


@pytest.mark.parametrize("shape", ["1-element", "array"])
def test_wlogw_on_either_side_of_its_series_disk(shape):
    # (1+y) log(1+y) - y: the series inside |y - 2/3| <= 4/3, the direct
    # form outside, both to a few ulp; an array mixes the two.  A point
    # alone comes as the one-element array that a scalar's f1 hands it
    ys = [1e-9 + 2e-9j, -0.6 + 0.1j, -0.7 + 0.1j, 1.9 - 0.4j, 2.1 + 0.0j,
          1e3 - 5e2j, -0.3 - 1.2j, -0.4 - 1.3j]
    args = [np.array(ys)] if shape == "array" else [np.array([y]) for y in ys]
    got = np.concatenate([phase._wlogw(y, phase._log1p(y)) for y in args])
    for y, value in zip(ys, got):
        with mpmath.workdps(50):
            w = 1 + mpmath.mpc(y)
            want = w * mpmath.log(w) - (w - 1)
            assert abs(mpmath.mpc(value) - want) <= 4 * EPS * abs(want), y


def test_atanh_tail_is_the_14th_convergent():
    # T(v) = 1/(b1 + a2/(b2 + a3/(b3 + ...))) with b1 = 3 - v, a_k = -k^2 v
    # and b_k = 2k + 1: numerator and denominator by the convergents'
    # recurrence P_k = b_k P_(k-1) + a_k P_(k-2), in integer arithmetic
    def plus(p, q):
        out = [0] * max(len(p), len(q))
        for c in (p, q):
            for i, ci in enumerate(c):
                out[i] += ci
        return out

    def times(f, p):
        out = [0] * (len(f) + len(p) - 1)
        for i, fi in enumerate(f):
            for j, pj in enumerate(p):
                out[i + j] += fi * pj
        return out

    num, num_prev, den, den_prev = [0], [1], [1], [0]
    for k in range(1, 15):
        b, a = ([3, -1], [1]) if k == 1 else ([2 * k + 1], [0, -k * k])
        num, num_prev = plus(times(b, num), times(a, num_prev)), num
        den, den_prev = plus(times(b, den), times(a, den_prev)), den
    g = math.gcd(*num, *den)
    want = [[c // g for c in num] + [0] * (len(den) - len(num)), [c // g for c in den]]
    assert [list(pair) for pair in zip(*want)] == [list(p) for p in phase._ATANH_TAIL_PAIRS]
    assert (phase._ATANH_TAIL == np.array(want)).all()


# ---------------------------------------------------------------------------
# One array path: scalars, 0-d arrays and arrays take the same operations.
# ---------------------------------------------------------------------------

PUBLIC_EVALUATORS = {
    "big_f": lambda z: big_f(z, 0.7),
    "big_f-sigma": lambda z: big_f(z, 0.7, 0.7),
    "d_f": lambda z: d_f(z, 0.7),
    "f1": lambda z: f1(z, 0.01, 0.5),
    "f1-sigma": lambda z: f1(z, 0.01, 0.5, 0.7),
    "d_f1": lambda z: d_f1(z, 0.01, 0.5),
    "amp_g": lambda z: amp_g(z, 0.01, 0.7),
}
# both frames' series and direct branches, next to z = 1 and next to 0
ONE_PATH_POINTS = [0.3 + 0.2j, 1.0 - 1e-3 + 1e-3j, 1e-9 + 1e-8j, -0.5 + 1e-3j,
                   0.75 + 0.25j, 0.7 - 0.1j, 2.0 + 1.0j, 1e-5 - 1e-5j]


@pytest.mark.parametrize("name", sorted(PUBLIC_EVALUATORS))
def test_every_public_evaluator_gives_each_shape_the_same_bits(name):
    evaluate = PUBLIC_EVALUATORS[name]
    pair = name.endswith("sigma")
    by_shape = {}
    for shape in SHAPES:
        out = [evaluate(z) for z in _shaped(ONE_PATH_POINTS, shape)]
        parts = list(zip(*out)) if pair else [out]
        by_shape[shape] = [_values(list(part), shape) for part in parts]
    assert by_shape["scalar"] == by_shape["0-d"] == by_shape["array"]
    # an array keeps its shape, 2-d included
    grid = np.array(ONE_PATH_POINTS).reshape(2, 4)
    out = evaluate(grid)
    for part, flat in zip(out if pair else [out], by_shape["array"]):
        assert part.shape == (2, 4) and list(part.ravel()) == flat
    # a list is neither a number nor an array: refused, not read as its first point
    with pytest.raises(TypeError):
        evaluate(ONE_PATH_POINTS)


def test_t_phase_is_big_fs_real_part_to_the_last_bit():
    # the closed form at the real point z = 1-k keeps big_f's operations
    points = 0
    for t in (1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e15):
        for delta in (0.3, 0.5, 0.7):
            for Lam in (0.0, 1e-6, 0.5, 10.0):
                d = from_offset(t, delta, 0.5, Lam)
                for k in (endpoint_offset(t, delta), corollary_split(d).k,
                          choose_split(d, 8).k):
                    want = t * big_f(np.array([1.0 - k]), d.lam)[0].real
                    assert phase.t_phase(t, d.lam, k) == want, (t, delta, Lam, k)
                    points += 1
    assert points == 252
    # big_f's cut test, and its log1p branch for log(1 - z) at |z|^2 < 1/2
    for k in (0.0, 1e-14, 1.0, 1.5):
        with pytest.raises(BranchViolation):
            phase.t_phase(1e4, 0.7, k)
    for k in (0.4, 0.8, 0.99):
        assert phase.t_phase(3.0, 0.7, k) == 3.0 * big_f(np.array([1.0 - k]), 0.7)[0].real


def _mp_split_derivative(d, split):
    """F'(1-k; lambda) at 50 digits, at the program's own e = t^(delta-1),
    Lambda and k: lambda = lambda_c (1+Lambda) with lambda_c = e/(1-e)."""
    with mpmath.workdps(50):
        e, k = mpmath.mpf(endpoint_offset(d.t, d.delta)), mpmath.mpf(split.k)
        return (mpmath.log1p(mpmath.mpf(d.Lambda)) + mpmath.log(e / (1 - e))
                + mpmath.log((1 - k) / k))


def test_split_derivative_to_4_eps_on_the_window():
    # log(1/k - 1) + log(lambda) and F' at the rounded point 1-k lose up to
    # 6.6e-11 and 2.4e-5 relative on this grid
    points = 0
    for t in (1e4, 1e5, 1e6, 1e7, 1e8, 1e10, 1e12, 1e14):
        for Lam in (0.0, 1e-6, 0.5, 1.0, 10.0):
            for delta in (0.3, 0.5, 0.7):
                d = from_offset(t, delta, 0.5, Lam)
                for split in (corollary_split(d), choose_split(d, 4), choose_split(d, 8)):
                    want = _mp_split_derivative(d, split)
                    got = phase.split_derivative(d, split)
                    assert abs(got - want) <= 4 * EPS * abs(want), (t, Lam, delta, split)
                    points += 1
    assert points == 360


def test_split_routes_take_d_from_split_derivative(monkeypatch):
    # the terms and the corollary read D from the split's own numbers and
    # pass no point to the z-frame evaluators
    from endpoint_uniform import all_orders, corollary_leading, t_term

    def refuse(*args):
        raise AssertionError("z-frame evaluator called")

    calls = []
    read = phase.split_derivative
    monkeypatch.setattr(phase, "d_f", refuse)
    monkeypatch.setattr(phase, "big_f", refuse)
    monkeypatch.setattr(phase, "split_derivative", lambda d, s: calls.append(s) or read(d, s))
    d = from_offset(1e6, 0.5, 0.5, 0.5)
    split = choose_split(d, 6)
    all_orders(d, 6, split)
    assert calls == [split]
    corollary_leading(d)
    assert calls[1:] == [corollary_split(d)]
    t_term(2, d, split)
    assert len(calls) == 3
