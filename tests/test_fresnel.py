import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, strategies as st

from endpoint_uniform import (
    FT_FULL_LINE,
    FT_ZERO,
    NegativeArgument,
    NumericalError,
    OrderViolation,
    ZeroArgument,
    fresnel_segment,
    fresnel_tail,
    fresnel_tail_asymptotic,
    fresnel_tail_general,
)
from conftest import fit_loglog

ROT = cmath.exp(1j * math.pi / 4)

# Pinned by independent arbitrary-precision quadrature of the unrotated
# ray definition (integral from w=1 to infinity along angle pi/4).
TAIL_AT_ONE = complex(-0.277867169242521955870847, 0.3163887669343690237957889)


def erfc_form(w):
    """Independent closed form via the complementary error function."""
    return (math.sqrt(math.pi) / 2) * ROT * scipy.special.erfc(w * ROT.conjugate())


def mp_tail(w):
    """FT(w) from mpmath's erfc at 30 digits, at the exact double w."""
    with mpmath.workdps(30):
        rot = mpmath.expjpi(mpmath.mpf(1) / 4)
        w = mpmath.mpc(w)
        return complex(mpmath.sqrt(mpmath.pi) / 2 * rot * mpmath.erfc(w / rot))


def test_tail_at_zero_is_rotated_gaussian():
    v = fresnel_tail(0.0)
    expect = (math.sqrt(math.pi) / 2) * ROT
    assert abs(v - expect) < 1e-12
    assert v == FT_ZERO
    assert v.real == pytest.approx(v.imag, rel=1e-13)


def test_tail_at_one_independent_pin():
    assert abs(fresnel_tail(1.0) - TAIL_AT_ONE) < 1e-12


def test_tail_matches_erfc_identity_on_grid():
    for w in np.concatenate([np.linspace(0.0, 5.0, 21), [8.0, 15.0, 30.0, 50.0]]):
        v = fresnel_tail(float(w))
        e = erfc_form(float(w))
        assert abs(v - e) <= 1e-10 * max(abs(e), 1e-30)


def test_tail_rejects_negative_argument():
    with pytest.raises(NegativeArgument):
        fresnel_tail(-0.1)


def test_general_argument_matches_erfc_both_half_planes():
    pts = [0.3 + 0.7j, 2.0 + 0.1j, -1.5 + 0.4j, -2.0 - 0.5j, 1.0 - 0.2j,
           5.0 + 5.0j, 0.0 + 1.0j]
    for w in pts:
        v = fresnel_tail_general(w)
        e = erfc_form(w)
        assert abs(v - e) <= 1e-10 * max(abs(e), 1e-12), w


def test_general_argument_reflection_identity():
    for w in (0.7, 1.3 + 0.2j, -0.4 + 0.9j):
        total = fresnel_tail_general(w) + fresnel_tail_general(-w)
        assert abs(total - FT_FULL_LINE) < 1e-12


def test_segment_empty_and_sentinel():
    assert fresnel_segment(2.0, 2.0) == 0.0
    assert fresnel_segment(0.0, math.inf) == fresnel_tail(0.0)


def test_segment_matches_real_axis_quadrature():
    re, _ = scipy.integrate.quad(lambda x: math.cos(x * x), 1.0, 3.0,
                                 limit=200, epsabs=1e-13)
    im, _ = scipy.integrate.quad(lambda x: math.sin(x * x), 1.0, 3.0,
                                 limit=200, epsabs=1e-13)
    assert abs(fresnel_segment(1.0, 3.0) - complex(re, im)) < 1e-10


def test_segment_ordering_and_sign_errors():
    with pytest.raises(OrderViolation):
        fresnel_segment(3.0, 1.0)
    with pytest.raises(NegativeArgument):
        fresnel_segment(-1.0, 1.0)


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=3, max_size=3))
def test_segment_additivity(ws):
    a, b, c = sorted(ws)
    lhs = fresnel_segment(a, b) + fresnel_segment(b, c)
    rhs = fresnel_segment(a, c)
    assert abs(lhs - rhs) < 1e-12


def test_modulus_strictly_decreasing():
    grid = np.linspace(0.0, 50.0, 101)
    mods = [abs(fresnel_tail(float(w))) for w in grid]
    assert all(b < a for a, b in zip(mods, mods[1:]))


def test_asymptotic_leading_term_algebra():
    v = fresnel_tail_asymptotic(10.0)
    assert abs(v - cmath.exp(100j) * (1j / 20.0)) < 1e-15


def test_asymptotic_rejects_zero():
    with pytest.raises(ZeroArgument):
        fresnel_tail_asymptotic(0.0)


def test_asymptotic_agreement_at_w10():
    gap = abs(fresnel_tail(10.0) - fresnel_tail_asymptotic(10.0))
    assert gap / abs(fresnel_tail(10.0)) < 1e-2


def test_asymptotic_error_cubic_decay():
    ws = [5.0, 10.0, 20.0, 40.0]
    errs = [abs(fresnel_tail(w) - fresnel_tail_asymptotic(w)) for w in ws]
    slope, _ = fit_loglog(ws, errs)
    assert slope == pytest.approx(-3.0, abs=0.15)
    # the fitted prefactor C = err * w^3 stays stable over [5, 50]
    cs = [abs(fresnel_tail(w) - fresnel_tail_asymptotic(w)) * w ** 3
          for w in (5.0, 10.0, 20.0, 40.0, 50.0)]
    assert max(cs) / min(cs) < 1.3


def test_asymptotic_more_terms_tighten():
    # the expansion lead * (1 + sum_k (2k-1)!!/(2i w^2)^k): two more terms of
    # it cut the leading term's error tenfold
    w = 8.0
    exact = fresnel_tail(w)
    lead = fresnel_tail_asymptotic(w)
    x = 1.0 / (2j * w * w)
    e1 = abs(lead - exact)
    e3 = abs(lead * (1.0 + x + 3.0 * x * x) - exact)
    assert e3 < e1 / 10.0


# Lower limits off the pi/4 ray where the former nested quadrature stopped
# with NonConvergence after ~34 000 panels (second and fourth quadrant).
OFF_RAY = [
    -1.6327769485719297 + 4.7504186364063665j,
    -0.9489004691074636 + 3.961082961245517j,
    2.3519264101839887 - 2.2638173737797933j,
]


def test_general_argument_off_the_ray_matches_mpmath():
    rng = np.random.default_rng(5)
    pts = OFF_RAY + list(rng.uniform(-5.0, 5.0, 50) + 1j * rng.uniform(-5.0, 5.0, 50))
    for w in pts:
        ref = mp_tail(w)
        assert abs(fresnel_tail_general(w) - ref) <= 1e-12 * abs(ref), w


@pytest.mark.parametrize("omega, r", [(0.0, 8.0), (1.0, 5.0), (5.0, 5.0),
                                      (10.0, 2.0), (20.0, 0.5), (40.0, 0.5)])
def test_tiny_tail_on_the_ray_is_relatively_accurate(omega, r):
    # |FT| runs from ~1e-8 down to ~1e-30 here; an absolute tolerance would
    # leave no correct digits
    w = omega + r * ROT
    ref = mp_tail(w)
    assert abs(ref) < 2e-8
    assert abs(fresnel_tail_general(w) - ref) <= 1e-12 * abs(ref)


def test_array_input_equals_scalar_input():
    rng = np.random.default_rng(11)
    w = (rng.uniform(-6.0, 6.0, 60) + 1j * rng.uniform(-6.0, 6.0, 60)).reshape(3, 20)
    w[0, 0] = 0.0
    w[1, :5] = OFF_RAY + [7.5, 3.0 + 3.0 * ROT]
    got = fresnel_tail_general(w)
    assert got.shape == w.shape
    expect = np.array([fresnel_tail_general(complex(x)) for x in w.ravel()]).reshape(w.shape)
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)
    assert got[0, 0] == FT_ZERO


def test_overflowing_tail_raises_typed_error():
    # |e^{i w^2}| = e^{1200} at w = 30 - 20i: the tail does not fit a double
    with pytest.raises(NumericalError):
        fresnel_tail_general(30.0 - 20.0j)
    with pytest.raises(NumericalError):
        fresnel_tail_general(np.array([1.0, 30.0 - 20.0j]))
