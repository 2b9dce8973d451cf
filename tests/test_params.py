import math
import re

import pytest
from hypothesis import given, strategies as st

from endpoint_uniform import (
    InvalidParam,
    InvalidSplit,
    OutOfRange,
    ProblemParams,
    admissible_lambda_range,
    choose_split,
    critical_lambda,
    default_split_exponent,
    derive,
    from_offset,
    from_omega,
    select_phi,
    split_from_a,
)
from endpoint_uniform.params import endpoint_offset

# Derived with an independent arbitrary-precision calculator:
# sqrt(8/3) * ln 2 / (4/3) at t=16, delta=1/2, lambda=2/3.
OMEGA_T16 = 0.8489284545103327710701368


def test_derive_critical_point_zero_offset():
    d = derive(ProblemParams(t=16.0, delta=0.5, sigma=0.5, lam=1.0 / 3.0))
    assert d.lambda_c == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert d.Lambda == 0.0
    assert d.omega == 0.0


def test_derive_unit_offset_omega():
    d = derive(ProblemParams(t=16.0, delta=0.5, sigma=0.5, lam=2.0 / 3.0))
    assert d.lambda_c == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert d.Lambda == pytest.approx(1.0, rel=1e-14)
    assert d.omega == pytest.approx(OMEGA_T16, rel=1e-13)


def test_lambda_above_admissible_range_rejected():
    # upper bound is t^(1-delta) - 1 = 3 at t=16, delta=1/2
    with pytest.raises(OutOfRange):
        ProblemParams(t=16.0, delta=0.5, sigma=0.5, lam=4.0)


def test_lambda_below_admissible_range_rejected():
    lo, _ = admissible_lambda_range(16.0, 0.5)
    with pytest.raises(OutOfRange):
        ProblemParams(t=16.0, delta=0.5, sigma=0.5, lam=lo * 0.999)


@pytest.mark.parametrize("t, delta", [(3.9, 0.5), (1e4, 0.99)])
def test_empty_lambda_window_is_invalid_param(t, delta):
    # t^(1-delta) < 2: lambda_c exceeds t^(1-delta) - 1, so no lambda, not
    # even lambda_c itself, is admissible
    with pytest.raises(InvalidParam, match="admit no lambda"):
        ProblemParams(t=t, delta=delta, sigma=0.5, lam=critical_lambda(t, delta))
    with pytest.raises(InvalidParam, match="admit no lambda"):
        from_offset(t, delta, 0.5, 0.0)


def test_boundary_lambda_accepted_closed_interval():
    lo, hi = admissible_lambda_range(16.0, 0.5)
    for lam in (lo, hi):
        p = ProblemParams(t=16.0, delta=0.5, sigma=0.5, lam=lam)
        assert derive(p).Lambda >= 0.0


@pytest.mark.parametrize("kw", [
    {"t": 0.5}, {"t": 1.0}, {"delta": 0.0}, {"delta": 1.0},
    {"sigma": 0.4}, {"sigma": 1.0},
])
def test_invalid_scalar_parameters(kw):
    base = {"t": 16.0, "delta": 0.5, "sigma": 0.5, "lam": 1.0 / 3.0}
    base.update(kw)
    with pytest.raises(InvalidParam):
        ProblemParams(**base)


def test_select_phi_branches():
    assert select_phi(1.0) == pytest.approx(math.pi / 4, rel=1e-15)
    assert select_phi(2.0) == pytest.approx(math.pi / 4, rel=1e-15)
    assert select_phi(math.exp(-math.pi)) == pytest.approx(math.pi / 8, rel=1e-14)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
def test_select_phi_refuses_a_lambda_that_is_not_finite_and_positive(lam):
    # NaN failed "lam <= 0" and came back as the angle NaN
    with pytest.raises(InvalidParam, match="lambda must be finite and > 0"):
        select_phi(lam)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_select_phi_always_in_open_quadrant(loglam):
    lam = math.exp(loglam)
    phi = select_phi(lam)
    assert 0.0 < phi < math.pi / 2
    if loglam < 0.0:
        assert phi < math.atan(math.pi / abs(loglam))


def test_choose_split_default_exponent_m4():
    p = ProblemParams(t=1e6, delta=0.5, sigma=0.5, lam=critical_lambda(1e6, 0.5))
    dd = choose_split(derive(p), 4)
    assert dd.a == pytest.approx(10.0 ** (-21.0 / 16.0), rel=1e-14)
    assert dd.k == pytest.approx(1e6 ** -0.5 * (1.0 - dd.a), rel=1e-14)


def test_choose_split_exponent_sandwich_violation():
    p = ProblemParams(t=1e6, delta=0.5, sigma=0.5, lam=critical_lambda(1e6, 0.5))
    d = derive(p)
    # for m=4 the window is (1/2 - 1/14, 1/2 - 1/18); 0.4 sits below it
    with pytest.raises(InvalidSplit):
        choose_split(d, 4, b=0.4)
    with pytest.raises(InvalidSplit):
        choose_split(d, 3)


def test_choose_split_m5_default():
    assert default_split_exponent(5) == pytest.approx(0.45, rel=1e-15)
    p = ProblemParams(t=1e6, delta=0.5, sigma=0.5, lam=critical_lambda(1e6, 0.5))
    dd = choose_split(derive(p), 5)
    assert dd.a == pytest.approx(1e6 ** (-0.45 * 0.5), rel=1e-14)


def test_split_derived_quantities_consistent():
    p = ProblemParams(t=1e5, delta=0.5, sigma=0.5, lam=critical_lambda(1e5, 0.5) * 1.5)
    dd = choose_split(derive(p), 4)
    assert dd.k == pytest.approx(p.t ** (0.5 - 1.0) * (1.0 - dd.a), rel=1e-15)
    # D_- = -log(1-a) and the phase derivative D = F'(1-k) at the split
    d_minus = -math.log1p(-dd.a)
    assert d_minus == pytest.approx(math.log(p.t ** -0.5 / dd.k), rel=1e-12)
    assert math.log(p.lam * (1.0 - dd.k) / dd.k) >= d_minus


def test_split_from_a_validates_range():
    d = derive(ProblemParams(t=1e5, delta=0.5, sigma=0.5,
                             lam=critical_lambda(1e5, 0.5)))
    dd = split_from_a(d, 0.05)
    assert dd.a == 0.05
    with pytest.raises(InvalidSplit):
        split_from_a(d, 1.5)
    with pytest.raises(InvalidSplit):
        split_from_a(d, 0.0)


@given(st.floats(min_value=2.0, max_value=7.0), st.floats(min_value=0.0, max_value=1.0))
def test_offset_round_trip(log10t, frac):
    t = 10.0 ** log10t
    lo, hi = admissible_lambda_range(t, 0.5)
    lam = lo + frac * (min(hi, lo * 50.0) - lo)
    d = derive(ProblemParams(t=t, delta=0.5, sigma=0.5, lam=lam))
    assert d.lambda_c * (1.0 + d.Lambda) == pytest.approx(lam, rel=5e-15)


def test_omega_zero_iff_critical_and_increasing():
    t = 1e5
    omegas = [from_offset(t, 0.5, 0.5, L).omega
              for L in (0.0, 0.1, 0.3, 1.0, 3.0)]
    assert omegas[0] == 0.0
    assert all(b > a for a, b in zip(omegas, omegas[1:]))
    assert all(w > 0 for w in omegas[1:])


def test_d_minus_matches_a_for_small_splits():
    for a in (1e-2, 1e-3, 1e-4):
        d_minus = -math.log1p(-a)
        assert d_minus / a == pytest.approx(1.0, abs=1e-2)


def test_from_omega_round_trip():
    for om in (0.0, 0.5, 3.0, 12.0):
        d = from_omega(1e6, 0.5, 0.5, om)
        assert d.omega == pytest.approx(om, rel=1e-12, abs=1e-12)
    assert from_omega(1e14, 0.5, 0.5, 0.0).omega == 0.0


def test_from_omega_misses_by_the_rounding_of_the_offset():
    # the offset Lambda ~ omega sqrt(2/(lambda_c t)) is small at large t and
    # small omega, and lambda_c (1 + Lambda) keeps it to eps/Lambda
    eps = 2.0**-52
    for t in (1e4, 1e8, 1e12, 1e14):
        for om in (0.05, 0.5, 3.0, 20.0):
            d = from_omega(t, 0.5, 0.5, om)
            assert abs(d.omega - om) <= 2 * eps * (1.0 + 1.0 / d.Lambda) * om


def test_from_offset_round_trip():
    d = from_offset(1e6, 0.5, 0.5, 0.7)
    assert d.Lambda == pytest.approx(0.7, rel=1e-13)


@pytest.mark.parametrize("t, delta, Lambda", [(16.0, 0.5, 0.0), (1e6, 0.5, 0.7),
                                              (3e10, 0.3, 10.0)])
def test_the_constructors_return_the_derived_record(t, delta, Lambda):
    # the record derive gives for the lambda they construct, field for field
    d = from_offset(t, delta, 0.75, Lambda)
    assert d == derive(ProblemParams(t=t, delta=delta, sigma=0.75,
                                     lam=critical_lambda(t, delta) * (1.0 + Lambda)))
    w = from_omega(t, delta, 0.75, d.omega)
    lc = critical_lambda(t, delta)
    Lam = math.expm1(d.omega * (1.0 + lc) * math.sqrt(2.0 / (lc * t)))
    assert w == derive(ProblemParams(t=t, delta=delta, sigma=0.75, lam=lc * (1.0 + Lam)))


@pytest.mark.parametrize("t, omega", [(1e4, 1e6), (1e4, 1e300), (1e14, 1e9)])
def test_an_omega_whose_offset_overflows_is_out_of_range(t, omega):
    # expm1 of omega (1 + lambda_c) sqrt(2/(lambda_c t)) passes the doubles
    # above ~710; it raised an untyped OverflowError
    with pytest.raises(OutOfRange, match=re.escape(f"omega={omega} ")) as exc:
        from_omega(t, 0.5, 0.5, omega)
    assert exc.value.lower == 0.0


@pytest.mark.parametrize("build, name", [(from_offset, "Lambda"), (from_omega, "omega")])
def test_a_nan_offset_or_omega_is_invalid_param_naming_it(build, name):
    # NaN < 0 is false: the guard let it through, to be refused as a lambda
    with pytest.raises(InvalidParam, match=f"^{name} must be a number, got nan"):
        build(1e4, 0.5, 0.5, math.nan)


@pytest.mark.parametrize("build, name", [(from_offset, "Lambda"), (from_omega, "omega")])
def test_an_infinite_offset_or_omega_is_invalid_param_naming_it(build, name):
    # inf passed the NaN and sign guards and was refused as a lambda the
    # caller never gave: "lambda must be finite and > 0, got inf"
    with pytest.raises(InvalidParam, match=f"^{name} must be finite, got inf$"):
        build(1e4, 0.5, 0.5, math.inf)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_lambda_is_invalid(lam):
    with pytest.raises(InvalidParam, match="finite"):
        ProblemParams(t=16.0, delta=0.5, sigma=0.5, lam=lam)


@pytest.mark.parametrize("build", [from_offset, from_omega])
@pytest.mark.parametrize("value", [-1.0, -1e-300, -math.inf])
def test_negative_offset_or_omega_is_out_of_range(build, value):
    with pytest.raises(OutOfRange) as exc:
        build(16.0, 0.5, 0.5, value)
    assert exc.value.lower == 0.0


def test_endpoint_offset_is_the_one_split_and_window_rule():
    # t^(delta-1) fixes lambda_c, the split point and the split check alike
    t, delta = 3e4, 0.5
    end = endpoint_offset(t, delta)
    assert end == t ** (delta - 1.0)
    assert critical_lambda(t, delta) == end / (1.0 - end)
    d = from_offset(t, delta, 0.5, 0.6)
    assert split_from_a(d, 0.25).k == end * 0.75


def test_lambda_at_the_critical_value_gives_offset_zero_exactly():
    # derive subtracts the same double ProblemParams compares with, so the
    # offset at the lower end of the window is 0 and never below it
    for t in (1e4, 3.3e7, 1e14):
        for delta in (0.3, 0.5, 0.8):
            lc = critical_lambda(t, delta)
            assert derive(ProblemParams(t=t, delta=delta, sigma=0.5, lam=lc)).Lambda == 0.0
