"""Closed-form approximations: leading order in both regimes, the split
expansion driver, and the concrete two-term corollary form."""

import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from endpoint_uniform import (
    OMEGA_THRESHOLD_DEFAULT,
    Approximation,
    AssumptionViolated,
    Method,
    NumericalError,
    OrderViolation,
    Regime,
    RegimeMismatch,
    SigmaUnsupported,
    all_orders,
    choose_split,
    classify_regime,
    corollary_leading,
    endpoint_prefactor,
    exponent_identity_residual,
    fresnel_segment,
    fresnel_tail,
    from_offset,
    from_omega,
    jb1_main,
    jb1_oracle,
    jb_oracle,
    jtilde_oracle,
    leading_order,
    leading_order_large_omega,
    phase_difference_residual,
    split_from_a,
)
from endpoint_uniform.params import corollary_split

EPS = 2.0**-52


def _jb1_main_mp(p, a):
    """jb1_main's formula at 40 digits from the double inputs t, delta,
    lambda and a: (value, |t F(1 - t^(delta-1); lambda)|)."""
    with mp.workdps(40):
        t, lam, a = mp.mpf(p.t), mp.mpf(p.lam), mp.mpf(a)
        k = t ** (mp.mpf(p.delta) - 1)
        lc = k / (1 - k)
        omega = mp.sqrt(lc * t / 2) * mp.log(lam / lc) / (1 + lc)
        phase = t * (k * mp.log(k) + (1 - k) * mp.log((1 - k) * lam))
        rot = mp.expjpi(mp.mpf(1) / 4)

        def tail(w):
            return mp.sqrt(mp.pi) / 2 * rot * mp.erfc(w / rot)

        seg = tail(omega) - tail(omega + a * mp.sqrt(lc * t / 2))
        value = mp.sqrt(2 / (t * (1 + lc))) * mp.expj(phase - omega**2) * seg
        return complex(value), float(abs(phase))


class TestRegime:
    def test_threshold_is_exclusive_above(self):
        assert classify_regime(5.0) is Regime.OMEGA_BOUNDED
        assert classify_regime(5.0001) is Regime.OMEGA_LARGE
        assert classify_regime(0.0) is Regime.OMEGA_BOUNDED
        assert classify_regime(100.0) is Regime.OMEGA_LARGE

    def test_leading_order_reports_regime(self):
        small = leading_order(from_omega(1e6, 0.5, 0.5, 0.5))
        big = leading_order(from_omega(1e6, 0.5, 0.5, 8.0))
        assert small.regime is Regime.OMEGA_BOUNDED
        assert big.regime is Regime.OMEGA_LARGE


class TestLeadingOrder:
    def test_critical_point_closed_form(self):
        # at lambda = lambda_c the tail starts at 0 and the phase shift
        # omega^2 vanishes, so the value factorises exactly
        d = from_offset(1e6, 0.5, 0.5, 0.0)
        assert d.omega == 0.0
        got = leading_order(d).value
        expect = (endpoint_prefactor(d)
                  * math.sqrt(2.0 / (d.lambda_c * d.t))
                  * fresnel_tail(0.0))
        assert got == pytest.approx(expect, rel=1e-14)

    def test_two_forms_agree_across_grid(self):
        # the endpoint form has the modulus
        # t^(-1/2) sqrt(2/(1+lambda_c)) (1+lambda_c)^(1/2-sigma) |FT(omega)|
        # and the exponent t F(1-t^(delta-1)) - omega^2; the offset-frame
        # value must match both
        for t, Lam, sigma in itertools.product(
                np.geomspace(1e4, 1e8, 10), (0.0, 0.1, 0.5, 1.0, 2.0), (0.5, 0.7)):
            d = from_offset(float(t), 0.5, sigma, Lam)
            lc = d.lambda_c
            v = leading_order(d).value
            mod_b = (d.t ** -0.5 * math.sqrt(2.0 / (1.0 + lc))
                     * (1.0 + lc) ** (0.5 - sigma) * abs(fresnel_tail(d.omega)))
            assert abs(abs(v) - mod_b) <= 1e-12 * abs(v)
            assert exponent_identity_residual(d) <= 1e-9 * (1.0 + d.t)

    def test_general_sigma_runs(self):
        p = from_offset(1e5, 0.5, 0.8, 0.3)
        v = leading_order(p).value
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_relative_error_shrinks_with_t(self):
        errs = []
        for t in (1e4, 1e6):
            p = from_offset(t, 0.5, 0.5, 0.0)
            lead = leading_order(p).value
            orc = jb_oracle(p, tol=1e-11).value
            errs.append(abs(lead - orc) / abs(orc))
        assert errs[0] < 0.05
        assert errs[1] < errs[0]

    def test_method_tag_and_empty_budget(self):
        ap = leading_order(from_offset(1e5, 0.5, 0.5, 0.4))
        assert ap.method is Method.LEADING_ORDER
        assert ap.error_budget == []


class TestLargeOmega:
    def test_rejects_small_omega(self):
        p = from_omega(1e6, 0.5, 0.5, 2.0)
        with pytest.raises(RegimeMismatch):
            leading_order_large_omega(p)

    def test_value_formula(self):
        d = from_omega(1e6, 0.5, 0.5, 9.0)
        got = leading_order_large_omega(d).value
        expect = (endpoint_prefactor(d)
                  * math.sqrt(2.0 / (d.lambda_c * d.t))
                  * (-1.0 / (2j * d.omega)))
        assert got == pytest.approx(expect, rel=1e-14)

    def test_budget_label_and_magnitude(self):
        d = from_omega(1e6, 0.5, 0.5, 9.0)
        ap = leading_order_large_omega(d)
        (label, val), = ap.error_budget
        assert label == "omega-cubed"
        expect = (abs(endpoint_prefactor(d))
                  * math.sqrt(2.0 / (d.lambda_c * d.t)) / d.omega**3)
        assert val == pytest.approx(expect, rel=1e-14)

    def test_gap_to_uniform_form_decays_like_omega_squared(self):
        errs = []
        for om in (6.0, 18.0):
            p = from_omega(1e6, 0.5, 0.5, om)
            lw = leading_order_large_omega(p).value
            lo = leading_order(p).value
            errs.append(abs(lw - lo) / abs(lo))
        slope = (math.log(errs[1]) - math.log(errs[0])) / math.log(3.0)
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_regime_is_always_large(self):
        ap = leading_order_large_omega(from_omega(1e6, 0.5, 0.5, 7.0))
        assert ap.regime is Regime.OMEGA_LARGE


class TestSegmentMain:
    def test_matches_direct_quadrature_within_budget(self):
        d = from_offset(3e4, 0.5, 0.5, 0.6)
        dd = choose_split(d, 4)
        main = jb1_main(d, dd.a)
        orc = jb1_oracle(d, dd, tol=1e-12)
        budget = d.t ** (-0.5 + 1.5 * d.delta) * dd.a**4
        assert abs(main - orc.value) <= budget

    @pytest.mark.parametrize("t", [1e6, 1e8])
    @pytest.mark.parametrize("Lam", [0.0, 0.05])
    def test_reads_leading_orders_factors_over_the_segment(self, t, Lam):
        # one prefactor: the ratio carries no second form of the t-sized
        # exponent, whose two forms differ by up to ~1e-6 rad at t = 1e8
        d = from_offset(t, 0.5, 0.5, Lam)
        a = corollary_split(d).a
        w2 = d.omega + a * math.sqrt(d.lambda_c * t / 2.0)
        expect = (cmath.exp(-1j * d.omega**2) * math.sqrt(2.0 / (d.lambda_c * t))
                  * fresnel_segment(d.omega, w2))
        assert abs(jb1_main(d, a) / endpoint_prefactor(d) / expect - 1.0) < 1e-14

    @pytest.mark.parametrize("t", [1e6, 1e8, 3.3e8])
    @pytest.mark.parametrize("Lam", [0.0, 0.05, 0.5])
    def test_at_the_phase_rounding_floor(self, t, Lam):
        # the double inputs carry the t-sized phase to eps |phase| rad, no better
        d = from_offset(t, 0.5, 0.5, Lam)
        a = corollary_split(d).a
        ref, phase = _jb1_main_mp(d, a)
        assert abs(jb1_main(d, a) - ref) <= 2.0 * EPS * phase * abs(ref)

    def test_window_guards(self):
        d = from_offset(3e4, 0.5, 0.5, 0.6)
        lo = d.t ** (-d.delta / 2.0)
        hi = d.t ** (-d.delta / 3.0)
        with pytest.raises(AssumptionViolated):
            jb1_main(d, lo / 20.0)
        with pytest.raises(AssumptionViolated):
            jb1_main(d, hi * 20.0)

    def test_sigma_guard(self):
        d = from_offset(3e4, 0.5, 0.75, 0.6)
        with pytest.raises(SigmaUnsupported):
            jb1_main(d, 0.1)

    def test_split_routes_derive_their_point_once(self, derive_calls):
        # from_offset derives the point once; all_orders and corollary_leading
        # hand that record to jb1_main and the ray terms, and none derives
        d = from_offset(1e6, 0.5, 0.5, 0.5)
        assert len(derive_calls) == 1
        a = corollary_split(d).a
        all_orders(d, 6), corollary_leading(d), jb1_main(d, a)
        assert len(derive_calls) == 1


class TestAllOrders:
    def test_order_guard(self):
        p = from_offset(3e4, 0.5, 0.5, 0.6)
        with pytest.raises(OrderViolation):
            all_orders(p, 3)

    def test_sigma_guard(self):
        d = from_offset(3e4, 0.5, 0.6, 0.6)
        with pytest.raises(SigmaUnsupported):
            all_orders(d, 4)

    def test_budget_labels(self):
        ap = all_orders(from_offset(3e4, 0.5, 0.5, 0.6), 4)
        assert [k for k, _ in ap.error_budget] == ["R-term", "JB1-term"]
        assert all(v >= 0 for _, v in ap.error_budget)

    def test_matches_oracle_within_segment_budget(self):
        # the series remainder bound is astronomically conservative at this
        # scale, so the meaningful comparison is against the segment budget
        p = from_offset(3e4, 0.5, 0.5, 0.6)
        ap = all_orders(p, 4)
        w = jb_oracle(p, tol=1e-12)
        jb1_budget = dict(ap.error_budget)["JB1-term"]
        assert abs(ap.value - w.value) <= jb1_budget

    def test_higher_order_refines(self):
        p = from_offset(3e4, 0.5, 0.5, 0.6)
        w = jb_oracle(p, tol=1e-12).value
        e4 = abs(all_orders(p, 4).value - w)
        e6 = abs(all_orders(p, 6).value - w)
        assert e6 < e4

    @pytest.mark.parametrize("t, first", [(1e8, 52), (1e12, 50)])
    def test_only_the_remainder_bound_overflows(self, t, first):
        # every term of these orders is a double; the first order that
        # fails is the one whose remainder bound (N = 2m - 2) is not
        p = from_offset(t, 0.5, 0.5, 0.5)
        assert cmath.isfinite(all_orders(p, first - 1).value)
        with pytest.raises(NumericalError,
                           match=f"remainder bound at order N={2 * first - 2} overflows"):
            all_orders(p, first)

    def test_explicit_split_width_accepted(self):
        p = from_offset(3e4, 0.5, 0.5, 0.6)
        dd = choose_split(p, 4)
        auto = all_orders(p, 4)
        manual = all_orders(p, 4, split=dd)
        assert manual.value == pytest.approx(auto.value, rel=1e-13)


class TestCorollary:
    def test_budget_label_and_value(self):
        p = from_offset(1e6, 0.5, 0.5, 0.5)
        ap = corollary_leading(p)
        (label, val), = ap.error_budget
        assert label == "corollary-estimate"
        assert val == pytest.approx(p.t ** (-0.5 - p.delta / 4.0), rel=1e-14)

    def test_sigma_guard(self):
        d = from_offset(1e6, 0.5, 0.9, 0.5)
        with pytest.raises(SigmaUnsupported):
            corollary_leading(d)

    def test_gap_to_leading_shrinks(self):
        # the two closed forms approach each other as t grows; checked in
        # sqrt(t)-rescaled absolute terms so the sizes are comparable
        gaps = []
        for t in (1e4, 1e6, 1e8):
            p = from_offset(t, 0.5, 0.5, 0.5)
            c = corollary_leading(p).value
            l = leading_order(p).value
            gaps.append(abs(c - l) * math.sqrt(t))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_method_tag(self):
        ap = corollary_leading(from_offset(1e6, 0.5, 0.5, 0.5))
        assert ap.method is Method.COROLLARY_LEADING


class TestSplitRoutesInTheOffsetFrame:
    """Divided by endpoint_prefactor, the split routes carry no t-sized phase
    of their own, so their error against jtilde_oracle falls with t."""

    @pytest.mark.parametrize("Lam", (0.5, 10.0))
    def test_error_against_jtilde_oracle_falls_with_t(self, Lam):
        errs = {"corollary": [], "all-orders": []}
        for t in (1e10, 1e12, 1e14):
            p = from_offset(t, 0.5, 0.5, Lam)
            pref = endpoint_prefactor(p)
            jt = jtilde_oracle(p, tol=1e-13).value
            for name, ap in (("corollary", corollary_leading(p)),
                             ("all-orders", all_orders(p, 4))):
                errs[name].append(abs(ap.value / pref - jt) / abs(jt))
        for name, (e10, e12, e14) in errs.items():
            assert e10 > e12 > e14, (name, errs[name])
            assert e14 <= 1.3e-3, (name, errs[name])


class TestPhaseResidual:
    def test_cubic_in_split_width(self):
        for t in (1e4, 1e6, 1e8):
            p = from_offset(t, 0.5, 0.5, 0.5)
            for a in (1e-3, 1e-2, 1e-1):
                res = phase_difference_residual(p, a)
                assert res <= 10.0 * a**3 * t**p.delta

    def test_scaling_slope(self):
        p = from_offset(1e6, 0.5, 0.5, 0.5)
        a_vals = np.array([1e-3, 3e-3, 1e-2, 3e-2])
        res = np.array([phase_difference_residual(p, a) for a in a_vals])
        slope, _ = np.polyfit(np.log(a_vals), np.log(res), 1)
        assert slope == pytest.approx(3.0, abs=0.2)


class TestSerialisation:
    def test_as_dict_schema(self):
        ap = leading_order(from_offset(1e5, 0.5, 0.5, 0.4))
        d = ap.as_dict()
        assert set(d) == {"re", "im", "method", "regime", "error_budget"}
        assert d["method"] == "LeadingOrder"
        assert d["regime"] in ("OmegaBounded", "OmegaLarge")
        assert isinstance(d["error_budget"], dict)

    def test_budget_round_trips_to_dict(self):
        ap = all_orders(from_offset(3e4, 0.5, 0.5, 0.6), 4)
        d = ap.as_dict()
        assert set(d["error_budget"]) == {"R-term", "JB1-term"}


class TestSplitReported:
    def test_all_orders_reports_its_split(self):
        d = from_offset(1e8, 0.5, 0.5, 0.6)
        assert all_orders(d, 4).split == choose_split(d, 4)
        assert all_orders(d, 5).split == choose_split(d, 5)
        assert all_orders(d, 4, split_from_a(d, 0.02)).split == split_from_a(d, 0.02)

    def test_corollary_reports_its_split(self):
        p = from_offset(1e6, 0.5, 0.5, 0.5)
        assert corollary_leading(p).split == corollary_split(p)

    def test_routes_without_a_split_report_none(self):
        p = from_offset(1e6, 0.5, 0.5, 10.0)
        assert leading_order(p).split is None
        assert leading_order_large_omega(p).split is None

    def test_as_dict_leaves_the_split_out(self):
        d = corollary_leading(from_offset(1e6, 0.5, 0.5, 0.5)).as_dict()
        assert set(d) == {"re", "im", "method", "regime", "error_budget"}
