"""User-facing approximations built from the split and offset-frame pieces.

Four routes to the integral's large-t behaviour:

  * leading_order: the uniform leading term, valid across the transition
    where the stationary point meets the endpoint (any omega >= 0);
  * leading_order_large_omega: the pure integration-by-parts form, only
    meaningful once omega is comfortably large;
  * all_orders: split-contour expansion, boundary-term series on the ray
    piece plus the segment piece's first-order Fresnel form (sigma = 1/2);
  * corollary_leading: the concrete two-term leading form with the split
    width pinned at a = t^(-7 delta/16).

Error budgets: leading_order states none; leading_order_large_omega and
all_orders state their remainders with coefficient 1; corollary_leading
states the remainder's order with coefficient 1, an estimate rather than a
bound.  Fitted constants belong to the verification harness, never to the
returned values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from . import phase as phase_mod
from .errors import AssumptionViolated, OrderViolation, RegimeMismatch
from .fresnel import fresnel_segment, fresnel_tail
from .ibp import MAX_TABLE_LEVEL, jb2_series, rn_bound
from .params import (DerivedParams, Split, check_half_sigma, choose_split, corollary_split,
                     endpoint_offset)

OMEGA_THRESHOLD_DEFAULT = 5.0


class Method(Enum):
    LEADING_ORDER = "LeadingOrder"
    LEADING_ORDER_LARGE_OMEGA = "LeadingOrderLargeOmega"
    ALL_ORDERS = "AllOrders"
    COROLLARY_LEADING = "CorollaryLeading"


class Regime(Enum):
    OMEGA_BOUNDED = "OmegaBounded"
    OMEGA_LARGE = "OmegaLarge"


@dataclass
class Approximation:
    value: complex
    method: Method
    error_budget: list = field(default_factory=list)  # (label, value>=0) pairs
    regime: Regime = Regime.OMEGA_BOUNDED
    split: Split | None = None  # the contour split used, for the split routes

    def as_dict(self):
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "method": self.method.value,
            "regime": self.regime.value,
            "error_budget": {k: v for k, v in self.error_budget},
        }


def classify_regime(omega: float) -> Regime:
    return Regime.OMEGA_LARGE if omega > OMEGA_THRESHOLD_DEFAULT else Regime.OMEGA_BOUNDED


def exponent_identity_residual(d: DerivedParams) -> float:
    """Gap between the two equivalent forms of the endpoint exponent.

    endpoint_prefactor takes it through t_phase at the left endpoint; the
    offset frame writes it through f0, read only here, so the identity

        t f0/(1+lambda_c) = t F(1-t^(delta-1); lambda)

    is checked on the exponent the routes use.  Returns the absolute
    residual, expected at the 1e-16 * t rounding floor.
    """
    left = d.t * phase_mod.f0(d.Lambda, d.lambda_c) / (1.0 + d.lambda_c)
    right = phase_mod.t_phase(d.t, d.lam, endpoint_offset(d.t, d.delta))
    return abs(left - right)


def leading_order(d: DerivedParams) -> Approximation:
    """Uniform leading term, any sigma in [1/2, 1), any admissible offset:
    endpoint_prefactor * e^(-i omega^2) * sqrt(2/(lambda_c t)) times the
    Fresnel tail from omega.
    """
    ft = fresnel_tail(d.omega)
    scale = math.sqrt(2.0 / (d.lambda_c * d.t))
    value = phase_mod.endpoint_prefactor(d) * cmath.exp(-1j * d.omega**2) * scale * ft
    return Approximation(
        value=value,
        method=Method.LEADING_ORDER,
        error_budget=[],
        regime=classify_regime(d.omega),
    )


def leading_order_large_omega(d: DerivedParams) -> Approximation:
    """Integration-by-parts form, requires omega above the regime threshold."""
    if d.omega < OMEGA_THRESHOLD_DEFAULT:
        raise RegimeMismatch(
            f"omega={d.omega:.3f} below the large-omega threshold {OMEGA_THRESHOLD_DEFAULT}"
        )
    lc = d.lambda_c
    scale = math.sqrt(2.0 / (lc * d.t))
    pref = phase_mod.endpoint_prefactor(d)
    value = pref * scale * (-1.0 / (2j * d.omega))
    budget = [("omega-cubed", abs(pref) * scale / d.omega**3)]
    return Approximation(
        value=value,
        method=Method.LEADING_ORDER_LARGE_OMEGA,
        error_budget=budget,
        regime=Regime.OMEGA_LARGE,
    )


def jb1_main(d: DerivedParams, a: float) -> complex:
    """First-order form of the segment piece (sigma = 1/2): leading_order's
    factors, with the Fresnel integral over the segment's image, from omega
    to omega + a sqrt(lambda_c t/2), in place of the tail.

    Valid when t^(-delta/2) << a << t^(-delta/3); enforced with margin
    factors of 10 on each side, since at desk scale the strict inequalities
    leave no admissible width.
    """
    check_half_sigma(d.sigma, "jb1_main")
    lo = d.t ** (-d.delta / 2.0)
    hi = d.t ** (-d.delta / 3.0)
    if not (lo / 10.0 < a < 10.0 * hi):
        raise AssumptionViolated(
            f"a={a:.3e} outside ({lo:.3e}/10, 10*{hi:.3e})"
        )
    scale = math.sqrt(2.0 / (d.lambda_c * d.t))
    w2 = d.omega + a * math.sqrt(d.lambda_c * d.t / 2.0)
    seg = fresnel_segment(d.omega, w2)
    return phase_mod.endpoint_prefactor(d) * cmath.exp(-1j * d.omega**2) * scale * seg


def all_orders(d: DerivedParams, m: int, split: Split | None = None) -> Approximation:
    """Split-contour expansion of order 4 <= m <= MAX_TABLE_LEVEL + 4 (sigma = 1/2).

    Ray-piece boundary terms j = 1..m-3 plus the segment main term; the
    budget carries the two coefficient-1 remainders (remainder of the
    boundary-term series at depth N = 2m-2, and the segment's a^4 error).
    The contour splits at split, by default at choose_split's for order m.
    """
    check_half_sigma(d.sigma, "all_orders")
    # term m-3 reads the level-(m-4) table
    if not 4 <= m <= MAX_TABLE_LEVEL + 4:
        raise OrderViolation(f"expansion order m must lie in [4, {MAX_TABLE_LEVEL + 4}], got {m}")
    if split is None:
        split = choose_split(d, m)
    series_value, _terms, _series_bound = jb2_series(d, split, m - 3)
    seg = jb1_main(d, split.a)
    budget = [
        ("R-term", rn_bound(2 * m - 2, d, split)),
        ("JB1-term", d.t ** (-0.5 + 1.5 * d.delta) * split.a**4),
    ]
    return Approximation(
        value=series_value + seg,
        method=Method.ALL_ORDERS,
        error_budget=budget,
        regime=classify_regime(d.omega),
        split=split,
    )


def corollary_leading(d: DerivedParams) -> Approximation:
    """Two-term concrete leading form at the balanced split a = t^(-7 delta/16).

    The "corollary-estimate" budget t^(-1/2-delta/4) is the remainder's order
    with coefficient 1, an estimate rather than a bound.  At omega = 0 and
    delta = 1/2 the measured abs_err/budget is 0.76 at t=1e4, 1.02 at 1e6,
    1.16 at 1e7 and 1.31 at 1e8, so the error exceeds it from t ~ 1e6 on.
    """
    check_half_sigma(d.sigma, "corollary_leading")
    split = corollary_split(d)
    big_d = phase_mod.split_derivative(d, split)
    osc = phase_mod.split_oscillation(d, split)
    term1 = 1j * osc * d.t ** (-0.5 - d.delta / 2.0) / big_d
    value = term1 + jb1_main(d, split.a)
    budget = [("corollary-estimate", d.t ** (-0.5 - d.delta / 4.0))]
    return Approximation(
        value=value,
        method=Method.COROLLARY_LEADING,
        error_budget=budget,
        regime=classify_regime(d.omega),
        split=split,
    )


def phase_difference_residual(d: DerivedParams, a: float) -> float:
    """Residual of the split-point exponent expansion.

    t (F(1-k) - F(1-t^(delta-1))) collapses algebraically to

        t^d a log(lambda/lambda_c) + t^d (1-a) log(1-a) + (t - t^d(1-a)) log(1+a lambda_c)

    (t^d = t^delta), the phase that phase.split_oscillation forms;
    subtracting the modelled t^d a log(lambda/lambda_c)
    + a^2 t^d (1+lambda_c)/2 leaves an O(a^3 t^delta) remainder.  The exact
    form, the last two terms of which are phase.split_phase_tail, avoids the
    catastrophic cancellation of differencing two ~t-sized phases in doubles.
    """
    td = d.t**d.delta
    exact_tail = phase_mod.split_phase_tail(d, a)
    model_tail = 0.5 * a * a * td * (1.0 + d.lambda_c)
    return abs(exact_tail - model_tail)
