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

Every route reports a coefficient-1 error budget; fitted constants belong to
the verification harness, never to the returned values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from . import phase as phase_mod
from .errors import (
    AssumptionViolated,
    OrderViolation,
    RegimeMismatch,
    SigmaUnsupported,
)
from .fresnel import fresnel_segment, fresnel_tail
from .ibp import jb2_series, rn_bound
from .params import (ProblemParams, Split, choose_split, corollary_split, derive,
                     endpoint_offset, split_from_a)
from .quadrature import endpoint_prefactor

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


def exponent_identity_residual(p: ProblemParams) -> float:
    """Gap between the two equivalent oscillation exponents.

    The offset-frame leading term carries exp(i t f0/(1+lambda_c) - i omega^2)
    and the endpoint-frame one exp(i t F(1-t^(delta-1)) - i omega^2); the
    -omega^2 is common, so equivalence reduces to

        t f0/(1+lambda_c) = t F(1-t^(delta-1); lambda)

    which holds as an algebraic identity.  Returns the absolute residual,
    expected at the 1e-16 * t rounding floor.
    """
    d = derive(p)
    left = p.t * phase_mod.f0(d.Lambda, d.lambda_c) / (1.0 + d.lambda_c)
    right = phase_mod.t_phase(p.t, p.lam, endpoint_offset(p.t, p.delta))
    return abs(left - right)


def leading_order(p: ProblemParams) -> Approximation:
    """Uniform leading term, any sigma in [1/2, 1), any admissible offset.

    Computed once, from the offset-frame prefactor.  The equivalent endpoint
    form (the exponent written through F at the left endpoint) is not
    evaluated here: the ExponentIdentity scan checks its exponent, and the
    tests its modulus.
    """
    d = derive(p)
    ft = fresnel_tail(d.omega)
    scale = math.sqrt(2.0 / (d.lambda_c * p.t))
    value = endpoint_prefactor(d) * cmath.exp(-1j * d.omega**2) * scale * ft
    return Approximation(
        value=value,
        method=Method.LEADING_ORDER,
        error_budget=[],
        regime=classify_regime(d.omega),
    )


def leading_order_large_omega(p: ProblemParams) -> Approximation:
    """Integration-by-parts form, requires omega above the regime threshold."""
    d = derive(p)
    if d.omega < OMEGA_THRESHOLD_DEFAULT:
        raise RegimeMismatch(
            f"omega={d.omega:.3f} below the large-omega threshold {OMEGA_THRESHOLD_DEFAULT}"
        )
    lc = d.lambda_c
    scale = math.sqrt(2.0 / (lc * p.t))
    pref = endpoint_prefactor(d)
    value = pref * scale * (-1.0 / (2j * d.omega))
    budget = [("omega-cubed", abs(pref) * scale / d.omega**3)]
    return Approximation(
        value=value,
        method=Method.LEADING_ORDER_LARGE_OMEGA,
        error_budget=budget,
        regime=Regime.OMEGA_LARGE,
    )


def jb1_main(p: ProblemParams, a: float) -> complex:
    """First-order form of the segment piece (sigma = 1/2).

    Valid when t^(-delta/2) << a << t^(-delta/3); enforced with margin
    factors of 10 on each side, since at desk scale the strict inequalities
    leave no admissible width.
    """
    if p.sigma != 0.5:
        raise SigmaUnsupported("segment main term defined for sigma = 1/2 only")
    lo = p.t ** (-p.delta / 2.0)
    hi = p.t ** (-p.delta / 3.0)
    if not (lo / 10.0 < a < 10.0 * hi):
        raise AssumptionViolated(
            f"a={a:.3e} outside ({lo:.3e}/10, 10*{hi:.3e})"
        )
    d = derive(p)
    lc = d.lambda_c
    chi = phase_mod.t_phase(p.t, p.lam, endpoint_offset(p.t, p.delta)) - d.omega**2
    w2 = d.omega + a * math.sqrt(lc * p.t / 2.0)
    seg = fresnel_segment(d.omega, w2)
    return cmath.exp(1j * chi) * p.t**-0.5 * math.sqrt(2.0 / (1.0 + lc)) * seg


def all_orders(p: ProblemParams, m: int, a: float | None = None) -> Approximation:
    """Split-contour expansion of order m >= 4 (sigma = 1/2).

    Ray-piece boundary terms j = 1..m-3 plus the segment main term; the
    budget carries the two coefficient-1 remainders (remainder of the
    boundary-term series at depth N = 2m-2, and the segment's a^4 error).
    """
    if p.sigma != 0.5:
        raise SigmaUnsupported("all-orders expansion defined for sigma = 1/2 only")
    if m < 4:
        raise OrderViolation(f"expansion order must be >= 4, got {m}")
    d = derive(p)
    split = choose_split(d, m) if a is None else split_from_a(d, a)
    series_value, _terms, _series_bound = jb2_series(p, split.k, m - 3)
    seg = jb1_main(p, split.a)
    budget = [
        ("R-term", rn_bound(2 * m - 2, p, split.k)),
        ("JB1-term", p.t ** (-0.5 + 1.5 * p.delta) * split.a**4),
    ]
    return Approximation(
        value=series_value + seg,
        method=Method.ALL_ORDERS,
        error_budget=budget,
        regime=classify_regime(d.omega),
        split=split,
    )


def corollary_leading(p: ProblemParams) -> Approximation:
    """Two-term concrete leading form at the balanced split a = t^(-7 delta/16).

    The "corollary-remainder" budget t^(-1/2-delta/4) is the remainder's order
    with coefficient 1, an estimate rather than a bound.  At omega = 0 and
    delta = 1/2 the measured abs_err/budget is 0.76 at t=1e4, 1.02 at 1e6,
    1.16 at 1e7 and 1.31 at 1e8, so the error exceeds it from t ~ 1e6 on.
    """
    if p.sigma != 0.5:
        raise SigmaUnsupported("corollary form defined for sigma = 1/2 only")
    t = p.t
    d = derive(p)
    split = corollary_split(d)
    big_d = math.log(1.0 / split.k - 1.0) + math.log(p.lam)
    osc = cmath.exp(1j * phase_mod.t_phase(t, p.lam, split.k))
    term1 = 1j * osc * t ** (-0.5 - p.delta / 2.0) / big_d
    value = term1 + jb1_main(p, split.a)
    budget = [("corollary-remainder", t ** (-0.5 - p.delta / 4.0))]
    return Approximation(
        value=value,
        method=Method.COROLLARY_LEADING,
        error_budget=budget,
        regime=classify_regime(d.omega),
        split=split,
    )


def phase_difference_residual(p: ProblemParams, a: float) -> float:
    """Residual of the split-point exponent expansion.

    t (F(1-k) - F(1-t^(delta-1))) collapses algebraically to

        t^d a log(lambda/lambda_c) + t^d (1-a) log(1-a) + (t - t^d(1-a)) log(1+a lambda_c)

    (t^d = t^delta); subtracting the modelled t^d a log(lambda/lambda_c)
    + a^2 t^d (1+lambda_c)/2 leaves an O(a^3 t^delta) remainder.  The exact
    form avoids the catastrophic cancellation of differencing two ~t-sized
    phases in doubles.
    """
    d = derive(p)
    td = p.t**p.delta
    lc = d.lambda_c
    exact_tail = td * (1.0 - a) * math.log1p(-a) + (
        p.t - td * (1.0 - a)
    ) * math.log1p(a * lc)
    model_tail = 0.5 * a * a * td * (1.0 + lc)
    return abs(exact_tail - model_tail)
