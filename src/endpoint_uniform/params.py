"""Problem parameters and derived quantities.

The integral under study is

    J(t; lambda) = int_{1-t^(delta-1)}^{inf e^(i phi)}
                   (1-z)^(-1/2) z^(sigma-1/2) exp(i t F(z; lambda)) dz

with F(z; lambda) = (1-z) log(1-z) + z log z + z log lambda.  A stationary
point of F sits at z = 1/(1+lambda); it coalesces with the left endpoint when
lambda equals the critical value lambda_c = t^(delta-1) / (1 - t^(delta-1)).
Everything downstream is phrased in the offset Lambda = lambda/lambda_c - 1
and the coalescence parameter

    omega = sqrt(lambda_c t / 2) * log(1+Lambda) / (1+lambda_c),

which measures how far the stationary point is from the endpoint in units of
the local Fresnel scale.  This module validates raw inputs and computes these
derived quantities, plus the contour split Split(k, a) used by the
integration-by-parts expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (InvalidParam, InvalidSplit, OutOfRange, SigmaUnsupported,
                     SplitOutOfRange)

@dataclass(frozen=True)
class ProblemParams:
    """Raw problem inputs, validated on construction."""

    t: float
    delta: float
    sigma: float
    lam: float

    def __post_init__(self):
        check_t(self.t)
        check_delta(self.delta)
        check_sigma(self.sigma)
        lo, hi = check_lambda_window(self.t, self.delta)
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise InvalidParam(f"lambda must be finite and > 0, got {self.lam}")
        # Closed interval: both endpoints are admissible.
        if not (lo <= self.lam <= hi):
            raise OutOfRange(
                f"lambda={self.lam} outside admissible [{lo}, {hi}] "
                f"for t={self.t}, delta={self.delta}",
                lower=lo,
                upper=hi,
            )


@dataclass(frozen=True)
class DerivedParams:
    """The inputs with lambda_c, the offset Lambda, omega and the ray angle phi."""

    t: float
    delta: float
    sigma: float
    lam: float
    lambda_c: float
    Lambda: float
    omega: float
    phi: float


class Split(NamedTuple):
    """The contour split z = 1-k, k = t^(delta-1)(1-a), with split width a."""

    k: float
    a: float


def check_t(t: float):
    """Refuse a large parameter t that is not finite and > 1."""
    if not (t > 1.0) or not math.isfinite(t):
        raise InvalidParam(f"t must be finite and > 1, got {t}")


def check_delta(delta: float):
    """Refuse an endpoint exponent delta outside (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise InvalidParam(f"delta must lie in (0,1), got {delta}")


def check_sigma(sigma: float):
    """Refuse an amplitude exponent sigma outside [1/2, 1)."""
    if not (0.5 <= sigma < 1.0):
        raise InvalidParam(f"sigma must lie in [1/2,1), got {sigma}")


def check_lambda_window(t: float, delta: float):
    """Refuse a (t, delta) whose admissible lambda window is empty; return it."""
    lo, hi = admissible_lambda_range(t, delta)
    if not (lo <= hi):
        raise InvalidParam(f"t={t}, delta={delta} admit no lambda: "
                           f"lambda_c={lo:.4g} exceeds t^(1-delta) - 1 = {hi:.4g}")
    return lo, hi


def check_tolerance(tol: float):
    """Refuse a quadrature tolerance that is not finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParam(f"tol must be finite and > 0, got {tol}")


def admissible_lambda_range(t: float, delta: float):
    """Closed admissible window [lambda_c, t^(1-delta) - 1]."""
    return critical_lambda(t, delta), t ** (1.0 - delta) - 1.0


def endpoint_offset(t: float, delta: float) -> float:
    """t^(delta-1): the left endpoint 1 - t^(delta-1) lies this far below z = 1."""
    return t ** (delta - 1.0)


def critical_lambda(t: float, delta: float) -> float:
    """lambda_c = t^(delta-1)/(1 - t^(delta-1)), the endpoint-coalescence value."""
    p = endpoint_offset(t, delta)
    return p / (1.0 - p)


def select_phi(lam: float) -> float:
    """Contour angle for the ray to infinity.

    pi/4 once log(lambda) >= 0; for log(lambda) < 0 the decay condition
    pi*cos(phi) + sin(phi)*log(lambda) > 0 restricts phi below
    arctan(pi/|log lambda|), and we take half that bound.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise InvalidParam(f"lambda must be finite and > 0, got {lam}")
    loglam = math.log(lam)
    if loglam >= 0.0:
        return math.pi / 4.0
    return 0.5 * math.atan(math.pi / abs(loglam))


def derive(p: ProblemParams) -> DerivedParams:
    """Compute lambda_c, Lambda, omega and the contour angle for p."""
    lc = critical_lambda(p.t, p.delta)
    # ProblemParams refuses lam < lc, this same double, so Lambda >= 0
    Lambda = (p.lam - lc) / lc
    omega = math.sqrt(lc * p.t / 2.0) * math.log1p(Lambda) / (1.0 + lc)
    return DerivedParams(
        t=p.t,
        delta=p.delta,
        sigma=p.sigma,
        lam=p.lam,
        lambda_c=lc,
        Lambda=Lambda,
        omega=omega,
        phi=select_phi(p.lam),
    )


def from_offset(t: float, delta: float, sigma: float, Lambda: float) -> DerivedParams:
    """The point record at the offset Lambda >= 0 instead of lambda itself."""
    if math.isnan(Lambda):
        raise InvalidParam(f"Lambda must be a number, got {Lambda}")
    if Lambda < 0.0:
        raise OutOfRange(f"Lambda must be >= 0, got {Lambda}", lower=0.0)
    lc = critical_lambda(t, delta)
    return derive(ProblemParams(t=t, delta=delta, sigma=sigma, lam=lc * (1.0 + Lambda)))


def from_omega(t: float, delta: float, sigma: float, omega: float) -> DerivedParams:
    """The point record at omega >= 0: its omega is exact at 0, else within
    2 eps (1 + 1/Lambda) relative of the target, from rounding through the
    offset Lambda.  An omega whose offset overflows is OutOfRange."""
    if math.isnan(omega):
        raise InvalidParam(f"omega must be a number, got {omega}")
    if omega < 0.0:
        raise OutOfRange(f"omega must be >= 0, got {omega}", lower=0.0)
    lc = critical_lambda(t, delta)
    try:
        Lambda = math.expm1(omega * (1.0 + lc) * math.sqrt(2.0 / (lc * t)))
    except OverflowError:
        raise OutOfRange(f"omega={omega} gives an offset Lambda beyond the doubles "
                         f"at t={t}, delta={delta}", lower=0.0) from None
    return from_offset(t, delta, sigma, Lambda)


def default_split_exponent(m: int) -> float:
    """Balanced cutoff b = 1/2 - 1/(4m) for the order-m expansion."""
    return 0.5 - 1.0 / (4 * m)


def choose_split(d: DerivedParams, m: int, b: Optional[float] = None) -> Split:
    """Fix the contour split point for the order-m two-piece expansion.

    The split z = 1-k with k = t^(delta-1)(1-a) and a = t^(-b*delta) must keep
    the retained boundary terms above the discarded remainder, which pins b to
    the open sandwich

        1/2 - 1/(4m-2)  <  b  <  1/2 - 1/(4m+2).

    Returns Split(k, a).
    """
    if m < 4:
        raise InvalidSplit(f"split requires m >= 4, got m={m}")
    lo = 0.5 - 1.0 / (4 * m - 2)
    hi = 0.5 - 1.0 / (4 * m + 2)
    if b is None:
        b = default_split_exponent(m)
    if not (lo < b < hi):
        raise InvalidSplit(
            f"b={b} violates the order-{m} sandwich ({lo:.6f}, {hi:.6f})"
        )
    return split_from_a(d, d.t ** (-b * d.delta))


def split_from_a(d: DerivedParams, a: float) -> Split:
    """Split(k, a) for an explicitly chosen a in (0,1)."""
    if not (0.0 < a < 1.0):
        raise InvalidSplit(f"a must lie in (0,1), got {a}")
    k = endpoint_offset(d.t, d.delta) * (1.0 - a)
    return Split(k, a)


def corollary_split(d: DerivedParams) -> Split:
    """Split(k, a) at the corollary's balanced width a = t^(-7 delta/16)."""
    return split_from_a(d, d.t ** (-7.0 * d.delta / 16.0))


def check_split_point(t: float, delta: float, k: float):
    """Refuse a split point z = 1-k unless k lies in (0, t^(delta-1))."""
    end = endpoint_offset(t, delta)
    if not (0.0 < k < end):
        raise SplitOutOfRange(f"split point k={k} outside (0, t^(delta-1)={end:.3e})")


def check_half_sigma(sigma: float, route: str):
    """Refuse sigma != 1/2 on a split route, which is defined there only."""
    if sigma != 0.5:
        raise SigmaUnsupported(f"{route} is defined for sigma = 1/2 only, "
                               f"got sigma={sigma}")
