"""Quadratic change of variables for the offset-frame integral.

The variable u is defined implicitly by

    (lambda_c/2)(1+lambda_c) u^2 + lambda_c log(1+Lambda) u = f1(zeta),

which maps the curved phase f1 onto an exact quadratic; u ~ zeta near 0.  The
forward map u_of_zeta is the root of that quadratic in closed form, free of
cancellation, on the domain its docstring states; the inverse zeta_of_u is
Newton on that forward map, from zeta = u.  The integral then decomposes as
Jtilde = F(0) Phi(0) + int_0^{inf e^{i pi/4}} F'(u) Phi(u) du with
F(u) = g(zeta(u)) dzeta/du, F(0) = 1, and Phi an incomplete Gaussian-phase
tail with closed form through the Fresnel tail.  decomposition_residual checks
that identity end to end against direct quadrature.

Every public evaluator here (u_of_zeta, zeta_of_u, dzeta_du, amp_F and
phi_closed) takes a number or an array of any shape through phase's one
wrapper, _on_arrays: a number comes out a Python complex with the bits of a
one-point array, and a list is refused with TypeError.  The inversion runs
its Newton iteration per element under masks, so one GK15 batch of the ray
quadrature costs one call.  F' comes from differentiating the defining
relation, not from differences:

    F' = g'(zeta) zeta'^2 + g(zeta) zeta'',
    zeta'' = (lambda_c (1+lambda_c) - f1''(zeta) zeta'^2) / f1'(zeta).

Near the origin f1'(zeta) ~ lambda_c (log(1+Lambda) + (1+lambda_c) zeta) is
small, and at or near Lambda = 0 both the Newton step and these forms
cancel catastrophically.  For small |u| the map and its derivatives are
therefore solved for zeta - u from the Taylor series of f1 (_near_map),
uniformly in Lambda >= 0.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import phase as phase_mod
from .errors import NewtonDivergence
from .fresnel import fresnel_tail_general
from .params import DerivedParams
from .quadrature import _gaussian_frame, integrate_ray, jtilde_oracle, ray_truncation

# Degree of the Taylor polynomial of f1 used near the origin.  It is used for
# |u| below 1/4 of its radius of convergence min(1, 1/lambda_c), where the
# truncation error is below 4^-30 relative.
_SERIES_TERMS = 32
# the tolerance of both quadratures in decomposition_residual
DECOMPOSITION_TOL = 1e-7


def _quad(d: DerivedParams):
    """Coefficients (a, b) of the quadratic (a/2) u^2 + b u that f1 maps onto."""
    return d.lambda_c * (1.0 + d.lambda_c), d.lambda_c * math.log1p(d.Lambda)


def _root(f, d: DerivedParams):
    """u = 2 f / (b + r) and r = sqrt(b^2 + 2 a f) = a u + b, from f1 values f:
    the quadratic's root free of cancellation at small f, and u = 0 where
    f = 0 (at Lambda = 0, where b = 0, that is no 0/0)."""
    a, b = _quad(d)
    r = np.sqrt(b * b + 2.0 * a * f)
    return 2.0 * f / np.where(f == 0.0, 1.0, b + r), r


@phase_mod._on_arrays
def u_of_zeta(zeta, d: DerivedParams):
    """Solve the quadratic (a/2) u^2 + b u = f1(zeta) for u, in closed form.

    The root taken is the one with a u + b = +sqrt(b^2 + 2 a f1), the
    principal square root, written as u = 2 f1 / (b + sqrt(b^2 + 2 a f1)) so
    that nothing cancels at small f1; it is 0 where f1 = 0, also at
    Lambda = 0, where b = 0.  Newton in zeta_of_u takes the same root from
    the same helper, _root.

    Domain: that root is the one continued from u(0) = 0 wherever a u + b
    stays in the right half-plane.  This holds near u = 0, on the pi/4 ray
    in u, where a u + b = b + a |u| e^{i pi/4} with b >= 0 (the only ray that
    zeta_of_u and decomposition_residual use), and on the real segment right
    of the critical point u = -b/a.  Elsewhere the other root may be the
    continued one, and it is not returned.
    """
    return _root(phase_mod.f1(zeta, d.lambda_c, d.Lambda), d)[0]


@functools.lru_cache(maxsize=16)
def _cubic_tail(lambda_c: float):
    """Polynomial coefficients (highest degree first) of R, R' and R'', where

        f1(zeta) = b zeta + (a/2) zeta^2 + R(zeta),
        R(zeta) = sum_{m>=3} (lambda_c + (-lambda_c)^m) / (m(m-1)) zeta^m,

    with a = quad_a and b = quad_b; R does not depend on Lambda.
    """
    m = np.arange(_SERIES_TERMS, 2, -1.0)
    c = np.concatenate([(lambda_c + (-lambda_c) ** m) / (m * (m - 1.0)), np.zeros(3)])
    return c, np.polyder(c), np.polyder(c, 2)


def _horner(c, x):
    """The polynomial c (highest degree first) at the array x, by Horner's
    rule: np.polyval's operations in its order, with the sum in place.  The
    product is not: numpy's in-place complex product of a one-element array
    rounds differently from its loop over a longer one, so a number would
    not get an array's bits."""
    y = np.zeros_like(x)
    for ck in c:
        y = y * x
        y += ck
    return y


def _near_origin(u, d: DerivedParams):
    """Nonzero points where the map comes from _near_map, not from Newton.

    Near the origin f1'(zeta) ~ b + a zeta can be tiny, and then the Newton
    residual and the implicit derivatives, evaluated through logarithms, lose
    all precision.  _near_map needs |b + a u| bounded away from 0, which
    holds on the whole pi/4 ray; points near the critical point u = -b/a
    stay with Newton.
    """
    a, b = _quad(d)
    small = np.abs(u) < 0.25 * min(1.0, 1.0 / d.lambda_c)
    return small & (u != 0.0) & (np.abs(b + a * u) >= 0.5 * (b + a * np.abs(u)))


def _near_map(u, d: DerivedParams):
    """zeta, zeta' and zeta'' at small nonzero u, free of cancellation.

    With zeta = u + eta the defining relation becomes

        eta (b + a u + a eta/2) + R(u + eta) = 0,

    solved for eta itself by Newton from eta = -R(u)/(b + a u); then, with
    f1' = b + a zeta + R'(zeta) and delta = zeta' - 1,

        delta = -(a eta + R'(zeta)) / f1',
        zeta'' = -(a delta (2 + delta) + R''(zeta) (1 + delta)^2) / f1'.

    Every quantity is formed from the small ones (eta, R), so the relative
    accuracy holds uniformly in Lambda >= 0, including Lambda = 0.
    """
    a, b = _quad(d)
    r0, r1, r2 = _cubic_tail(d.lambda_c)
    eta = -_horner(r0, u) / (b + a * u)
    for _ in range(4):
        zeta = u + eta
        residual = eta * (b + a * u + 0.5 * a * eta) + _horner(r0, zeta)
        eta = eta - residual / (b + a * zeta + _horner(r1, zeta))
    zeta = u + eta
    r1z = _horner(r1, zeta)
    f1p = b + a * zeta + r1z
    delta = -(a * eta + r1z) / f1p
    d2 = -(a * delta * (2.0 + delta) + _horner(r2, zeta) * (1.0 + delta) ** 2) / f1p
    return zeta, 1.0 + delta, d2


def _newton(u, d: DerivedParams):
    """Newton on the forward map U(zeta) = u from zeta = u, under masks.

    U is u_of_zeta's root 2 f1 / (b + r), r = sqrt(b^2 + 2 a f1) = a U + b,
    so dU/dzeta = f1'(zeta) / r and the step is zeta <- zeta - (U - u) r / f1'.
    An element stops once |U(zeta) - u| <= 1e-13 |u|, after taking that step,
    which brings zeta to the precision of f1 itself (the derivatives of the
    map want no less).  NewtonDivergence is raised after 50 steps.
    """
    zeta = u.copy()
    live = np.arange(u.size)
    for _ in range(50):
        z, ul = zeta[live], u[live]
        forward, root = _root(phase_mod.f1(z, d.lambda_c, d.Lambda), d)
        res = forward - ul
        zeta[live] = z - res * root / phase_mod.d_f1(z, d.lambda_c, d.Lambda)
        # a nan residual never passes, so it too ends in NewtonDivergence
        going = ~(np.abs(res) <= 1e-13 * np.abs(ul))
        live, res = live[going], res[going]
        if live.size == 0:
            return zeta
    raise NewtonDivergence(f"Newton stalled at u={u[live[0]]}, residual {abs(res[0]):.3e}")


@phase_mod._on_arrays
def zeta_of_u(u, d: DerivedParams):
    """Invert the map by Newton on the forward map u_of_zeta, from zeta = u.

    NewtonDivergence is raised if any element fails.  Small |u| is solved by
    _near_map instead: there f1'(zeta) is tiny and, at Lambda = 0, f1 ~ a u^2/2
    underflows to 0, where the forward map reads 0 whatever zeta is.

    Domain: the pi/4 ray, the only ray that decomposition_residual
    integrates along; every ray it integrates ends by |u| = 4.  Further out
    the continued root meets the cut zeta >= 1 of f1, at |u| = 5.35
    (t = 50, Lambda = 0), 5.0 (t = 200, Lambda = 0), 5.25 (t = 200,
    Lambda = 0.5) and 8.65 (t = 1e4, Lambda = 10); there Newton reaches a
    root across the real axis from u, or none, and raises.  At t = 1e8
    (Lambda = 0 and 0.5) it raises from |u| ~ 4.8.  On the negative axis
    the map has a critical point at u = -b/a; past it there is no root, and
    next to it Newton zigzags across the fold (at t = 200, Lambda = 0.1,
    u = -f b/a converges up to f = 0.991, in 45 steps at f = 0.99, and not
    in 50 from f ~ 0.9913): both raise.
    """
    zeta = np.zeros_like(u)
    near = _near_origin(u, d)
    if near.any():
        zeta[near] = _near_map(u[near], d)[0]
    todo = (u != 0.0) & ~near
    if todo.any():
        uu = u[todo]
        z = _newton(uu, d)
        # For Re u >= 0 the quadratic rhs(s u) = s^2 (a/2) u^2 + s b u has
        # Im = s^2 (a/2) Im(u^2) + s b Im u of the sign of Im u for
        # 0 < s <= 1 (at Re u = b = 0 it is 0, but then rhs < 0 <= f1 on the
        # real axis), and f1 is real on (-1/lambda_c, 1), so the root
        # continued from 0 along s u never crosses the real axis.  A root on
        # the other side solves the equation but is off the continued branch.
        across = (uu.real >= 0.0) & (z.imag * uu.imag < 0.0)
        if across.any():
            raise NewtonDivergence(f"Newton reached zeta={z[across][0]} at u={uu[across][0]}, "
                                   "across the real axis from u: a root off the branch")
        zeta[todo] = z
    return zeta


def _map(u, d: DerivedParams):
    """zeta(u), zeta'(u) and zeta''(u) for an array u, one solve per point.

    Points near the origin take all three from _near_map.  The rest take zeta
    from zeta_of_u, and the derivatives from differentiating
    f1(zeta(u)) = rhs(u) once and twice:

        zeta' = (log(1+Lambda) + (1+lambda_c) u) / (f1'(zeta)/lambda_c),
        zeta'' = (lambda_c (1+lambda_c) - f1''(zeta) zeta'^2) / f1'(zeta),

    f1'' = lambda_c (lambda_c/(1+lambda_c zeta) + 1/(1-zeta)).  At u = 0 they
    are 1 and 0, or -(1-lambda_c)/3 for zeta'' when Lambda = 0.
    """
    zeta, d1, d2 = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    near = _near_origin(u, d)
    if near.any():
        zeta[near], d1[near], d2[near] = _near_map(u[near], d)
    far = ~near
    lc = d.lambda_c
    uf = u[far]
    zf = zeta_of_u(uf, d)
    f1p = phase_mod.d_f1(zf, lc, d.Lambda)
    f1pp = lc * (lc / (1.0 + lc * zf) + 1.0 / (1.0 - zf))
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = (math.log1p(d.Lambda) + (1.0 + lc) * uf) / (f1p / lc)
        s2 = (_quad(d)[0] - f1pp * s1 * s1) / f1p
    zeta[far], d1[far], d2[far] = zf, s1, s2
    zero = u == 0.0
    d1[zero] = 1.0
    d2[zero] = 0.0 if d.Lambda > 0.0 else -(1.0 - lc) / 3.0
    return zeta, d1, d2


@phase_mod._on_arrays
def dzeta_du(u, d: DerivedParams):
    """dzeta/du = (log(1+Lambda) + (1+lambda_c) u) / (f1'(zeta)/lambda_c).

    The u -> 0 limit is 1 (both numerator and denominator tend to
    log(1+Lambda), or to 0 at the same linear rate when Lambda = 0); small
    |u| takes the series value from _near_map.
    """
    return _map(u, d)[1]


@phase_mod._on_arrays
def amp_F(u, d: DerivedParams):
    """Amplitude in the u frame, g(zeta(u)) dzeta/du; 1 at u = 0."""
    zeta, d1, _d2 = _map(u, d)
    return phase_mod.amp_g(zeta, d.lambda_c, d.sigma) * d1


@phase_mod._on_arrays
def phi_closed(u, d: DerivedParams):
    """Closed form of the Gaussian-phase tail Phi(u) via the Fresnel tail:

    Phi(u) = e^{-i omega^2} sqrt(2/(lambda_c t)) FT(sqrt(lambda_c t/2) u + omega).
    """
    w = math.sqrt(d.lambda_c * d.t / 2.0) * u + d.omega
    scale = math.sqrt(2.0 / (d.lambda_c * d.t))
    return cmath.exp(-1j * d.omega**2) * scale * fresnel_tail_general(w)


def _amp_F_prime(u, d: DerivedParams):
    """dF/du = g'(zeta) zeta'^2 + g(zeta) zeta'' for an array u."""
    lc = d.lambda_c
    zeta, d1, d2 = _map(u, d)
    dlog_g = 0.5 / (1.0 - zeta) + (d.sigma - 0.5) * lc / (1.0 + lc * zeta)
    return phase_mod.amp_g(zeta, lc, d.sigma) * (dlog_g * d1 * d1 + d2)


def decomposition_residual(d: DerivedParams) -> float:
    """|Jtilde - F(0) Phi(0) - int F'(u) Phi(u) du| over the pi/4 ray at d.

    The direct Jtilde quadrature and the ray quadrature of F' Phi each carry
    the tolerance DECOMPOSITION_TOL; Phi is closed form.  The ray quadrature
    takes the zero-phase frame (0, F' Phi), F' Phi decaying by itself, and
    evaluates each GK15 batch with one map solve (zeta, zeta' and zeta'')
    and one Fresnel-tail call.
    """
    direct = jtilde_oracle(d, tol=DECOMPOSITION_TOL).value

    def frame(v):
        return np.zeros_like(v), _amp_F_prime(v, d) * phi_closed(v, d)

    ray = ray_truncation(_gaussian_frame(d), 0.0 + 0.0j, math.pi / 4.0, DECOMPOSITION_TOL)
    tail = integrate_ray(frame, ray, DECOMPOSITION_TOL)
    # boundary term F(0) Phi(0) of the integration by parts; F(0) = 1
    recomposed = amp_F(0.0, d) * phi_closed(0.0, d) + tail.value
    return abs(direct - recomposed)
