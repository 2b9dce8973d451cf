"""Quadratic change of variables for the offset-frame integral.

The variable u is defined implicitly by

    (lambda_c/2)(1+lambda_c) u^2 + lambda_c log(1+Lambda) u = f1(zeta),

which maps the curved phase f1 onto an exact quadratic; u ~ zeta near 0.  The
integral then decomposes as Jtilde = F(0) Phi(0) + int_0^{inf e^{i pi/4}}
F'(u) Phi(u) du with F(u) = g(zeta(u)) dzeta/du, F(0) = 1, and Phi an
incomplete Gaussian-phase tail with closed form through the Fresnel tail.
decomposition_residual checks that identity end to end against direct
quadrature.

zeta_of_u, amp_F and phi_closed take scalars or arrays.  The inversion runs
its continuation stages and its Newton iterations per element under masks,
so one GK15 batch of the ray quadrature costs one call.  F' comes from
differentiating the defining relation, not from differences:

    F' = g'(zeta) zeta'^2 + g(zeta) zeta'',
    zeta'' = (lambda_c (1+lambda_c) - f1''(zeta) zeta'^2) / f1'(zeta).

Near the origin f1'(zeta) ~ lambda_c (log(1+Lambda) + (1+lambda_c) zeta) is
small, and at or near Lambda = 0 both the Newton residual and these forms
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
from .errors import NewtonDivergence, RootSelectionFailure
from .fresnel import fresnel_tail_general
from .params import DerivedParams, derive, from_offset
from .quadrature import _gaussian_frame, integrate_ray, jtilde_oracle, ray_truncation

# Degree of the Taylor polynomial of f1 used near the origin.  It is used for
# |u| below 1/4 of its radius of convergence min(1, 1/lambda_c), where the
# truncation error is below 4^-30 relative.
_SERIES_TERMS = 32
# the tolerance of both quadratures in decomposition_residual
DECOMPOSITION_TOL = 1e-7
# the length in |u| of one continuation stage of zeta_of_u
_STAGE = 0.5


def _quad(d: DerivedParams):
    """Coefficients (a, b) of the quadratic (a/2) u^2 + b u that f1 maps onto."""
    return d.lambda_c * (1.0 + d.lambda_c), d.lambda_c * math.log1p(d.Lambda)


def _rhs(u, d: DerivedParams):
    a, b = _quad(d)
    return 0.5 * a * u * u + b * u


def u_of_zeta(zeta, d: DerivedParams) -> complex:
    """Solve the quadratic for u, picking the root continuous from u(0)=0.

    The two roots are u = (-B +- sqrt(B^2 + 2 A f1))/A.  The branch is fixed
    by marching out from zeta = 0: the square root is tracked continuously
    from its value +B there, which selects u ~ zeta.  With B=0 (Lambda=0) the first
    marching step disambiguates by closeness to zeta itself.
    """
    zeta = complex(zeta)
    a_coef, b_coef = _quad(d)
    if zeta == 0.0:
        return 0.0 + 0.0j
    steps = max(16, int(8 * abs(zeta) * (1.0 + d.lambda_c)))
    r_prev = complex(b_coef)
    u = 0.0 + 0.0j
    for j in range(1, steps + 1):
        zj = zeta * (j / steps)
        disc = b_coef * b_coef + 2.0 * a_coef * phase_mod.f1(zj, d.lambda_c, d.Lambda)
        root = cmath.sqrt(disc)
        cand = (root, -root)
        if abs(r_prev) > 0.0:
            d1 = abs(cand[0] - r_prev)
            d2 = abs(cand[1] - r_prev)
            if abs(root) > 0.0 and abs(d1 - d2) <= 1e-12 * max(d1, d2):
                # roots collided: continuity cannot decide the branch
                raise RootSelectionFailure(
                    f"ambiguous root at step {j}/{steps} for zeta={zeta}"
                )
            r = cand[0] if d1 <= d2 else cand[1]
        else:
            # degenerate start: choose the root whose u is nearest zeta
            r = min(cand, key=lambda c: abs((-b_coef + c) / a_coef - zj))
        r_prev = r
        u = (-b_coef + r) / a_coef
    return u


def _as_flat(u):
    return np.asarray(u, dtype=complex).ravel()


def _shaped(u, out):
    """Give out (flat) the shape of u, or a complex scalar for a scalar u."""
    return out.reshape(np.shape(u)) if isinstance(u, np.ndarray) else complex(out[0])


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
    rule in place: np.polyval's operations in its order, without its
    temporaries."""
    y = np.zeros_like(x)
    for ck in c:
        y *= x
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


def _newton(zeta, rhs, d: DerivedParams, u):
    """Newton with backtracking on f1(zeta) = rhs, elementwise under masks."""
    lc, lam = d.lambda_c, d.Lambda
    tol = 1e-13 * (1.0 + np.abs(rhs))
    res = phase_mod.f1(zeta, lc, lam) - rhs
    for iteration in range(51):
        live = np.flatnonzero(~(np.abs(res) < tol))
        if live.size == 0:
            return zeta
        if iteration == 50:
            i = live[0]
            raise NewtonDivergence(f"Newton stalled at u={u[i]}, residual {abs(res[i]):.3e}")
        z, r, target = zeta[live], res[live], rhs[live]
        dz = r / phase_mod.d_f1(z, lc, lam)
        step = np.ones(live.size)
        trial = z - dz
        tres = phase_mod.f1(trial, lc, lam) - target
        for _ in range(29):
            back = np.flatnonzero(~(np.abs(tres) < np.abs(r)))
            if back.size == 0:
                break
            step[back] *= 0.5
            trial[back] = z[back] - step[back] * dz[back]
            tres[back] = phase_mod.f1(trial[back], lc, lam) - target[back]
        stuck = ~(np.abs(tres) < np.abs(r))
        if np.any(stuck):
            i = int(np.argmax(stuck))
            raise NewtonDivergence(
                f"no descent direction at u={u[live[i]]}, residual {abs(r[i]):.3e}"
            )
        zeta[live] = trial
        res[live] = tres


def zeta_of_u(u, d: DerivedParams):
    """Invert the map by Newton on f1(zeta) = rhs(u), seeded along the ray.

    u may be a scalar or an array; each element runs its own continuation
    in |u|, in stages of length at most _STAGE, and its own Newton iteration,
    under masks.  Each stage starts from the tangent predictor
    zeta + zeta' (u - u_prev), with zeta' from _zeta_prime at the previous
    stage, and 1 at the origin (Euler-Newton continuation; Allgower & Georg
    1990).  NewtonDivergence is raised if any element fails.  Small |u| is
    solved by _near_map instead.
    """
    flat = _as_flat(u)
    zeta = np.zeros_like(flat)
    near = _near_origin(flat, d)
    if near.any():
        zeta[near] = _near_map(flat[near], d)[0]
    todo = np.flatnonzero((flat != 0.0) & ~near)
    if todo.size:
        lc, lam = d.lambda_c, d.Lambda
        uu = flat[todo]
        n_stage = np.maximum(1, np.ceil(np.abs(uu) / _STAGE)).astype(int)
        z = np.zeros_like(uu)
        u_prev = np.zeros_like(uu)
        for stage in range(1, int(n_stage.max()) + 1):
            live = np.flatnonzero(n_stage >= stage)
            ut = uu[live] * (stage / n_stage[live])
            zl, ul = z[live], u_prev[live]
            slope = 1.0 if stage == 1 else _zeta_prime(ul, phase_mod.d_f1(zl, lc, lam), d)
            z[live] = _newton(zl + slope * (ut - ul), _rhs(ut, d), d, uu[live])
            u_prev[live] = ut
        # one more step: the stopping test is absolute, the derivatives of
        # the map want zeta to the precision of f1 itself
        res = phase_mod.f1(z, lc, lam) - _rhs(uu, d)
        zeta[todo] = z - res / phase_mod.d_f1(z, lc, lam)
    return _shaped(u, zeta)


def _zeta_prime(u, f1p, d: DerivedParams):
    """dzeta/du = (log(1+Lambda) + (1+lambda_c) u) / (f1'(zeta)/lambda_c) at u,
    given f1' at zeta(u): the derivative of f1(zeta(u)) = rhs(u)."""
    return (math.log1p(d.Lambda) + (1.0 + d.lambda_c) * u) / (f1p / d.lambda_c)


def _map(u, d: DerivedParams):
    """zeta(u), zeta'(u) and zeta''(u) for a flat array u, one solve per point.

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
        s1 = _zeta_prime(uf, f1p, d)
        s2 = (_quad(d)[0] - f1pp * s1 * s1) / f1p
    zeta[far], d1[far], d2[far] = zf, s1, s2
    zero = u == 0.0
    d1[zero] = 1.0
    d2[zero] = 0.0 if d.Lambda > 0.0 else -(1.0 - lc) / 3.0
    return zeta, d1, d2


def dzeta_du(u, d: DerivedParams):
    """dzeta/du = (log(1+Lambda) + (1+lambda_c) u) / (f1'(zeta)/lambda_c).

    The u -> 0 limit is 1 (both numerator and denominator tend to
    log(1+Lambda), or to 0 at the same linear rate when Lambda = 0); small
    |u| takes the series value from _near_map.
    """
    flat = _as_flat(u)
    return _shaped(u, _map(flat, d)[1])


def amp_F(u, d: DerivedParams, sigma: float):
    """Amplitude in the u frame, g(zeta(u)) dzeta/du, at scalar or array u;
    1 at u = 0."""
    flat = _as_flat(u)
    zeta, d1, _d2 = _map(flat, d)
    return phase_mod.amp_g(_shaped(u, zeta), d.lambda_c, sigma) * _shaped(u, d1)


def phi_closed(u, d: DerivedParams):
    """Closed form of the Gaussian-phase tail Phi(u) via the Fresnel tail:

    Phi(u) = e^{-i omega^2} sqrt(2/(lambda_c t)) FT(sqrt(lambda_c t/2) u + omega).

    Scalar or array u.
    """
    u = np.asarray(u, dtype=complex) if isinstance(u, np.ndarray) else complex(u)
    w = math.sqrt(d.lambda_c * d.t / 2.0) * u + d.omega
    scale = math.sqrt(2.0 / (d.lambda_c * d.t))
    return cmath.exp(-1j * d.omega**2) * scale * fresnel_tail_general(w)


def _amp_F_prime(u, d: DerivedParams, sigma: float):
    """dF/du = g'(zeta) zeta'^2 + g(zeta) zeta'' for a flat array u."""
    lc = d.lambda_c
    zeta, d1, d2 = _map(u, d)
    dlog_g = 0.5 / (1.0 - zeta) + (sigma - 0.5) * lc / (1.0 + lc * zeta)
    return phase_mod.amp_g(zeta, lc, sigma) * (dlog_g * d1 * d1 + d2)


def decomposition_residual(t: float, delta: float, Lambda: float,
                           sigma: float = 0.5) -> float:
    """|Jtilde - F(0) Phi(0) - int F'(u) Phi(u) du| over the pi/4 ray.

    The direct Jtilde quadrature and the ray quadrature of F' Phi each carry
    the tolerance DECOMPOSITION_TOL; Phi is closed form.  The integrand
    evaluates each GK15 batch with one map solve (zeta, zeta' and zeta'')
    and one Fresnel-tail call, and has zero phase: F' Phi decays by itself.
    """
    p = from_offset(t, delta, sigma, Lambda)
    d = derive(p)
    direct = jtilde_oracle(p, tol=DECOMPOSITION_TOL).value

    def integrand(v):
        return _amp_F_prime(v, d, sigma) * phi_closed(v, d), np.zeros_like(v)

    ray = ray_truncation(_gaussian_frame(d), 0.0 + 0.0j, math.pi / 4.0, DECOMPOSITION_TOL)
    tail = integrate_ray(integrand, np.zeros_like, ray, DECOMPOSITION_TOL)
    # boundary term F(0) Phi(0) of the integration by parts; F(0) = 1
    recomposed = amp_F(0.0, d, sigma) * phi_closed(0.0, d) + tail.value
    return abs(direct - recomposed)
