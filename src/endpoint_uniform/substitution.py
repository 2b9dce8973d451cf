"""Quadratic change of variables for the offset-frame integral.

The variable u is defined implicitly by

    (lambda_c/2)(1+lambda_c) u^2 + lambda_c log(1+Lambda) u = f1(zeta),

which maps the curved phase f1 onto an exact quadratic; u ~ zeta near 0.  The
integral then decomposes as Jtilde = Phi(0) + int_0^{inf e^{i pi/4}} F'(u)
Phi(u) du with F(u) = g(zeta(u)) dzeta/du and Phi an incomplete Gaussian-phase
tail with closed form through the Fresnel tail.  decomposition_residual checks
that identity end to end against direct quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import phase as phase_mod
from .errors import NewtonDivergence, RootSelectionFailure
from .fresnel import fresnel_tail_general
from .params import DerivedParams, derive, from_offset
from .quadrature import (
    RayContour,
    _gaussian_phase,
    _unit_amplitude,
    integrate_ray,
    jtilde_oracle,
    ray_truncation,
)


@dataclass(frozen=True)
class CovState:
    t: float
    Lambda: float
    lambda_c: float
    # point where the u ~ zeta correspondence anchors the quadratic root
    branch_anchor: complex = 0.0 + 0.0j

    @property
    def quad_a(self) -> float:
        return self.lambda_c * (1.0 + self.lambda_c)

    @property
    def quad_b(self) -> float:
        return self.lambda_c * math.log1p(self.Lambda)

    @property
    def omega(self) -> float:
        return (
            math.sqrt(self.lambda_c * self.t / 2.0)
            * math.log1p(self.Lambda)
            / (1.0 + self.lambda_c)
        )


def state_from(d: DerivedParams) -> CovState:
    return CovState(t=d.t, Lambda=d.Lambda, lambda_c=d.lambda_c)


def _rhs(u, s: CovState):
    return 0.5 * s.quad_a * u * u + s.quad_b * u


def u_of_zeta(zeta, s: CovState) -> complex:
    """Solve the quadratic for u, picking the root continuous from u(0)=0.

    The two roots are u = (-B +- sqrt(B^2 + 2 A f1))/A.  The branch is fixed
    by marching from the anchor: the square root is tracked continuously from
    +B at zeta=0, which selects u ~ zeta.  With B=0 (Lambda=0) the first
    marching step disambiguates by closeness to zeta itself.
    """
    zeta = complex(zeta)
    a_coef = s.quad_a
    b_coef = s.quad_b
    if zeta == 0.0:
        return 0.0 + 0.0j
    steps = max(16, int(8 * abs(zeta) * (1.0 + s.lambda_c)))
    r_prev = complex(b_coef)
    u = 0.0 + 0.0j
    for j in range(1, steps + 1):
        zj = zeta * (j / steps)
        disc = b_coef * b_coef + 2.0 * a_coef * phase_mod.f1(zj, s.lambda_c, s.Lambda)
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


def zeta_of_u(u, s: CovState) -> complex:
    """Invert the map by Newton on f1(zeta) = rhs(u), seeded along the ray.

    Continuation in |u| (steps of 0.25) keeps the iteration inside the basin;
    each stage starts from the previous solution shifted by the identity map.
    """
    u = complex(u)
    if u == 0.0:
        return 0.0 + 0.0j
    n_stage = max(1, int(math.ceil(abs(u) / 0.25)))
    zeta = 0.0 + 0.0j
    u_prev = 0.0 + 0.0j
    for stage in range(1, n_stage + 1):
        ut = u * (stage / n_stage)
        rhs = _rhs(ut, s)
        zeta = zeta + (ut - u_prev)
        converged = False
        for _ in range(50):
            res = phase_mod.f1(zeta, s.lambda_c, s.Lambda) - rhs
            if abs(res) < 1e-13 * (1.0 + abs(rhs)):
                converged = True
                break
            dz = res / phase_mod.d_f1(zeta, s.lambda_c, s.Lambda)
            step = 1.0
            for _ in range(30):
                trial = zeta - step * dz
                tres = phase_mod.f1(trial, s.lambda_c, s.Lambda) - rhs
                if abs(tres) < abs(res):
                    break
                step *= 0.5
            else:
                raise NewtonDivergence(
                    f"no descent direction at u={u}, residual {abs(res):.3e}"
                )
            zeta = zeta - step * dz
        if not converged:
            res = phase_mod.f1(zeta, s.lambda_c, s.Lambda) - rhs
            if abs(res) >= 1e-13 * (1.0 + abs(rhs)):
                raise NewtonDivergence(
                    f"Newton stalled at u={u}, residual {abs(res):.3e}"
                )
        u_prev = ut
    return zeta


def _dzeta_du_at(u: complex, zeta: complex, s: CovState) -> complex:
    if abs(u) <= 1e-8:
        return 1.0 + 0.0j
    num = math.log1p(s.Lambda) + (1.0 + s.lambda_c) * u
    den = phase_mod.d_f1(zeta, s.lambda_c, s.Lambda) / s.lambda_c
    return num / den


def dzeta_du(u, s: CovState) -> complex:
    """dzeta/du = (log(1+Lambda) + (1+lambda_c) u) / (f1'(zeta)/lambda_c).

    The u -> 0 limit is 1 (both numerator and denominator tend to
    log(1+Lambda), or to 0 at the same linear rate when Lambda = 0).
    """
    u = complex(u)
    if abs(u) <= 1e-8:
        return 1.0 + 0.0j
    return _dzeta_du_at(u, zeta_of_u(u, s), s)


def amp_F(u, s: CovState, sigma: float) -> complex:
    """Amplitude in the u frame: g(zeta(u)) dzeta/du; equals 1 at u = 0."""
    u = complex(u)
    if u == 0.0:
        return 1.0 + 0.0j
    zeta = zeta_of_u(u, s)
    return phase_mod.amp_g(zeta, s.lambda_c, sigma) * _dzeta_du_at(u, zeta, s)


def phi_closed(u, s: CovState) -> complex:
    """Closed form of the Gaussian-phase tail Phi(u) via the Fresnel tail:

    Phi(u) = e^{-i omega^2} sqrt(2/(lambda_c t)) FT(sqrt(lambda_c t/2) u + omega).
    """
    w = math.sqrt(s.lambda_c * s.t / 2.0) * complex(u) + s.omega
    scale = math.sqrt(2.0 / (s.lambda_c * s.t))
    return cmath.exp(-1j * s.omega**2) * scale * fresnel_tail_general(w)


def _amp_F_prime(u, s: CovState, sigma: float, direction: complex) -> complex:
    """Directional derivative of amp_F along the ray by centered differences."""
    h = 1e-5 * (1.0 + abs(u))
    fp = amp_F(u + h * direction, s, sigma)
    fm = amp_F(u - h * direction, s, sigma)
    return (fp - fm) / (2.0 * h * direction)


def decomposition_residual(t: float, delta: float, Lambda: float,
                           tol: float = 1e-7, sigma: float = 0.5) -> float:
    """|Jtilde - Phi(0) - int F'(u) Phi(u) du| over the pi/4 ray.

    Each piece (direct Jtilde quadrature, closed-form Phi, ray quadrature of
    F' Phi) carries its own tolerance ~ tol, so the residual lands near the
    combined budget rather than machine precision.
    """
    p = from_offset(t, delta, sigma, Lambda)
    d = derive(p)
    s = state_from(d)
    direct = jtilde_oracle(p, tol=tol).value

    angle = math.pi / 4.0
    rot = cmath.exp(1j * angle)
    r_max, _tb = ray_truncation(_gaussian_phase(d), _unit_amplitude, 0.0 + 0.0j,
                                angle, tol)

    def integrand(v):
        v = np.asarray(v, dtype=complex)
        flat = v.ravel()
        res = np.empty(flat.shape, dtype=complex)
        for i, vi in enumerate(flat):
            res[i] = _amp_F_prime(vi, s, sigma, rot) * phi_closed(vi, s)
        return res.reshape(v.shape)

    contour = RayContour(0.0 + 0.0j, angle, r_max)
    tail = integrate_ray(integrand, contour, tol, phase=None)
    recomposed = phi_closed(0.0, s) + tail.value
    return abs(direct - recomposed)
