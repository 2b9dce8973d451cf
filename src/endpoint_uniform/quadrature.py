"""Adaptive panel quadrature on ray and segment contours.

The direct ("oracle") evaluations of the integral and its companions all reduce
to one-dimensional integrals along straight contours in the complex plane:
either a finite segment or a ray truncated at a radius r_max chosen from the
decay of exp(i t F).  Panels are 15-point Gauss-Kronrod with the embedded
7-point Gauss rule supplying the error estimate.  Two refinement triggers:

  * panel error above its share of the tolerance (ordinary adaptivity);
  * the complex phase t F advancing by more than 2*pi across a panel that
    still contributes (oscillation/decay resolution; without it a panel much
    wider than the decay scale can look converged while missing everything).

An error-driven round (one with no phase-forced split) is stuck when it fails
to halve the summed error estimate.  A stuck round bisects worst-first, as
QUADPACK dqagse does: only the largest-error panels that together hold
FLOOR_RATIO (half) of the error, not every panel above its share of tol.
Refinement stops with NonConvergence at the panel cap, or earlier at the
roundoff floor: when FLOOR_ROUNDS stuck rounds come in a row, as they do once
t F is too large for double precision, further bisection cannot reach tol.

Panel evaluation is batched through numpy, and the final sum runs over panels
sorted by position, so results are reproducible run to run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import phase as phase_mod
from .errors import NonConvergence, NumericalError, SigmaUnsupported
from .params import DerivedParams, ProblemParams, derive

# 15-point Kronrod nodes on [-1,1] and weights; Gauss-7 weights sit on the odd
# indexed nodes.  Values as tabulated for the classical QUADPACK pair.
_XGK = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.0630920926299786,
        0.0229353220105292,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
        0.3818300505051189,
        0.2797053914892767,
        0.1294849661688697,
    ]
)

PANEL_CAP_DEFAULT = 20000
PHASE_ADVANCE_CAP = 2.0 * math.pi
# Roundoff floor, after the roundoff test of QUADPACK dqagse (Piessens et al.
# 1983): an error-driven round (one with no phase-forced split) is stuck when
# the summed error estimate is still FLOOR_RATIO or more of its value a round
# earlier.  A stuck round bisects the largest-error panels that hold
# FLOOR_RATIO of the error; FLOOR_ROUNDS stuck rounds in a row stop the
# refinement.
FLOOR_RATIO = 0.5
FLOOR_ROUNDS = 4
# the doubling grid r = 2^j that ray_truncation searches
TRUNCATION_J_LO = -120
TRUNCATION_J_HI = 40


@dataclass(frozen=True)
class RayContour:
    """Ray origin + s*exp(i*angle), s in [0, r_max]."""

    origin: complex
    angle: float
    r_max: float


@dataclass
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    panels: int
    truncation_bound: float

    def as_dict(self):
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "abs_err": self.abs_error_estimate,
            "panels": self.panels,
            "truncation_bound": self.truncation_bound,
        }


def _gk_batch(f, lo, hi):
    """Evaluate GK15 on each [lo_i, hi_i].  Returns (integral, err, absint)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = mid[:, None] + half[:, None] * _XGK[None, :]
    y = np.asarray(f(s.ravel()), dtype=complex).reshape(s.shape)
    if not np.all(np.isfinite(y)):
        raise NumericalError("integrand returned a non-finite value")
    ik = (y @ _WGK) * half
    ig = (y[:, 1::2] @ _WG) * half
    err = np.abs(ik - ig)
    absint = (np.abs(y) @ _WGK) * half
    return ik, err, absint


def _adaptive(f, a, b, tol, phase=None, breaks=None, panel_cap=PANEL_CAP_DEFAULT):
    """Adaptive GK15 of f over [a, b] (real parameter line).

    phase, when given, maps parameter arrays to the complex oscillation
    exponent t*F; panels with more than 2*pi of phase advance and a
    non-negligible modulus are split regardless of their error estimate.
    Raises NonConvergence at the panel cap or at the roundoff floor.
    """
    if breaks is None:
        breaks = np.array([a, b])
    lo = np.asarray(breaks[:-1], dtype=float)
    hi = np.asarray(breaks[1:], dtype=float)
    vals, errs, absints = _gk_batch(f, lo, hi)
    if phase is not None:
        wends = np.asarray(phase(np.concatenate([lo, [hi[-1]]])), dtype=complex)
        wlo, whi = wends[:-1].copy(), wends[1:].copy()
    min_width = 1e-14 * (b - a)
    neglect = 1e-3 * tol
    capped = len(lo) > panel_cap
    prev_err = math.inf
    stuck = 0  # error-driven rounds in a row that did not halve the error

    for _ in range(200):
        n = len(lo)
        total_err = float(np.sum(errs))
        if phase is not None:
            adv = np.abs(whi - wlo)
            must = (adv > PHASE_ADVANCE_CAP) & (absints > neglect)
        else:
            must = np.zeros(n, dtype=bool)
        if total_err <= tol and not np.any(must):
            break
        halved = total_err < FLOOR_RATIO * prev_err
        stuck = 0 if halved or np.any(must) else stuck + 1
        prev_err = total_err
        if stuck == FLOOR_ROUNDS:
            break
        if stuck:
            # worst-first, ties at the cut included; min() keeps the index in
            # range should rounding leave the whole cumsum short of the cut
            worst = np.sort(errs)[::-1]
            i = int(np.searchsorted(np.cumsum(worst), FLOOR_RATIO * total_err))
            want = errs >= worst[min(i, n - 1)]
        else:
            want = errs > max(0.5 * tol / n, 0.0)
        split = (must | want) & (hi - lo > min_width)
        if not np.any(split):
            break
        # a round that would pass the cap is not run
        capped = capped or n + int(np.count_nonzero(split)) > panel_cap
        if capped:
            break
        mid = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate([lo[split], mid])
        child_hi = np.concatenate([mid, hi[split]])
        cvals, cerrs, cabs = _gk_batch(f, child_lo, child_hi)
        lo = np.concatenate([lo[~split], child_lo])
        hi = np.concatenate([hi[~split], child_hi])
        vals = np.concatenate([vals[~split], cvals])
        errs = np.concatenate([errs[~split], cerrs])
        absints = np.concatenate([absints[~split], cabs])
        if phase is not None:
            wmid = np.asarray(phase(mid), dtype=complex)
            wlo = np.concatenate([wlo[~split], wlo[split], wmid])
            whi = np.concatenate([whi[~split], wmid, whi[split]])

    order = np.argsort(lo, kind="stable")
    value = complex(np.sum(vals[order]))
    err = float(np.sum(errs))
    n = len(lo)
    if stuck == FLOOR_ROUNDS:
        why = (f"hit its error floor at {n} panels: error {err:.3e} "
               f"not halved in {FLOOR_ROUNDS} rounds running")
    elif err > tol * 1.0000001 or capped:
        why = f"stalled at {n} panels (cap {panel_cap}), error {err:.3e}"
    else:
        return value, err, n
    raise NonConvergence(f"adaptive quadrature {why}, tol {tol:.3e}",
                         result=QuadratureResult(value, err, n, 0.0))


def _geometric_breaks(r_max, levels=52):
    """Panel edges 0, r_max*2^-levels, ..., r_max/2, r_max.

    The integrand often lives on a scale many orders below r_max (sharp decay
    of exp(i t F) at large t); plain bisection from one panel can miss it.
    """
    g = r_max * 2.0 ** (-np.arange(levels, -1, -1.0))
    return np.concatenate([[0.0], g])


def _on_line(integrand, phase, z0, rot):
    """Pull integrand (times dz/ds) and phase back to the line z0 + s*rot."""

    def f(s):
        return integrand(z0 + s * rot) * rot

    ph = None
    if phase is not None:
        def ph(s):
            return phase(z0 + s * rot)

    return f, ph


def integrate_ray(integrand, contour: RayContour, tol: float, phase=None,
                  panel_cap=PANEL_CAP_DEFAULT, truncation_bound=0.0):
    """Integrate along contour.origin + s e^(i angle), s in [0, contour.r_max].

    integrand and phase take numpy arrays of complex z.  tol is an absolute
    tolerance on the value; the per-panel error estimates must sum below it.
    Raises NonConvergence (with the partial result attached) past panel_cap
    or at the roundoff floor.
    """
    f, ph = _on_line(integrand, phase, contour.origin, cmath.exp(1j * contour.angle))
    breaks = _geometric_breaks(contour.r_max)
    value, err, n = _adaptive(f, 0.0, contour.r_max, tol, phase=ph,
                              breaks=breaks, panel_cap=panel_cap)
    return QuadratureResult(value, err, n, truncation_bound)


def integrate_segment(integrand, z_from, z_to, tol: float, phase=None,
                      panel_cap=PANEL_CAP_DEFAULT):
    """Integrate along the straight segment from z_from to z_to."""
    z0 = complex(z_from)
    dz = complex(z_to) - z0
    length = abs(dz)
    if length == 0.0:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0, 0.0)
    f, ph = _on_line(integrand, phase, z0, dz / length)
    value, err, n = _adaptive(f, 0.0, length, tol, phase=ph, panel_cap=panel_cap)
    return QuadratureResult(value, err, n, 0.0)


def ray_truncation(phase, amplitude, origin, angle, tol):
    """Truncation radius by the decay rule, searched on a doubling grid.

    Picks the smallest r = 2^j, TRUNCATION_J_LO <= j <= TRUNCATION_J_HI, with

        Im[t F(z(r))] >= log(1/tol) + log(1 + r * A(r)),

    A(r) the running max of the amplitude modulus on the grid, so the
    discarded tail is bounded (to leading order) by tol.  Returns
    (r_max, truncation_bound).
    """
    rot = cmath.exp(1j * angle)
    r = 2.0 ** np.arange(TRUNCATION_J_LO, TRUNCATION_J_HI + 1, dtype=float)
    z = origin + r * rot
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        imw = np.asarray(phase(z), dtype=complex).imag
        amp = np.abs(np.asarray(amplitude(z), dtype=complex))
    amp = np.where(np.isfinite(amp), amp, 0.0)
    imw = np.where(np.isfinite(imw), imw, np.inf)
    ampmax = np.maximum.accumulate(amp)
    need = math.log(1.0 / tol) + np.log1p(r * ampmax)
    ok = imw >= need
    if not np.any(ok):
        raise NonConvergence("no truncation radius found: phase decay too slow")
    i = int(np.argmax(ok))
    with np.errstate(over="ignore"):
        bound = float(np.exp(-imw[i]) * (1.0 + r[i] * ampmax[i]))
    if not math.isfinite(bound):
        bound = 0.0
    return float(r[i]), bound


# ---------------------------------------------------------------------------
# Oracles: direct quadrature of the integral and its companions.
# ---------------------------------------------------------------------------


def endpoint_prefactor(d: DerivedParams) -> complex:
    """Factor relating the offset-frame integral to the original one:

    J = (lambda_c/(1+lambda_c))^(1/2) (1+lambda_c)^(1/2-sigma)
        * exp(i t f0/(1+lambda_c)) * J_tilde
    """
    lc = d.lambda_c
    mod = math.sqrt(lc / (1.0 + lc)) * (1.0 + lc) ** (0.5 - d.sigma)
    ph = d.t * phase_mod.f0(d.Lambda, lc) / (1.0 + lc)
    return mod * cmath.exp(1j * ph)


def _oracle(w, amp, origin, tol, panel_cap, angle=None, end=None):
    """Quadrature of amp(z) exp(i w(z)) from origin: along the segment to end,
    or else along the ray at angle, truncated by the decay rule."""

    def f(z):
        return amp(z) * np.exp(1j * w(z))

    if end is not None:
        return integrate_segment(f, origin, end, tol, phase=w, panel_cap=panel_cap)
    r_max, tb = ray_truncation(w, amp, origin, angle, tol)
    return integrate_ray(f, RayContour(origin, angle, r_max), tol, phase=w,
                         panel_cap=panel_cap, truncation_bound=tb)


def _big_f_phase(p: ProblemParams):
    def w(z):
        return p.t * phase_mod.big_f(z, p.lam)

    return w


def _split_piece(p: ProblemParams, k: float, origin, tol, panel_cap, **contour):
    """A piece of the split contour: amplitude (1-z)^(-1/2), sigma = 1/2 only."""
    if p.sigma != 0.5:
        raise SigmaUnsupported("split pieces are defined for sigma = 1/2 only")
    if not (0.0 < k < p.t ** (p.delta - 1.0)):
        raise NumericalError(f"split point k={k} must lie in (0, t^(delta-1))")

    def amp(z):
        return (1.0 - z) ** -0.5

    return _oracle(_big_f_phase(p), amp, origin, tol, panel_cap, **contour)


def _gaussian_phase(d: DerivedParams):
    """(lambda_c t/2)(v^2 + beta v), beta = 2 log(1+Lambda)/(1+lambda_c)."""
    lc = d.lambda_c
    half = 0.5 * lc * d.t
    beta = 2.0 * math.log1p(d.Lambda) / (1.0 + lc)

    def w(v):
        return half * (v * v + beta * v)

    return w


def _unit_amplitude(v):
    return np.ones_like(np.asarray(v, dtype=complex))


def jb_oracle(p: ProblemParams, tol: float = 1e-10,
              panel_cap=PANEL_CAP_DEFAULT) -> QuadratureResult:
    """Direct adaptive quadrature of J(t; lambda) from the left endpoint.

    Contour: the ray 1 - t^(delta-1) + s e^(i phi) with phi = select_phi(lambda),
    truncated by the decay rule.  tol is absolute.
    """
    sigma = p.sigma

    def amp(z):
        return (1.0 - z) ** -0.5 * z ** (sigma - 0.5)

    z0 = 1.0 - p.t ** (p.delta - 1.0)
    return _oracle(_big_f_phase(p), amp, z0, tol, panel_cap, angle=derive(p).phi)


def jb1_oracle(p: ProblemParams, k: float, tol: float = 1e-10,
               panel_cap=PANEL_CAP_DEFAULT) -> QuadratureResult:
    """Real-segment piece: integral over [1 - t^(delta-1), 1 - k].

    Only sigma = 1/2 (the split analysis drops z^(sigma-1/2)).
    """
    z0 = 1.0 - p.t ** (p.delta - 1.0)
    return _split_piece(p, k, z0, tol, panel_cap, end=1.0 - k)


def jb2_oracle(p: ProblemParams, k: float, tol: float = 1e-10,
               panel_cap=PANEL_CAP_DEFAULT) -> QuadratureResult:
    """Ray piece: integral from 1 - k out to infinity at angle select_phi."""
    return _split_piece(p, k, 1.0 - k, tol, panel_cap, angle=derive(p).phi)


def jtilde_oracle(p: ProblemParams, tol: float = 1e-10,
                  panel_cap=PANEL_CAP_DEFAULT) -> QuadratureResult:
    """Offset-frame integral J_tilde = int_0^(inf e^(i phi)) g e^(i t h) dzeta."""
    d = derive(p)
    lc = d.lambda_c

    def w(zeta):
        return p.t * phase_mod.f1(zeta, lc, d.Lambda) / (1.0 + lc)

    def amp(zeta):
        return phase_mod.amp_g(zeta, lc, p.sigma)

    return _oracle(w, amp, 0.0, tol, panel_cap, angle=d.phi)


def phi_oracle(u, d: DerivedParams, tol: float = 1e-10,
               panel_cap=PANEL_CAP_DEFAULT) -> QuadratureResult:
    """Direct quadrature of the incomplete Gaussian-phase tail

        Phi(u) = int_u^(inf e^(i pi/4)) exp(i (lambda_c t/2)(v^2 + beta v)) dv,

    beta = 2 log(1+Lambda)/(1+lambda_c).  u may be 0 or any point from which
    the pi/4 ray stays in the decay sector (in practice: on that ray).
    """
    return _oracle(_gaussian_phase(d), _unit_amplitude, complex(u), tol, panel_cap,
                   angle=math.pi / 4.0)
