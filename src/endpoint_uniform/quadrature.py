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

Each node is evaluated once, for the integrand and the phase together: each
oracle frame is one callable giving the pair (phase, amplitude), the z-frame
one from the same two logarithms (phase.big_f with sigma), and a panel is
bisected at its centre node (GK15 node 7 is x = 0), so the phase at a new
panel edge is the one the integrand callback already returned there.  Outside
the GK15 batches the frame runs only at the initial breaks and on the
truncation grid.

Panel evaluation is batched through numpy, and the final sum runs over panels
sorted by position, so results are reproducible run to run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import phase as phase_mod
from .errors import InvalidParam, NonConvergence, NumericalError, SigmaUnsupported
from .params import DerivedParams, ProblemParams, check_split_point, check_tolerance, derive

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
# the centre node x = 0, where a panel is bisected
_CENTRE = 7
# complex copies, so a batch does not cast the weights on every product
_WGK_C = _WGK.astype(complex)
_WG_C = _WG.astype(complex)

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
    """Evaluate GK15 on each [lo_i, hi_i]; f returns (integrand, phase) at the
    nodes.  Returns (integral, err, absint, phase at the centre node)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = mid[:, None] + half[:, None] * _XGK[None, :]
    y, w = f(s.ravel())
    y = np.asarray(y, dtype=complex).reshape(s.shape)
    if not np.isfinite(y).all():
        raise NumericalError("integrand returned a non-finite value")
    ik = (y @ _WGK_C) * half
    ig = (y[:, 1::2] @ _WG_C) * half
    err = np.abs(ik - ig)
    absint = (np.abs(y) @ _WGK) * half
    wc = np.asarray(w, dtype=complex).reshape(s.shape)[:, _CENTRE]
    return ik, err, absint, wc


def _adaptive(f, phase, a, b, tol, breaks=None, panel_cap=PANEL_CAP_DEFAULT):
    """Adaptive GK15 of f over [a, b] (real parameter line).

    f maps parameter arrays to the pair (integrand, complex oscillation
    exponent t*F); phase gives t*F alone and is called once, at the initial
    breaks.  A panel is bisected at its centre node, where f has already
    given t*F.  Panels with more than 2*pi of phase advance and a
    non-negligible modulus are split regardless of their error estimate.
    Raises NonConvergence at the panel cap or at the roundoff floor.
    """
    if breaks is None:
        breaks = np.array([a, b])
    lo = np.asarray(breaks[:-1], dtype=float)
    hi = np.asarray(breaks[1:], dtype=float)
    vals, errs, absints, wmid = _gk_batch(f, lo, hi)
    wends = np.asarray(phase(np.concatenate([lo, [hi[-1]]])), dtype=complex)
    wlo, whi = wends[:-1], wends[1:]
    min_width = 1e-14 * (b - a)
    neglect = 1e-3 * tol
    capped = len(lo) > panel_cap
    prev_err = math.inf
    stuck = 0  # error-driven rounds in a row that did not halve the error

    for _ in range(200):
        n = len(lo)
        total_err = float(errs.sum())
        must = (np.abs(whi - wlo) > PHASE_ADVANCE_CAP) & (absints > neglect)
        forced = bool(must.any())
        if total_err <= tol and not forced:
            break
        halved = total_err < FLOOR_RATIO * prev_err
        stuck = 0 if halved or forced else stuck + 1
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
        if not split.any():
            break
        # a round that would pass the cap is not run
        capped = capped or n + int(np.count_nonzero(split)) > panel_cap
        if capped:
            break
        keep = ~split
        slo, shi, smid = lo[split], hi[split], wmid[split]
        mid = 0.5 * (slo + shi)
        child_lo = np.concatenate([slo, mid])
        child_hi = np.concatenate([mid, shi])
        cvals, cerrs, cabs, cmid = _gk_batch(f, child_lo, child_hi)
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], cvals])
        errs = np.concatenate([errs[keep], cerrs])
        absints = np.concatenate([absints[keep], cabs])
        wlo = np.concatenate([wlo[keep], wlo[split], smid])
        whi = np.concatenate([whi[keep], smid, whi[split]])
        wmid = np.concatenate([wmid[keep], cmid])

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
    """Pull integrand (times dz/ds) and phase back to the line z0 + s*rot.

    Returns f(s) -> (integrand * rot, phase) for the GK15 nodes and ph(s) ->
    phase for the initial breaks.  An integrand that returns the pair
    (values, phase) itself spares the second evaluation at the nodes.  A
    phase of None is zero, which forces no split.
    """
    if phase is None:
        phase = np.zeros_like

    def f(s):
        z = z0 + s * rot
        y = integrand(z)
        y, w = y if isinstance(y, tuple) else (y, phase(z))
        return y * rot, w

    def ph(s):
        return phase(z0 + s * rot)

    return f, ph


def _check_settings(tol, panel_cap):
    check_tolerance(tol)
    if not panel_cap >= 1:
        raise InvalidParam(f"panel_cap must be >= 1, got {panel_cap}")


def integrate_ray(integrand, contour: RayContour, tol: float, phase=None,
                  panel_cap=PANEL_CAP_DEFAULT, truncation_bound=0.0):
    """Integrate along contour.origin + s e^(i angle), s in [0, contour.r_max].

    integrand and phase take numpy arrays of complex z; integrand returns
    the values, or the pair (values, phase) when it computes the phase on
    the way.  tol is an absolute tolerance on the value; the per-panel error
    estimates must sum below it.  Raises InvalidParam unless tol is finite
    and > 0 and panel_cap >= 1, and NonConvergence (with the partial result
    attached) past panel_cap or at the roundoff floor.
    """
    _check_settings(tol, panel_cap)
    f, ph = _on_line(integrand, phase, contour.origin, cmath.exp(1j * contour.angle))
    breaks = _geometric_breaks(contour.r_max)
    value, err, n = _adaptive(f, ph, 0.0, contour.r_max, tol, breaks=breaks,
                              panel_cap=panel_cap)
    return QuadratureResult(value, err, n, truncation_bound)


def integrate_segment(integrand, z_from, z_to, tol: float, phase=None,
                      panel_cap=PANEL_CAP_DEFAULT):
    """Integrate along the straight segment from z_from to z_to (integrand and
    phase, tol and panel_cap as for integrate_ray)."""
    _check_settings(tol, panel_cap)
    z0 = complex(z_from)
    dz = complex(z_to) - z0
    length = abs(dz)
    if length == 0.0:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0, 0.0)
    f, ph = _on_line(integrand, phase, z0, dz / length)
    value, err, n = _adaptive(f, ph, 0.0, length, tol, panel_cap=panel_cap)
    return QuadratureResult(value, err, n, 0.0)


def ray_truncation(phase_amp, origin, angle, tol):
    """Truncation radius by the decay rule, searched on a doubling grid.

    phase_amp maps numpy arrays of complex z to the pair (t F, amplitude).
    Picks the smallest r = 2^j, TRUNCATION_J_LO <= j <= TRUNCATION_J_HI, with

        Im[t F(z(r))] >= log(1/tol) + log(1 + r * A(r)),

    A(r) the running max of the amplitude modulus on the grid, so the
    discarded tail is bounded (to leading order) by tol, which must be
    finite and > 0 (else InvalidParam).  Returns (r_max, truncation_bound).
    """
    check_tolerance(tol)
    rot = cmath.exp(1j * angle)
    r = 2.0 ** np.arange(TRUNCATION_J_LO, TRUNCATION_J_HI + 1, dtype=float)
    z = origin + r * rot
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w, a = phase_amp(z)
        imw = np.asarray(w, dtype=complex).imag
        amp = np.abs(np.asarray(a, dtype=complex))
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


def _oracle(wa, origin, tol, panel_cap, angle=None, end=None):
    """Quadrature of amp(z) exp(i w(z)) from origin: along the segment to end,
    or else along the ray at angle, truncated by the decay rule.  wa(z) gives
    the pair (w(z), amp(z)): at the nodes, on the truncation grid, and at the
    initial breaks, whose phase is wa(breaks)[0].  ray_truncation and the
    integrators refuse a bad tol or panel_cap."""

    def f(z):
        wz, amp = wa(z)
        return amp * np.exp(1j * wz), wz

    def phase(z):
        return wa(z)[0]

    if end is not None:
        return integrate_segment(f, origin, end, tol, phase=phase, panel_cap=panel_cap)
    r_max, tb = ray_truncation(wa, origin, angle, tol)
    return integrate_ray(f, RayContour(origin, angle, r_max), tol, phase=phase,
                         panel_cap=panel_cap, truncation_bound=tb)


def _z_frame(p: ProblemParams, sigma: float):
    """The z-frame oracles' (phase, amplitude) callable: t F with the
    amplitude (1-z)^(-1/2) z^(sigma-1/2), from one pair of logarithms."""

    def wa(z):
        f, amp = phase_mod.big_f(z, p.lam, sigma)
        return p.t * f, amp

    return wa


def _split_piece(p: ProblemParams, k: float, origin, tol, panel_cap, **contour):
    """A piece of the split contour: amplitude (1-z)^(-1/2), sigma = 1/2 only."""
    if p.sigma != 0.5:
        raise SigmaUnsupported("split pieces are defined for sigma = 1/2 only")
    check_split_point(p.t, p.delta, k)
    return _oracle(_z_frame(p, 0.5), origin, tol, panel_cap, **contour)


def _gaussian_frame(d: DerivedParams):
    """(phase, amplitude) callable of the Gaussian phase (lambda_c t/2)(v^2 +
    beta v), beta = 2 log(1+Lambda)/(1+lambda_c), with unit amplitude."""
    lc = d.lambda_c
    half = 0.5 * lc * d.t
    beta = 2.0 * math.log1p(d.Lambda) / (1.0 + lc)

    def wa(v):
        return half * (v * v + beta * v), np.ones_like(np.asarray(v, dtype=complex))

    return wa


def jb_oracle(p: ProblemParams, tol: float = 1e-10,
              panel_cap=PANEL_CAP_DEFAULT) -> QuadratureResult:
    """Direct adaptive quadrature of J(t; lambda) from the left endpoint.

    Contour: the ray 1 - t^(delta-1) + s e^(i phi) with phi = select_phi(lambda),
    truncated by the decay rule.  tol is absolute.
    """
    z0 = 1.0 - p.t ** (p.delta - 1.0)
    return _oracle(_z_frame(p, p.sigma), z0, tol, panel_cap, angle=derive(p).phi)


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

    def wa(zeta):
        return (p.t * phase_mod.f1(zeta, lc, d.Lambda) / (1.0 + lc),
                phase_mod.amp_g(zeta, lc, p.sigma))

    return _oracle(wa, 0.0, tol, panel_cap, angle=d.phi)


def phi_oracle(u, d: DerivedParams, tol: float = 1e-10,
               panel_cap=PANEL_CAP_DEFAULT) -> QuadratureResult:
    """Direct quadrature of the incomplete Gaussian-phase tail

        Phi(u) = int_u^(inf e^(i pi/4)) exp(i (lambda_c t/2)(v^2 + beta v)) dv,

    beta = 2 log(1+Lambda)/(1+lambda_c).  u may be 0 or any point from which
    the pi/4 ray stays in the decay sector (in practice: on that ray).
    """
    return _oracle(_gaussian_frame(d), complex(u), tol, panel_cap, angle=math.pi / 4.0)
