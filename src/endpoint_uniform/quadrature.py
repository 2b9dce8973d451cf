"""Adaptive panel quadrature on ray and segment contours.

The direct ("oracle") evaluations of the integral and its companions all reduce
to one-dimensional integrals along straight contours in the complex plane:
either a finite segment or a ray truncated at a radius r_max chosen from the
decay of exp(i t F).  Panels are 15-point Gauss-Kronrod with the embedded
7-point Gauss rule supplying the error estimate.  Two refinement triggers:

  * panel error above its share of the tolerance (ordinary adaptivity);
  * the complex phase t F advancing by more than 2*pi across a panel that
    still contributes (oscillation/decay resolution; without it a panel much
    wider than the decay scale can look converged while missing everything),
    unless the advance lies within the rounding noise of t F itself
    (PHASE_NOISE |t F|), which passes 2*pi once |t F| exceeds about 7e15,
    as it does on the oracle's rays from t ~ 1e15.

An error-driven round (one with no phase-forced split) is stuck when it fails
to halve the summed error estimate.  A stuck round bisects worst-first, as
QUADPACK dqagse does: only the largest-error panels that together hold
FLOOR_RATIO (half) of the error, not every panel above its share of tol.
Refinement stops with NonConvergence at PANEL_CAP panels, or earlier at the
roundoff floor: when FLOOR_ROUNDS stuck rounds come in a row, as they do once
t F is too large for double precision, further bisection cannot reach tol.

Each node is evaluated once, for the amplitude and the phase together: the
integrators and ray_truncation take one frame, a callable giving the pair
(phase w, amplitude) of the integrand amp e^(i w), the z-frame and
offset-frame ones each from one pair of logarithms taken in real arithmetic
(phase.big_f and phase.f1 with sigma).  _on_line alone forms e^(i w).  The
first round is one frame call, on the initial GK15 nodes and the breaks,
which gives the phase at the panel edges too; a panel is bisected at its
centre node (GK15 node 7 is x = 0), so the phase at a new panel edge is the
one the frame already gave there.  Outside the refinement batches
(_gk_batch) the frame runs only in that first call and on the truncation
grid.  A truncated ray (ray_truncation's RayContour) carries the bound on
its discarded tail, and integrate_ray reports it.

A ray's first round covers [0, r_max] with RAY_BREAK_LEVELS = 24 geometric
panels, each half as wide as the one above it down to r_max 2^-24, and one
panel from 0: 25 * 15 nodes and 26 breaks, 401 frame points.  The
truncation grid has 101 radii, 2^-60 to 2^40.  Both floors sit several
doublings below the deepest the oracles were measured to reach (see
RAY_BREAK_LEVELS and TRUNCATION_J_LO).

Panel evaluation is batched through numpy, and the final sum runs over panels
sorted by position, so results are reproducible run to run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import phase as phase_mod
from .errors import NonConvergence, NumericalError
from .params import (DerivedParams, Split, check_half_sigma, check_split_point,
                     check_tolerance, endpoint_offset)

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

# the absolute tolerance of the oracles, sweeps and CLI when none is given
DEFAULT_TOL = 1e-10
# the most panels a quadrature refines to; _adaptive reads it at call time
PANEL_CAP = 20000
PHASE_ADVANCE_CAP = 2.0 * math.pi
# a phase advance up to this multiple of the phase's modulus is rounding
# noise (about eps |t F| per evaluation) and forces no split
PHASE_NOISE = 4.0 * np.finfo(float).eps
# Roundoff floor, after the roundoff test of QUADPACK dqagse (Piessens et al.
# 1983): an error-driven round (one with no phase-forced split) is stuck when
# the summed error estimate is still FLOOR_RATIO or more of its value a round
# earlier.  A stuck round bisects the largest-error panels that hold
# FLOOR_RATIO of the error; FLOOR_ROUNDS stuck rounds in a row stop the
# refinement.
FLOOR_RATIO = 0.5
FLOOR_ROUNDS = 4
# a ray's initial breaks: r_max halved this many times, down towards 0.  On
# 1150 oracle rays (whole, jb2, jtilde; t = 1e2..1e14.5, Lambda 0..1e3, sigma
# 0.5 and 0.7) no round split a panel more than 19 levels below r_max (18 at
# 24 levels); tests hold refinement 4 levels above the floor
RAY_BREAK_LEVELS = 24
# the doubling grid r = 2^j that ray_truncation searches.  The smallest
# radius it picked on 3402 oracle rays (four frame kinds, t = 1e2..1e16,
# Lambda up to 1e6, tol 1e-7..1e-13) is 2^-51, 9 doublings above the floor
TRUNCATION_J_LO = -60
TRUNCATION_J_HI = 40


@dataclass(frozen=True)
class RayContour:
    """Ray origin + s*exp(i*angle), s in [0, r_max]; truncation_bound bounds the tail."""

    origin: complex
    angle: float
    r_max: float
    truncation_bound: float = 0.0


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


def _gk_nodes(lo, hi):
    """GK15 nodes on each [lo_i, hi_i], one row per panel, and the half widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _XGK[None, :], half


def _gk_sums(y, half):
    """(integral, err, absint) per panel from the integrand at its 15 nodes."""
    y = np.asarray(y, dtype=complex).reshape(len(half), 15)
    if not np.isfinite(y).all():
        raise NumericalError("integrand returned a non-finite value")
    ik = (y @ _WGK_C) * half
    ig = (y[:, 1::2] @ _WG_C) * half
    return ik, np.abs(ik - ig), (np.abs(y) @ _WGK) * half


def _gk_batch(f, lo, hi):
    """Evaluate GK15 on each [lo_i, hi_i]; f returns (integrand, phase) at the
    nodes.  Returns (integral, err, absint, phase at the centre node)."""
    s, half = _gk_nodes(lo, hi)
    y, w = f(s.ravel())
    wc = np.asarray(w, dtype=complex).reshape(s.shape)[:, _CENTRE]
    return (*_gk_sums(y, half), wc)


def _adaptive(f, breaks, tol):
    """Adaptive GK15 of f from breaks[0] to breaks[-1] (real parameter line),
    starting from the panels between consecutive breaks.

    f maps parameter arrays to the pair (integrand, complex oscillation
    exponent t*F).  The first round calls f once, on the initial GK15 nodes
    and the breaks, for t*F at the panel edges too; each later round is one
    _gk_batch, and bisects a panel at its centre node, where f gave t*F.
    Panels with more than 2*pi of phase advance and a non-negligible modulus
    are split regardless of their error estimate, unless that advance is
    within the phase's rounding noise.
    Raises NonConvergence at PANEL_CAP panels or at the roundoff floor.
    """
    breaks = np.asarray(breaks, dtype=float)
    lo, hi = breaks[:-1], breaks[1:]
    s, half = _gk_nodes(lo, hi)
    y, w = f(np.concatenate([s.ravel(), breaks]))
    vals, errs, absints = _gk_sums(y[:s.size], half)
    w = np.asarray(w, dtype=complex)
    wmid, wlo, whi = w[_CENTRE:s.size:15], w[s.size:-1], w[s.size + 1:]
    min_width = 1e-14 * (hi[-1] - lo[0])
    neglect = 1e-3 * tol
    capped = len(lo) > PANEL_CAP
    prev_err = math.inf
    stuck = 0  # error-driven rounds in a row that did not halve the error

    for _ in range(200):
        n = len(lo)
        total_err = float(errs.sum())
        adv = np.abs(whi - wlo)
        must = ((adv > PHASE_ADVANCE_CAP) & (absints > neglect)
                & (adv > PHASE_NOISE * np.maximum(np.abs(wlo), np.abs(whi))))
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
        capped = capped or n + int(np.count_nonzero(split)) > PANEL_CAP
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
        why = f"stalled at {n} panels (cap {PANEL_CAP}), error {err:.3e}"
    else:
        return value, err, n
    raise NonConvergence(f"adaptive quadrature {why}, tol {tol:.3e}",
                         result=QuadratureResult(value, err, n, 0.0))


def _geometric_breaks(r_max):
    """Panel edges 0, r_max*2^-RAY_BREAK_LEVELS, ..., r_max/2, r_max.

    The integrand often lives on a scale many orders below r_max (sharp decay
    of exp(i t F) at large t); plain bisection from one panel can miss it.
    ray_truncation puts r_max within a factor 2 of the decay radius, so the
    oracles' refinement stays in the top levels: the deepest split measured
    was 19 levels below r_max with 52 levels and 18 with 24, over 1150 rays
    to t = 10^14.5.
    """
    g = r_max * 2.0 ** (-np.arange(RAY_BREAK_LEVELS, -1, -1.0))
    return np.concatenate([[0.0], g])


def _on_line(frame, z0, rot):
    """Pull frame back to the line z0 + s*rot: f(s) gives the pair
    (amp e^(i w) dz/ds, w) at the points s."""

    def f(s):
        w, amp = frame(z0 + s * rot)
        return amp * np.exp(1j * w) * rot, w

    return f


def integrate_ray(frame, contour: RayContour, tol: float):
    """Integrate amp e^(i w) along contour.origin + s e^(i angle), s in
    [0, contour.r_max].

    frame maps numpy arrays of complex z to the pair (w, amp), w the phase
    t F, as for ray_truncation; a zero phase forces no split.  tol is an
    absolute tolerance on the value; the per-panel error estimates must sum
    below it.  The result reports contour.truncation_bound.  Raises
    InvalidParam unless tol is finite and > 0, and NonConvergence (with the
    partial result attached) at PANEL_CAP panels or at the roundoff floor.
    """
    check_tolerance(tol)
    f = _on_line(frame, contour.origin, cmath.exp(1j * contour.angle))
    value, err, n = _adaptive(f, _geometric_breaks(contour.r_max), tol)
    return QuadratureResult(value, err, n, contour.truncation_bound)


def integrate_segment(frame, z_from, z_to, tol: float):
    """Integrate along the straight segment from z_from to z_to (frame and
    tol as for integrate_ray)."""
    check_tolerance(tol)
    z0 = complex(z_from)
    dz = complex(z_to) - z0
    length = abs(dz)
    if length == 0.0:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0, 0.0)
    value, err, n = _adaptive(_on_line(frame, z0, dz / length), np.array([0.0, length]), tol)
    return QuadratureResult(value, err, n, 0.0)


def ray_truncation(frame, origin, angle, tol):
    """Truncation radius by the decay rule, searched on a doubling grid.

    frame maps numpy arrays of complex z to the pair (t F, amplitude).
    Picks the smallest r = 2^j, TRUNCATION_J_LO <= j <= TRUNCATION_J_HI, with

        Im[t F(z(r))] >= log(1/tol) + log(1 + r * A(r)),

    A(r) the running max of the amplitude modulus on the grid, so the
    discarded tail is bounded (to leading order) by tol, which must be
    finite and > 0 (else InvalidParam).  Returns the ray truncated at that
    radius, carrying the bound.  A phase or amplitude on the grid that is
    not finite raises NumericalError naming the first such radius.

    The oracles' radii lie far above the grid's floor (the smallest seen is
    2^-51, and a grid from 2^-120 picked the same radius and bound on every
    ray measured).  A frame that has decayed already below 2^TRUNCATION_J_LO
    gets r_max = 2^TRUNCATION_J_LO; the rule holds there, so its bound does.
    """
    check_tolerance(tol)
    rot = cmath.exp(1j * angle)
    r = 2.0 ** np.arange(TRUNCATION_J_LO, TRUNCATION_J_HI + 1, dtype=float)
    z = origin + r * rot
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w, a = frame(z)
        w = np.asarray(w, dtype=complex)
        amp = np.abs(np.asarray(a, dtype=complex))
    bad = ~(np.isfinite(w) & np.isfinite(amp))
    if bad.any():
        raise NumericalError(f"frame is not finite at r={r[bad][0]:.6g} on the truncation grid")
    ampmax = np.maximum.accumulate(amp)
    need = -math.log(tol) + np.log1p(r * ampmax)
    ok = w.imag >= need
    if not np.any(ok):
        raise NonConvergence("no truncation radius found: phase decay too slow")
    i = int(np.argmax(ok))
    bound = float(np.exp(-w.imag[i]) * (1.0 + r[i] * ampmax[i]))
    return RayContour(origin, angle, float(r[i]), bound)


# ---------------------------------------------------------------------------
# Oracles: direct quadrature of the integral and its companions.
# ---------------------------------------------------------------------------


def _oracle(frame, origin, tol, angle=None, end=None):
    """Quadrature of the frame's amp(z) exp(i w(z)) from origin: along the
    segment to end, or else along the ray at angle, truncated by the decay
    rule.  ray_truncation and the integrators refuse a bad tol."""
    if end is not None:
        return integrate_segment(frame, origin, end, tol)
    return integrate_ray(frame, ray_truncation(frame, origin, angle, tol), tol)


def _z_frame(d: DerivedParams):
    """The z-frame oracles' (phase, amplitude) callable: t F with the
    amplitude (1-z)^(-1/2) z^(sigma-1/2), both from big_f's log(1-z) and
    log z."""

    def wa(z):
        f, amp = phase_mod.big_f(z, d.lam, d.sigma)
        return d.t * f, amp

    return wa


def _split_piece(d: DerivedParams, k: float, origin, tol, **contour):
    """A piece of the split contour: amplitude (1-z)^(-1/2), sigma = 1/2 only."""
    check_half_sigma(d.sigma, "a split piece")
    check_split_point(d.t, d.delta, k)
    return _oracle(_z_frame(d), origin, tol, **contour)


def _gaussian_frame(d: DerivedParams):
    """(phase, amplitude) callable of the Gaussian phase (lambda_c t/2)(v^2 +
    beta v), beta = 2 log(1+Lambda)/(1+lambda_c), with unit amplitude."""
    lc = d.lambda_c
    half = 0.5 * lc * d.t
    beta = 2.0 * math.log1p(d.Lambda) / (1.0 + lc)

    def wa(v):
        return half * (v * v + beta * v), np.ones_like(np.asarray(v, dtype=complex))

    return wa


def jb_oracle(d: DerivedParams, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Direct adaptive quadrature of J(t; lambda) from the left endpoint.

    Contour: the ray 1 - t^(delta-1) + s e^(i phi) with phi = select_phi(lambda),
    truncated by the decay rule.  tol is absolute.
    """
    z0 = 1.0 - endpoint_offset(d.t, d.delta)
    return _oracle(_z_frame(d), z0, tol, angle=d.phi)


def jb1_oracle(d: DerivedParams, split: Split, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Real-segment piece: integral over [1 - t^(delta-1), 1 - k] at split.k.

    Only sigma = 1/2 (the split analysis drops z^(sigma-1/2)).
    """
    z0 = 1.0 - endpoint_offset(d.t, d.delta)
    return _split_piece(d, split.k, z0, tol, end=1.0 - split.k)


def jb2_oracle(d: DerivedParams, split: Split, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Ray piece: integral from 1 - split.k out to infinity at angle select_phi."""
    return _split_piece(d, split.k, 1.0 - split.k, tol, angle=d.phi)


def jtilde_oracle(d: DerivedParams, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Offset-frame integral J_tilde = int_0^(inf e^(i phi)) g e^(i t h) dzeta,
    its phase and amplitude g = amp_g from f1's two logarithms."""
    lc = d.lambda_c

    def wa(zeta):
        f, amp = phase_mod.f1(zeta, lc, d.Lambda, d.sigma)
        return d.t * f / (1.0 + lc), amp

    return _oracle(wa, 0.0, tol, angle=d.phi)


def phi_oracle(u, d: DerivedParams, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Direct quadrature of the incomplete Gaussian-phase tail

        Phi(u) = int_u^(inf e^(i pi/4)) exp(i (lambda_c t/2)(v^2 + beta v)) dv,

    beta = 2 log(1+Lambda)/(1+lambda_c).  u may be 0 or any point from which
    the pi/4 ray stays in the decay sector (in practice: on that ray).
    """
    return _oracle(_gaussian_frame(d), complex(u), tol, angle=math.pi / 4.0)
