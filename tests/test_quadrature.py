import cmath
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from endpoint_uniform import phase, quadrature
from endpoint_uniform import (
    FT_ZERO,
    InvalidParam,
    NonConvergence,
    NumericalError,
    ProblemParams,
    QuadratureResult,
    RayContour,
    SigmaUnsupported,
    Split,
    SplitOutOfRange,
    big_f,
    choose_split,
    critical_lambda,
    derive,
    endpoint_prefactor,
    fresnel_segment,
    from_offset,
    integrate_ray,
    integrate_segment,
    jb1_oracle,
    jb2_oracle,
    jb_oracle,
    jtilde_oracle,
    phi_oracle,
    ray_truncation,
)

# Independent high-precision references (arbitrary-precision direct
# quadrature of the defining contour integrals, 30+ digits, rounded).
JB_T100_CRITICAL = complex(-0.12225360092916093, 0.011552471488886995)
JTILDE_T100_CRITICAL = complex(0.26263332539829182098, 0.28603804251657821026)

# The benchmark's 34-digit J references on t = 1e9..1e14 x Lambda in
# {0, 0.5, 10}, keyed "t,lambda" as the sweep CSV prints them.
HARD_REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references" / "oracle-hard.json")
    .read_text())


def _chirp(z):
    """The frame (z^2, 1) of e^(i z^2): the pair (phase, amplitude) the
    integrators take."""
    return z * z, np.ones_like(z)


def test_ray_gaussian_phase_matches_fresnel():
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 12.0)
    res = integrate_ray(_chirp, contour, tol=1e-12)
    assert abs(res.value - FT_ZERO) < 1e-12
    assert res.abs_error_estimate <= 1e-12 * 1.01
    assert res.panels > 0


def test_ray_linear_amplitude_closed_form():
    # integral of z e^{iz^2} over the pi/4 ray equals i/2
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 12.0)
    res = integrate_ray(lambda z: (z * z, z), contour, tol=1e-12)
    assert abs(res.value - 0.5j) < 1e-12


def test_segment_matches_fresnel_segment():
    res = integrate_segment(_chirp, 1.0, 3.0, tol=1e-12)
    assert abs(res.value - fresnel_segment(1.0, 3.0)) < 1e-11


def test_zero_length_segment():
    res = integrate_segment(_chirp, 2.0, 2.0, tol=1e-12)
    assert res.value == 0.0
    assert res.panels == 0


def test_panel_cap_raises_with_partial_result(monkeypatch):
    monkeypatch.setattr(quadrature, "PANEL_CAP", 8)
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 12.0)
    with pytest.raises(NonConvergence) as exc:
        integrate_ray(lambda z: (4000 * z * z, np.ones_like(z)), contour, tol=1e-13)
    partial = exc.value.result
    assert isinstance(partial, QuadratureResult)
    assert math.isfinite(partial.value.real)
    assert partial.abs_error_estimate > 0


@pytest.mark.parametrize("t", [1e11, 1e12])
def test_panel_cap_is_not_passed(monkeypatch, t):
    # the last refinement round used to run past the cap (316 and 433 panels
    # against 300); a round that would pass it is now refused before it runs.
    # Uncapped, the rounds go 162 -> 184 panels (t = 1e11, which converges at
    # 258) and 166 -> 196 (t = 1e12, which stops at its floor there)
    monkeypatch.setattr(quadrature, "PANEL_CAP", 180)
    p = from_offset(t, 0.5, 0.5, 0.0)
    with pytest.raises(NonConvergence, match=r"stalled at \d+ panels \(cap 180\)") as exc:
        jb_oracle(p, tol=1e-10)
    assert 0 < exc.value.result.panels <= 180


def test_panel_cap_with_only_phase_splits_left_is_not_converged(monkeypatch):
    # the amplitude cancels the oscillation, so the integrand is the constant
    # 1 (to rounding) and has no quadrature error, but the phase 4000 s^2
    # advances far more than 2 pi per panel: stopping at the cap must raise
    monkeypatch.setattr(quadrature, "PANEL_CAP", 300)
    contour = RayContour(0.0 + 0.0j, 0.0, 12.0)
    with pytest.raises(NonConvergence) as exc:
        integrate_ray(lambda z: (4000 * z * z, np.exp(-4000j * z * z)), contour, tol=1e-3)
    assert exc.value.result.abs_error_estimate <= 1e-3
    assert exc.value.result.panels <= 300


@pytest.mark.parametrize("t", [1e12, 1e13, 1e14, 1e15, 1e16])
def test_oracle_stops_at_its_error_floor(t):
    # at Lambda = 0 the phase t F is too large for doubles to carry and the
    # error estimate stops falling above tol; stuck rounds that bisect only
    # the worst panels reach the floor test in a few hundred panels.  From
    # t ~ 1e15 the rounding noise of t F exceeds 2 pi, so a phase advance
    # within that noise must force no split, or refinement runs on to the cap
    with pytest.raises(NonConvergence) as exc:
        jb_oracle(from_offset(t, 0.5, 0.5, 0.0))
    assert exc.value.result.panels < 500
    assert exc.value.result.abs_error_estimate > 1e-10
    assert re.search(r"error floor at \d+ panels: error \S+ .*, tol \S+$", str(exc.value))


def test_oracle_converges_at_t_1e11_lambda_0():
    # this point sits just above the z-frame phase floor: it converges through
    # its worst-first stuck rounds, and its value (2.2e-10 off, the phase
    # floor) keeps the benchmark's 10 tol of the pinned 34-digit reference
    p = from_offset(1e11, 0.5, 0.5, 0.0)
    re_ref, im_ref, _digits = HARD_REFERENCES[f"{p.t:.17g},{p.lam:.17g}"]
    res = jb_oracle(p)
    assert res.panels < 400
    assert abs(res.value - complex(float(re_ref), float(im_ref))) <= 10 * 1e-10


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2 and 3: the GK15 estimate misses the "
                   "z-frame phase floor, so this point converges 2.2e-10 off with an "
                   "estimate of 9.6e-11")
def test_oracle_error_at_t_1e11_lambda_0_is_within_its_estimate():
    # the converged value of the test above misses the pinned 34-digit
    # reference by more than the error the oracle reports with it
    p = from_offset(1e11, 0.5, 0.5, 0.0)
    re_ref, im_ref, _digits = HARD_REFERENCES[f"{p.t:.17g},{p.lam:.17g}"]
    res = jb_oracle(p)
    error = abs(res.value - complex(float(re_ref), float(im_ref)))
    assert error <= res.abs_error_estimate + res.truncation_bound


def _pseudo_noise(z):
    """Deterministic values in [-1, 1) that change on a scale no panel resolves."""
    x = np.sin(np.real(z) * 12989.8) * 43758.5453
    return 2.0 * (x - np.floor(x)) - 1.0


def _noisy_chirp(z):
    """The chirp frame with 1e-9 of noise on its amplitude."""
    return z * z, 1.0 + 1e-9 * _pseudo_noise(z)


def test_noisy_segment_stops_at_its_error_floor():
    # 1e-9 of noise floors the summed error estimate between 1e-9 and 3e-9,
    # above tol
    with pytest.raises(NonConvergence) as exc:
        integrate_segment(_noisy_chirp, 0.0, 20.0, tol=1e-10)
    assert exc.value.result.panels < 1500
    assert "error floor" in str(exc.value)


def test_stuck_round_bisects_the_worst_half_of_the_error(monkeypatch):
    # replay the panel set from the GK15 nodes and sums of every round, the
    # first round (one frame call in _adaptive) and each refinement batch
    # alike; without a phase every round is error-driven, so the first round
    # whose summed error did not halve is stuck, and it must bisect only the
    # fewest largest-error panels that together hold half of that error (from
    # 16 panels the chirp converges to the noise floor, and that round comes
    # at 512 panels)
    los, errss = [], []
    gk_nodes, gk_sums = quadrature._gk_nodes, quadrature._gk_sums

    def spy_nodes(lo, hi):
        los.append(lo.copy())
        return gk_nodes(lo, hi)

    def spy_sums(y, half):
        out = gk_sums(y, half)
        errss.append(out[1])
        return out

    monkeypatch.setattr(quadrature, "_gk_nodes", spy_nodes)
    monkeypatch.setattr(quadrature, "_gk_sums", spy_sums)
    def unphased(z):
        # the same integrand, all of it in the amplitude
        w, amp = _noisy_chirp(z)
        return np.zeros_like(z), amp * np.exp(1j * w)

    breaks = np.linspace(0.0, 20.0, 17)
    with pytest.raises(NonConvergence):
        quadrature._adaptive(quadrature._on_line(unphased, 0.0, 1.0), breaks, 1e-10)
    assert len(los) == len(errss) and np.array_equal(los[0], breaks[:-1])
    batches = list(zip(los, errss))
    lo, errs = batches[0]
    prev = math.inf
    for child_lo, child_errs in batches[1:]:
        total = float(np.sum(errs))
        bisected = len(child_lo) // 2
        if total >= quadrature.FLOOR_RATIO * prev:
            held, fewest = 0.0, 0
            for e in sorted(errs, reverse=True):
                held += e
                fewest += 1
                if held >= quadrature.FLOOR_RATIO * total:
                    break
            assert bisected == fewest
            # every panel above its share of tol would be many more
            assert 3 * fewest < np.count_nonzero(errs > 0.5e-10 / len(errs))
            return
        prev = total
        split = np.isin(lo, child_lo[:bisected])
        lo = np.concatenate([lo[~split], child_lo])
        errs = np.concatenate([errs[~split], child_errs])
    pytest.fail("no stuck round")


def test_phase_forced_rounds_do_not_count_toward_the_floor():
    # the same integrand without the noise: from one panel, the first rounds
    # split on phase advance while the error estimate stays between 4 and 7
    res = integrate_segment(_chirp, 0.0, 20.0, tol=1e-10)
    assert abs(res.value - fresnel_segment(0.0, 20.0)) < 1e-12
    assert res.abs_error_estimate <= 1e-10


@pytest.mark.parametrize("piece, t, Lam, tol", [
    ("whole", 1e7, 0.0, 1e-12),
    ("whole", 10 ** 10.5, 1.0, 1e-12),
    ("jb1", 1e11, 0.0, 1e-10),
    ("jb2", 1e11, 0.0, 1e-10),
    ("whole", 1e12, 3.0, 1e-12),
    ("jb2", 1e12, 3.0, 1e-12),
])
def test_near_floor_calls_still_converge(piece, t, Lam, tol):
    # these calls pass through stuck rounds before they converge; a panel
    # whose own bisection did not halve its error may still need splitting,
    # so refusing to re-split such panels turns them into NonConvergence
    d = from_offset(t, 0.5, 0.5, Lam)
    if piece == "whole":
        res = jb_oracle(d, tol=tol)
    else:
        oracle = jb1_oracle if piece == "jb1" else jb2_oracle
        res = oracle(d, choose_split(d, 4), tol=tol)
    assert res.abs_error_estimate <= tol * 1.0000001


@pytest.mark.parametrize("t, Lam, panels", [(1e14, 0.5, 51), (1e10, 0.0, 73),
                                            (1e9, 10.0, 40)])
def test_converged_oracle_panel_counts(t, Lam, panels):
    # oracle-hard points that converge keep their value and panel count
    assert jb_oracle(from_offset(t, 0.5, 0.5, Lam)).panels == panels


def test_phase_forced_rise_then_convergence():
    # jb1 starts from one panel; its error estimate rises from 1.7e-5 to
    # 5.1e-5 over phase-forced rounds and then converges
    d = from_offset(1e8, 0.5, 0.5, 10.0)
    assert jb1_oracle(d, choose_split(d, 4)).panels == 128


def test_nonfinite_integrand_rejected():
    # NaN wherever Re z > 0.5: GK15 nodes of the first batch fall there, so
    # integrate_ray stops at the batch's non-finite check, not at its floor
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 2.0)

    def bad(z):
        return np.zeros_like(z), np.where(z.real > 0.5, np.nan, 1.0) + 0j

    with pytest.raises(NumericalError, match="non-finite") as exc:
        integrate_ray(bad, contour, tol=1e-10)
    assert not isinstance(exc.value, NonConvergence)


def test_ray_truncation_linear_decay():
    # Im W = r along the ray, amplitude 1: need about log(1/tol)
    ray = ray_truncation(lambda z: (1j * np.abs(z), np.ones_like(z)),
                         0.0 + 0.0j, math.pi / 2, 1e-10)
    assert ray.r_max >= math.log(1e10)
    assert ray.truncation_bound <= 1e-9


def test_jb_oracle_independent_pin():
    d = derive(ProblemParams(t=100.0, delta=0.5, sigma=0.5,
                             lam=critical_lambda(100.0, 0.5)))
    res = jb_oracle(d, tol=1e-12)
    assert abs(res.value - JB_T100_CRITICAL) < 1e-11
    assert res.abs_error_estimate <= 1e-12 * 1.01
    assert res.truncation_bound <= 1e-12


def test_jtilde_oracle_independent_pin():
    d = derive(ProblemParams(t=100.0, delta=0.5, sigma=0.5,
                             lam=critical_lambda(100.0, 0.5)))
    res = jtilde_oracle(d, tol=1e-12)
    assert abs(res.value - JTILDE_T100_CRITICAL) < 1e-11


# J_tilde at delta = sigma = 1/2 by 30-digit mpmath quadrature on the ray
# zeta = s e^(i pi/4) (two subdivisions and rules agree to double precision).
JTILDE_LARGE_T = {
    (1e10, 0.0): complex(0.0028024792507232673, 0.0028041506143960822),
    (1e10, 0.5): complex(1.1960490708000278e-09, 2.466303443125502e-05),
    (1e12, 0.0): complex(0.0008862264083915305, 0.0008863932230246477),
    (1e12, 0.5): complex(1.1960356195783143e-11, 2.466303462183927e-06),
}


@pytest.mark.parametrize("t, Lam", list(JTILDE_LARGE_T))
def test_jtilde_oracle_converges_at_large_t(t, Lam):
    # the offset phase t f1/(1+lambda_c) keeps its precision near zeta = 0,
    # so the default tolerance is reached in a few dozen panels
    res = jtilde_oracle(from_offset(t, 0.5, 0.5, Lam))
    ref = JTILDE_LARGE_T[t, Lam]
    assert res.panels < 200
    assert abs(res.value - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("t", [1e9, 1e10, 1e11, 1e12, 1e13, 1e14])
def test_jtilde_oracle_reaches_1e_14_relative_at_lambda_0(t):
    # at Lambda = 0 the offset phase is t lambda_c (1+lambda_c) zeta^2/2 to
    # leading order; any noise in f1 at small zeta stops this tolerance at the
    # error floor
    p = from_offset(t, 0.5, 0.5, 0.0)
    scale = abs(jtilde_oracle(p).value)
    res = jtilde_oracle(p, tol=1e-14 * scale)
    assert res.panels < 200
    assert abs(res.value) == pytest.approx(scale, rel=1e-9)


def test_frame_change_prefactor_identity():
    # the original and offset-frame integrals differ by the exact prefactor
    for t, Lam in ((100.0, 0.0), (400.0, 0.6), (2000.0, 1.5)):
        d = from_offset(t, 0.5, 0.5, Lam)
        jb = jb_oracle(d, tol=1e-12).value
        jt = jtilde_oracle(d, tol=1e-12).value
        assert abs(jb - endpoint_prefactor(d) * jt) < 1e-10


def test_split_pieces_sum_to_whole():
    for t, Lam in ((1e4, 0.0), (1e5, 0.8)):
        p = from_offset(t, 0.5, 0.5, Lam)
        split = Split(0.5 * t ** -0.5, 0.5)
        whole = jb_oracle(p, tol=1e-11)
        part1 = jb1_oracle(p, split, tol=1e-11)
        part2 = jb2_oracle(p, split, tol=1e-11)
        gap = abs(part1.value + part2.value - whole.value)
        est = (whole.abs_error_estimate + part1.abs_error_estimate
               + part2.abs_error_estimate + whole.truncation_bound
               + part2.truncation_bound)
        assert gap <= 3.0 * est


def test_split_pieces_require_half_sigma():
    d = derive(ProblemParams(t=1e4, delta=0.5, sigma=0.75,
                             lam=critical_lambda(1e4, 0.5)))
    with pytest.raises(SigmaUnsupported):
        jb1_oracle(d, Split(1e-3, 0.9))
    with pytest.raises(SigmaUnsupported):
        jb2_oracle(d, Split(1e-3, 0.9))


def test_split_point_range_enforced():
    # a split point outside (0, t^(delta-1)) is a parameter error, typed as
    # the boundary-term series types it
    d = derive(ProblemParams(t=1e4, delta=0.5, sigma=0.5,
                             lam=critical_lambda(1e4, 0.5)))
    for oracle in (jb1_oracle, jb2_oracle):
        for bad_k in (0.0, 1e4 ** -0.5, 0.5):
            with pytest.raises(SplitOutOfRange):
                oracle(d, Split(bad_k, 0.5))


def test_oracle_deterministic():
    p = from_offset(1e5, 0.5, 0.5, 0.4)
    a = jb_oracle(p, tol=1e-10)
    b = jb_oracle(p, tol=1e-10)
    assert a.value == b.value
    assert a.panels == b.panels


def test_oracle_honours_truncation_decay():
    # truncation bound must be consistent with the requested tolerance
    p = from_offset(1e6, 0.5, 0.5, 0.5)
    res = jb_oracle(p, tol=1e-10)
    assert res.truncation_bound <= 1e-10


def test_result_as_dict_schema():
    p = from_offset(1e4, 0.5, 0.5, 0.2)
    d = jb_oracle(p, tol=1e-10).as_dict()
    assert set(d) == {"re", "im", "abs_err", "panels", "truncation_bound"}


# ---------------------------------------------------------------------------
# One evaluation per node: the fused z-frame evaluator and the centre node.
# ---------------------------------------------------------------------------

# (piece, t, Lambda, sigma): a converged point, a floor failure (t = 1e12,
# Lambda = 0), and sigma = 0.7, where the amplitude keeps its factor in z
FUSED_POINTS = [("whole", 1e6, 0.5, 0.5), ("whole", 1e12, 0.0, 0.5),
                ("whole", 1e6, 0.5, 0.7), ("whole", 1e10, 3.0, 0.7),
                ("jb1", 1e8, 0.5, 0.5), ("jb2", 1e8, 0.5, 0.5),
                ("jb1", 1e12, 10.0, 0.5), ("jb2", 1e12, 0.0, 0.5)]


def _run_oracle(piece, d):
    """The oracle's result, or its NonConvergence (message and partial result)."""
    try:
        if piece == "whole":
            return jb_oracle(d)
        if piece == "jtilde":
            return jtilde_oracle(d)
        if piece == "phi":
            return phi_oracle(0.0, d)
        return (jb1_oracle if piece == "jb1" else jb2_oracle)(d, choose_split(d, 4))
    except NonConvergence as exc:
        return exc


def _generic_oracle(piece, d):
    """The same quadrature through the public integrators, on a frame whose
    phase and amplitude come from separate calls: big_f alone and with sigma
    (z frame), f1 and amp_g (offset frame), or the Gaussian phase written
    out with a unit amplitude (phi)."""
    k = choose_split(d, 4).k
    lc = d.lambda_c
    half = 0.5 * lc * d.t
    beta = 2.0 * math.log1p(d.Lambda) / (1.0 + lc)

    def frame(z):
        if piece == "jtilde":
            return (d.t * phase.f1(z, lc, d.Lambda) / (1.0 + lc),
                    phase.amp_g(z, lc, d.sigma))
        if piece == "phi":
            return half * (z * z + beta * z), np.ones_like(z)
        return d.t * big_f(z, d.lam), big_f(z, d.lam, d.sigma)[1]

    z0 = 1.0 - d.t ** (d.delta - 1.0)
    try:
        if piece == "jb1":
            return integrate_segment(frame, z0, 1.0 - k, 1e-10)
        origin, angle = {"whole": (z0, d.phi), "jb2": (1.0 - k, d.phi),
                         "jtilde": (0.0, d.phi), "phi": (0j, math.pi / 4.0)}[piece]
        return integrate_ray(frame, ray_truncation(frame, origin, angle, 1e-10), 1e-10)
    except NonConvergence as exc:
        return exc


def _outcome(res):
    if isinstance(res, NonConvergence):
        res, message = res.result, str(res)
    else:
        message = None
    return (repr(res.value), repr(res.abs_error_estimate), res.panels,
            repr(res.truncation_bound), message)


# the most nodes of one oracle run checked against mpmath (every n-th node)
MP_NODES = 300


@pytest.mark.parametrize("piece, t, Lam, sigma", FUSED_POINTS)
def test_fused_evaluator_equals_the_formula_it_replaces(monkeypatch, piece, t, Lam, sigma):
    # on the nodes the oracle asks for, the pair's phase is exactly
    # big_f(z, lam), F is good to a few ulp of its largest term and the
    # amplitude to a few ulp of (1-z)^(-1/2) z^(sigma-1/2), against mpmath
    p = from_offset(t, 0.5, sigma, Lam)
    nodes = []
    fused = phase.big_f

    def spy(z, lam, sigma=None):
        if sigma is not None:
            nodes.append(np.array(z))
        return fused(z, lam, sigma)

    monkeypatch.setattr(phase, "big_f", spy)
    _run_oracle(piece, p)
    monkeypatch.undo()
    assert nodes
    z = np.concatenate(nodes)
    f, amp = big_f(z, p.lam, sigma)
    assert np.array_equal(f, big_f(z, p.lam))
    step = math.ceil(len(z) / MP_NODES)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        log_lam, s = mpmath.log(p.lam), mpmath.mpf(sigma) - mpmath.mpf(0.5)
        for zi, fi, ai in zip(z[::step], f[::step], amp[::step]):
            zm = mpmath.mpc(zi)
            log_w, log_z = mpmath.log(1 - zm), mpmath.log(zm)
            terms = ((1 - zm) * log_w, zm * log_z, zm * log_lam)
            want = mpmath.exp(-log_w / 2 + s * log_z)
            assert abs(fi - sum(terms)) <= 4 * eps * sum(abs(x) for x in terms)
            assert abs(ai - want) <= 8 * eps * abs(want)


@pytest.mark.parametrize("piece, t, Lam, sigma", FUSED_POINTS + [
    ("jtilde", 1e6, 0.5, 0.5), ("jtilde", 1e10, 3.0, 0.7), ("jtilde", 1e12, 0.0, 0.5),
    ("phi", 1e6, 0.5, 0.5), ("phi", 1e12, 10.0, 0.5)])
def test_z_frame_oracles_match_the_generic_path(piece, t, Lam, sigma):
    # value, error estimate, panels, truncation bound and failure message;
    # the offset-frame and Gaussian-phase oracles are held to it too
    d = from_offset(t, 0.5, sigma, Lam)
    assert _outcome(_run_oracle(piece, d)) == _outcome(_generic_oracle(piece, d))


def test_bisection_point_is_the_centre_node():
    assert quadrature._XGK[quadrature._CENTRE] == 0.0
    lo, hi = np.array([0.1, 1.0 / 3.0]), np.array([0.7, 2.0])
    mid = 0.5 * (lo + hi)
    # the first round's nodes and a refinement batch's are the same points
    assert np.array_equal(quadrature._gk_nodes(lo, hi)[0][:, quadrature._CENTRE], mid)
    f = quadrature._on_line(_chirp, 0.0, 1.0)
    _ik, _err, _abs, wc = quadrature._gk_batch(f, lo, hi)
    assert np.array_equal(wc, mid * mid)


@pytest.mark.parametrize("piece, t, Lam, sigma", [FUSED_POINTS[i] for i in (0, 1, 4, 5)])
def test_phase_alone_only_at_the_breaks_and_truncation(monkeypatch, piece, t, Lam, sigma):
    # no frame call gives the phase alone: outside the refinement batches a
    # ray's frame runs exactly twice, on the truncation grid and then on the
    # initial GK15 nodes and the breaks together, and a segment's once, on
    # 15 + 2 points; never per round
    d = from_offset(t, 0.5, sigma, Lam)
    batches, outside = [], []
    fused, gk_batch = phase.big_f, quadrature._gk_batch

    def spy_f(z, lam, sigma=None):
        if not batches or batches[-1] is not None:
            outside.append(np.size(z))
        return fused(z, lam, sigma)

    def spy_batch(f, lo, hi):
        batches.append(None)  # open while the batch runs
        out = gk_batch(f, lo, hi)
        batches[-1] = len(lo)
        return out

    monkeypatch.setattr(phase, "big_f", spy_f)
    monkeypatch.setattr(quadrature, "_gk_batch", spy_batch)
    _run_oracle(piece, d)
    assert len(batches) > 1  # refinement rounds ran
    grid = quadrature.TRUNCATION_J_HI - quadrature.TRUNCATION_J_LO + 1
    breaks = 2 if piece == "jb1" else len(quadrature._geometric_breaks(1.0))
    first = 15 * (breaks - 1) + breaks
    assert outside == ([first] if piece == "jb1" else [grid, first])


BAD_SETTINGS = {"tol-zero": {"tol": 0.0}, "tol-negative": {"tol": -1.0},
                "tol-inf": {"tol": math.inf}, "tol-nan": {"tol": math.nan}}


@pytest.mark.parametrize("piece", ["whole", "jb1", "jb2", "jtilde"])
@pytest.mark.parametrize("kwargs", list(BAD_SETTINGS.values()), ids=list(BAD_SETTINGS))
def test_bad_tol_or_panel_cap_is_invalid_param(piece, kwargs):
    d = from_offset(1e6, 0.5, 0.5, 0.5)
    split = choose_split(d, 4)
    with pytest.raises(InvalidParam):
        if piece == "whole":
            jb_oracle(d, **kwargs)
        elif piece == "jtilde":
            jtilde_oracle(d, **kwargs)
        else:
            (jb1_oracle if piece == "jb1" else jb2_oracle)(d, split, **kwargs)


BAD_TOLS = {"zero": 0.0, "negative": -1.0, "inf": math.inf, "nan": math.nan}


@pytest.mark.parametrize("entry", ["ray_truncation", "integrate_ray", "integrate_segment"])
@pytest.mark.parametrize("tol", list(BAD_TOLS.values()), ids=list(BAD_TOLS))
def test_bad_tol_is_invalid_param_at_the_public_entries(entry, tol):
    # not ZeroDivisionError or ValueError from log(1/tol), nor a run to the
    # error floor (tol 0) or a one-panel result (tol inf)
    with pytest.raises(InvalidParam):
        if entry == "ray_truncation":
            ray_truncation(lambda z: (1j * np.abs(z), np.ones_like(z)), 0j, math.pi / 2, tol)
        elif entry == "integrate_ray":
            integrate_ray(_chirp, RayContour(0j, math.pi / 4, 12.0), tol)
        else:
            integrate_segment(_chirp, 0.0, 3.0, tol)


def test_gk_batch_refuses_a_non_finite_integrand():
    def nan_at_half(z):
        return np.zeros_like(z), np.where(z.real > 0.5, np.nan, 1.0) + 0j

    lo, hi = np.array([0.0, 0.5]), np.array([0.5, 1.0])
    f = quadrature._on_line(nan_at_half, 0.0, 1.0)
    with pytest.raises(NumericalError, match="non-finite") as exc:
        quadrature._gk_batch(f, lo, hi)
    assert not isinstance(exc.value, NonConvergence)
    with pytest.raises(NumericalError, match="non-finite"):
        integrate_segment(nan_at_half, 0.0, 1.0, 1e-10)


def test_ray_truncation_without_decay_finds_no_radius():
    # Im w = 0 on the whole ray: no radius meets log(1/tol)
    def flat(z):
        return np.zeros_like(z), np.ones_like(z)

    with pytest.raises(NonConvergence, match="no truncation radius"):
        ray_truncation(flat, 0.0 + 0.0j, math.pi / 4, 1e-10)


def _nan_phase_beyond_one(z):
    # decays like i|z|, but its phase is NaN past |z| = 1
    w = 1j * np.abs(z)
    w[np.abs(z) > 1.0] = complex(math.nan, math.nan)
    return w, np.ones_like(z)


def _blow_up_beyond_1e_3(z):
    # Im w = -inf past |z| = 1e-3: the integrand blows up there
    w = 1j * np.abs(z)
    w[np.abs(z) > 1e-3] = complex(0.0, -math.inf)
    return w, np.ones_like(z)


def _nan_amplitude_beyond_one(z):
    a = np.ones_like(z)
    a[np.abs(z) > 1.0] = math.nan
    return 100j * np.abs(z), a


@pytest.mark.parametrize("frame, radius", [(_nan_phase_beyond_one, "2"),
                                           (_blow_up_beyond_1e_3, "0.00195312"),
                                           (_nan_amplitude_beyond_one, "2")])
def test_ray_truncation_refuses_a_non_finite_frame(frame, radius):
    # a NaN phase, an Im w of -inf and a NaN amplitude on the grid were read
    # as infinite decay and as 0: r_max 2.0, 1.95e-3 and 0.25, the first two
    # with a truncation bound of 0
    with pytest.raises(NumericalError, match=rf"not finite at r={radius} ") as exc:
        ray_truncation(frame, 0.0 + 0.0j, math.pi / 4, 1e-10)
    assert not isinstance(exc.value, NonConvergence)


def test_ray_truncation_takes_a_subnormal_tol():
    # log(1/tol) overflows to inf below tol ~ 5.6e-309, which left no radius
    # on the grid; -log(tol) stays finite down to the least subnormal
    d = from_offset(1e4, 0.5, 0.5, 0.5)
    frame, z0 = quadrature._z_frame(d), 1.0 - d.t ** (d.delta - 1.0)
    ray = ray_truncation(frame, z0, d.phi, 1e-310)
    assert math.isfinite(ray.r_max)
    assert ray.r_max >= ray_truncation(frame, z0, d.phi, 1e-300).r_max


DEPTH_RAYS = [(piece, t, Lam) for piece in ("whole", "jb2", "jtilde")
              for t in (1e4, 1e8, 1e11, 1e14) for Lam in (0.0, 1e-3, 0.5, 10.0)]


@pytest.mark.parametrize("piece, t, Lam", DEPTH_RAYS)
def test_refinement_stays_four_levels_above_the_ladder_floor(monkeypatch, piece, t, Lam):
    # a ray's first round lays RAY_BREAK_LEVELS geometric levels below r_max;
    # every split lands in the top levels, so the bottom four ladder levels
    # (and the panel from 0) are never refined, converged or not
    radii, starts = [], []
    breaks, gk_batch = quadrature._geometric_breaks, quadrature._gk_batch

    def spy_breaks(r_max):
        radii.append(r_max)
        return breaks(r_max)

    def spy_batch(f, lo, hi):
        starts.append(float(lo.min()))
        return gk_batch(f, lo, hi)

    monkeypatch.setattr(quadrature, "_geometric_breaks", spy_breaks)
    monkeypatch.setattr(quadrature, "_gk_batch", spy_batch)
    _run_oracle(piece, from_offset(t, 0.5, 0.5, Lam))
    (r_max,) = radii
    floor = r_max * 2.0 ** -(quadrature.RAY_BREAK_LEVELS - 4)
    assert starts and min(starts) >= floor


GRID_ORACLES = {
    "z": lambda d, tol: jb_oracle(d, tol),
    "offset": lambda d, tol: jtilde_oracle(d, tol),
    "gauss": lambda d, tol: phi_oracle(0.0, d, tol),
    "jb2": lambda d, tol: jb2_oracle(d, choose_split(d, 4), tol),
}
# Lambda = 1e6 lies outside the lambda window at t = 1e2 (Lambda <= 80)
GRID_POINTS = [(t, Lam) for t in (1e2, 1e8, 1e16) for Lam in (0.0, 10.0, 1e6)
               if critical_lambda(t, 0.5) * (1.0 + Lam) <= t ** 0.5 - 1.0]


class _Truncated(Exception):
    pass


@pytest.mark.parametrize("kind", list(GRID_ORACLES))
@pytest.mark.parametrize("t, Lam", GRID_POINTS)
def test_truncation_grid_floor_moves_no_radius(monkeypatch, kind, t, Lam):
    # the oracles' decay radii lie far above 2^TRUNCATION_J_LO (the smallest
    # seen is 2^-51), so the grid from 2^-120 picked the same radius and bound
    d = from_offset(t, 0.5, 0.5, Lam)
    calls = []

    def spy(*args):
        calls.append(args)
        raise _Truncated

    with monkeypatch.context() as m:
        m.setattr(quadrature, "ray_truncation", spy)
        for tol in (1e-7, 1e-10, 1e-13):
            with pytest.raises(_Truncated):
                GRID_ORACLES[kind](d, tol)
    for args in calls:
        ray = ray_truncation(*args)
        with monkeypatch.context() as m:
            m.setattr(quadrature, "TRUNCATION_J_LO", -120)
            assert ray_truncation(*args) == ray
        assert ray.r_max > 2.0 ** quadrature.TRUNCATION_J_LO


def test_decay_below_the_grid_floor_truncates_at_the_floor():
    # Im w = c r reaches log(1e10) at r = 23/c, about 2^-4.5 of the grid's
    # first radius r = 2^TRUNCATION_J_LO, where Im w = 512: the ray stops
    # there, and its bound e^-512 (1 + r) holds for the exact tail e^-512 / c
    r = 2.0 ** quadrature.TRUNCATION_J_LO
    c = 512.0 / r
    ray = ray_truncation(lambda z: (1j * c * np.abs(z), np.ones_like(z)),
                         0.0 + 0.0j, math.pi / 2, 1e-10)
    assert ray.r_max == r
    tail = math.exp(-c * r) / c  # int_r^inf e^(-c s) ds
    assert 0.0 < tail <= ray.truncation_bound <= 1e-10


def test_adaptive_stops_when_every_panel_left_is_at_its_minimum_width():
    # a jump at 1/3, in the amplitude and (by 1e20) in the phase: every round
    # is phase-forced, so never stuck, and only the panel holding the jump is
    # bisected, until it is no wider than 1e-14 of the range
    def jump(z):
        above = z.real > 1.0 / 3.0
        return np.where(above, 1e20, 0.0) + 0j, np.where(above, 1e6, 0.0) + 0j

    with pytest.raises(NonConvergence, match="stalled at") as exc:
        quadrature._adaptive(quadrature._on_line(jump, 0.0, 1.0), np.array([0.0, 1.0]), 1e-12)
    res = exc.value.result
    assert isinstance(res, QuadratureResult)
    # 1 + one panel per bisection of the jump's panel, far below the cap
    assert res.panels < 60
    assert res.abs_error_estimate > 1e-12
    assert res.value == pytest.approx(2e6 / 3.0 * cmath.exp(1e20j), rel=1e-9)
