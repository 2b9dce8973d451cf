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


def _square(z):
    return z * z


def _chirp(z):
    """The pair (e^(i z^2), z^2) the integrators take."""
    return np.exp(1j * z * z), z * z


def test_ray_gaussian_phase_matches_fresnel():
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 12.0)
    res = integrate_ray(_chirp, _square, contour, tol=1e-12)
    assert abs(res.value - FT_ZERO) < 1e-12
    assert res.abs_error_estimate <= 1e-12 * 1.01
    assert res.panels > 0


def test_ray_linear_amplitude_closed_form():
    # integral of z e^{iz^2} over the pi/4 ray equals i/2
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 12.0)
    res = integrate_ray(lambda z: (z * np.exp(1j * z * z), z * z), _square, contour,
                        tol=1e-12)
    assert abs(res.value - 0.5j) < 1e-12


def test_segment_matches_fresnel_segment():
    res = integrate_segment(_chirp, _square, 1.0, 3.0, tol=1e-12)
    assert abs(res.value - fresnel_segment(1.0, 3.0)) < 1e-11


def test_zero_length_segment():
    res = integrate_segment(_chirp, _square, 2.0, 2.0, tol=1e-12)
    assert res.value == 0.0
    assert res.panels == 0


def test_panel_cap_raises_with_partial_result(monkeypatch):
    monkeypatch.setattr(quadrature, "PANEL_CAP", 8)
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 12.0)
    with pytest.raises(NonConvergence) as exc:
        integrate_ray(lambda z: (np.exp(1j * 4000 * z * z), 4000 * z * z),
                      lambda z: 4000 * z * z, contour, tol=1e-13)
    partial = exc.value.result
    assert isinstance(partial, QuadratureResult)
    assert math.isfinite(partial.value.real)
    assert partial.abs_error_estimate > 0


@pytest.mark.parametrize("t", [1e11, 1e12])
def test_panel_cap_is_not_passed(monkeypatch, t):
    # the last refinement round used to run past the cap (316 and 433 panels
    # against 300); a round that would pass it is now refused before it runs
    monkeypatch.setattr(quadrature, "PANEL_CAP", 300)
    p = from_offset(t, 0.5, 0.5, 0.0)
    with pytest.raises(NonConvergence) as exc:
        jb_oracle(p, tol=1e-10)
    assert 0 < exc.value.result.panels <= 300


def test_panel_cap_with_only_phase_splits_left_is_not_converged(monkeypatch):
    # a constant integrand has no quadrature error, but 4000 s^2 advances far
    # more than 2 pi per panel: stopping at the cap must still raise
    monkeypatch.setattr(quadrature, "PANEL_CAP", 300)
    contour = RayContour(0.0 + 0.0j, 0.0, 12.0)
    with pytest.raises(NonConvergence) as exc:
        integrate_ray(lambda z: (np.ones_like(z), 4000 * z * z),
                      lambda z: 4000 * z * z, contour, tol=1e-3)
    assert exc.value.result.abs_error_estimate <= 1e-3
    assert exc.value.result.panels <= 300


@pytest.mark.parametrize("t", [1e12, 1e13, 1e14])
def test_oracle_stops_at_its_error_floor(t):
    # at Lambda = 0 the phase t F is too large for doubles to carry and the
    # error estimate stops falling above tol; stuck rounds that bisect only
    # the worst panels reach the floor test in a few hundred panels
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


def _pseudo_noise(z):
    """Deterministic values in [-1, 1) that change on a scale no panel resolves."""
    x = np.sin(np.real(z) * 12989.8) * 43758.5453
    return 2.0 * (x - np.floor(x)) - 1.0


def _noisy_chirp(z):
    return np.exp(1j * z * z) + 1e-9 * _pseudo_noise(z), z * z


def test_noisy_segment_stops_at_its_error_floor():
    # 1e-9 of noise floors the summed error estimate near 2.6e-9 > tol
    with pytest.raises(NonConvergence) as exc:
        integrate_segment(_noisy_chirp, _square, 0.0, 20.0, tol=1e-10)
    assert exc.value.result.panels < 1500
    assert "error floor" in str(exc.value)


def test_stuck_round_bisects_the_worst_half_of_the_error(monkeypatch):
    # replay the panel set from the batches _adaptive asks for; without a
    # phase every round is error-driven, so the first round whose summed error
    # did not halve is stuck, and it must bisect only the fewest largest-error
    # panels that together hold half of that error (from 16 panels the chirp
    # converges to the noise floor, and that round comes at 509 panels)
    batches = []
    gk_batch = quadrature._gk_batch

    def spy(f, lo, hi):
        out = gk_batch(f, lo, hi)
        batches.append((lo.copy(), out[1]))
        return out

    monkeypatch.setattr(quadrature, "_gk_batch", spy)
    def unphased(z):
        return _noisy_chirp(z)[0], np.zeros_like(z)

    with pytest.raises(NonConvergence):
        quadrature._adaptive(*quadrature._on_line(unphased, np.zeros_like, 0.0, 1.0),
                             np.linspace(0.0, 20.0, 17), 1e-10)
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
    res = integrate_segment(_chirp, _square, 0.0, 20.0, tol=1e-10)
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
    p = from_offset(t, 0.5, 0.5, Lam)
    if piece == "whole":
        res = jb_oracle(p, tol=tol)
    else:
        oracle = jb1_oracle if piece == "jb1" else jb2_oracle
        res = oracle(p, choose_split(derive(p), 4).k, tol=tol)
    assert res.abs_error_estimate <= tol * 1.0000001


@pytest.mark.parametrize("t, Lam, panels", [(1e14, 0.5, 93), (1e10, 0.0, 106),
                                            (1e9, 10.0, 68)])
def test_converged_oracle_panel_counts(t, Lam, panels):
    # oracle-hard points that converge keep their value and panel count
    assert jb_oracle(from_offset(t, 0.5, 0.5, Lam)).panels == panels


def test_phase_forced_rise_then_convergence():
    # jb1 starts from one panel; its error estimate rises from 1.7e-5 to
    # 5.1e-5 over phase-forced rounds and then converges
    p = from_offset(1e8, 0.5, 0.5, 10.0)
    assert jb1_oracle(p, choose_split(derive(p), 4).k).panels == 128


def test_nonfinite_integrand_rejected():
    contour = RayContour(0.0 + 0.0j, math.pi / 4, 2.0)

    def bad(z):
        out = np.asarray(1.0 / (z - (0.5 + 0.5j) * math.sqrt(2) / 2), dtype=complex)
        return out, np.zeros_like(z)

    with pytest.raises(NumericalError):
        integrate_ray(bad, np.zeros_like, contour, tol=1e-10)


def test_ray_truncation_linear_decay():
    # Im W = r along the ray, amplitude 1: need about log(1/tol)
    ray = ray_truncation(lambda z: (1j * np.abs(z), np.ones_like(z)),
                         0.0 + 0.0j, math.pi / 2, 1e-10)
    assert ray.r_max >= math.log(1e10)
    assert ray.truncation_bound <= 1e-9


def test_jb_oracle_independent_pin():
    p = ProblemParams(t=100.0, delta=0.5, sigma=0.5,
                      lam=critical_lambda(100.0, 0.5))
    res = jb_oracle(p, tol=1e-12)
    assert abs(res.value - JB_T100_CRITICAL) < 1e-11
    assert res.abs_error_estimate <= 1e-12 * 1.01
    assert res.truncation_bound <= 1e-12


def test_jtilde_oracle_independent_pin():
    p = ProblemParams(t=100.0, delta=0.5, sigma=0.5,
                      lam=critical_lambda(100.0, 0.5))
    res = jtilde_oracle(p, tol=1e-12)
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


def test_frame_change_prefactor_identity():
    # the original and offset-frame integrals differ by the exact prefactor
    for t, Lam in ((100.0, 0.0), (400.0, 0.6), (2000.0, 1.5)):
        p = from_offset(t, 0.5, 0.5, Lam)
        d = derive(p)
        jb = jb_oracle(p, tol=1e-12).value
        jt = jtilde_oracle(p, tol=1e-12).value
        assert abs(jb - endpoint_prefactor(d) * jt) < 1e-10


def test_split_pieces_sum_to_whole():
    for t, Lam in ((1e4, 0.0), (1e5, 0.8)):
        p = from_offset(t, 0.5, 0.5, Lam)
        k = 0.5 * t ** -0.5
        whole = jb_oracle(p, tol=1e-11)
        part1 = jb1_oracle(p, k, tol=1e-11)
        part2 = jb2_oracle(p, k, tol=1e-11)
        gap = abs(part1.value + part2.value - whole.value)
        est = (whole.abs_error_estimate + part1.abs_error_estimate
               + part2.abs_error_estimate + whole.truncation_bound
               + part2.truncation_bound)
        assert gap <= 3.0 * est


def test_split_pieces_require_half_sigma():
    p = ProblemParams(t=1e4, delta=0.5, sigma=0.75,
                      lam=critical_lambda(1e4, 0.5))
    with pytest.raises(SigmaUnsupported):
        jb1_oracle(p, 1e-3)
    with pytest.raises(SigmaUnsupported):
        jb2_oracle(p, 1e-3)


def test_split_point_range_enforced():
    # a split point outside (0, t^(delta-1)) is a parameter error, typed as
    # the boundary-term series types it
    p = ProblemParams(t=1e4, delta=0.5, sigma=0.5,
                      lam=critical_lambda(1e4, 0.5))
    for oracle in (jb1_oracle, jb2_oracle):
        for bad_k in (0.0, 1e4 ** -0.5, 0.5):
            with pytest.raises(SplitOutOfRange):
                oracle(p, bad_k)


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


def _run_oracle(piece, p):
    """The oracle's result, or its NonConvergence (message and partial result)."""
    k = choose_split(derive(p), 4).k
    try:
        if piece == "whole":
            return jb_oracle(p)
        return (jb1_oracle if piece == "jb1" else jb2_oracle)(p, k)
    except NonConvergence as exc:
        return exc


def _generic_oracle(piece, p):
    """The same quadrature through the public integrators, with the
    amplitude and the phase taken apart from phase.big_f, then paired."""
    k = choose_split(derive(p), 4).k
    sigma = p.sigma

    def w(z):
        return p.t * big_f(z, p.lam)

    def amp(z):
        return big_f(z, p.lam, sigma)[1]

    def integrand(z):
        wz = w(z)
        return amp(z) * np.exp(1j * wz), wz

    z0 = 1.0 - p.t ** (p.delta - 1.0)
    try:
        if piece == "jb1":
            return integrate_segment(integrand, w, z0, 1.0 - k, 1e-10)
        origin = z0 if piece == "whole" else 1.0 - k
        ray = ray_truncation(lambda z: (w(z), amp(z)), origin, derive(p).phi, 1e-10)
        return integrate_ray(integrand, w, ray, 1e-10)
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


@pytest.mark.parametrize("piece, t, Lam, sigma", FUSED_POINTS)
def test_z_frame_oracles_match_the_generic_path(piece, t, Lam, sigma):
    # value, error estimate, panels, truncation bound and failure message
    p = from_offset(t, 0.5, sigma, Lam)
    assert _outcome(_run_oracle(piece, p)) == _outcome(_generic_oracle(piece, p))


def test_bisection_point_is_the_centre_node():
    assert quadrature._XGK[quadrature._CENTRE] == 0.0
    lo, hi = np.array([0.1, 1.0 / 3.0]), np.array([0.7, 2.0])
    mid = 0.5 * (lo + hi)
    _ik, _err, _abs, wc = quadrature._gk_batch(lambda s: (np.cos(s), s * s), lo, hi)
    assert np.array_equal(wc, mid * mid)


@pytest.mark.parametrize("piece, t, Lam, sigma", [FUSED_POINTS[i] for i in (0, 1, 4, 5)])
def test_phase_alone_only_at_the_breaks_and_truncation(monkeypatch, piece, t, Lam, sigma):
    # outside the GK15 batches the phase is evaluated once on the truncation
    # grid (rays only) and once at the initial breaks, never per round
    p = from_offset(t, 0.5, sigma, Lam)
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
    _run_oracle(piece, p)
    assert len(batches) > 2  # refinement rounds ran
    grid = quadrature.TRUNCATION_J_HI - quadrature.TRUNCATION_J_LO + 1
    breaks = 2 if piece == "jb1" else len(quadrature._geometric_breaks(1.0))
    assert outside == ([breaks] if piece == "jb1" else [grid, breaks])


BAD_SETTINGS = {"tol-zero": {"tol": 0.0}, "tol-negative": {"tol": -1.0},
                "tol-inf": {"tol": math.inf}, "tol-nan": {"tol": math.nan}}


@pytest.mark.parametrize("piece", ["whole", "jb1", "jb2", "jtilde"])
@pytest.mark.parametrize("kwargs", list(BAD_SETTINGS.values()), ids=list(BAD_SETTINGS))
def test_bad_tol_or_panel_cap_is_invalid_param(piece, kwargs):
    p = from_offset(1e6, 0.5, 0.5, 0.5)
    k = choose_split(derive(p), 4).k
    with pytest.raises(InvalidParam):
        if piece == "whole":
            jb_oracle(p, **kwargs)
        elif piece == "jtilde":
            jtilde_oracle(p, **kwargs)
        else:
            (jb1_oracle if piece == "jb1" else jb2_oracle)(p, k, **kwargs)


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
            integrate_ray(_chirp, _square, RayContour(0j, math.pi / 4, 12.0), tol)
        else:
            integrate_segment(_chirp, _square, 0.0, 3.0, tol)


def test_gk_batch_refuses_a_non_finite_integrand():
    def nan_at_half(s):
        return np.where(s > 0.5, np.nan, 1.0) + 0j, np.zeros_like(s)

    lo, hi = np.array([0.0, 0.5]), np.array([0.5, 1.0])
    with pytest.raises(NumericalError, match="non-finite") as exc:
        quadrature._gk_batch(nan_at_half, lo, hi)
    assert not isinstance(exc.value, NonConvergence)
    with pytest.raises(NumericalError, match="non-finite"):
        integrate_segment(nan_at_half, np.zeros_like, 0.0, 1.0, 1e-10)


def test_ray_truncation_without_decay_finds_no_radius():
    # Im w = 0 on the whole ray: no radius meets log(1/tol)
    def flat(z):
        return np.zeros_like(z), np.ones_like(z)

    with pytest.raises(NonConvergence, match="no truncation radius"):
        ray_truncation(flat, 0.0 + 0.0j, math.pi / 4, 1e-10)


def test_adaptive_stops_when_every_panel_left_is_at_its_minimum_width():
    # a jump at 1/3, in the integrand and (by 1e20) in the phase: every round
    # is phase-forced, so never stuck, and only the panel holding the jump is
    # bisected, until it is no wider than 1e-14 of the range
    def jump(s):
        above = s > 1.0 / 3.0
        return np.where(above, 1e6, 0.0) + 0j, np.where(above, 1e20, 0.0) + 0j

    with pytest.raises(NonConvergence, match="stalled at") as exc:
        quadrature._adaptive(jump, lambda s: jump(s)[1], np.array([0.0, 1.0]), 1e-12)
    res = exc.value.result
    assert isinstance(res, QuadratureResult)
    # 1 + one panel per bisection of the jump's panel, far below the cap
    assert res.panels < 60
    assert res.abs_error_estimate > 1e-12
    assert res.value == pytest.approx(2e6 / 3.0, rel=1e-9)
