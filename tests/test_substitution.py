import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

from endpoint_uniform import phase
from endpoint_uniform import (
    NewtonDivergence,
    amp_F,
    amp_g,
    apply_ibp_operator,
    decomposition_residual,
    dzeta_du,
    fresnel_tail_general,
    from_offset,
    phi_closed,
    phi_oracle,
    u_of_zeta,
    zeta_of_u,
)
from endpoint_uniform.substitution import _amp_F_prime, _cubic_tail, _horner, _quad
from conftest import fit_loglog

RAY = cmath.exp(1j * math.pi / 4)


@pytest.fixture(scope="module")
def state():
    return from_offset(200.0, 0.5, 0.5, 0.8)


@pytest.fixture(scope="module")
def state_critical():
    return from_offset(200.0, 0.5, 0.5, 0.0)


def test_state_fields(state):
    assert state.t == 200.0
    assert state.Lambda == pytest.approx(0.8, rel=1e-13)
    quad_a, quad_b = _quad(state)
    assert quad_a == pytest.approx(state.lambda_c * (1 + state.lambda_c))
    assert quad_b == pytest.approx(state.lambda_c * math.log1p(0.8))
    assert state.omega > 0


def test_round_trip_along_ray(state):
    for r in (1e-3, 0.01, 0.1, 0.3, 0.8, 1.5):
        u = r * RAY
        zeta = zeta_of_u(u, state)
        back = u_of_zeta(zeta, state)
        assert abs(back - u) < 1e-10 * max(1.0, abs(u))


@pytest.mark.parametrize("t", [50.0, 200.0, 1e4, 1e8, 1e12, 1e14])
@pytest.mark.parametrize("Lam", [0.0, 0.1, 0.5, 10.0])
def test_round_trip_along_ray_to_the_last_bits(t, Lam):
    # u = 2 f1 / (b + sqrt(b^2 + 2 a f1)) does not cancel: the subtraction
    # (-b + sqrt(...)) / a lost 1.7e-8 relative at |u| = 1e-8, Lambda = 10.
    # At Lambda = 0 the round trip is only as good as f1 at small zeta.
    # Newton on the forward map stops relative to |u|: an absolute 1e-13
    # stop on f1 lost 2.4e-13 at t = 1e12, r = 0.26 and 1.2e-11 at t = 1e14,
    # r = 0.4, where f1 ~ lambda_c u^2 is far below 1
    s = from_offset(t, 0.5, 0.5, Lam)
    for r in (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.26, 0.3, 0.4, 0.5, 1.0, 2.0):
        u = r * RAY
        assert abs(u_of_zeta(zeta_of_u(u, s), s) - u) <= 1e-15 * r, r


@pytest.mark.parametrize("t", [200.0, 1e14])
@pytest.mark.parametrize("Lam", [0.0, 0.5])
def test_round_trip_on_the_real_segment(t, Lam):
    # right of the origin the continued root is real, up to zeta = 1 at
    # u = u_of_zeta(1); past u = 1 Newton starts on the cut of f1 and comes
    # back to the real root with an imaginary part of rounding size, which
    # is no root across the real axis
    s = from_offset(t, 0.5, 0.5, Lam)
    u = np.linspace(0.01, u_of_zeta(1.0 - 1e-9, s).real, 40)
    zeta = zeta_of_u(u, s)
    assert np.all(np.abs(zeta.imag) <= 1e-15)
    for x, z in zip(u, zeta):
        assert abs(u_of_zeta(z, s) - x) <= 1e-15 * x, x


def test_round_trip_other_direction(state):
    for r in (0.05, 0.4, 1.0):
        zeta = r * RAY
        u = u_of_zeta(zeta, state)
        back = zeta_of_u(u, state)
        assert abs(back - zeta) < 1e-10 * max(1.0, abs(zeta))


def test_map_is_identity_to_first_order(state, state_critical):
    for s in (state, state_critical):
        for r in (1e-4, 1e-3, 1e-2, 0.1):
            u = r * RAY
            zeta = zeta_of_u(u, s)
            assert abs(u - zeta) <= 5.0 * abs(zeta) ** 2


def test_map_derivative_at_origin(state):
    assert dzeta_du(0.0, state) == 1.0


@pytest.mark.parametrize("t", [200.0, 1e4, 1e8])
def test_map_derivative_near_origin_is_its_series(t):
    # at Lambda = 0, zeta' = 1 - (1-lambda_c) u/3 + O(u^2); dzeta_du and
    # amp_F / g(zeta) give that value at tiny u, not the limit 1
    s = from_offset(t, 0.5, 0.5, 0.0)
    for r in (1e-12, 1e-10, 1e-8):
        u = r * RAY
        want = 1.0 - (1.0 - s.lambda_c) * u / 3.0
        assert abs(dzeta_du(u, s) - want) <= 1e-15
        ratio = amp_F(u, s) / amp_g(zeta_of_u(u, s), s.lambda_c, 0.5)
        assert abs(ratio - want) <= 1e-15


def test_map_derivative_matches_finite_difference(state):
    # steps sit well above the ~1e-13 Newton-solve noise of the map, so the
    # h^2 truncation term dominates the difference
    hs = [3e-2, 1e-2, 3e-3]
    errs = []
    for h in hs:
        worst = 0.0
        for r in (0.05, 0.2, 0.6):
            u = r * RAY
            fd = (zeta_of_u(u + h, state) - zeta_of_u(u - h, state)) / (2 * h)
            worst = max(worst, abs(fd - dzeta_du(u, state)))
        errs.append(worst)
    slope, _ = fit_loglog(hs, errs)
    assert slope == pytest.approx(2.0, abs=0.2)


def test_amplitude_normalisation(state):
    assert amp_F(0.0, state) == 1.0


def test_amplitude_factorisation(state):
    # amp_F must equal g(zeta(u)) * dzeta/du with each factor computed
    # independently (map by the root solve, derivative by differencing),
    # and exactly the product of the public factors, on a one-element array
    # so that both sides multiply in numpy; at 5e-9 the map and its
    # derivative come from the series near the origin
    for u in (0.1 * RAY, 5e-9 * RAY):
        zeta = zeta_of_u(u, state)
        h = 1e-6
        dz = (zeta_of_u(u + h, state) - zeta_of_u(u - h, state)) / (2 * h)
        ua = np.array([u])
        for sigma in (0.5, 0.7):
            rec = dataclasses.replace(state, sigma=sigma)
            expect = amp_g(zeta, state.lambda_c, sigma) * dz
            got = amp_F(u, rec)
            assert got.real == pytest.approx(expect.real, rel=1e-7)
            assert got.imag == pytest.approx(expect.imag, rel=1e-7)
            factors = amp_g(zeta_of_u(ua, state), state.lambda_c, sigma) * dzeta_du(ua, state)
            assert amp_F(ua, rec)[0] == factors[0] == got


def test_amplitude_half_sigma_drops_offset_factor(state):
    # at sigma = 1/2 the (1 + lambda_c zeta) factor has exponent zero
    u = 0.2 * RAY
    zeta = zeta_of_u(u, state)
    expect = (1.0 - zeta) ** -0.5 * dzeta_du(u, state)
    assert abs(amp_F(u, state) - expect) < 1e-10


def test_phi_closed_form_matches_direct_quadrature(state):
    d = from_offset(200.0, 0.5, 0.5, 0.8)
    for u in (0.0, 0.05 * RAY, 0.2 * RAY, 0.8 * RAY):
        closed = phi_closed(u, state)
        direct = phi_oracle(u, d, tol=1e-12).value
        assert abs(closed - direct) < 1e-10


def test_phi_envelope_bounded_along_ray(state, state_critical):
    # the tail stays within a modest constant of its u=0 value
    for s in (state, state_critical):
        base = abs(phi_closed(0.0, s))
        ratios = [abs(phi_closed(r * RAY, s)) / base
                  for r in np.linspace(0.0, 2.0, 41)]
        assert max(ratios) <= 2.0
        assert ratios[0] == 1.0


def test_phi_origin_large_omega_limit():
    # Phi(0) approaches the integration-by-parts value as omega grows
    d = from_offset(4e4, 0.5, 0.5, 3.0)
    assert d.omega > 10.0
    closed = phi_closed(0.0, d)
    scale = math.sqrt(2.0 / (d.lambda_c * d.t))
    ibp = scale * (-1.0 / (2j * d.omega))
    assert abs(closed / ibp - 1.0) < 1.0 / d.omega ** 2 * 2.0


def test_decomposition_identity_critical(state_critical):
    assert decomposition_residual(state_critical) < 1e-6


def test_decomposition_identity_offset():
    assert decomposition_residual(from_offset(200.0, 0.5, 0.5, 1.0)) < 1e-6


def test_decomposition_identity_just_off_critical():
    # log(1+Lambda) ~ 1e-10: f1'(zeta) is tiny near the origin as at Lambda = 0
    assert decomposition_residual(from_offset(200.0, 0.5, 0.5, 1e-10)) < 1e-6


def mp_amp_F(s, sigma, seed):
    """F(u) = g(zeta(u)) zeta'(u) in mpmath: zeta by a 40-digit root solve of
    f1(zeta) = (a/2) u^2 + b u started from seed, zeta' from the implicit
    relation."""
    lc = mpmath.mpf(s.lambda_c)
    lg = mpmath.log1p(mpmath.mpf(s.Lambda))
    a, b = lc * (1 + lc), lc * lg

    def f1(z):
        return (lc * z * (lg + mpmath.log(1 + lc * z) - mpmath.log(1 - z))
                + mpmath.log(1 + lc * z) + lc * mpmath.log(1 - z))

    def F(u):
        z = mpmath.findroot(lambda x: f1(x) - (a / 2 * u * u + b * u), mpmath.mpc(seed))
        g = (1 - z) ** -0.5 * (1 + lc * z) ** (mpmath.mpf(sigma) - 0.5)
        return g * (b + a * u) / (lc * (lg + mpmath.log(1 + lc * z) - mpmath.log(1 - z)))

    return F


@pytest.mark.parametrize("Lam", [0.0, 1e-10, 1.0])
@pytest.mark.parametrize("r", [1e-12, 1e-8, 1e-4, 1e-2, 0.5, 0.6, 2.0])
def test_amp_F_prime_matches_mpmath_derivative(Lam, r):
    # the implicit derivative, with the near-origin solve for small |u| where
    # f1'(zeta) is tiny, against mpmath differentiation of g(zeta(u)) zeta'(u)
    s = from_offset(200.0, 0.5, 0.5, Lam)
    u = np.array([r * RAY])
    zeta = zeta_of_u(u, s)
    got = _amp_F_prime(u, s)[0]
    with mpmath.workdps(40):
        ref = complex(mpmath.diff(mp_amp_F(s, 0.5, zeta[0]), mpmath.mpc(u[0]),
                                  h=mpmath.mpf(r) * mpmath.mpf("1e-12")))
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("Lam", [0.0, 0.8])
def test_array_calls_equal_scalar_calls(Lam):
    s = from_offset(200.0, 0.5, 0.5, Lam)
    s7 = from_offset(200.0, 0.5, 0.7, Lam)
    u = np.array([0.0, 5e-9, 1e-6, 0.03, 0.3, 1.2, 2.0]) * RAY
    u = np.concatenate([u, [0.5, -0.2j, 0.4 + 0.1j]]).reshape(2, 5)
    for fn in (lambda x: zeta_of_u(x, s), lambda x: amp_F(x, s7),
               lambda x: phi_closed(x, s)):
        got = fn(u)
        assert got.shape == u.shape
        expect = np.array([fn(complex(x)) for x in u.ravel()]).reshape(u.shape)
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)


# On the pi/4 ray: the origin, the series near it and Newton; at Lambda = 0
# u_of_zeta meets 0/0 at zeta = 0 unless the root is taken as 0 there.
_CRITICAL = from_offset(200.0, 0.5, 0.5, 0.0)
_CRITICAL_SIGMA_7 = from_offset(200.0, 0.5, 0.7, 0.0)
_U = [0.0, 5e-9 * RAY, 1e-6 * RAY, 0.03 * RAY, 0.3 * RAY, 1.2 * RAY]
POINT_EVALUATORS = {
    "u_of_zeta": (lambda x: u_of_zeta(x, _CRITICAL), [0.0, 1e-9 + 1e-9j, 0.05 + 0.03j,
                                                      0.3 + 0.1j, -0.2 + 0.05j, 0.5 - 0.1j]),
    "zeta_of_u": (lambda x: zeta_of_u(x, _CRITICAL), _U),
    "dzeta_du": (lambda x: dzeta_du(x, _CRITICAL), _U),
    "amp_F": (lambda x: amp_F(x, _CRITICAL_SIGMA_7), _U),
    "phi_closed": (lambda x: phi_closed(x, _CRITICAL), _U),
    "fresnel_tail_general": (fresnel_tail_general, [0.0, 0.3 + 0.7j, -1.5 + 0.4j, -2.0 - 0.5j,
                                                    1.0 - 0.2j, 5.0 + 5.0j]),
    "apply_ibp_operator": (lambda x: apply_ibp_operator(2, x, 5e3, 0.02),
                           [0.95 + 0.1j, 0.9 + 0.3j, 1.0 + 0.5j, 0.5 + 0.2j, 0.7 - 0.3j,
                            1.2 + 0.1j]),
}


@pytest.mark.parametrize("name", sorted(POINT_EVALUATORS))
def test_every_point_evaluator_takes_a_number_or_an_array_of_any_shape(name):
    evaluate, points = POINT_EVALUATORS[name]
    assert all(type(evaluate(x)) is complex for x in points)
    # a 2-d array keeps its shape and the bits of one point at a time
    grid = np.array(points, dtype=complex).reshape(2, 3)
    out = evaluate(grid)
    assert out.shape == (2, 3)
    singles = [evaluate(np.array([x]))[0] for x in grid.ravel()]
    assert list(out.ravel()) == singles
    assert [evaluate(x) for x in grid.ravel()] == singles
    # a list is neither a number nor an array: refused, not read as its first point
    with pytest.raises(TypeError):
        evaluate(points)


def test_array_path_raises_when_one_element_diverges(state):
    # no root continues to u = 3 on the real axis: Newton does not converge
    u = np.array([0.1 * RAY, 0.5 * RAY, 3.0])
    with pytest.raises(NewtonDivergence, match=r"u=\(3\+0j\)"):
        zeta_of_u(u, state)
    with pytest.raises(NewtonDivergence):
        amp_F(u, state)
    zeta_of_u(u[:2], state)


def test_round_trip_next_to_the_critical_point():
    # u -> -b/a on the negative axis is where f1'(zeta) vanishes; the
    # near-origin solve must leave such points to Newton.  From zeta = u
    # Newton zigzags across the fold there: f = 0.99 takes 45 of its 50
    # steps (the same 45 for f and Lambda moved by up to 3e-12 relative)
    s = from_offset(200.0, 0.5, 0.5, 0.1)
    quad_a, quad_b = _quad(s)
    for f in (0.3, 0.9, 0.99):
        u = -f * quad_b / quad_a
        assert abs(u_of_zeta(zeta_of_u(u, s), s) - u) < 1e-10


@pytest.mark.parametrize("f", [1.001, 1.1])
def test_no_root_past_the_critical_point(f):
    # on the real axis a U + b = sqrt(b^2 + 2 a f1) >= 0, so u < -b/a has no
    # root: the call raises rather than return a zeta that maps elsewhere
    s = from_offset(200.0, 0.5, 0.5, 0.1)
    quad_a, quad_b = _quad(s)
    with pytest.raises(NewtonDivergence, match="Newton stalled"):
        zeta_of_u(-f * quad_b / quad_a, s)


def test_a_root_across_the_real_axis_is_refused(state_critical):
    # at t = 200, Lambda = 0 the continued root meets the cut zeta >= 1 at
    # |u| = 5.0 (30-digit continuation); Newton from zeta = u then reaches
    # the root -4.34 - 6.43i, which solves the quadratic but lies across the
    # real axis from u, so it is off the continued branch
    with pytest.raises(NewtonDivergence, match="across the real axis"):
        zeta_of_u(5.1 * RAY, state_critical)
    with pytest.raises(NewtonDivergence, match="across the real axis"):
        zeta_of_u(np.array([0.5, 5.1]) * RAY, state_critical)


def mp_zeta_along_ray(s, radii, dps=30):
    """zeta(r e^{i pi/4}) at each of the increasing radii, by a 30-digit
    continuation along the ray from the origin in steps of at most 0.25,
    each root solve seeded by the previous root shifted by the step in u."""
    with mpmath.workdps(dps):
        lc = mpmath.mpf(s.lambda_c)
        lg = mpmath.log1p(mpmath.mpf(s.Lambda))
        a, b = lc * (1 + lc), lc * lg
        ray = mpmath.expjpi(mpmath.mpf(1) / 4)

        def f1(z):
            return (lc * z * (lg + mpmath.log(1 + lc * z) - mpmath.log(1 - z))
                    + mpmath.log(1 + lc * z) + lc * mpmath.log(1 - z))

        out, zeta, r_prev, u_prev = [], mpmath.mpc(0), mpmath.mpf(0), mpmath.mpc(0)
        for r in radii:
            n = max(1, int(math.ceil((r - r_prev) / 0.25)))
            for j in range(1, n + 1):
                u = (r_prev + (mpmath.mpf(r) - r_prev) * j / n) * ray
                zeta = mpmath.findroot(lambda x: f1(x) - (a / 2 * u * u + b * u),
                                       zeta + (u - u_prev))
                u_prev = u
            r_prev = mpmath.mpf(r)
            out.append(complex(zeta))
    return out


@pytest.mark.parametrize("t", [50.0, 1e4, 1e8])
@pytest.mark.parametrize("Lam", [0.0, 0.1, 10.0])
def test_zeta_of_u_matches_a_30_digit_continuation(t, Lam):
    # Newton from zeta = u must land on the root continued from u = 0, to
    # the precision of f1, on the pi/4 ray out to |u| = 4, the largest end
    # of a ray that decomposition_residual integrates (t = 50, Lambda = 0)
    s = from_offset(t, 0.5, 0.5, Lam)
    radii = np.linspace(0.26, 4.0, 300)[::23]
    want = mp_zeta_along_ray(s, [float(r) for r in radii])
    got = zeta_of_u(radii * RAY, s)
    for r, g, w in zip(radii, got, want):
        assert abs(g - w) <= 1e-14 * abs(w), (r, g, w)


def test_horner_gives_the_bits_of_polyval():
    rng = np.random.default_rng(7)
    u = (rng.uniform(-0.3, 0.3, 750) + 1j * rng.uniform(-0.3, 0.3, 750))
    for lc in (1e-4, 0.07, 0.6):
        for c in _cubic_tail(lc):
            got, want = _horner(c, u), np.polyval(c, u)
            assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_newton_from_zeta_equal_u_is_cheap(monkeypatch):
    # 50 points on the ray to |u| = 2.5 in three batches: Newton on the
    # forward map from zeta = u takes 15 f1 calls, one per step of a batch
    calls = []
    f1 = phase.f1
    monkeypatch.setattr(phase, "f1", lambda *args: calls.append(1) or f1(*args))
    u = np.linspace(0.3, 2.5, 50) * RAY
    for t, Lam in ((200.0, 0.0), (200.0, 1.0), (1e6, 0.5)):
        zeta_of_u(u, from_offset(t, 0.5, 0.5, Lam))
    assert len(calls) <= 16


def test_u_of_zeta_at_the_origin_is_zero(state, state_critical):
    for s in (state, state_critical):
        assert u_of_zeta(0.0, s) == 0.0


def test_u_of_zeta_picks_the_branch_at_the_degenerate_start(state_critical):
    # at Lambda = 0 both roots start at 0; the first step picks u ~ zeta
    assert state_critical.Lambda == 0.0
    for r in (1e-3, 0.05, 0.3, 1.0):
        zeta = r * RAY
        u = u_of_zeta(zeta, state_critical)
        if r < 0.1:
            assert abs(u - zeta) <= 5.0 * abs(zeta) ** 2
        assert abs(zeta_of_u(u, state_critical) - zeta) < 1e-10 * max(1.0, r)


def test_newton_stalls_after_50_descending_steps(state, monkeypatch):
    # with f1 = rhs(zeta - 0.1) the forward map is U(zeta) = zeta - 0.1, and
    # a derivative 1e3 too large shrinks each step, and the residual, by
    # 1e-3 only: it does not converge in 50 steps
    quad_a, quad_b = _quad(state)
    shift = lambda zeta: zeta - 0.1
    monkeypatch.setattr(phase, "f1", lambda zeta, lc, Lam:
                        shift(zeta) * (quad_b + 0.5 * quad_a * shift(zeta)))
    monkeypatch.setattr(phase, "d_f1", lambda zeta, lc, Lam:
                        1e3 * (quad_b + quad_a * shift(zeta)))
    u = np.array([0.5 * RAY, 0.7 * RAY])
    with pytest.raises(NewtonDivergence, match=r"Newton stalled at u=.*residual 9\.5"):
        zeta_of_u(u, state)
