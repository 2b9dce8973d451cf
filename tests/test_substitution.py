import cmath
import math

import numpy as np
import pytest

from endpoint_uniform import (
    amp_F,
    amp_g,
    decomposition_residual,
    derive,
    dzeta_du,
    from_offset,
    phi_closed,
    phi_oracle,
    state_from,
    u_of_zeta,
    zeta_of_u,
)
from conftest import fit_loglog

RAY = cmath.exp(1j * math.pi / 4)


@pytest.fixture(scope="module")
def state():
    return state_from(derive(from_offset(200.0, 0.5, 0.5, 0.8)))


@pytest.fixture(scope="module")
def state_critical():
    return state_from(derive(from_offset(200.0, 0.5, 0.5, 0.0)))


def test_state_fields(state):
    assert state.t == 200.0
    assert state.Lambda == pytest.approx(0.8, rel=1e-13)
    assert state.quad_a == pytest.approx(state.lambda_c * (1 + state.lambda_c))
    assert state.quad_b == pytest.approx(state.lambda_c * math.log1p(0.8))
    assert state.omega > 0


def test_round_trip_along_ray(state):
    for r in (1e-3, 0.01, 0.1, 0.3, 0.8, 1.5):
        u = r * RAY
        zeta = zeta_of_u(u, state)
        back = u_of_zeta(zeta, state)
        assert abs(back - u) < 1e-10 * max(1.0, abs(u))


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
    assert amp_F(0.0, state, 0.5) == 1.0


def test_amplitude_factorisation(state):
    # amp_F must equal g(zeta(u)) * dzeta/du with each factor computed
    # independently (map by the root solve, derivative by differencing),
    # and exactly the product of the public factors; 5e-9 sits in the
    # |u| <= 1e-8 branch where dzeta/du is taken as 1
    for u in (0.1 * RAY, 5e-9 * RAY):
        zeta = zeta_of_u(u, state)
        h = 1e-6
        dz = (zeta_of_u(u + h, state) - zeta_of_u(u - h, state)) / (2 * h)
        for sigma in (0.5, 0.7):
            expect = amp_g(zeta, state.lambda_c, sigma) * dz
            got = amp_F(u, state, sigma)
            assert got.real == pytest.approx(expect.real, rel=1e-7)
            assert got.imag == pytest.approx(expect.imag, rel=1e-7)
            assert got == amp_g(zeta, state.lambda_c, sigma) * dzeta_du(u, state)


def test_amplitude_half_sigma_drops_offset_factor(state):
    # at sigma = 1/2 the (1 + lambda_c zeta) factor has exponent zero
    u = 0.2 * RAY
    zeta = zeta_of_u(u, state)
    expect = (1.0 - zeta) ** -0.5 * dzeta_du(u, state)
    assert abs(amp_F(u, state, 0.5) - expect) < 1e-10


def test_phi_closed_form_matches_direct_quadrature(state):
    d = derive(from_offset(200.0, 0.5, 0.5, 0.8))
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
    d = derive(from_offset(4e4, 0.5, 0.5, 3.0))
    s = state_from(d)
    assert s.omega > 10.0
    closed = phi_closed(0.0, s)
    scale = math.sqrt(2.0 / (d.lambda_c * d.t))
    ibp = scale * (-1.0 / (2j * s.omega))
    assert abs(closed / ibp - 1.0) < 1.0 / s.omega ** 2 * 2.0


def test_decomposition_identity_critical():
    assert decomposition_residual(200.0, 0.5, 0.0, tol=1e-7) < 1e-6


def test_decomposition_identity_offset():
    assert decomposition_residual(200.0, 0.5, 1.0, tol=1e-7) < 1e-6
