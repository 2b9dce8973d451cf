"""High-precision references, computed with mpmath from the exact double inputs.

Two kinds:

  * ``j_reference``: the integral J(t; lambda) itself, by quadrature in the
    offset (zeta) frame, J = endpoint_prefactor * J_tilde.  There the phase
    t f1/(1+lambda_c) stays O(100) along the contour, and the ~t-sized phase
    t f0/(1+lambda_c) appears only in a unit-modulus factor, which is computed
    with enough guard digits to carry it.  Each reference is computed twice,
    with two different subdivisions and quadrature rules; the agreement of the
    two (in digits) is stored next to the value.  Seconds per point, so these
    are pinned in ``references/`` and regenerated only by ``run.py
    --references``.
  * closed forms of the four formula routes and of the quantities the
    ``verify`` scans report.  Milliseconds per point; computed at run time,
    after the timed passes.

Every function returns an ``mpc``/``mpf`` plus, for the formula routes, the
size of the largest real phase in the formula.  A double computation of
exp(i * phase) cannot be better than about eps * |phase| relative, because a
one-ulp change of t moves the phase by that much; the correctness gate allows
for that floor and the README states it.
"""

from __future__ import annotations

import math

import mpmath as mp

REF_DIGITS = 34          # digits carried by the pinned J references
GUARD_DIGITS = 20        # extra digits for the ~t-sized phases


def _params(t, delta, sigma, lam):
    t, delta, sigma, lam = (mp.mpf(x) for x in (t, delta, sigma, lam))
    q = t ** (delta - 1)
    lc = q / (1 - q)
    big_l = lam / lc - 1
    omega = mp.sqrt(lc * t / 2) * mp.log1p(big_l) / (1 + lc)
    return t, delta, sigma, lam, lc, big_l, omega


def _big_f(z, lam):
    return (1 - z) * mp.log(1 - z) + z * mp.log(z) + z * mp.log(lam)


def fresnel_tail(w):
    """int_w^{inf e^{i pi/4}} e^{i xi^2} dxi = (sqrt(pi)/2) e^{i pi/4} erfc(e^{-i pi/4} w)."""
    rot = mp.expjpi(mp.mpf(1) / 4)
    return mp.sqrt(mp.pi) / 2 * rot * mp.erfc(w / rot)


def _prefactor(t, sigma, lc, big_l):
    """endpoint_prefactor and its phase t f0/(1+lambda_c)."""
    f0 = mp.log(lc / (1 + lc)) + mp.log1p(big_l) - lc * mp.log((1 + lc) / lc)
    ph = t * f0 / (1 + lc)
    return mp.sqrt(lc / (1 + lc)) * (1 + lc) ** (mp.mpf(1) / 2 - sigma) * mp.expj(ph), ph


def _jtilde(t, lc, big_l, sigma, phi, dps, ratio, pieces, method):
    """J_tilde on the ray zeta = s e^{i phi}, truncated where Im(phase) > dps ln 10."""
    with mp.workdps(dps):
        lg = mp.log1p(big_l)
        rot = mp.expj(phi)
        scale = t / (1 + lc)

        def phase(s):
            z = s * rot
            la = mp.log1p(lc * z)
            lb = mp.log1p(-z)
            return scale * (lc * z * (lg + la - lb) + la + lc * lb)

        def integrand(s):
            z = s * rot
            amp = (1 - z) ** mp.mpf(-0.5) * (1 + lc * z) ** (sigma - mp.mpf(0.5))
            return amp * mp.expj(phase(s))

        need = dps * mp.log(10) + 10
        j = -80
        while mp.im(phase(mp.ldexp(1, j))) < need:
            j += 1
        r_max = mp.ldexp(1, j)
        points = [mp.mpf(0)] + [r_max / mp.mpf(ratio) ** i for i in range(pieces, -1, -1)]
        return rot * mp.quad(integrand, points, method=method)


def j_reference(t, delta, sigma, lam, phi):
    """J(t; lambda) to REF_DIGITS digits; phi is the ray angle the program uses
    (any angle in the decay sector gives the same value).

    Returns (value, agreement_digits) where agreement_digits compares two
    quadratures (tanh-sinh on a 2-geometric subdivision, Gauss-Legendre on a
    3-geometric one), capped at the working precision.
    """
    dps = REF_DIGITS + 6
    with mp.workdps(REF_DIGITS + GUARD_DIGITS):
        t, delta, sigma, lam, lc, big_l, _omega = _params(t, delta, sigma, lam)
        pref, _ph = _prefactor(t, sigma, lc, big_l)
        phi = mp.mpf(phi)
        a = _jtilde(t, lc, big_l, sigma, phi, dps, 2, 24, "tanh-sinh")
        b = _jtilde(t, lc, big_l, sigma, phi, dps, 3, 15, "gauss-legendre")
        gap = abs(a - b) / abs(a)
        agree = float(dps) if gap == 0 else min(float(dps), float(-mp.log10(gap)))
        return pref * a, agree


# ---------------------------------------------------------------------------
# Closed forms of the formula routes (sigma = 1/2 where the route requires it)
# ---------------------------------------------------------------------------


def _jb1_main(t, delta, lam, lc, omega, a):
    z_left = 1 - t ** (delta - 1)
    chi = t * mp.re(_big_f(z_left, lam)) - omega**2
    w2 = omega + a * mp.sqrt(lc * t / 2)
    seg = fresnel_tail(omega) - fresnel_tail(w2)
    return mp.expj(chi) * t ** mp.mpf(-0.5) * mp.sqrt(2 / (1 + lc)) * seg, abs(chi)


def _boundary_term(t, lam, k):
    """First boundary term T_1 of the ray piece (level-0 coefficient table)."""
    z0 = 1 - k
    big_d = mp.log(z0) - mp.log(1 - z0) + mp.log(lam)
    ph = t * mp.re(_big_f(z0, lam))
    return k ** mp.mpf(-0.5) / (-1j * t * big_d) * mp.expj(ph), abs(ph)


def formula_reference(route, t, delta, sigma, lam, m=4):
    """(value, phase_scale) of one formula route at the exact inputs."""
    with mp.workdps(REF_DIGITS + GUARD_DIGITS):
        t, delta, sigma, lam, lc, big_l, omega = _params(t, delta, sigma, lam)
        pref, ph = _prefactor(t, sigma, lc, big_l)
        scale = mp.sqrt(2 / (lc * t))
        if route == "leading":
            value = pref * mp.expj(-omega**2) * scale * fresnel_tail(omega)
            return value, abs(ph) + omega**2
        if route == "large-omega":
            return pref * scale * (-1 / (2j * omega)), abs(ph)
        if route == "all-orders":
            b = mp.mpf(1) / 2 - mp.mpf(1) / (4 * m)
            a = t ** (-b * delta)
            k = t ** (delta - 1) * (1 - a)
            term, ph1 = _boundary_term(t, lam, k)
            seg, ph2 = _jb1_main(t, delta, lam, lc, omega, a)
            return term + seg, ph1 + ph2
        if route == "corollary":
            a = t ** (-7 * delta / 16)
            k = t ** (delta - 1) * (1 - a)
            big_d = mp.log(1 / k - 1) + mp.log(lam)
            ph1 = t * mp.re(_big_f(1 - k, lam))
            term = 1j * mp.expj(ph1) * t ** (-mp.mpf(1) / 2 - delta / 2) / big_d
            seg, ph2 = _jb1_main(t, delta, lam, lc, omega, a)
            return term + seg, abs(ph1) + ph2
        raise ValueError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# Quantities reported by the verify scans
# ---------------------------------------------------------------------------


def fresnel_asym_slope(ws):
    """Least-squares slope of log|FT(w) - leading asymptotic| against log w."""
    with mp.workdps(REF_DIGITS):
        xs, ys = [], []
        for w in ws:
            w = mp.mpf(w)
            asym = mp.expj(w * w) * (-1 / (2j * w))
            xs.append(mp.log(w))
            ys.append(mp.log(abs(fresnel_tail(w) - asym)))
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def im_big_f(z, lam):
    """Im F at the double point z (a Python complex)."""
    with mp.workdps(REF_DIGITS):
        return mp.im(_big_f(mp.mpc(z.real, z.imag), mp.mpf(lam)))


def phase_bound_margin(z, lam, t, delta, k, phi):
    """|F'(z)| - min(pi/2 - phi, log(t^(delta-1)/k)) at the double point z."""
    with mp.workdps(REF_DIGITS):
        zz = mp.mpc(z.real, z.imag)
        mod = abs(mp.log(zz) - mp.log(1 - zz) + mp.log(mp.mpf(lam)))
        bound = min(mp.pi / 2 - mp.mpf(phi),
                    mp.log(mp.mpf(t) ** (mp.mpf(delta) - 1) / mp.mpf(k)))
        return mod - bound


def digits(value, ref) -> float:
    """Correct significant digits -log10(|value - ref|/|ref|), capped to [0, 17]."""
    with mp.workdps(REF_DIGITS):
        gap = abs(mp.mpc(value) - ref) / abs(ref)
    if gap == 0:
        return 17.0
    return min(17.0, max(0.0, -math.log10(float(gap))))
