"""Tail integral of exp(i xi^2) along the angle-pi/4 ray, in closed form.

The tail FT(w) = int_w^{inf e^{i pi/4}} e^{i xi^2} dxi shows up as the
universal local model near a stationary point that sits close to an endpoint
of integration.  Substituting xi = e^{i pi/4} s turns it into a complementary
error function, and that into the Faddeeva function W(z) = e^{-z^2} erfc(-iz):

    FT(w) = (sqrt(pi)/2) e^{i pi/4} erfc(e^{-i pi/4} w)
          = (sqrt(pi)/2) e^{i pi/4} e^{i w^2} W(e^{i pi/4} w).

W is evaluated by Weideman's N = 40 rational approximation (Weideman 1994,
SIAM J. Numer. Anal. 31:1497), accurate to a few ulps in the closed upper
half plane Im z >= 0, i.e. for Re w + Im w >= 0.  The other half plane uses
the full-line reflection FT(w) = sqrt(pi) e^{i pi/4} - FT(-w).

Accuracy: W itself carries a relative error of order 1e-15; the factor
e^{i w^2} adds the floor eps |w^2| that the rounding of w^2 puts on its
phase, which no double evaluation at a double w can remove.  FT(0) is
returned as the exact constant FT_ZERO.

fresnel_tail_general takes a scalar or an array; the scalar path is a plain
cmath Horner loop (a few microseconds), the array path the same recurrence
in numpy.  A tail too large for a double raises NumericalError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NegativeArgument, NumericalError, OrderViolation, ZeroArgument

_ROT = cmath.exp(1j * math.pi / 4.0)
# FT(0) = (sqrt(pi)/2) e^{i pi/4}; full-line integral is twice this.
FT_ZERO = 0.5 * math.sqrt(math.pi) * _ROT
FT_FULL_LINE = math.sqrt(math.pi) * _ROT


WEIDEMAN_N = 40  # the order N of Weideman's approximation


def _weideman_coefficients():
    """Coefficients of Weideman's rational approximation, highest degree first.

    W(z) ~ 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)),  Z = (L + iz)/(L - iz),
    with p of degree WEIDEMAN_N - 1 fitted through a cosine transform of
    exp(-s^2)(L^2 + s^2) sampled at s = L tan(theta/2).
    """
    m = 2 * WEIDEMAN_N
    scale = math.sqrt(WEIDEMAN_N / math.sqrt(2.0))
    k = np.arange(-m + 1, m)
    s = scale * np.tan(k * math.pi / (2.0 * m))
    f = np.concatenate([[0.0], np.exp(-s * s) * (scale * scale + s * s)])
    f = np.roll(f, m)  # fftshift
    j = np.arange(2 * m)
    cos = np.cos(np.outer(np.arange(1, WEIDEMAN_N + 1), j) * (math.pi / m))
    a = (cos @ f) / (2 * m)
    return scale, tuple(float(c) for c in a[::-1])


_L, _COEF = _weideman_coefficients()
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _faddeeva(z):
    """W(z) for Im z >= 0 by the rational approximation (complex or array)."""
    d = _L - 1j * z
    zz = (_L + 1j * z) / d
    p = 0.0 + 0.0j
    for c in _COEF:
        p = p * zz + c
    return 2.0 * p / (d * d) + _INV_SQRT_PI / d


def _tail(w: complex) -> complex:
    if w == 0.0:
        return FT_ZERO
    if w.real + w.imag < 0.0:
        return FT_FULL_LINE - _tail(-w)
    x, y = w.real, w.imag
    try:
        # i w^2 = -2xy + i (x - y)(x + y), formed the same way in _tail_array
        value = FT_ZERO * cmath.exp(complex(-2.0 * x * y, (x - y) * (x + y))) \
            * _faddeeva(_ROT * w)
    except OverflowError:
        value = complex("inf")
    if not cmath.isfinite(value):
        raise NumericalError(f"Fresnel tail is not a finite double at w={w}")
    return value


def _tail_array(w):
    flip = w.real + w.imag < 0.0
    v = np.where(flip, -w, w)
    x, y = v.real, v.imag
    with np.errstate(over="ignore", invalid="ignore"):
        out = FT_ZERO * np.exp(-2.0 * x * y + 1j * ((x - y) * (x + y))) \
            * _faddeeva(_ROT * v)
    if not np.all(np.isfinite(out)):
        bad = w[~np.isfinite(out)].ravel()[0]
        raise NumericalError(f"Fresnel tail is not a finite double at w={bad}")
    out = np.where(flip, FT_FULL_LINE - out, out)
    return np.where(w == 0.0, FT_ZERO, out)


def fresnel_tail(w: float) -> complex:
    """int_w^{inf e^{i pi/4}} e^{i xi^2} dxi for real w >= 0."""
    w = float(w)
    if w < 0.0:
        raise NegativeArgument(f"fresnel_tail requires w >= 0, got {w}")
    return _tail(complex(w))


def fresnel_tail_general(w):
    """Tail from a complex lower limit (Phi on the pi/4 ray); arrays elementwise."""
    if isinstance(w, np.ndarray):
        return _tail_array(w.astype(complex))
    return _tail(complex(w))


def fresnel_segment(w1: float, w2: float) -> complex:
    """int_{w1}^{w2} e^{i xi^2} dxi for 0 <= w1 <= w2 (w2 = inf allowed)."""
    w1 = float(w1)
    w2 = float(w2)
    if w2 < w1:
        raise OrderViolation(f"segment requires w1 <= w2, got ({w1}, {w2})")
    if w1 < 0.0:
        raise NegativeArgument(f"fresnel_segment requires w1 >= 0, got {w1}")
    if math.isinf(w2):
        return fresnel_tail(w1)
    if w1 == w2:
        return 0.0 + 0.0j
    return fresnel_tail(w1) - fresnel_tail(w2)


def fresnel_tail_asymptotic(w: float) -> complex:
    """Leading large-w term e^{iw^2} (-1/(2iw)) of the tail; the remainder is
    O(w^-3)."""
    w = float(w)
    if w == 0.0:
        raise ZeroArgument("asymptotic form undefined at w = 0")
    return cmath.exp(1j * (w * w)) * (-1.0 / (2j * w))
