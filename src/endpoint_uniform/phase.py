"""The complex phase F and its offset/rescaled companions.

    F(z; lambda) = (1-z) log(1-z) + z log z + z log lambda

with principal logarithms, so F is analytic on C minus the cuts (-inf, 0] and
[1, inf).  All evaluators here accept scalars or numpy arrays of complex z and
refuse points on (or within 1e-13 of) a cut rather than silently picking a
side.

The offset coordinate zeta is defined by z = (1 + lambda_c zeta)/(1 + lambda_c),
which maps zeta = 0 to the left endpoint 1 - t^(delta-1).  In that frame

    t F(z(zeta)) = t (f0 + f1(zeta)) / (1 + lambda_c),

where f0 collects the zeta-independent part and f1 vanishes at 0.  amp_g is
the transplanted amplitude, normalised to 1 at zeta = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchViolation, SingularPoint

# Points closer than this to a branch cut are rejected outright.
CUT_GUARD = 1e-13


def _as_complex(z):
    return np.asarray(z, dtype=complex)


def _check_cuts(z):
    """Reject z on the cuts (-inf,0] and [1,inf) of F (within CUT_GUARD)."""
    za = _as_complex(z)
    on_axis = np.abs(za.imag) < CUT_GUARD
    if not on_axis.any():  # the common case: a contour off the real axis
        return
    zx = za[on_axis] if za.ndim else za
    bad = (zx.real <= CUT_GUARD) | (zx.real >= 1.0 - CUT_GUARD)
    if bad.any():
        zb = zx[bad].ravel()[0] if za.ndim else za
        raise BranchViolation(f"z={zb} lies on or within {CUT_GUARD} of a branch cut")


def big_f(z, lam: float, sigma=None):
    """F(z; lambda) with principal logs.  Scalar in, scalar out; arrays pass through.

    Given sigma, returns the pair (F, amplitude): the amplitude
    (1-z)^(-1/2) z^(sigma-1/2) of the integral, as exp(-log(1-z)/2)
    exp((sigma-1/2) log z) from the same two logarithms.  numpy's complex
    power computes a**b as exp(b log a), so this equals (1-z)**-0.5 *
    z**(sigma-0.5) bit for bit (the tests check it on oracle nodes).  The
    factor in z, exactly 1 at sigma = 1/2, is left out there.
    """
    _check_cuts(z)
    za = _as_complex(z)
    w = 1.0 - za
    log_w, log_z = np.log(w), np.log(za)
    out = w * log_w + za * log_z + za * math.log(lam)
    if sigma is None:
        return out if isinstance(z, np.ndarray) else complex(out)
    amp = np.exp(-0.5 * log_w)
    if sigma != 0.5:
        amp = amp * np.exp((sigma - 0.5) * log_z)
    if isinstance(z, np.ndarray):
        return out, amp
    return complex(out), complex(amp)


def d_f(z, lam: float):
    """dF/dz = log z - log(1-z) + log lambda."""
    _check_cuts(z)
    za = _as_complex(z)
    if np.any(za == 0.0) or np.any(za == 1.0):
        raise SingularPoint("dF/dz is singular at z = 0 and z = 1")
    out = np.log(za) - np.log(1.0 - za) + math.log(lam)
    return out if isinstance(z, np.ndarray) else complex(out)


def d2_f(z):
    """d2F/dz2 = 1/(z(1-z))."""
    za = _as_complex(z)
    if np.any(za == 0.0) or np.any(za == 1.0):
        raise SingularPoint("d2F/dz2 is singular at z = 0 and z = 1")
    out = 1.0 / (za * (1.0 - za))
    return out if isinstance(z, np.ndarray) else complex(out)


def stationary_point(lam: float) -> float:
    """Root of dF/dz: z = 1/(1+lambda)."""
    return 1.0 / (1.0 + lam)


def f0(Lambda: float, lambda_c: float) -> float:
    """Endpoint value of the phase in the offset frame (real).

    f0 = log(lambda_c (1+Lambda)/(1+lambda_c)) - lambda_c log((1+lambda_c)/lambda_c)
    """
    r = math.log((1.0 + lambda_c) / lambda_c)
    return math.log(lambda_c / (1.0 + lambda_c)) + math.log1p(Lambda) - lambda_c * r


def _log1p(z):
    """log(1 + z) with a relative error of a few ulp also for small |z|.

    np.log(1 + z) loses the low bits of z in forming 1 + z, and numpy's
    complex log1p is no better.  The real part is taken as 0.5 log1p(s) with
    s = x (2 + x) + y^2 = |1 + z|^2 - 1, the imaginary part as atan2(y, 1 + x)
    (Kahan 1987).  Only where |1 + z|^2 < 1/2, next to the branch point, is
    1 + z formed directly.  Scalars stay in math.
    """
    x, y = z.real, z.imag
    s = x * (2.0 + x) + y * y
    if not isinstance(z, np.ndarray):
        if s < -0.5:
            return complex(np.log(1.0 + z))
        return complex(0.5 * math.log1p(s), math.atan2(y, 1.0 + x))
    out = np.empty_like(z)
    np.log1p(np.maximum(s, -0.5), out=out.real)
    out.real *= 0.5
    np.arctan2(y, 1.0 + x, out=out.imag)
    near = s < -0.5
    if near.any():
        out.real[near] = np.log(np.abs(1.0 + z[near]))
    return out


def _offset_logs(zeta, lambda_c: float):
    """zeta as complex, log(1 + lambda_c zeta) and log(1 - zeta)."""
    za = _as_complex(zeta) if isinstance(zeta, np.ndarray) else complex(zeta)
    return za, _log1p(lambda_c * za), _log1p(-za)


def f1(zeta, lambda_c: float, Lambda: float):
    """Offset phase, analytic near 0 with f1(0) = 0.

    f1 = lambda_c zeta [log(1+Lambda) + log(1+lambda_c zeta) - log(1-zeta)]
         + log(1+lambda_c zeta) + lambda_c log(1-zeta)

    Cuts sit on zeta <= -1/lambda_c and zeta >= 1.
    """
    za, la, lb = _offset_logs(zeta, lambda_c)
    return lambda_c * za * (math.log1p(Lambda) + la - lb) + la + lambda_c * lb


def d_f1(zeta, lambda_c: float, Lambda: float):
    """df1/dzeta = lambda_c [log(1+Lambda) + log(1+lambda_c zeta) - log(1-zeta)]."""
    _za, la, lb = _offset_logs(zeta, lambda_c)
    return lambda_c * (math.log1p(Lambda) + la - lb)


def amp_g(zeta, lambda_c: float, sigma: float):
    """Transplanted amplitude (1-zeta)^(-1/2) (1+lambda_c zeta)^(sigma-1/2)."""
    za = _as_complex(zeta)
    out = (1.0 - za) ** -0.5 * (1.0 + lambda_c * za) ** (sigma - 0.5)
    return out if isinstance(zeta, np.ndarray) else complex(out)


def taylor_c(n_max: int, t: float, delta: float, lam: float):
    """Taylor coefficients of F(1 - t^(delta-1)(1 - zeta)) about zeta = 0.

    c[0] = F at the endpoint, c[1] = t^(delta-1) log(lambda/lambda_c), and for
    n >= 2

        c[n] = t^(delta-1)/(n(n-1)) * (1 - (-lambda_c)^(n-1)),

    kept in closed form so high orders do not lose accuracy to cancellation.
    Returns a complex array c[0..n_max].
    """
    p = t ** (delta - 1.0)
    lc = p / (1.0 - p)
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = big_f(1.0 - p, lam)
    if n_max >= 1:
        c[1] = p * math.log(lam / lc)
    for n in range(2, n_max + 1):
        c[n] = p / (n * (n - 1.0)) * (1.0 - (-lc) ** (n - 1))
    return c
