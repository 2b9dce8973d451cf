"""The complex phase F and its offset/rescaled companions.

    F(z; lambda) = (1-z) log(1-z) + z log z + z log lambda

with principal logarithms, so F is analytic on C minus the cuts (-inf, 0] and
[1, inf).  All evaluators here accept scalars or numpy arrays of complex z;
those of F refuse points on (or within 1e-13 of) a cut rather than silently
picking a side.  Every logarithm is taken from real functions (log, log1p,
atan2 and a hypot), never through numpy's complex log or power, which are
slower per node, most of all at |z| near 1, where the oracle nodes sit.

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
# log sqrt(2): _z_logs takes log(1 - z) as a log1p where log|z| is below minus it
_LOG_SQRT2 = 0.5 * math.log(2.0)


def _as_complex(z):
    return np.asarray(z, dtype=complex)


def _complex(z):
    """z as a complex array, or a scalar as a Python complex (kept in math)."""
    return _as_complex(z) if isinstance(z, np.ndarray) else complex(z)


def _check_cuts(z):
    """Reject z on the cuts (-inf,0] and [1,inf) of F (within CUT_GUARD).

    A contour off the real axis costs one reduction; a scalar stays in math.
    """
    if not isinstance(z, np.ndarray):
        z = complex(z)
        if abs(z.imag) < CUT_GUARD and (z.real <= CUT_GUARD or z.real >= 1.0 - CUT_GUARD):
            raise BranchViolation(f"z={z} lies on or within {CUT_GUARD} of a branch cut")
        return
    za = _as_complex(z)
    if za.size == 0 or np.abs(za.imag).min() >= CUT_GUARD:
        return
    on_axis = np.abs(za.imag) < CUT_GUARD
    zx = za[on_axis] if za.ndim else za
    bad = (zx.real <= CUT_GUARD) | (zx.real >= 1.0 - CUT_GUARD)
    if bad.any():
        zb = zx[bad].ravel()[0] if za.ndim else za
        raise BranchViolation(f"z={zb} lies on or within {CUT_GUARD} of a branch cut")


def big_f(z, lam: float, sigma=None):
    """F(z; lambda) with principal logs.  Scalar in, scalar out; arrays pass through.

    Given sigma, returns the pair (F, amplitude): the amplitude
    (1-z)^(-1/2) z^(sigma-1/2) of the integral, as one exp of the same two
    logarithms, good to a few ulp (the tests check it against mpmath on
    oracle nodes).  The factor in z, exactly 1 at sigma = 1/2, is left out
    there.
    """
    _check_cuts(z)
    za = _complex(z)
    w, log_w, log_z = _z_logs(za)
    out = w * log_w + za * log_z + za * math.log(lam)
    if sigma is None:
        return out
    return out, _amplitude(log_w, log_z, sigma)


def t_phase(t: float, lam: float, k: float) -> float:
    """The real t-sized phase t Re F(1-k; lambda) at the point z = 1-k."""
    return t * big_f(1.0 - k, lam).real


def d_f(z, lam: float):
    """dF/dz = log z - log(1-z) + log lambda, from big_f's two logarithms;
    its singular points z = 0 and z = 1 lie on the cuts, which it refuses."""
    _check_cuts(z)
    za = _complex(z)
    _w, log_w, log_z = _z_logs(za)
    return log_z - log_w + math.log(lam)


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


def _log(w):
    """Principal log w = log|w| + i arg w from real functions.

    |w| is a hypot, so it stays in range from 1e-300 to 1e300, where |w|^2
    would underflow or overflow.  The error is a few ulp of 1 + |log w|, so
    next to w = 1, where log w is small, _log1p is the accurate one.  Scalars
    stay in math.
    """
    if not isinstance(w, np.ndarray):
        return complex(math.log(math.hypot(w.real, w.imag)), math.atan2(w.imag, w.real))
    out = np.empty_like(w)
    np.log(np.hypot(w.real, w.imag), out=out.real)
    np.arctan2(w.imag, w.real, out=out.imag)
    return out


def _log1p(z, w=None):
    """log(1 + z) with a relative error of a few ulp also for small |z|.

    np.log(1 + z) loses the low bits of z in forming 1 + z, and numpy's
    complex log1p is no better.  The real part is taken as 0.5 log1p(s) with
    s = x (2 + x) + y^2 = |1 + z|^2 - 1, the imaginary part as arg(1 + z)
    (Kahan 1987).  Only where |1 + z|^2 < 1/2, next to the branch point, is
    log|1 + z| taken directly.  w is the point 1 + z, for its argument and
    next to the branch point; a caller that has it exactly passes it, as
    _z_logs passes z with z - 1.  Formed here, its imaginary part is 0 + y, so
    a point on the cut takes the upper side, as np.log(1 + z) does.  Scalars
    stay in math.
    """
    if w is None:
        w = 1.0 + z
    x, y = z.real, z.imag
    s = x * (2.0 + x) + y * y
    if not isinstance(z, np.ndarray):
        if s < -0.5:
            return _log(w)
        return complex(0.5 * math.log1p(s), math.atan2(w.imag, w.real))
    out = np.empty_like(z)
    # one reduction clears the common case, every oracle node of log z
    clear = s.size == 0 or s.min() >= -0.5
    np.log1p(s if clear else np.maximum(s, -0.5), out=out.real)
    out.real *= 0.5
    np.arctan2(w.imag, w.real, out=out.imag)
    if not clear:
        near = s < -0.5
        out[near] = _log(w[near])
    return out


def _z_logs(za):
    """1 - z, log(1 - z) and log z for complex z.

    log z is _log1p(z - 1), a few ulp also where the contours start, next
    to z = 1, where z - 1 is exact (Sterbenz).  log(1 - z) is _log(1 - z),
    except where |z|^2 < 1/2: there it is _log1p(-z), which keeps the low
    bits of a small z that forming 1 - z drops.  The contours keep |z| near
    1, so one reduction on log|z| passes their nodes by.
    """
    w = 1.0 - za
    log_z = _log1p(za - 1.0, za)
    log_w = _log(w)
    if not isinstance(w, np.ndarray):
        if log_z.real < -_LOG_SQRT2:
            log_w = _log1p(-za, w)
    elif log_z.size and log_z.real.min() < -_LOG_SQRT2:
        small = log_z.real < -_LOG_SQRT2
        log_w[small] = _log1p(-za[small], w[small])
    return w, log_w, log_z


def _offset_logs(zeta, lambda_c: float):
    """zeta as complex, log(1 + lambda_c zeta) and log(1 - zeta)."""
    za = _complex(zeta)
    return za, _log1p(lambda_c * za), _log1p(-za)


def f1(zeta, lambda_c: float, Lambda: float, sigma=None):
    """Offset phase, analytic near 0 with f1(0) = 0.

    f1 = lambda_c zeta [log(1+Lambda) + log(1+lambda_c zeta) - log(1-zeta)]
         + log(1+lambda_c zeta) + lambda_c log(1-zeta)

    Cuts sit on zeta <= -1/lambda_c and zeta >= 1.  Given sigma, returns the
    pair (f1, amp_g) from the same two logarithms.
    """
    za, la, lb = _offset_logs(zeta, lambda_c)
    out = lambda_c * za * (math.log1p(Lambda) + la - lb) + la + lambda_c * lb
    if sigma is None:
        return out
    return out, _amplitude(lb, la, sigma)


def d_f1(zeta, lambda_c: float, Lambda: float):
    """df1/dzeta = lambda_c [log(1+Lambda) + log(1+lambda_c zeta) - log(1-zeta)]."""
    _za, la, lb = _offset_logs(zeta, lambda_c)
    return lambda_c * (math.log1p(Lambda) + la - lb)


def _amplitude(log_w, log_v, sigma: float):
    """w^(-1/2) v^(sigma-1/2) as exp(-log(w)/2 + (sigma-1/2) log v), from the
    logs; the factor in v, exactly 1 at sigma = 1/2, is left out there."""
    e = -0.5 * log_w
    if sigma != 0.5:
        e = e + (sigma - 0.5) * log_v
    out = np.exp(e)
    return out if isinstance(log_w, np.ndarray) else complex(out)


def amp_g(zeta, lambda_c: float, sigma: float):
    """Transplanted amplitude (1-zeta)^(-1/2) (1+lambda_c zeta)^(sigma-1/2).

    On a cut it takes the upper side, as numpy's powers do.
    """
    _za, la, lb = _offset_logs(zeta, lambda_c)
    return _amplitude(lb, la, sigma)
