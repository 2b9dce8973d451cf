"""The complex phase F and its offset/rescaled companions.

    F(z; lambda) = (1-z) log(1-z) + z log z + z log lambda

with principal logarithms, so F is analytic on C minus the cuts (-inf, 0] and
[1, inf).  The evaluators compute on complex arrays only; one wrapper,
_on_arrays, gives the public ones a Python complex for a Python number.
Those of F refuse points on (or within 1e-13 of) a cut rather than silently
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

import cmath
import functools
import math

import numpy as np

from .errors import BranchViolation
from .params import DerivedParams, Split, endpoint_offset

# Points closer than this to a branch cut are rejected outright.
CUT_GUARD = 1e-13
# log sqrt(2): _z_logs takes log(1 - z) as a log1p where log|z| is below minus it
_LOG_SQRT2 = 0.5 * math.log(2.0)


def _on_arrays(evaluate):
    """evaluate(z, ...) on complex arrays of one or more dimensions as a public
    evaluator: an array passes through; a Python number or a 0-d array goes in
    as one point and comes out as a Python complex or a 0-d array (each of a pair)."""
    @functools.wraps(evaluate)
    def public(z, *args, **kwargs):
        array = isinstance(z, np.ndarray)
        if array and z.ndim:
            return evaluate(np.asarray(z, dtype=complex), *args, **kwargs)
        out = evaluate(np.array([complex(z)]), *args, **kwargs)
        vals = [v.reshape(()) if array else complex(v[0])
                for v in (out if isinstance(out, tuple) else (out,))]
        return tuple(vals) if isinstance(out, tuple) else vals[0]
    return public


def _check_cuts(za):
    """Reject z on the cuts (-inf,0] and [1,inf) of F (within CUT_GUARD); a
    contour off the real axis costs one reduction."""
    if za.size == 0 or np.abs(za.imag).min() >= CUT_GUARD:
        return
    zx = za[np.abs(za.imag) < CUT_GUARD]
    bad = (zx.real <= CUT_GUARD) | (zx.real >= 1.0 - CUT_GUARD)
    if bad.any():
        raise BranchViolation(f"z={zx[bad][0]} lies on or within {CUT_GUARD} of a branch cut")


@_on_arrays
def big_f(z, lam: float, sigma=None):
    """F(z; lambda) with principal logs.

    Given sigma, returns the pair (F, amplitude): the amplitude
    (1-z)^(-1/2) z^(sigma-1/2) of the integral, as one exp of the same two
    logarithms, good to a few ulp (the tests check it against mpmath on
    oracle nodes).  The factor in z, exactly 1 at sigma = 1/2, is left out
    there.
    """
    _check_cuts(z)
    w, log_w, log_z = _z_logs(z)
    out = w * log_w + z * log_z + z * math.log(lam)
    return out if sigma is None else (out, _amplitude(log_w, log_z, sigma))


def _real_log1p(x: float, w: float) -> float:
    """_log1p at a real x with w = 1 + x > 0, in the same operations."""
    s = x * (2.0 + x)
    return 0.5 * math.log1p(s) if s >= -0.5 else math.log(w)


def t_phase(t: float, lam: float, k: float) -> float:
    """The real t-sized phase t F(z; lambda) at the real point z = 1-k, in
    big_f's logarithms, branch tests and order of operations: the same bits."""
    z = 1.0 - k
    if z <= CUT_GUARD or z >= 1.0 - CUT_GUARD:
        raise BranchViolation(f"z={z} lies on or within {CUT_GUARD} of a branch cut")
    w = 1.0 - z
    log_z = _real_log1p(z - 1.0, z)
    log_w = math.log(w) if log_z >= -_LOG_SQRT2 else _real_log1p(-z, w)
    return t * (w * log_w + z * log_z + z * math.log(lam))


def _endpoint_oscillation(d: DerivedParams) -> complex:
    """exp(i t F(1 - t^(delta-1); lambda)), from t_phase at the left endpoint:
    the one place the routes form a t-sized phase."""
    return cmath.exp(1j * t_phase(d.t, d.lam, endpoint_offset(d.t, d.delta)))


def endpoint_prefactor(d: DerivedParams) -> complex:
    """Factor relating the offset-frame integral to the original one:

    J = (lambda_c/(1+lambda_c))^(1/2) (1+lambda_c)^(1/2-sigma)
        * exp(i t F(1 - t^(delta-1); lambda)) * J_tilde

    The exponent is t_phase at the left endpoint; it equals
    t f0/(1+lambda_c) by the ExponentIdentity identity.
    """
    lc = d.lambda_c
    mod = math.sqrt(lc / (1.0 + lc)) * (1.0 + lc) ** (0.5 - d.sigma)
    return mod * _endpoint_oscillation(d)


def split_phase_tail(d: DerivedParams, a: float) -> float:
    """The a-only part of the split point's phase relative to the endpoint,
    t^d (1-a) log(1-a) + (t - t^d (1-a)) log(1 + a lambda_c) with t^d = t^delta:
    O(a^2 t^delta), from terms of size a t^delta."""
    td = d.t**d.delta
    lc = d.lambda_c
    return td * (1.0 - a) * math.log1p(-a) + (d.t - td * (1.0 - a)) * math.log1p(a * lc)


def split_oscillation(d: DerivedParams, split: Split) -> complex:
    """exp(i t F(1-k; lambda)) at the split point z = 1-k of split: the
    endpoint's oscillation, shared with endpoint_prefactor, times
    exp(i Delta).  For k = t^(delta-1) (1-a) the phase difference
    Delta = t (F(1-k) - F(1-t^(delta-1))) collapses algebraically to
    t^d a log(1+Lambda) + split_phase_tail(d, a), from the split's own a.
    Delta is O(t^delta a log(1+Lambda)), not t-sized, so the value divided
    by endpoint_prefactor keeps no rounding of a second t-sized phase.
    """
    a = split.a
    delta_phase = d.t**d.delta * a * math.log1p(d.Lambda) + split_phase_tail(d, a)
    return _endpoint_oscillation(d) * cmath.exp(1j * delta_phase)


def split_derivative(d: DerivedParams, split: Split) -> float:
    """D = F'(1-k; lambda) = log((1-k)/k) + log lambda at the split point, as
    log1p(Lambda) + log1p((e-k)/k) + log1p(-k) - log1p(-e), e = t^(delta-1),
    from lambda = lambda_c (1+Lambda) and lambda_c = e/(1-e).  e - k is exact
    for a <= 1/2 (Sterbenz), and no term reads the rounded point 1-k."""
    e, k = endpoint_offset(d.t, d.delta), split.k
    return math.log1p(d.Lambda) + math.log1p((e - k) / k) + math.log1p(-k) - math.log1p(-e)


@_on_arrays
def d_f(z, lam: float):
    """dF/dz = log z - log(1-z) + log lambda, from big_f's two logarithms;
    its singular points z = 0 and z = 1 lie on the cuts, which it refuses."""
    _check_cuts(z)
    _w, log_w, log_z = _z_logs(z)
    return log_z - log_w + math.log(lam)


def f0(Lambda: float, lambda_c: float) -> float:
    """Endpoint value of the phase in the offset frame (real),
    log(lambda_c (1+Lambda)/(1+lambda_c)) - lambda_c log((1+lambda_c)/lambda_c)."""
    r = math.log((1.0 + lambda_c) / lambda_c)
    return math.log(lambda_c / (1.0 + lambda_c)) + math.log1p(Lambda) - lambda_c * r


def _log(w):
    """Principal log w = log|w| + i arg w from real functions.

    |w| is a hypot, so it stays in range from 1e-300 to 1e300, where |w|^2
    would underflow or overflow.  The error is a few ulp of 1 + |log w|, so
    next to w = 1, where log w is small, _log1p is the accurate one.
    """
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
    a point on the cut takes the upper side, as np.log(1 + z) does.
    """
    w = 1.0 + z if w is None else w
    x, y = z.real, z.imag
    s = x * (2.0 + x) + y * y
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
    """1 - z, log(1 - z) and log z for a complex array z.

    log z is _log1p(z - 1), a few ulp also where the contours start, next
    to z = 1, where z - 1 is exact (Sterbenz).  log(1 - z) is _log(1 - z),
    except where |z|^2 < 1/2: there it is _log1p(-z), which keeps the low
    bits of a small z that forming 1 - z drops.  The contours keep |z| near
    1, so one reduction on log|z| passes their nodes by.
    """
    w = 1.0 - za
    log_z = _log1p(za - 1.0, za)
    log_w = _log(w)
    if log_z.size and log_z.real.min() < -_LOG_SQRT2:
        small = log_z.real < -_LOG_SQRT2
        log_w[small] = _log1p(-za[small], w[small])
    return w, log_w, log_z


def _offset_logs(zeta, lambda_c: float):
    """The pair y = (lambda_c zeta, -zeta) and log(1 + y), for a complex array
    zeta, stacked on a new first axis so that one _log1p takes both
    logarithms; each unpacks as two.
    """
    y = np.array((lambda_c * zeta, -zeta))
    return y, _log1p(y)


# T(v) = 1/3 + v/5 + v^2/7 + ... as the 14th convergent of Gauss's continued
# fraction T(v) = 1/(3 - v - 4v/(5 - 9v/(7 - 16v/(9 - ...)))): the integer
# coefficients of its numerator and denominator, a pair per power of v,
# lowest first.  On |v| <= 1/4, where _wlogw takes it, it is within 4 eps of
# T (by mpmath); T is a Stieltjes function, so its poles lie on v > 1.
_ATANH_TAIL_PAIRS = (
    (145568097675, 436704293025),
    (-439716046770, -1581170716125),
    (507456603225, 2283913256625),
    (-278866087500, -1674869721525),
    (73775401245, 655383804075),
    (-8264610690, -131076760815),
    (260504447, 11497961475),
    (0, -289864575),
)
_ATANH_TAIL = np.array(_ATANH_TAIL_PAIRS, dtype=complex).T


def _wlogw(y, log1p_y):
    """w log w - (w - 1) at w = 1 + y, given log1p_y = log(1 + y).

    Formed as (1 + y) log1p_y - y it cancels down to y^2/2 at small |y|.
    Where |s| <= 1/2 for s = y/(2 + y), that is |y - 2/3| <= 4/3, it is
    instead, from log(1 + y) = 2 atanh(s) and 1 + y = (1 + s)/(1 - s),

        y s [1 + (1 + s) s T(s^2)],  T(v) = 1/3 + v/5 + v^2/7 + ... ,

    whose terms do not cancel.
    """
    out = (1.0 + y) * log1p_y - y
    near = np.abs(y - 2.0 / 3.0) <= 4.0 / 3.0
    yn = y[near]
    s = yn / (2.0 + yn)
    v = s * s
    # v^0 .. v^7 by doubling, then both polynomials of T in one product
    powers = np.ones((_ATANH_TAIL.shape[1], v.size), dtype=complex)
    vk, k = v, 1
    while k < len(powers):
        np.multiply(powers[:k], vk, out=powers[k:2 * k])
        vk, k = vk * vk, 2 * k
    num, den = _ATANH_TAIL @ powers
    q = yn * s
    out[near] = q + q * (s + v) * (num / den)
    return out


@_on_arrays
def f1(zeta, lambda_c: float, Lambda: float, sigma=None):
    """Offset phase, analytic near 0 with f1(0) = 0.

    f1 = lambda_c zeta [log(1+Lambda) + log(1+lambda_c zeta) - log(1-zeta)]
         + log(1+lambda_c zeta) + lambda_c log(1-zeta)
       = lambda_c zeta log(1+Lambda) + h(lambda_c zeta) + lambda_c h(-zeta)

    with h(y) = (1+y) log(1+y) - y = _wlogw.  The first form cancels its
    terms down to lambda_c (1+lambda_c) zeta^2/2 at small zeta and Lambda;
    the second adds three terms that do not, so f1 keeps a few ulp at small
    zeta for every Lambda >= 0.  Cuts sit on zeta <= -1/lambda_c and
    zeta >= 1.  Given sigma, returns the pair (f1, amp_g) from the same two
    logarithms.
    """
    y, logs = _offset_logs(zeta, lambda_c)
    hx, hz = _wlogw(y, logs)
    out = y[0] * math.log1p(Lambda) + hx + lambda_c * hz
    return out if sigma is None else (out, _amplitude(logs[1], logs[0], sigma))


@_on_arrays
def d_f1(zeta, lambda_c: float, Lambda: float):
    """df1/dzeta = lambda_c [log(1+Lambda) + log(1+lambda_c zeta) - log(1-zeta)]."""
    _y, (la, lb) = _offset_logs(zeta, lambda_c)
    return lambda_c * (math.log1p(Lambda) + la - lb)


def _amplitude(log_w, log_v, sigma: float):
    """w^(-1/2) v^(sigma-1/2) as exp(-log(w)/2 + (sigma-1/2) log v), from the
    logs; the factor in v, exactly 1 at sigma = 1/2, is left out there."""
    e = -0.5 * log_w
    if sigma != 0.5:
        e = e + (sigma - 0.5) * log_v
    return np.exp(e)


@_on_arrays
def amp_g(zeta, lambda_c: float, sigma: float):
    """Transplanted amplitude (1-zeta)^(-1/2) (1+lambda_c zeta)^(sigma-1/2).

    On a cut it takes the upper side, as numpy's powers do.
    """
    _y, (la, lb) = _offset_logs(zeta, lambda_c)
    return _amplitude(lb, la, sigma)
