"""Repeated integration by parts on the ray piece of the split contour.

The N-fold application of (d/dz)(-1/(i t dF/dz)) to the square-root amplitude
has the closed form

    w^{-1/2} (-i t w dF/dz)^{-N} * sum_{m,n} A_mn z^{-m} (dF/dz)^{-n},  w = 1-z,

with exact dyadic-rational coefficients A_mn; the powers are grouped so that
no factor leaves the doubles unless the value does.  One level feeds the next:
entry (m, n) at level N-1 contributes

    (N + m - 1/2)  ->  (m, n)
    -m             ->  (m+1, n)
    -(N + n)       ->  (m+1, n+1)

at level N.  Tables are built in exact rational arithmetic (the values grow
at factorial speed and floats would contaminate high orders); floats appear
only at evaluation sites.

The boundary terms of the ray piece follow: the j-th term is the level-(j-1)
closed form at the split point z = 1-k of a params.Split(k, a), with w = k
exactly, divided by -i t D and times e^{i t F(1-k)},

    T_j = k^{-1/2} (-i t k D)^{-(j-1)} sum A_mn (1-k)^{-m} D^{-n}
          / (-i t D) * e^{i t F(1-k)},

with D = F'(1-k) from phase.split_derivative, which reads no rounded 1-k,
and e^{i t F(1-k)} from phase.split_oscillation: the endpoint's oscillation
times that of the collapsed phase difference, so the term keeps no t-sized
phase of its own.  With j_max terms kept the truncation error is the
(j_max+1)-st remainder, bounded (constant 1) by rn_bound.  The term bounds
and the remainder bound are stated in the split width a and summed in logs,
so a NumericalError means the term or bound itself is not a double.  Every
function here takes the derived point and the Split whole, and reads the
split's own a, never one recomputed from k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import phase as phase_mod
from .errors import AssumptionViolated, NumericalError, OrderViolation, SingularPoint
from .params import DerivedParams, Split, check_half_sigma, check_split_point
from .phase import _on_arrays


def double_factorial(n: int) -> int:
    """(n)!! for odd n; by convention (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass(frozen=True)
class CoefficientTable:
    level: int
    entries: tuple  # ((m, n, Fraction), ...) sorted by (m, n)

    def as_dict(self):
        return {(m, n): a for (m, n, a) in self.entries}

    def as_strings(self):
        """JSON-friendly exact dump: {"m,n": "p/q"}."""
        return {f"{m},{n}": str(a) for (m, n, a) in self.entries}


@dataclass(frozen=True)
class ExpansionTerm:
    j: int
    value: complex
    magnitude_bound: float


# The highest level amn_table builds; above it a level is refused before
# anything is built.  Build time grows about as N^3.5, since the exact
# rationals lengthen with every level: levels 60, 100 and 150 took 0.6, 3.6
# and 12 s on a 2-CPU host.  Every level that the tests, demos and README
# use (at most 38) lies below it.
MAX_TABLE_LEVEL = 60


@lru_cache(maxsize=None)
def _amn_entries(level: int):
    """The level's entries, from those of the level below (cached)."""
    if level == 0:
        return ((0, 0, Fraction(1)),)
    acc: dict = {}
    for m, n, a in _amn_entries(level - 1):
        acc[(m, n)] = acc.get((m, n), Fraction(0)) + (Fraction(2 * level + 2 * m - 1, 2)) * a
        if m > 0:
            acc[(m + 1, n)] = acc.get((m + 1, n), Fraction(0)) - m * a
        acc[(m + 1, n + 1)] = acc.get((m + 1, n + 1), Fraction(0)) - (level + n) * a
    items = tuple(
        (m, n, a) for (m, n), a in sorted(acc.items()) if a != 0
    )
    return items


def amn_table(N: int) -> CoefficientTable:
    """Exact coefficient table at level N (level 0 is the identity table).

    The levels are built bottom-up in a loop, so each finds the one below
    cached and none recurses deeper than one level.
    """
    if not 0 <= N <= MAX_TABLE_LEVEL:
        raise OrderViolation(f"table level must lie in [0, {MAX_TABLE_LEVEL}], got {N}")
    for level in range(N + 1):
        entries = _amn_entries(level)
    return CoefficientTable(level=N, entries=entries)


def _operator(N: int, w, z, d, t: float):
    """The level-N closed form w^(-1/2) (-i t w d)^(-N) sum A_mn z^(-m) d^(-n)
    at z, with w = 1-z and d = dF/dz there."""
    acc = 0.0 + 0.0j
    for m, n, a in amn_table(N).entries:
        acc = acc + float(a) * z ** (-m) * d ** (-n)
    return w ** -0.5 * (1j / (t * w * d)) ** N * acc


def apply_ibp_operator(N: int, z, t: float, lam: float):
    """Closed form of the N-fold operator applied to (1-z)^(-1/2).

    z is a number or an array of any shape, through phase's one wrapper: a
    number is computed as a one-point array and comes out as a Python
    complex; a list is refused with TypeError.  Raises SingularPoint if
    dF/dz vanishes on the locus.
    """
    return _operator_at(z, N, t, lam)


@_on_arrays
def _operator_at(z, N: int, t: float, lam: float):
    """apply_ibp_operator on a complex array, the point first for _on_arrays."""
    d = phase_mod.d_f(z, lam)
    if np.any(np.abs(d) < 1e-12):
        raise SingularPoint("dF/dz ~ 0 on the evaluation locus")
    return _operator(N, 1.0 - z, z, d, t)


def _check_expansion_assumption(d: DerivedParams, split: Split) -> float:
    """Successive terms shrink iff t k D_-^2 > 1 (with D_- < 1).  Returns D_-."""
    d_minus = -math.log1p(-split.a)
    if not (d_minus < 1.0 and d.t * split.k * d_minus * d_minus > 1.0):
        raise AssumptionViolated(
            f"split a={split.a:.3e} (D_-={d_minus:.3e}) outside the expansion's validity window"
        )
    return d_minus


def t_term(j: int, d: DerivedParams, split: Split) -> ExpansionTerm:
    """j-th boundary term of the ray piece, exact closed form (j >= 1), with
    its magnitude bound (constant 1) in the split width a."""
    check_half_sigma(d.sigma, "t_term")
    check_split_point(d.t, d.delta, split.k)
    if j < 1:
        raise OrderViolation(f"term index must be >= 1, got {j}")
    return _terms(d, split, [j])[0]


def _terms(d: DerivedParams, split: Split, js) -> list:
    """The terms j in js, with the split point's oscillation and D formed once:
    the level-(j-1) closed form at w = k divided by -i t D, times the
    oscillation, and the bound (2j-1)!! t^(-1/2-(2j+1)delta/2) a^(-(2j+1))."""
    t, k = d.t, split.k
    osc, big_d = phase_mod.split_oscillation(d, split), phase_mod.split_derivative(d, split)
    terms = []
    for j in js:
        log_bound = (math.log(double_factorial(2 * j - 1))
                     - (0.5 + (2 * j + 1) * d.delta / 2.0) * math.log(t)
                     - (2 * j + 1) * math.log(split.a))
        try:
            value = _operator(j - 1, k, 1.0 - k, big_d, t) / (-1j * t * big_d) * osc
            if not cmath.isfinite(value):
                raise OverflowError
            terms.append(ExpansionTerm(j=j, value=value, magnitude_bound=math.exp(log_bound)))
        except OverflowError:
            raise NumericalError(f"term j={j} overflows a double at t={t:.6g}") from None
    return terms


def rn_bound(N: int, d: DerivedParams, split: Split) -> float:
    """Magnitude bound (constant 1) for the remainder holding terms j >= N,

        (2N-1)!! t^(-N) log(t)^(N+1/2) D_-^(-2N) k^(-(N-1/2)),

    summed in logs, so that no factor under- or overflows where the bound
    itself is a double; a bound above the doubles raises NumericalError.
    """
    check_split_point(d.t, d.delta, split.k)
    d_minus = _check_expansion_assumption(d, split)
    t = d.t
    log_bound = (math.log(double_factorial(2 * N - 1)) - N * math.log(t)
                 + (N + 0.5) * math.log(math.log(t)) - 2 * N * math.log(d_minus)
                 - (N - 0.5) * math.log(split.k))
    try:
        return math.exp(log_bound)
    except OverflowError:
        raise NumericalError(f"remainder bound at order N={N} overflows a double "
                             f"at t={t:.6g}") from None


def jb2_series(d: DerivedParams, split: Split, j_max: int):
    """Partial sum of boundary terms plus its truncation bound.

    Returns (value, terms, bound) with bound = rn_bound(j_max + 1): the
    remainder after j_max kept terms contains everything from index
    j_max + 1 on.  The split point's oscillation and D are formed once for
    all the terms.  Term j reads the level-(j-1) table, so j_max above
    MAX_TABLE_LEVEL + 1 is refused before any term is formed.
    """
    check_half_sigma(d.sigma, "jb2_series")
    check_split_point(d.t, d.delta, split.k)
    if not 0 <= j_max <= MAX_TABLE_LEVEL + 1:
        raise OrderViolation(f"j_max must lie in [0, {MAX_TABLE_LEVEL + 1}], got {j_max}")
    terms = _terms(d, split, range(1, j_max + 1))
    value = sum((term.value for term in terms), 0.0 + 0.0j)
    bound = rn_bound(j_max + 1, d, split)
    return value, terms, bound
