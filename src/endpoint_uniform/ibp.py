"""Repeated integration by parts on the ray piece of the split contour.

The N-fold application of (d/dz)(-1/(i t dF/dz)) to the square-root amplitude
has the closed form

    (1-z)^{-(2N+1)/2} / ((-it)^N (dF/dz)^N) * sum_{m,n} A_mn z^{-m} (dF/dz)^{-n}

with exact dyadic-rational coefficients A_mn.  One level feeds the next:
entry (m, n) at level N-1 contributes

    (N + m - 1/2)  ->  (m, n)
    -m             ->  (m+1, n)
    -(N + n)       ->  (m+1, n+1)

at level N.  Tables are built in exact rational arithmetic (the values grow
at factorial speed and floats would contaminate high orders); floats appear
only at evaluation sites.

The boundary terms of the ray piece follow: the j-th term uses the level-(j-1)
table evaluated at the split point,

    T_j = k^{-(2j-1)/2} / ((-it)^j D^j)
          * sum A_mn (1-k)^{-m} D^{-n} * e^{i t F(1-k)},

with D the phase derivative at the split.  With j_max terms kept the truncation
error is the (j_max+1)-st remainder, bounded (constant 1) by rn_bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import phase as phase_mod
from .errors import AssumptionViolated, OrderViolation, SigmaUnsupported, SingularPoint
from .params import ProblemParams, check_split_point, endpoint_offset


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


@lru_cache(maxsize=None)
def _amn_entries(level: int):
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
    """Exact coefficient table at level N (level 0 is the identity table)."""
    if N < 0:
        raise OrderViolation(f"table level must be >= 0, got {N}")
    return CoefficientTable(level=N, entries=_amn_entries(N))


def _amn_sum(N: int, z, d):
    """sum over the level-N table of A_mn z^(-m) d^(-n), with d = dF/dz at z."""
    acc = 0.0 + 0.0j
    for m, n, a in amn_table(N).entries:
        acc = acc + float(a) * z ** (-m) * d ** (-n)
    return acc


def apply_ibp_operator(N: int, z, t: float, lam: float):
    """Closed form of the N-fold operator applied to (1-z)^(-1/2).

    Scalar or array z; raises SingularPoint if dF/dz vanishes on the locus.
    """
    za = np.asarray(z, dtype=complex) if isinstance(z, np.ndarray) else complex(z)
    d = phase_mod.d_f(za, lam)
    if np.any(np.abs(d) < 1e-12):
        raise SingularPoint("dF/dz ~ 0 on the evaluation locus")
    acc = _amn_sum(N, za, d)
    pref = (1.0 - za) ** (-(2 * N + 1) / 2.0) / ((-1j * t) ** N * d**N)
    out = pref * acc
    return out if isinstance(z, np.ndarray) else complex(out)


def _split_a(p: ProblemParams, k: float) -> float:
    return 1.0 - k * p.t ** (1.0 - p.delta)


def _check_expansion_assumption(p: ProblemParams, k: float) -> float:
    """Successive terms shrink iff t k D_-^2 > 1 (with D_- < 1).  Returns D_-."""
    a = _split_a(p, k)
    d_minus = -math.log1p(-a)
    if not (d_minus < 1.0 and p.t * k * d_minus * d_minus > 1.0):
        raise AssumptionViolated(
            f"split a={a:.3e} (D_-={d_minus:.3e}) outside the expansion's validity window"
        )
    return d_minus


def _term_bound(j: int, p: ProblemParams, a: float) -> float:
    """Magnitude bound (constant 1) for the j-th boundary term at split width a."""
    return (
        double_factorial(2 * j - 1)
        * p.t ** (-0.5 - (2 * j + 1) * p.delta / 2.0)
        * a ** (-(2 * j + 1))
    )


def t_term(j: int, p: ProblemParams, k: float) -> ExpansionTerm:
    """j-th boundary term of the ray piece, exact closed form (j >= 1)."""
    if p.sigma != 0.5:
        raise SigmaUnsupported("boundary terms are defined for sigma = 1/2 only")
    check_split_point(p.t, p.delta, k)
    if j < 1:
        raise OrderViolation(f"term index must be >= 1, got {j}")
    t = p.t
    z0 = 1.0 - k
    big_d = complex(phase_mod.d_f(z0, p.lam))
    acc = _amn_sum(j - 1, z0, big_d)
    osc = cmath.exp(1j * phase_mod.t_phase(t, p.lam, k))
    value = k ** (-(2 * j - 1) / 2.0) / ((-1j * t) ** j * big_d**j) * acc * osc
    bound = _term_bound(j, p, _split_a(p, k))
    return ExpansionTerm(j=j, value=value, magnitude_bound=bound)


def rn_bound(N: int, p: ProblemParams, k: float) -> float:
    """Magnitude bound (constant 1) for the remainder holding terms j >= N."""
    check_split_point(p.t, p.delta, k)
    d_minus = _check_expansion_assumption(p, k)
    t = p.t
    return (
        double_factorial(2 * N - 1)
        * t ** (-N)
        * math.log(t) ** ((2 * N + 1) / 2.0)
        * d_minus ** (-2 * N)
        * k ** (-(2 * N - 1) / 2.0)
    )


def tj_bound(j: int, p: ProblemParams, a: float) -> float:
    """Magnitude bound (constant 1) for the j-th boundary term, in split width a."""
    k = endpoint_offset(p.t, p.delta) * (1.0 - a)
    check_split_point(p.t, p.delta, k)
    _check_expansion_assumption(p, k)
    return _term_bound(j, p, a)


def jb2_series(p: ProblemParams, k: float, j_max: int):
    """Partial sum of boundary terms plus its truncation bound.

    Returns (value, terms, bound) with bound = rn_bound(j_max + 1): the
    remainder after j_max kept terms contains everything from index
    j_max + 1 on.
    """
    if p.sigma != 0.5:
        raise SigmaUnsupported("series defined for sigma = 1/2 only")
    check_split_point(p.t, p.delta, k)
    if j_max < 0:
        raise OrderViolation(f"j_max must be >= 0, got {j_max}")
    terms = [t_term(j, p, k) for j in range(1, j_max + 1)]
    value = sum((term.value for term in terms), 0.0 + 0.0j)
    bound = rn_bound(j_max + 1, p, k)
    return value, terms, bound
