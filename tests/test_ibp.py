import inspect
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from endpoint_uniform.ibp import MAX_TABLE_LEVEL, _amn_entries
from endpoint_uniform import (
    AssumptionViolated,
    OrderViolation,
    RayContour,
    SigmaUnsupported,
    SingularPoint,
    Split,
    SplitOutOfRange,
    amn_table,
    apply_ibp_operator,
    big_f,
    critical_lambda,
    d_f,
    derive,
    double_factorial,
    from_offset,
    integrate_ray,
    jb2_oracle,
    jb2_series,
    ProblemParams,
    ray_truncation,
    rn_bound,
    t_term,
)
from conftest import fit_loglog


def test_double_factorial_values():
    assert [double_factorial(n) for n in (-1, 0, 1, 3, 5, 7)] == [1, 1, 1, 3, 15, 105]


class TestCoefficientTables:
    def test_level_zero(self):
        t0 = amn_table(0)
        assert t0.as_dict() == {(0, 0): Fraction(1)}

    def test_level_one_exact(self):
        t1 = amn_table(1)
        assert t1.as_dict() == {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1)}

    def test_level_two_exact(self):
        t2 = amn_table(2)
        assert t2.as_dict() == {
            (0, 0): Fraction(3, 4),
            (1, 1): Fraction(-7, 2),
            (2, 1): Fraction(1),
            (2, 2): Fraction(3),
        }

    def test_level_three_recomputed_independently(self):
        # re-run the recursion by hand from the level-2 table
        prev = amn_table(2).as_dict()
        acc = {}
        level = 3
        for (m, n), val in prev.items():
            for key, mult in (
                ((m, n), Fraction(2 * level + 2 * m - 1, 2)),
                ((m + 1, n), Fraction(-m)),
                ((m + 1, n + 1), Fraction(-(level + n))),
            ):
                if mult:
                    acc[key] = acc.get(key, Fraction(0)) + mult * val
        acc = {k: v for k, v in acc.items() if v != 0}
        assert amn_table(3).as_dict() == acc

    @pytest.mark.parametrize("level", range(1, 9))
    def test_structural_invariants(self, level):
        table = amn_table(level)
        entries = table.as_dict()
        # corner entry, triangular support, dyadic denominators, growth cap
        assert entries[(level, level)] == Fraction(
            (-1) ** level * double_factorial(2 * level - 1))
        for (m, n), val in entries.items():
            assert 0 <= n <= m <= level
            assert val != 0
            assert val.denominator & (val.denominator - 1) == 0
            assert abs(val) < math.factorial(3 * level)
        for m in range(level):
            assert (m, level) not in entries

    def test_string_rendering(self):
        assert amn_table(2).as_strings() == {
            "0,0": "3/4", "1,1": "-7/2", "2,1": "1", "2,2": "3"}

    def test_negative_level_rejected(self):
        with pytest.raises(OrderViolation):
            amn_table(-1)

    def test_level_above_the_cap_refused_before_building(self):
        built = _amn_entries.cache_info().currsize
        with pytest.raises(OrderViolation, match=f"\\[0, {MAX_TABLE_LEVEL}\\], got 100000000"):
            amn_table(100_000_000)
        with pytest.raises(OrderViolation):
            amn_table(MAX_TABLE_LEVEL + 1)
        assert _amn_entries.cache_info().currsize == built

    def test_levels_built_in_a_loop(self):
        # from an empty cache, level 30 needs no more than a few frames of
        # recursion, where a level-by-level recursion would need 30
        _amn_entries.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 20)
        try:
            table = amn_table(30)
        finally:
            sys.setrecursionlimit(limit)
        assert table.level == 30 and _amn_entries.cache_info().currsize == 31


class TestOperator:
    T, LAM = 5e3, 0.02

    def _phi(self, N, z):
        return apply_ibp_operator(N, z, self.T, self.LAM)

    def test_level_zero_is_amplitude(self):
        z = 0.9 + 0.2j
        assert abs(self._phi(0, z) - (1 - z) ** -0.5) < 1e-14

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_differentiated_predecessor(self, N):
        # one integration by parts maps phi_{N-1} to
        # phi_N = d/dz [ phi_{N-1} / (-i t F') ]
        zs = [0.95 + 0.1j, 0.9 + 0.3j, 1.0 + 0.5j]
        hs = [1e-3, 3e-4, 1e-4]
        errs = []
        for h in hs:
            worst = 0.0
            for z in zs:
                def inner(w):
                    return self._phi(N - 1, w) / (-1j * self.T * d_f(w, self.LAM))
                fd = (inner(z + h) - inner(z - h)) / (2 * h)
                worst = max(worst, abs(fd - self._phi(N, z)))
            errs.append(worst)
        slope, _ = fit_loglog(hs, errs)
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_vectorised_evaluation(self):
        zs = np.array([0.95 + 0.1j, 0.9 + 0.3j])
        batch = apply_ibp_operator(2, zs, self.T, self.LAM)
        singles = [apply_ibp_operator(2, complex(z), self.T, self.LAM) for z in zs]
        assert np.allclose(batch, singles, rtol=1e-14)

    @pytest.mark.parametrize("N", [0, 2, 12])
    def test_a_number_has_the_bits_of_a_one_point_array(self, N):
        # a number took Python complex arithmetic, and matched the array at
        # 88 %, 14 % and 0 % of these points, up to 4.6e-14 apart
        rng = np.random.default_rng(3)
        zs = 0.5 + 0.6 * rng.random(50) + 1j * (rng.random(50) - 0.3)
        got = [self._phi(N, complex(z)) for z in zs]
        assert all(type(v) is complex for v in got)
        assert got == [self._phi(N, np.array([z]))[0] for z in zs]

    def test_stationary_point_is_singular(self):
        z = 1.0 / (1.0 + self.LAM)  # the root of dF/dz
        with pytest.raises(SingularPoint):
            apply_ibp_operator(1, complex(z, 0.0) + 1e-14j, self.T, self.LAM)


@pytest.fixture(scope="module")
def split_setup():
    t = 3e4
    from endpoint_uniform import choose_split
    d = from_offset(t, 0.5, 0.5, 0.6)
    return d, choose_split(d, 4)


EPS = 2.0**-52


def _amplitude_mp(j, p, k, table):
    """T_j without its oscillation, k^(-(2j-1)/2) / ((-it)^j D^j)
    sum A_mn (1-k)^(-m) D^(-n), at 40 digits from the doubles t, lambda and k,
    for the table {(m, n): A_mn}."""
    with mp.workdps(40):
        t, lam, k = mp.mpf(p.t), mp.mpf(p.lam), mp.mpf(k)
        D = mp.log(lam * (1 - k) / k)
        acc = mp.fsum(mp.mpf(val.numerator) / val.denominator * (1 - k) ** (-m) * D ** (-n)
                      for (m, n), val in table.items())
        return k ** (-mp.mpf(2 * j - 1) / 2) / ((-1j * t) ** j * D**j) * acc


def _term_mp(j, p, k, table):
    """T_j = _amplitude_mp * e^(i t F(1-k)) at 40 digits.

    Returns the value and the phase floor 64 eps |t F(1-k)|, the relative
    error that no double rounding of exp(i t F(1-k)) can beat.
    """
    with mp.workdps(40):
        t, lam, k_mp = mp.mpf(p.t), mp.mpf(p.lam), mp.mpf(k)
        phase = t * (k_mp * mp.log(k_mp) + (1 - k_mp) * mp.log((1 - k_mp) * lam))
        value = _amplitude_mp(j, p, k, table) * mp.expj(phase)
        return complex(value), 64 * EPS * float(abs(phase))


def test_first_boundary_term_closed_form(split_setup):
    # at j = 1 the table is A_00 = 1, so T_1 = i e^(i t F(1-k)) / (t sqrt(k) D)
    d, dd = split_setup
    expect, floor = _term_mp(1, d, dd.k, {(0, 0): Fraction(1)})
    term = t_term(1, d, dd)
    assert abs(term.value - expect) < floor * abs(expect)
    assert term.j == 1


def test_boundary_terms_decay(split_setup):
    d, dd = split_setup
    mags = [abs(t_term(j, d, dd).value) for j in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_boundary_term_magnitude_bounds(split_setup):
    # the bound is (2j-1)!! t^(-1/2-(2j+1)delta/2) a^(-(2j+1)) in the split's
    # own width a, summed in logs to the last bit, and the product of its
    # factors to 1e-14
    d, dd = split_setup
    for j in (1, 2, 3):
        term = t_term(j, d, dd)
        assert term.magnitude_bound == math.exp(
            math.log(double_factorial(2 * j - 1))
            - (0.5 + (2 * j + 1) * d.delta / 2.0) * math.log(d.t)
            - (2 * j + 1) * math.log(dd.a))
        assert term.magnitude_bound == pytest.approx(
            double_factorial(2 * j - 1) * d.t ** (-0.5 - (2 * j + 1) * d.delta / 2.0)
            * dd.a ** (-(2 * j + 1)), rel=1e-14)
        assert abs(term.value) <= 10.0 * term.magnitude_bound


def test_term_guards(split_setup):
    d, dd = split_setup
    with pytest.raises(OrderViolation):
        t_term(0, d, dd)
    with pytest.raises(OrderViolation):
        jb2_series(d, dd, -1)
    bad_sigma = derive(ProblemParams(t=d.t, delta=d.delta, sigma=0.75, lam=d.lam))
    with pytest.raises(SigmaUnsupported):
        t_term(1, bad_sigma, dd)
    with pytest.raises(SigmaUnsupported):
        jb2_series(bad_sigma, dd, 0)
    with pytest.raises(SplitOutOfRange):
        t_term(1, d, Split(d.t ** (d.delta - 1.0) * 1.01, dd.a))
    with pytest.raises(SplitOutOfRange):
        t_term(1, d, Split(0.0, dd.a))


def test_expansion_assumption_gate():
    # a wide split (a close to 1) violates D_minus < 1, which the remainder
    # bound needs; the term values themselves stay computable
    t = 3e4
    d = from_offset(t, 0.5, 0.5, 0.6)
    wide = Split(t ** -0.5 * (1.0 - 0.75), 0.75)
    with pytest.raises(AssumptionViolated):
        rn_bound(1, d, wide)
    t_term(1, d, wide)


def test_one_step_remainder_reconstructs_ray_integral(split_setup):
    # after a single integration by parts the ray piece must equal the
    # boundary term plus the integral of the order-1 operator image
    d, dd = split_setup
    whole = jb2_oracle(d, dd, tol=1e-12)
    term = t_term(1, d, dd)

    def frame(z):
        return d.t * big_f(z, d.lam), apply_ibp_operator(1, z, d.t, d.lam)

    ray = ray_truncation(frame, 1.0 - dd.k, d.phi, 1e-12)
    rem = integrate_ray(frame, ray, 1e-12)
    assert abs(whole.value - term.value - rem.value) < 1e-10


def test_series_approaches_ray_integral(split_setup):
    d, dd = split_setup
    whole = jb2_oracle(d, dd, tol=1e-12)
    value, terms, bound = jb2_series(d, dd, 4)
    assert [t.j for t in terms] == [1, 2, 3, 4]
    assert value == sum(t.value for t in terms)
    diff = abs(value - whole.value)
    assert diff <= 10.0 * abs(terms[-1].value)
    assert bound == pytest.approx(rn_bound(5, d, dd), rel=1e-13)
    assert diff <= bound


def test_series_single_term_bound_indexing(split_setup):
    d, dd = split_setup
    _, _, bound = jb2_series(d, dd, 1)
    assert bound == pytest.approx(rn_bound(2, d, dd), rel=1e-13)


def test_series_derives_its_point_once(split_setup, monkeypatch):
    # the series reads the derived point that its caller holds (ibp derives
    # none) and forms the split point's oscillation once for all its terms,
    # which keep the bits of t_term's
    from endpoint_uniform import ibp, phase
    d, dd = split_setup
    want = [t_term(j, d, dd) for j in (1, 2, 3, 4)]
    calls = []
    read = phase.split_oscillation
    monkeypatch.setattr(phase, "split_oscillation", lambda q, s: calls.append(q) or read(q, s))
    _, terms, _ = jb2_series(d, dd, 4)
    assert terms == want and calls == [d]
    assert not hasattr(ibp, "derive")


def test_remainder_bound_formula():
    t = 3e4
    d = from_offset(t, 0.5, 0.5, 0.6)
    from endpoint_uniform import choose_split
    dd = choose_split(d, 4)
    N = 3
    expect = (double_factorial(2 * N - 1) * t ** -N
              * math.log(t) ** ((2 * N + 1) / 2)
              * (-math.log1p(-dd.a)) ** (-2 * N) * dd.k ** (-(2 * N - 1) / 2))
    assert rn_bound(N, d, dd) == pytest.approx(expect, rel=1e-12)


def _log_bound(N, t, d_minus, k):
    """rn_bound's sum of logs, in its order of operations."""
    return math.exp(math.log(double_factorial(2 * N - 1)) - N * math.log(t)
                    + (N + 0.5) * math.log(math.log(t)) - 2 * N * math.log(d_minus)
                    - (N - 0.5) * math.log(k))


def test_remainder_bound_reads_the_splits_own_width():
    # D_- = -log1p(-a) of the split's a, to the last bit, at points where
    # the width rebuilt from k, 1 - k t^(1-delta), is another double
    from endpoint_uniform import choose_split
    rebuilt_differs = 0
    for t in (1e4, 1e6, 1e8, 1e10):
        for Lam in (0.0, 0.5, 10.0):
            d = from_offset(t, 0.5, 0.5, Lam)
            dd = choose_split(d, 4)
            rebuilt_differs += 1.0 - dd.k * t ** (1.0 - d.delta) != dd.a
            assert rn_bound(6, d, dd) == _log_bound(6, t, -math.log1p(-dd.a), dd.k)
    assert rebuilt_differs > 0


def test_remainder_bound_keeps_its_product_values_at_low_orders():
    # summed in logs, the bound of orders m = 4..8 (N = 2m - 2) is the
    # product of its factors to 1e-12
    from endpoint_uniform import choose_split
    for t in (1e4, 1e6, 1e8, 1e10):
        for Lam in (0.0, 0.5, 10.0):
            d = from_offset(t, 0.5, 0.5, Lam)
            for m in range(4, 9):
                dd = choose_split(d, m)
                N = 2 * m - 2
                product = (double_factorial(2 * N - 1) * t ** -N
                           * math.log(t) ** ((2 * N + 1) / 2.0) * (-math.log1p(-dd.a)) ** (-2 * N)
                           * dd.k ** (-(2 * N - 1) / 2.0))
                assert rn_bound(N, d, dd) == pytest.approx(product, rel=1e-12)


@pytest.mark.parametrize("m", [48, 64])
def test_remainder_bound_at_high_order(m):
    # N = 2m - 2: t^-N underflows at both orders.  The bound is ~1.9e261 at
    # m = 48 and ~1e367 at m = 64, which no double holds
    from endpoint_uniform import NumericalError, choose_split
    d = from_offset(1e4, 0.5, 0.5, 0.5)
    dd = choose_split(d, m)
    N = 2 * m - 2
    assert d.t ** -N == 0.0
    with mp.workdps(30):
        t, k, d_minus = mp.mpf(d.t), mp.mpf(dd.k), -mp.log1p(-mp.mpf(dd.a))
        want = (mp.mpf(double_factorial(2 * N - 1)) * t ** -N * mp.log(t) ** (N + mp.mpf(0.5))
                * d_minus ** (-2 * N) * k ** -(N - mp.mpf(0.5)))
    if m == 48:
        assert rn_bound(N, d, dd) == pytest.approx(float(want), rel=1e-12)
    else:
        assert want > 1e308
        with pytest.raises(NumericalError, match="N=126 overflows"):
            rn_bound(N, d, dd)


def test_successive_term_bound_ratio_identity():
    # bound(j+1)/bound(j) = (2j+1) t^-delta a^-2 exactly
    from endpoint_uniform import choose_split
    for t in (1e4, 1e6, 1e8):
        d = from_offset(t, 0.5, 0.5, 0.6)
        dd = choose_split(d, 4)
        for j in (1, 2, 3):
            ratio = (t_term(j + 1, d, dd).magnitude_bound
                     / t_term(j, d, dd).magnitude_bound)
            expect = (2 * j + 1) * t ** -d.delta * dd.a ** -2.0
            assert ratio == pytest.approx(expect, rel=1e-12)


def test_table_feeds_term_values(split_setup):
    # recomputing T_2 with one corrupted coefficient must move the value;
    # guards that the tables actually drive the computation
    d, dd = split_setup
    j = 2
    table = amn_table(j - 1).as_dict()
    clean, floor = _term_mp(j, d, dd.k, table)
    assert abs(clean - t_term(j, d, dd).value) < floor * abs(clean)
    corrupted = dict(table)
    corrupted[(1, 1)] = table[(1, 1)] * Fraction(101, 100)
    assert abs(_term_mp(j, d, dd.k, corrupted)[0] - clean) > 1e-4 * abs(clean)


@pytest.mark.parametrize("t", [1e4, 1e8, 1e12])
def test_high_order_terms_match_40_digits(t):
    # at the split of m = 64 each factor of the scaled closed form stays in
    # the doubles, where (-i t)^j alone reaches 1e468 at t = 1e12, j = 39:
    # the term without its oscillation is within 1e-6 of its 40-digit value.
    # Above j ~ 40 the table sum itself cancels, so the pin stops at 39
    from endpoint_uniform import choose_split, phase
    d = from_offset(t, 0.5, 0.5, 0.5)
    split = choose_split(d, 64)
    osc = phase.split_oscillation(d, split)
    for j in (1, 10, 20, 30, 39):
        want = _amplitude_mp(j, d, split.k, amn_table(j - 1).as_dict())
        got = t_term(j, d, split).value / osc
        assert abs(got - want) <= 1e-6 * abs(want), j


def test_term_that_fits_a_double_is_formed():
    # t^39 = 1e312 is no double at t = 1e8, but term 39 of the m = 50 split
    # is about 1.7e-76, and comes out within 1e-6 of its 40-digit value
    from endpoint_uniform import choose_split
    d = from_offset(1e8, 0.5, 0.5, 0.5)
    split = choose_split(d, 50)
    want, _floor = _term_mp(39, d, split.k, amn_table(38).as_dict())
    assert 39 * math.log10(d.t) > 308 and abs(want) == pytest.approx(1.7e-76, rel=0.02)
    assert abs(t_term(39, d, split).value - want) <= 1e-6 * abs(want)


def test_a_term_that_is_no_double_is_a_typed_error(split_setup, monkeypatch):
    # the closed form at the split point overflowing to inf: t_term and the
    # series raise NumericalError naming the term, not return inf or NaN
    from endpoint_uniform import NumericalError, ibp
    d, dd = split_setup
    monkeypatch.setattr(ibp, "_operator", lambda *args: complex("inf"))
    with pytest.raises(NumericalError, match="term j=2 overflows a double"):
        t_term(2, d, dd)
    with pytest.raises(NumericalError, match="term j=1 overflows a double"):
        jb2_series(d, dd, 3)
