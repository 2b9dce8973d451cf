"""
Open the hood on the split-contour expansion: the exact coefficient
tables, the boundary terms of the ray piece, and how the partial sums
close in on direct quadrature of that piece.

The integration-by-parts engine generates rational coefficient tables
A_mn by a three-branch recursion; every term of the expansion is a finite
combination of them, so a single corrupted entry is detectable numerically.
"""

from endpoint_uniform import (
    amn_table,
    choose_split,
    from_offset,
    jb2_oracle,
    jb2_series,
    rn_bound,
    t_term,
)


def main():
    print("coefficient tables (exact rationals)")
    for level in (1, 2, 3):
        entries = amn_table(level).as_strings()
        joined = ", ".join(f"A[{k}]={v}" for k, v in sorted(entries.items()))
        print(f"  level {level}: {joined}")

    t = 3e4
    d = from_offset(t, 0.5, 0.5, 0.6)
    dd = choose_split(d, 4)
    print(f"\nsplit at a = {dd.a:.4e} (k = {dd.k:.4e}) for t = {t:.0e}")

    print("\nboundary terms of the ray piece:")
    for j in (1, 2, 3, 4):
        term = t_term(j, d, dd)
        print(f"  j = {j}: |T_j| = {abs(term.value):.3e}   "
              f"printed bound = {term.magnitude_bound:.3e}")

    oracle = jb2_oracle(d, dd, tol=1e-12)
    print(f"\nray piece by quadrature: {oracle.value:.12e}")
    for j_max in (1, 2, 3, 4):
        value, terms, bound = jb2_series(d, dd, j_max)
        gap = abs(value - oracle.value)
        print(f"  partial sum j <= {j_max}: gap to quadrature {gap:.3e}")

    # the a-priori remainder bounds carry constant 1 straight from the
    # analysis; at this scale they are loose by design, the terms themselves
    # are what converges
    term2 = t_term(2, d, dd)
    print(f"\na-priori remainder bound after j=1: {rn_bound(2, d, dd):.3e}")
    print(f"observed j=2 term size:              {abs(term2.value):.3e}")
    print(f"tight per-term bound of j=2:         {term2.magnitude_bound:.3e}")


if __name__ == "__main__":
    main()
