"""
Check the change-of-variables bookkeeping numerically.

The integral in the offset frame factors as a smooth amplitude times a
rotated-ray kernel; pulling the endpoint prefactor out and substituting
u(zeta) must reproduce the original integral exactly. At moderate t the
quadrature is cheap enough to verify the whole decomposition to high
accuracy, which is how transcription errors in the amplitude or the map
get caught.
"""

import cmath
import math

from endpoint_uniform import (
    decomposition_residual,
    dzeta_du,
    endpoint_prefactor,
    from_offset,
    jb_oracle,
    jtilde_oracle,
    u_of_zeta,
    zeta_of_u,
)

RAY = cmath.exp(1j * math.pi / 4)


def main():
    t = 200.0
    for Lam in (0.0, 1.0):
        d = from_offset(t, 0.5, 0.5, Lam)

        whole = jb_oracle(d, tol=1e-10).value
        tilde = jtilde_oracle(d, tol=1e-10).value
        pref = endpoint_prefactor(d)
        gap = abs(whole - pref * tilde)
        print(f"Lambda = {Lam}:")
        print(f"  whole integral        {whole:.10e}")
        print(f"  prefactor * reduced   {pref * tilde:.10e}")
        print(f"  factorisation gap     {gap:.3e}")

        res = decomposition_residual(d)
        print(f"  full decomposition residual {res:.3e}  (budget 1e-6)")

        u = 0.4 * RAY
        zeta = zeta_of_u(u, d)
        back = u_of_zeta(zeta, d)
        print(f"  map round trip |u - u(zeta(u))| = {abs(back - u):.3e}, "
              f"dzeta/du(0) = {dzeta_du(0.0, d):.1f}")
        print()


if __name__ == "__main__":
    main()
