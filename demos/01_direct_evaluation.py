"""
Evaluate the oscillatory endpoint integral one point at a time,
three independent ways, and watch them agree.

The integrand is z^(sigma-1) (1-z)^(-sigma) e^(i t F(z)) integrated from
the left endpoint 1 - t^(delta-1) along a tilted ray; "oracle" means
adaptive complex-contour quadrature, the other two are closed forms.
"""

from endpoint_uniform import (
    all_orders,
    from_offset,
    from_omega,
    jb_oracle,
    leading_order,
    leading_order_large_omega,
)


def show_point(t, Lambda):
    d = from_offset(t, 0.5, 0.5, Lambda)
    print(f"\nt = {t:.1e}, Lambda = {Lambda}  "
          f"(lambda = {d.lam:.6e}, omega = {d.omega:.4f})")

    oracle = jb_oracle(d, tol=1e-10)
    print(f"  oracle      {oracle.value.real:+.10e} {oracle.value.imag:+.10e}i"
          f"   [{oracle.panels} panels, est {oracle.abs_error_estimate:.1e}]")

    lead = leading_order(d)
    err = abs(lead.value - oracle.value) / abs(oracle.value)
    print(f"  leading     {lead.value.real:+.10e} {lead.value.imag:+.10e}i"
          f"   [rel err {err:.2e}, regime {lead.regime.value}]")

    expansion = all_orders(d, 4)
    err = abs(expansion.value - oracle.value) / abs(oracle.value)
    print(f"  all-orders  {expansion.value.real:+.10e} "
          f"{expansion.value.imag:+.10e}i   [rel err {err:.2e}]")


def main():
    print("three routes to the same number")
    print("=" * 60)
    for t, Lam in ((1e4, 0.0), (1e6, 0.5), (1e8, 1.0)):
        show_point(t, Lam)

    # deep in the oscillatory regime the compact 1/(2 i omega) form kicks in
    print("\nlarge-omega closed form at t = 1e6:")
    for w in (6.0, 12.0, 18.0):
        d = from_omega(1e6, 0.5, 0.5, w)
        quick = leading_order_large_omega(d).value
        full = leading_order(d).value
        gap = abs(quick - full) / abs(full)
        print(f"  omega = {w:4.1f}: gap to uniform form {gap:.2e} "
              f"(decays like omega^-2)")


if __name__ == "__main__":
    main()
