"""
Measure the error-decay exponents of the closed forms against the
quadrature oracle and fit them on a log-log scale.

Three fits:
  1. leading order at the critical point, error vs t
  2. two-term split form at fixed offset, error vs t (slope -1/2 - delta/4)
  3. large-omega form vs the uniform form, gap vs omega (slope -2)

The first grid is loaded from the pinned config shipped in configs/ so the
numbers here are reproducible byte for byte.
"""

import json
import os

import numpy as np

from endpoint_uniform import (
    SweepConfig,
    fit_error_slope,
    from_offset,
    run_sweep,
    sweep_config_from_dict,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")


def fit_from_config(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        cfg = sweep_config_from_dict(json.load(fh))
    rows = run_sweep(cfg)
    for r in rows:
        if r.error:
            raise RuntimeError(f"sweep row failed: {r.error}")
    return rows


def main():
    print("1) leading-order error at lambda = lambda_c (pinned config)")
    rows = fit_from_config("leading_critical.json")
    for r in rows:
        print(f"   t = {r.t:8.1e}   abs err = {r.abs_err:.3e}   "
              f"rel err = {r.rel_err:.3e}")
    slope, r2 = fit_error_slope(rows)
    print(f"   fitted slope of the absolute error {slope:+.3f} "
          f"(r^2 = {r2:.4f})")

    print("\n2) two-term split form at Lambda = 0.5")
    # a fixed offset means lambda changes with t, so build the rows one
    # point at a time instead of through a single config
    rows = []
    for t in (1e4, 1e5, 1e6, 1e7, 1e8):
        lam = from_offset(t, 0.5, 0.5, 0.5).lam
        cfg = SweepConfig(t_grid=[t], lambda_spec=("lambda", [lam]),
                          methods=["corollary"], tol=1e-10)
        rows.extend(run_sweep(cfg))
    for r in rows:
        print(f"   t = {r.t:8.1e}   abs err = {r.abs_err:.3e}")
    slope, r2 = fit_error_slope(rows)
    print(f"   fitted slope {slope:+.3f} (r^2 = {r2:.4f}); "
          f"the guaranteed rate is -(1/2 + delta/4) = -0.625")

    print("\n3) gap between the two leading forms vs omega (pinned config)")
    rows = fit_from_config("large_omega_gap.json")
    by_omega = {}
    for r in rows:
        by_omega.setdefault(round(r.omega, 6), {})[r.method] = r.approx
    gaps = []
    for w in sorted(by_omega):
        pair = by_omega[w]
        gap = abs(pair["large-omega"] - pair["leading"]) / abs(pair["leading"])
        gaps.append((w, gap))
        print(f"   omega = {w:5.2f}   gap = {gap:.3e}")
    ws, gs = zip(*gaps)
    slope = np.polyfit(np.log(ws), np.log(gs), 1)[0]
    print(f"   fitted slope {slope:+.3f} (expect -2)")


if __name__ == "__main__":
    main()
