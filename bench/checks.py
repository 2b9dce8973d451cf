"""Correctness gate: every outcome against its reference.

An outcome is one of

  * ok     -- a finite value within the accuracy the program claims;
  * failed -- the program raised one of its own typed errors, such as
              ``NonConvergence``; counted in ``failed`` and ``failed_share``,
              but the program said so;
  * wrong  -- a non-finite value, a value outside its claimed accuracy, a
              verify scan that reports a violated invariant, a row the CLI
              never printed, or a point without a pinned reference.  Any
              wrong outcome makes the run incorrect.

Claimed accuracy: the oracle's absolute tolerance (10x, the estimates being
estimates); for a formula route, 1e-9 relative plus the phase floor
64 eps |phase| that no double evaluation of exp(i phase) can beat; for a
verify scan, 1e-6 relative on the reported worst value.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from endpoint_uniform import select_phi

import refs
from workloads import DELTA, EPS, M_ORDER, REF_DIR, SIGMA, key

FORMULA_RTOL = 1e-9
SCAN_RTOL = 1e-6
MIN_AGREEMENT = 30.0      # digits two independent quadratures must share


@dataclass
class Verdict:
    state: str            # "ok" | "failed" | "wrong"
    digits: list          # correct digits of each value checked
    reason: str = ""


def ref_path(name: str):
    return REF_DIR / f"{name}.json"


def load_pinned(name: str) -> dict:
    path = ref_path(name)
    if not path.exists():
        return {}
    raw = json.loads(path.read_text())
    with mp.workdps(refs.REF_DIGITS):
        return {k: (mp.mpc(mp.mpf(v[0]), mp.mpf(v[1])), v[2]) for k, v in raw.items()}


def make_references(workload, log) -> int:
    """Compute and pin the J references this workload's inputs lack."""
    path = ref_path(workload.name)
    raw = json.loads(path.read_text()) if path.exists() else {}
    added = 0
    for t, lam, phi in workload.reference_points():
        k = key(t, lam)
        if k in raw:
            continue
        value, agree = refs.j_reference(t, DELTA, SIGMA, lam, phi)
        raw[k] = [mp.nstr(value.real, refs.REF_DIGITS), mp.nstr(value.imag, refs.REF_DIGITS),
                  round(agree, 1)]
        added += 1
        log(f"  {k}: {mp.nstr(value, 12)} (two quadratures agree to {agree:.1f} digits)")
        REF_DIR.mkdir(exist_ok=True)
        path.write_text(_dump(raw))
    return added


def _dump(raw: dict) -> str:
    """One reference per line, sorted, so diffs of a regeneration stay readable."""
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(raw.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


class Checker:
    """Holds references (pinned J values, cached closed forms) for one workload."""

    def __init__(self, name: str):
        self.name = name
        self.pinned = load_pinned(name) if name in ("sweep-desk", "oracle-hard") else {}
        self._formula = {}

    def formula(self, route, t, lam):
        k = (route, t, lam)
        if k not in self._formula:
            self._formula[k] = refs.formula_reference(route, t, DELTA, SIGMA, lam, M_ORDER)
        return self._formula[k]

    def _oracle(self, value, t, lam, abs_tol):
        ref = self.pinned.get(key(t, lam))
        if ref is None:
            return False, None, f"no pinned reference for t,lambda={key(t, lam)}"
        ref, agree = ref
        if agree < MIN_AGREEMENT:
            return False, None, f"reference for {key(t, lam)} agrees to only {agree} digits"
        with mp.workdps(refs.REF_DIGITS):
            gap = float(abs(mp.mpc(value) - ref))
        d = refs.digits(value, ref)
        if gap > abs_tol:
            return False, d, f"oracle off by {gap:.3e} > {abs_tol:.1e}"
        return True, d, ""

    def _closed_form(self, route, value, t, lam):
        ref, phase = self.formula(route, t, lam)
        d = refs.digits(value, ref)
        rtol = FORMULA_RTOL + 64.0 * EPS * float(phase)
        with mp.workdps(refs.REF_DIGITS):
            rel = float(abs(mp.mpc(value) - ref) / abs(ref))
        if rel > rtol:
            return False, d, f"{route} off by {rel:.3e} relative > {rtol:.1e}"
        return True, d, ""

    def _scan(self, suite, value, point):
        if suite == "FresnelAsym":
            got, ref = point["slope"], refs.fresnel_asym_slope(point["targets"])
        elif suite in ("ImFNonneg", "PhaseLowerBound"):
            phi = select_phi(point["lambda"])
            z = complex((1.0 - point["k"]) + point["R"] * np.exp(1j * phi))
            if suite == "ImFNonneg":
                ref = refs.im_big_f(z, point["lambda"])
            else:
                ref = refs.phase_bound_margin(z, point["lambda"], point["t"], DELTA,
                                              point["k"], phi)
            got = value.real
        else:
            return True, None, ""
        d = refs.digits(got, ref)
        with mp.workdps(refs.REF_DIGITS):
            rel = float(abs(got - ref) / abs(ref))
        if rel > SCAN_RTOL:
            return False, d, f"{suite} worst value off by {rel:.3e} relative"
        return True, d, ""

    def check(self, o) -> Verdict:
        if o.error:
            typed = o.error.split(":", 1)[0]
            state = "failed" if typed.isidentifier() else "wrong"
            return Verdict(state, [], o.error)
        values = [o.value] + ([o.extra["oracle"]] if "oracle" in o.extra else [])
        if not all(cmath.isfinite(v) for v in values):
            return Verdict("wrong", [], "non-finite value")
        if self.name == "verify-all":
            results = [self._scan(o.route, o.value, o.extra["point"])]
        elif o.route == "oracle":
            results = [self._oracle(o.value, o.t, o.lam, o.abs_tol)]
        else:
            results = [self._closed_form(o.route, o.value, o.t, o.lam)]
            if "oracle" in o.extra:
                results.append(self._oracle(o.extra["oracle"], o.t, o.lam, o.abs_tol))
        digits = [d for _ok, d, _r in results if d is not None]
        reasons = [r for ok, _d, r in results if not ok]
        return Verdict("wrong" if reasons else "ok", digits, "; ".join(reasons))


def summarize(verdicts) -> dict:
    counts = {"ok": 0, "failed": 0, "wrong": 0}
    digits = []
    for v in verdicts:
        counts[v.state] += 1
        digits.extend(v.digits)
    return {"counts": counts, "digits": digits}
