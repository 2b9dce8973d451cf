import math
import sys

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("slow_ok", deadline=None, max_examples=60)
settings.load_profile("slow_ok")


def fit_loglog(xs, ys):
    """Least-squares slope and r^2 of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, icpt), *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ np.array([slope, icpt])
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


@pytest.fixture(scope="session")
def fit():
    return fit_loglog


@pytest.fixture
def derive_calls(monkeypatch):
    """Count params.derive calls as the benchmark's tracer does: a counting
    wrapper is bound under every name that holds derive in every package
    module.  Returns the list that each call appends its input to."""
    from endpoint_uniform import params
    real, calls = params.derive, []

    def counted(p):
        calls.append(p)
        return real(p)

    for name, mod in list(sys.modules.items()):
        if name == "endpoint_uniform" or name.startswith("endpoint_uniform."):
            for attr, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls
