"""The three workloads: inputs from a seed, one timed pass, correctness checks.

Each workload drives the public API or the CLI the way a user does, one
caller, one evaluation after another (a closed loop).  The seed jitters the
grid points: every t is moved by up to +-0.01 decade and every nonzero omega
by up to +-2 %, never across a grid boundary, so the same seed gives the same
inputs and different seeds give neighbouring ones (oracle-hard keeps its grid
and only reorders it; see there).  The J references cost
seconds each, so the seed selects one of ``N_VARIANTS`` jitter draws, all of
which have pinned references.

A pass returns raw outputs; ``outcomes`` turns them into one ``Outcome`` per
evaluation after the clock has stopped, and ``check`` compares those with the
references.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import endpoint_uniform as eu
from endpoint_uniform import asymptotics, cli, harness
from endpoint_uniform.errors import EndpointUniformError

N_VARIANTS = 8
DELTA = 0.5
SIGMA = 0.5
TOL = 1e-10
M_ORDER = 4
EPS = 2.0**-52

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REF_DIR = BENCH_DIR / "references"
CONFIG_FILES = ("large_omega_gap.json", "leading_critical.json", "omega_scaling.json")


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and hash seeds
    return random.Random(f"{name}/{variant_of(seed)}")


def _t_jitter(rng, exponent: float) -> float:
    return 10.0 ** (exponent + rng.uniform(-0.01, 0.01))


def _rel_jitter(rng, value: float) -> float:
    return value * (1.0 + rng.uniform(-0.02, 0.02)) if value else 0.0


def key(t: float, lam: float) -> str:
    """Reference key: the values as the sweep CSV prints them."""
    return f"{t:.17g},{lam:.17g}"


@dataclass
class Outcome:
    """One evaluation: what was asked, what came back, what it claims."""

    route: str
    t: float
    lam: float
    value: complex | None = None
    error: str = ""
    abs_tol: float = 0.0          # absolute accuracy the program claims (oracle)
    extra: dict = field(default_factory=dict)


def _error_text(exc: Exception) -> str:
    """'Name: message' for the library's typed errors, 'untyped Name: ...' otherwise."""
    prefix = "" if isinstance(exc, EndpointUniformError) else "untyped "
    return f"{prefix}{type(exc).__name__}: {exc}"


class Workload:
    name = ""
    unit = "evaluation"

    def __init__(self, seed: int):
        self.seed = seed
        self.generation_failures = 0
        self.inputs = self.build()

    def build(self):
        raise NotImplementedError

    def warm(self):
        """One call per route, so caches and imports are paid before timing."""
        raise NotImplementedError

    def run_pass(self, latencies: list):
        """Evaluate every input once; append per-evaluation seconds to latencies."""
        raise NotImplementedError

    def outcomes(self, raw) -> list:
        raise NotImplementedError

    def reference_points(self):
        """(t, lam, phi) of every point that needs a pinned J reference."""
        return []

    @contextlib.contextmanager
    def timing_shim(self, module, name, latencies):
        """Time each call of module.name into latencies for the duration."""
        original = getattr(module, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - start)

        setattr(module, name, timed)
        try:
            yield
        finally:
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# sweep-desk: `endpoint-uniform sweep` via cli.main
# ---------------------------------------------------------------------------


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class SweepDesk(Workload):
    name = "sweep-desk"
    unit = "sweep row"
    methods = ("oracle", "leading", "all-orders", "corollary")

    def build(self):
        rng = _rng(self.name, self.seed)
        config = {
            "t_grid": [_t_jitter(rng, e) for e in (4, 5, 6, 7, 8)],
            "delta": DELTA,
            "sigma": SIGMA,
            "lambda_spec": {"kind": "omega", "values": [
                _rel_jitter(rng, w) for w in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]},
            "methods": list(self.methods),
            "tol": TOL,
            "seed": self.seed,
            "m_order": M_ORDER,
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"sweep-desk-{self.seed}.json"
        path.write_text(json.dumps(config, indent=1))
        paths = [path] + [ROOT / "configs" / f for f in CONFIG_FILES]
        self.configs = []
        for p in paths:
            cfg = harness.sweep_config_from_dict(json.loads(p.read_text()))
            rows = sum(len(cfg.lambda_values(t)) for t in cfg.t_grid) * len(cfg.methods)
            self.configs.append((str(p), cfg, rows))
        return [["sweep", "--config", p, "--format", "csv"] for p, _c, _n in self.configs]

    def warm(self):
        p = eu.from_offset(1e4, DELTA, SIGMA, 0.5)
        eu.jb_oracle(p)
        asymptotics.leading_order(p)
        asymptotics.all_orders(p, M_ORDER)
        asymptotics.corollary_leading(p)
        _run_cli(["sweep", "--t", "1e4", "--Lambda", "0.5", "--method", "leading",
                  "--format", "csv"])

    def run_pass(self, latencies):
        out = []
        with self.timing_shim(harness, "_run_point", latencies):
            for argv in self.inputs:
                out.append(_run_cli(argv))
        return out

    def outcomes(self, raw):
        res = []
        for (code, text), (_p, cfg, n_rows) in zip(raw, self.configs):
            rows = list(csv.DictReader(io.StringIO(text))) if code == 0 else []
            for row in rows:
                o = Outcome(route=row["method"], t=float(row["t"]), lam=float(row["lambda"]),
                            error=row["error"], abs_tol=10.0 * cfg.tol)
                if not o.error:
                    o.value = complex(float(row["approx_re"]), float(row["approx_im"]))
                    o.extra["oracle"] = complex(float(row["oracle_re"]), float(row["oracle_im"]))
                res.append(o)
            for _ in range(n_rows - len(rows)):       # rows the CLI never printed
                res.append(Outcome(route="missing", t=math.nan, lam=math.nan,
                                   error=f"cli exit {code}"))
        return res

    def reference_points(self):
        pts = []
        for _p, cfg, _n in self.configs:
            for t in cfg.t_grid:
                for lam in cfg.lambda_values(t):
                    pts.append((t, lam, eu.select_phi(lam)))
        return pts


# ---------------------------------------------------------------------------
# oracle-hard: jb_oracle at its default tolerance, t = 1e9 .. 1e14
# ---------------------------------------------------------------------------


class OracleHard(Workload):
    name = "oracle-hard"
    unit = "oracle point"

    def build(self):
        # The grid itself is fixed: whether the Lambda = 0 oracle converges
        # flips within 0.01 decade of t = 1e11, and at t >= 1e13 the digits
        # reached move by +-0.3 with a 2 % change of Lambda, so jitter would
        # let the seed decide the failure count and digits_min.  The seed
        # orders the requests instead.
        pts = [eu.from_offset(10.0**e, DELTA, SIGMA, big_l)
               for e in range(9, 15) for big_l in (0.0, 0.5, 10.0)]
        _rng(self.name, self.seed).shuffle(pts)
        return pts

    def warm(self):
        eu.jb_oracle(eu.from_offset(1e9, DELTA, SIGMA, 0.5))

    def run_pass(self, latencies):
        out = []
        for p in self.inputs:
            start = time.perf_counter()
            try:
                out.append(eu.jb_oracle(p))
            except Exception as exc:  # untyped errors are judged, not fatal
                out.append(exc)
            latencies.append(time.perf_counter() - start)
        return out

    def outcomes(self, raw):
        res = []
        for p, r in zip(self.inputs, raw):
            o = Outcome(route="oracle", t=p.t, lam=p.lam)
            if isinstance(r, Exception):
                o.error = _error_text(r)
            else:
                o.value = r.value
                o.abs_tol = 10.0 * max(TOL, r.abs_error_estimate + r.truncation_bound)
            res.append(o)
        return res

    def reference_points(self):
        return [(p.t, p.lam, eu.select_phi(p.lam)) for p in self.inputs]


# ---------------------------------------------------------------------------
# verify-all: `endpoint-uniform verify --suite all` via cli.main
# ---------------------------------------------------------------------------


class VerifyAll(Workload):
    name = "verify-all"
    unit = "scan (latency: per verify command)"

    def build(self):
        rng = _rng(self.name, self.seed)
        config = {
            "t_grid": [_t_jitter(rng, e) for e in (4, 5, 6, 7, 8)],
            "delta": DELTA,
            "sigma": SIGMA,
            "tol": TOL,
            "seed": variant_of(self.seed),
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"verify-all-{self.seed}.json"
        path.write_text(json.dumps(config, indent=1))
        self.config = harness.sweep_config_from_dict(config)
        return [["verify", "--suite", "all", "--config", str(path)]]

    def warm(self):
        harness.property_scan("ExponentIdentity", self.config)
        eu.jtilde_oracle(eu.from_offset(200.0, DELTA, SIGMA, 0.0), tol=1e-7)

    def run_pass(self, latencies):
        # One latency sample per command: six scans of very unequal cost make
        # a per-scan median land between two scans and jump between them.
        out = []
        for argv in self.inputs:
            start = time.perf_counter()
            out.append(_run_cli(argv))
            latencies.append(time.perf_counter() - start)
        return out

    def outcomes(self, raw):
        res = []
        for code, text in raw:
            reports = json.loads(text)["reports"] if text else []
            for rep in reports:
                o = Outcome(route=rep["suite"], t=math.nan, lam=math.nan)
                if not rep["pass"] or not math.isfinite(rep["worst_margin"]):
                    o.error = f"suite failed: worst margin {rep['worst_margin']}"
                else:
                    o.value = complex(rep["worst_margin"])
                o.extra = {"point": rep["worst_point"], "exit": code}
                res.append(o)
            for _ in range(len(harness.SUITES) - len(reports)):
                res.append(Outcome(route="missing", t=math.nan, lam=math.nan,
                                   error=f"cli exit {code}"))
        return res


WORKLOADS = {w.name: w for w in (SweepDesk, OracleHard, VerifyAll)}
