"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules (and
``quadrature._gk_batch``, the GK15 panel batch) with a wrapper that records a
span: name, start, end, parent, and the request it belongs to (the id of its
root span).  Modules that imported a function by name (``from .fresnel import
fresnel_tail``) hold their own reference, so the wrapper is bound under every
name in every package module that refers to the original.  ``uninstall``
restores all of them.

Counts are kept at the same boundaries: nodes for the phase evaluators (with
the enclosing quadrature span that asked for them), panels for the
quadrature calls, typed failures and the time spent in calls that raised.
Aggregates cover every traced call; the full span list is kept only while
``recording`` is on (one pass), to bound memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "endpoint_uniform"
LAYERS = ("phase", "quadrature", "fresnel", "ibp", "substitution", "asymptotics",
          "params", "harness", "cli")
PRIVATE = {("quadrature", "_gk_batch"): "quadrature.gk_batch"}
NODE_FUNCTIONS = ("phase.big_f", "phase.f1", "phase.d_f", "phase.d_f1", "phase.amp_g")
# Enclosing span -> where a phase node was spent.
SITES = {"quadrature.gk_batch": "integrand",
         "quadrature.ray_truncation": "truncation",
         "quadrature.integrate_ray": "phase_cb",
         "quadrature.integrate_segment": "phase_cb"}
QUADRATURE_CALLS = ("quadrature.jb_oracle", "quadrature.jb1_oracle", "quadrature.jb2_oracle",
                    "quadrature.jtilde_oracle", "quadrature.phi_oracle",
                    "quadrature.integrate_ray", "quadrature.integrate_segment")


class Stat:
    __slots__ = ("calls", "ns", "self_ns", "durations", "self_durations", "nodes", "sites",
                 "panels", "failed_ns", "nonconvergence")

    def __init__(self):
        self.calls = self.ns = self.self_ns = self.nodes = self.panels = 0
        self.failed_ns = self.nonconvergence = 0
        self.durations = array("q")
        self.self_durations = array("q")
        self.sites = {}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list = []           # open frames: [span id, child ns, request id, name]
        self.spans: list = []           # (id, parent, request, name, start_ns, end_ns)
        self.recording = False
        self.max_table_level = -1
        self._next_id = 0
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_")
                label = PRIVATE.get((layer, attr))
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (public or label):
                    wrappers[id(obj)] = (obj, self._wrap(label or f"{layer}.{attr}", obj))
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self.stack
        clock = time.perf_counter_ns
        scan = name == "harness.property_scan"     # one span name per suite
        fixed = None if scan else self._stat(name)
        counted = (name in NODE_FUNCTIONS or name in QUADRATURE_CALLS
                   or name == "ibp.amn_table")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0] if args else kwargs.get('suite')}" if scan else name
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            sid = tracer._next_id
            frame = [sid, 0, parent[2] if parent else sid, label]
            stack.append(frame)
            out = err = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = exc
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                st = fixed or tracer._stat(label)
                st.calls += 1
                st.ns += dur
                st.self_ns += dur - frame[1]
                st.durations.append(dur)
                st.self_durations.append(dur - frame[1])
                if err is not None:
                    tracer._failed(st, name, err)
                if counted:
                    tracer._count(st, name, args, out)
                if tracer.recording:
                    tracer.spans.append((sid, parent[0] if parent else None, frame[2],
                                         label, start, end))

        return traced

    def _stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    @staticmethod
    def _failed(st, name, err):
        st.failed_ns += st.durations[-1]
        if type(err).__name__ == "NonConvergence":
            st.nonconvergence += 1
            result = getattr(err, "result", None)
            if result is not None and name in QUADRATURE_CALLS:
                st.panels += result.panels

    def _count(self, st, name, args, out):
        if name in NODE_FUNCTIONS:
            z = args[0] if args else None
            n = z.size if isinstance(z, np.ndarray) else int(np.size(z))
            st.nodes += n
            site = "other"
            for frame in reversed(self.stack):
                if frame[3] in SITES:
                    site = SITES[frame[3]]
                    break
            st.sites[site] = st.sites.get(site, 0) + n
            if site in ("integrand", "phase_cb"):
                for frame in reversed(self.stack):
                    if frame[3] == "quadrature.integrate_ray":
                        self._stat(frame[3]).nodes += n
                        break
        elif name == "ibp.amn_table":
            self.max_table_level = max(self.max_table_level, int(args[0]) if args else 0)
        elif out is not None:
            st.panels += out.panels


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SUITES = ("ImFNonneg", "PhaseLowerBound", "SplitConsistency", "FresnelAsym",
          "CovDecomposition", "ExponentIdentity")
ROUTES = ("leading_order", "leading_order_large_omega", "all_orders", "corollary_leading")


def _median(values) -> float:
    return float(np.median(np.frombuffer(values, dtype=np.int64))) if len(values) else 0.0


def per_layer(tracer: Tracer, passes: int, cold_ms: float, overhead_pct: float) -> dict:
    """name -> (value, unit).  Counts and totals are per pass; p50s over all calls."""
    empty = Stat()

    def st(name):
        return tracer.stats.get(name, empty)

    def per_pass(x):
        return x / passes

    def us_p50(name, self_time=False):
        s = st(name)
        return _median(s.self_durations if self_time else s.durations) / 1e3

    m = {}
    for fn in ("phase.big_f", "phase.f1"):
        s = st(fn)
        m[f"{fn}.calls"] = (per_pass(s.calls), "count")
        m[f"{fn}.nodes"] = (per_pass(s.nodes), "count")
        m[f"{fn}.ns_per_node"] = (s.ns / s.nodes if s.nodes else 0.0, "ns")
    for site in ("integrand", "phase_cb", "truncation"):
        m[f"phase.big_f.nodes_{site}"] = (per_pass(st("phase.big_f").sites.get(site, 0)), "count")

    s = st("quadrature.jb_oracle")
    m["quadrature.jb_oracle.calls"] = (per_pass(s.calls), "count")
    m["quadrature.jb_oracle.ms_p50"] = (us_p50("quadrature.jb_oracle") / 1e3, "ms")
    m["quadrature.jb_oracle.panels_mean"] = (s.panels / s.calls if s.calls else 0.0, "count")
    m["quadrature.jb_oracle.nonconvergence"] = (per_pass(s.nonconvergence), "count")
    m["quadrature.jb_oracle.failed_time_share"] = (s.failed_ns / s.ns if s.ns else 0.0, "share")
    s = st("quadrature.integrate_ray")
    m["quadrature.integrate_ray.calls"] = (per_pass(s.calls), "count")
    m["quadrature.integrate_ray.self_ms"] = (per_pass(s.self_ns) / 1e6, "ms")
    m["quadrature.integrate_ray.nodes_per_panel"] = (s.nodes / s.panels if s.panels else 0.0,
                                                     "count")
    m["quadrature.ray_truncation.calls"] = (per_pass(st("quadrature.ray_truncation").calls),
                                            "count")
    m["quadrature.ray_truncation.us_p50"] = (us_p50("quadrature.ray_truncation"), "us")
    for oracle in ("jtilde_oracle", "jb1_oracle", "jb2_oracle"):
        m[f"quadrature.{oracle}.ms_total"] = (per_pass(st(f"quadrature.{oracle}").ns) / 1e6, "ms")

    for fn in ("fresnel.fresnel_tail", "fresnel.fresnel_tail_general", "ibp.jb2_series",
               "substitution.zeta_of_u", "substitution.amp_F", "substitution.phi_closed",
               "params.derive"):
        m[f"{fn}.calls"] = (per_pass(st(fn).calls), "count")
        m[f"{fn}.us_p50"] = (us_p50(fn), "us")
    m["ibp.amn_table.cold_ms"] = (cold_ms, "ms")
    m["substitution.decomposition_residual.ms"] = (
        per_pass(st("substitution.decomposition_residual").ns) / 1e6, "ms")
    for route in ROUTES:
        m[f"asymptotics.{route}.us_p50"] = (us_p50(f"asymptotics.{route}"), "us")
        m[f"asymptotics.{route}.self_us_p50"] = (us_p50(f"asymptotics.{route}", True), "us")

    m["harness.run_sweep.ms"] = (per_pass(st("harness.run_sweep").ns) / 1e6, "ms")
    m["harness.rows_to_csv.ms"] = (per_pass(st("harness.rows_to_csv").ns) / 1e6, "ms")
    for suite in SUITES:
        m[f"harness.property_scan.{suite}.ms"] = (
            per_pass(st(f"harness.property_scan.{suite}").ns) / 1e6, "ms")
    cli_ns = st("cli.main").ns - st("harness.run_sweep").ns - st("harness.run_all_scans").ns
    m["cli.overhead_ms"] = (per_pass(cli_ns) / 1e6 if st("cli.main").calls else 0.0, "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
