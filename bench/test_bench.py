"""Tests of the benchmark itself: tracer coverage, predictions, metric names.

    python3 -m pytest -q bench/test_bench.py

Each workload runs two traced passes.  Every per-layer metric that the
prediction table in README.md says a workload exercises must be non-zero
there, and the layers it says are bypassed must read zero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._prepare_import()

import workloads  # noqa: E402
from tracer import Tracer, per_layer  # noqa: E402

SUBSTITUTION = [f"substitution.{f}.{k}" for f in ("zeta_of_u", "amp_F", "phi_closed")
                for k in ("calls", "us_p50")] + ["substitution.decomposition_residual.ms"]
ROUTE_TIMES = [f"asymptotics.{r}.{k}" for r in ("leading_order", "leading_order_large_omega",
                                                 "all_orders", "corollary_leading")
               for k in ("us_p50", "self_us_p50")]

EXERCISED = {
    "sweep-desk": [
        "phase.big_f.calls", "phase.big_f.nodes", "phase.big_f.ns_per_node",
        "phase.big_f.nodes_integrand", "phase.big_f.nodes_phase_cb",
        "phase.big_f.nodes_truncation",
        "quadrature.jb_oracle.calls", "quadrature.jb_oracle.ms_p50",
        "quadrature.jb_oracle.panels_mean", "quadrature.integrate_ray.nodes_per_panel",
        "quadrature.ray_truncation.calls", "harness.run_sweep.ms", "harness.rows_to_csv.ms",
        "cli.overhead_ms", "fresnel.fresnel_tail.calls", "fresnel.fresnel_tail.us_p50",
        "ibp.jb2_series.calls", "ibp.jb2_series.us_p50", "ibp.amn_table.cold_ms",
        "params.derive.calls", "params.derive.us_p50", *ROUTE_TIMES,
    ],
    "oracle-hard": [
        "phase.big_f.calls", "phase.big_f.ns_per_node", "quadrature.jb_oracle.calls",
        "quadrature.jb_oracle.ms_p50", "quadrature.jb_oracle.panels_mean",
        "quadrature.jb_oracle.nonconvergence", "quadrature.jb_oracle.failed_time_share",
        "phase.big_f.nodes_integrand", "quadrature.integrate_ray.self_ms",
    ],
    "verify-all": [
        "phase.f1.calls", "phase.f1.nodes", "phase.f1.ns_per_node",
        "fresnel.fresnel_tail_general.calls", "fresnel.fresnel_tail_general.us_p50",
        "quadrature.integrate_ray.self_ms", "quadrature.integrate_ray.nodes_per_panel",
        "quadrature.ray_truncation.us_p50", "quadrature.jtilde_oracle.ms_total",
        "quadrature.jb1_oracle.ms_total", "quadrature.jb2_oracle.ms_total",
        "cli.overhead_ms", *SUBSTITUTION,
        *[f"harness.property_scan.{s}.ms" for s in workloads.harness.SUITES],
    ],
}
BYPASSED = {
    "sweep-desk": SUBSTITUTION,
    "oracle-hard": SUBSTITUTION + ["harness.run_sweep.ms", "fresnel.fresnel_tail.calls"],
    "verify-all": ["harness.run_sweep.ms"],
}


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0)
        w.warm()
        out[name] = run._traced(w, 0.0, [1.0], run._Repeats(w))
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_predicted_layers_are_exercised(traced, name):
    metrics = traced[name]["metrics"]
    zero = [m for m in EXERCISED[name] if not metrics[m][0] > 0]
    assert not zero, f"{name}: predicted exercised but zero: {zero}"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_bypassed_layers_read_zero(traced, name):
    metrics = traced[name]["metrics"]
    nonzero = [m for m in BYPASSED[name] if metrics[m][0] != 0]
    assert not nonzero, f"{name}: predicted bypassed but non-zero: {nonzero}"


def test_node_sites_partition_the_oracle_nodes(traced):
    m = traced["sweep-desk"]["metrics"]
    sites = sum(m[f"phase.big_f.nodes_{s}"][0] for s in ("integrand", "phase_cb", "truncation"))
    assert sites <= m["phase.big_f.nodes"][0]
    # every final GK15 panel costs at least its 15 nodes
    assert 15.0 <= m["quadrature.integrate_ray.nodes_per_panel"][0] < 60.0


def test_wrappers_reach_names_imported_elsewhere():
    from endpoint_uniform import asymptotics, fresnel, harness, quadrature
    originals = (fresnel.fresnel_tail, quadrature.jb_oracle)
    with Tracer():
        assert asymptotics.fresnel_tail is fresnel.fresnel_tail is not originals[0]
        assert harness.jb_oracle is quadrature.jb_oracle is not originals[1]
    assert (fresnel.fresnel_tail, quadrature.jb_oracle) == originals
    assert (asymptotics.fresnel_tail, harness.jb_oracle) == originals


def test_benchmark_json_names_match_the_metrics(traced):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = traced["verify-all"]["metrics"]
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _v, u in layer.values()]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_per_layer_of_an_empty_trace_is_all_zero():
    assert all(v == 0 for v, _u in per_layer(Tracer(), 1, 0.0, 0.0).values())
