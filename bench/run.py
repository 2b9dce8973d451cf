"""End-to-end benchmark of endpoint-uniform: three workloads, one caller.

    python3 bench/run.py --workload sweep-desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30     # report, all three
    python3 bench/run.py --references --seed 9                     # pin J references

Run from the repository root; the package is imported from ``src/``.  One
run builds the workload's inputs from the seed, times fresh-interpreter
set-up, then runs closed-loop passes over the inputs for ``--seconds`` and
checks every output against its reference.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it print every metric with its unit and
sample count, plus the environment record; the full record is written to
``bench/out/record-<workload>-<seed>-<trace>.json``.  Exit status 1 means a
correctness check failed, 2 that the package could not be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One caller, one thread: the sweep pool gets one worker, so row latencies
# see no contention, and BLAS gets one thread (the GK15 batches are 15-column
# products; a second BLAS thread bought no speed and made passes swing +-20 %).
THREAD_ENV = {"ENDPOINT_UNIFORM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# setup_s is the median of SETUP_RUNS fresh interpreters, started one at a
# time between passes and spread evenly over the run, so that a spell of host
# speed a few seconds long moves only a few of them.
SETUP_RUNS = 24
MIN_PASSES = 3
# wall_s is the fastest pass, and latency_ms.p90 the 90th percentile over the
# evaluations of each one's fastest time across the passes.  Every pass does
# the same work, and the shared host only ever adds time: it has spells of
# about ten seconds in which everything runs up to 1.8x slower, and at other
# times spells up to 25 % faster.  A median or an upper percentile flips with
# the share of a run such spells cover.  In 6- and 8-minute series of
# verify-all passes, one in each regime, ten consecutive 20-s windows spread
# (interquartile over median) 0.16 and 0.15 by their fastest pass, 0.20 and
# 0.34 by their median, 0.10 and 0.34 by their 90th percentile.  Medians are
# printed as well.
END_TO_END = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "latency_ms.p90": "ms",
              "digits_min": "digits", "digits_median": "digits", "peak_rss_mb": "MB"}


def _prepare_import():
    if not (ROOT / "src" / "endpoint_uniform" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no package at {ROOT / 'src' / 'endpoint_uniform'}\n")
        sys.exit(2)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import endpoint_uniform
    if Path(endpoint_uniform.__file__).resolve().parent != ROOT / "src" / "endpoint_uniform":
        sys.stderr.write(f"bench: imported {endpoint_uniform.__file__}, not the checkout\n")
        sys.exit(2)


def _percentile(values, q):
    return float(statistics.quantiles(values, n=1000, method="inclusive")[int(q * 10) - 1]) \
        if len(values) > 1 else float(values[0])


def _tail(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    label = "p50"
    for q, name in ((90, "p90"), (99, "p99"), (99.9, "p99.9")):
        if len(values) * (1 - q / 100) >= 10:
            label = name
    return label


class _Setup:
    """Fresh-interpreter set-up samples, taken between passes."""

    def __init__(self, name, seed):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child",
                    "--workload", name, "--seed", str(seed)]
        self.times = []

    def take(self, due) -> float:
        """Take samples until `due` are taken; returns the wall time spent."""
        spent = 0.0
        while len(self.times) < min(due, SETUP_RUNS):
            start = time.perf_counter()
            subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - start)
            spent += self.times[-1]
        return spent


class _Repeats:
    """Keeps the first pass's outcomes and counts later passes that differ.

    Later passes are compared and dropped, so the heap, and with it the cost
    of garbage collection, does not grow with the number of passes."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.differing = 0

    def add(self, raw):
        got = self.workload.outcomes(raw)
        if self.first is None:
            self.first = got
        elif [(o.value, o.error) for o in got] != [(o.value, o.error) for o in self.first]:
            self.differing += 1


def _passes(workload, seconds, min_passes, latencies, repeats, setup=None):
    """Closed-loop passes for `seconds` (at least min_passes).  Also returns the
    peak RSS after exactly min_passes passes: later passes only fragment the
    heap further, so a time-bounded peak would grow with machine speed.

    With `setup`, its samples are taken between passes, evenly over the
    `seconds`; the time they take is added to the deadline."""
    walls, peak_mb = [], 0.0
    begin = time.perf_counter()
    deadline = begin + seconds
    while len(walls) < min_passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        raw = workload.run_pass(latencies)
        walls.append(time.perf_counter() - start)
        if len(walls) == min_passes:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        repeats.add(raw)
        if setup is not None:
            elapsed = time.perf_counter() - begin - sum(setup.times)
            due = int(SETUP_RUNS * elapsed / seconds) if seconds > 0 else SETUP_RUNS
            deadline += setup.take(due)
    if setup is not None:
        setup.take(SETUP_RUNS)
    return walls, peak_mb


def _judge(workload, repeats):
    """Check the first pass against references; later passes must repeat it."""
    import checks
    checker = checks.Checker(workload.name)
    verdicts = [checker.check(o) for o in repeats.first]
    if repeats.differing:
        verdicts.append(checks.Verdict("wrong", [], f"{repeats.differing} passes differ "
                                                    "from the first"))
    return verdicts, checks.summarize(verdicts)


def _env(workload, seed, n_evals, summary) -> dict:
    import numpy
    import workloads
    in_program = summary["counts"]["failed"] + summary["counts"]["wrong"]
    generated = n_evals + workload.generation_failures
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{k: os.environ[k] for k in THREAD_ENV},
        "seed": seed,
        "variant": workloads.variant_of(seed),
        "evaluations_per_pass": n_evals,
        "evaluation": workload.unit,
        "failed_at_generation": workload.generation_failures,
        "failed_in_program": in_program,
        "failed_share_generation": workload.generation_failures / generated,
        "failed_share_program": in_program / n_evals,
    }


def run(name, seed, seconds, trace) -> tuple[dict, dict]:
    """One run of one workload.  Returns (result line, full record)."""
    import workloads
    workload = workloads.WORKLOADS[name](seed)
    workload.warm()
    latencies: list = []
    repeats = _Repeats(workload)
    if not trace:
        setup = _Setup(name, seed)
        walls, peak_mb = _passes(workload, seconds, MIN_PASSES, latencies, repeats, setup)
        setup = setup.times
    else:
        walls, _peak = _passes(workload, seconds / 2, 2, latencies, repeats)
        traced = _traced(workload, seconds / 2, walls, repeats)
    verdicts, summary = _judge(workload, repeats)
    counts = summary["counts"]
    n = len(repeats.first)
    wrong = [v.reason for v in verdicts if v.state == "wrong"]
    result = {"correct": not wrong and n > 0, "attempted": n,
              "failed": counts["failed"] + counts["wrong"], "metrics": {}}
    extra = {"failed_share": (result["failed"] / n if n else 1.0, "share"),
             "passes": (len(walls), "count")}
    if not trace:
        digits = summary["digits"] or [0.0]
        wall = min(walls)
        lat_ms = [x * 1e3 for x in latencies]
        per_pass = len(lat_ms) // len(walls)
        assert per_pass * len(walls) == len(lat_ms), "passes timed unequal evaluation counts"
        best_ms = [min(lat_ms[i::per_pass]) for i in range(per_pass)]
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (wall, len(walls)),
            "evals_per_s": ((n - counts["failed"]) / wall, len(walls)),
            "latency_ms.p90": (_percentile(best_ms, 90), len(best_ms)),
            "digits_min": (min(digits), len(digits)),
            "digits_median": (statistics.median(digits), len(digits)),
            "peak_rss_mb": (peak_mb, 1),
        }
        e2e = {k: (values[k][0], unit, values[k][1]) for k, unit in END_TO_END.items()}
        for metric, samples, unit, gated in (("wall_s", walls, "s", ()),
                                             ("latency_ms", lat_ms, "ms", ("p90",))):
            extra[f"{metric}.p50"] = (statistics.median(samples), unit)
            tail = _tail(samples)
            if tail not in ("p50", *gated):
                extra[f"{metric}.{tail}"] = (_percentile(samples, float(tail[1:])), unit)
    else:
        e2e = {k: (v, u, traced["passes"]) for k, (v, u) in traced["metrics"].items()}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _n) in e2e.items()}
    record = {
        "workload": name, "trace": trace, "env": _env(workload, seed, n, summary),
        "metrics": {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in e2e.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "counts": counts, "wrong": wrong[:20],
        "failures": sorted({v.reason.split(":")[0] for v in verdicts if v.state == "failed"}),
    }
    return result, record


def _traced(workload, seconds, untraced_walls, repeats) -> dict:
    import tracer as tracer_mod
    from endpoint_uniform import ibp
    tr = tracer_mod.Tracer()
    walls, latencies = [], []
    with tr:
        deadline = time.perf_counter() + seconds
        while len(walls) < 2 or time.perf_counter() < deadline:
            tr.recording = not walls          # keep the span list of the first pass
            start = time.perf_counter()
            raw = workload.run_pass(latencies)
            walls.append(time.perf_counter() - start)
            tr.recording = False
            repeats.add(raw)
    cold = []
    if tr.max_table_level >= 0:
        for _ in range(5):
            ibp._amn_entries.cache_clear()
            start = time.perf_counter()
            ibp.amn_table(tr.max_table_level)
            cold.append((time.perf_counter() - start) * 1e3)
    base = min(untraced_walls)
    overhead = 100.0 * (min(walls) - base) / base
    _write_spans(workload, tr.spans)
    metrics = tracer_mod.per_layer(tr, len(walls), statistics.median(cold) if cold else 0.0,
                                   overhead)
    return {"metrics": metrics, "passes": len(walls)}


def _write_spans(workload, spans):
    import workloads
    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl"
    with open(path, "w") as fh:
        for sid, parent, request, name, start, end in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                 "name": name, "start_ns": start, "end_ns": end}) + "\n")


def _print_record(record, result):
    env = record["env"]
    print(f"# {record['workload']} trace={record['trace']} " +
          " ".join(f"{k}={v}" for k, v in env.items()))
    for k, m in record["metrics"].items():
        print(f"{k:48s} {m['value']:14.6g} {m['unit']:8s} n={m['samples']}")
    for k, m in record["extra"].items():
        print(f"{k:48s} {m['value']:14.6g} {m['unit']}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"(typed failures: {', '.join(record['failures']) or 'none'}) "
          f"correct={result['correct']}")
    for reason in record["wrong"]:
        print(f"WRONG: {reason}")


def _report(seed, seconds) -> int:
    """Every workload, untraced and traced, each in its own interpreter."""
    import workloads
    records, ok = [], True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            ok = ok and proc.returncode == 0
            rec = workloads.OUT_DIR / f"record-{name}-{seed}-{trace}.json"
            records.append(json.loads(rec.read_text()) if rec.exists() else {"workload": name})
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"report-{seed}.json"
    out.write_text(json.dumps(records, indent=1))
    print(f"# report written to {out.relative_to(ROOT)}; all correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", action="store_true",
                    help="compute missing pinned J references for this seed, untimed")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _prepare_import()
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    if args.setup_child:
        workloads.WORKLOADS[args.workload](args.seed).warm()
        return 0
    if args.references:
        import checks
        for name, cls in workloads.WORKLOADS.items():
            if args.workload in ("all", name):
                added = checks.make_references(cls(args.seed), print)
                print(f"{name}: {added} references added")
        return 0
    if args.workload == "all":
        return _report(args.seed, args.seconds)
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"record-{args.workload}-{args.seed}-{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    _print_record(record, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
