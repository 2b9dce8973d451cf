"""Command-line front end.

Subcommands: eval, oracle, compare, sweep, terms, verify.  Results go to
stdout (JSON unless asked otherwise); failures produce a machine-readable
JSON object on stderr and exit code 1 for parameter problems, 2 for
numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import asymptotics, errors, harness, ibp
from .errors import EndpointUniformError, InvalidParam, ParameterError
from .params import ProblemParams, choose_split, derive, from_offset, split_from_a
from .quadrature import (
    PANEL_CAP_DEFAULT,
    jb1_oracle,
    jb2_oracle,
    jb_oracle,
    jtilde_oracle,
)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise InvalidParam(message)


def _add_param_flags(sp, need_t=True):
    sp.add_argument("--t", type=float, required=need_t,
                    help="large parameter t (scientific notation ok)")
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--sigma", type=float, default=0.5)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float,
                       help="lambda directly")
    group.add_argument("--Lambda", dest="Lambda", type=float,
                       help="offset from the critical lambda: lambda = lambda_c (1+Lambda)")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--m", type=int, default=None, help="expansion order (>= 4)")
    sp.add_argument("--b", type=float, default=None, help="split exponent")
    sp.add_argument("--a", type=float, default=None, help="split width directly")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sp.add_argument("--config", type=str, default=None)
    sp.add_argument("--panel-cap", dest="panel_cap", type=int,
                    default=PANEL_CAP_DEFAULT, help=argparse.SUPPRESS)


def _build_params(ns) -> ProblemParams:
    if ns.Lambda is not None:
        return from_offset(ns.t, ns.delta, ns.sigma, ns.Lambda)
    if ns.lam is not None:
        return ProblemParams(t=ns.t, delta=ns.delta, sigma=ns.sigma, lam=ns.lam)
    raise InvalidParam("one of --lambda or --Lambda is required")


def _echo_flags(ns) -> dict:
    out = {}
    for key, val in sorted(vars(ns).items()):
        if key in ("func", "subcommand"):
            continue
        if val is not None:
            out[key] = val
    return out


def _split_fields(ns, p: ProblemParams):
    d = derive(p)
    if ns.a is not None:
        return split_from_a(d, ns.a)
    m = ns.m if ns.m is not None else 4
    return choose_split(d, m, ns.b)


def _emit(payload: dict, ns):
    if ns.format == "csv" and "rows_csv" in payload:
        text = payload["rows_csv"]
    elif ns.format == "text":
        lines = []
        for key, val in payload.get("result", payload).items():
            lines.append(f"{key}: {val}")
        text = "\n".join(lines) + "\n"
    else:
        clean = {k: v for k, v in payload.items() if k != "rows_csv"}
        text = json.dumps(clean, indent=2, default=float) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _method_result(ns, p: ProblemParams) -> dict:
    method = ns.method
    if method == "oracle":
        res = jb_oracle(p, tol=ns.tol, panel_cap=ns.panel_cap)
        return res.as_dict()
    if method == "leading":
        return asymptotics.leading_order(p).as_dict()
    if method == "large-omega":
        return asymptotics.leading_order_large_omega(p).as_dict()
    if method == "all-orders":
        m = ns.m if ns.m is not None else 4
        return asymptotics.all_orders(p, m, ns.a).as_dict()
    if method == "corollary":
        return asymptotics.corollary_leading(p).as_dict()
    raise InvalidParam(f"unknown method {method!r}")


def _cmd_eval(ns) -> dict:
    p = _build_params(ns)
    return {"subcommand": "eval", "flags": _echo_flags(ns),
            "result": _method_result(ns, p)}


def _cmd_oracle(ns) -> dict:
    p = _build_params(ns)
    piece = ns.piece
    if piece == "whole":
        res = jb_oracle(p, tol=ns.tol, panel_cap=ns.panel_cap)
    elif piece == "jtilde":
        res = jtilde_oracle(p, tol=ns.tol, panel_cap=ns.panel_cap)
    else:
        dd = _split_fields(ns, p)
        fn = jb1_oracle if piece == "jb1" else jb2_oracle
        res = fn(p, dd.k, tol=ns.tol, panel_cap=ns.panel_cap)
    return {"subcommand": "oracle", "flags": _echo_flags(ns), "piece": piece,
            "result": res.as_dict()}


def _row_error(text: str) -> EndpointUniformError:
    """Rebuild the typed error a sweep row recorded as "Type: message"."""
    name, _, message = text.partition(": ")
    return getattr(errors, name)(message)


def _cmd_compare(ns) -> dict:
    cfg = harness.SweepConfig(
        t_grid=[ns.t], delta=ns.delta, sigma=ns.sigma,
        lambda_spec=("lambda", [_build_params(ns).lam]),
        methods=[ns.method], tol=ns.tol, seed=ns.seed,
        m_order=ns.m if ns.m is not None else 4,
    )
    rows = harness.run_sweep(cfg)
    row = rows[0]
    payload = {
        "subcommand": "compare",
        "flags": _echo_flags(ns),
        "result": {
            "approx_re": row.approx.real, "approx_im": row.approx.imag,
            "oracle_re": row.oracle.real, "oracle_im": row.oracle.imag,
            "abs_err": row.abs_err, "rel_err": row.rel_err,
            "budget": row.budget, "error": row.error,
        },
        "rows_csv": harness.rows_to_csv(rows),
    }
    if row.error:
        raise _row_error(row.error)
    return payload


def _cmd_sweep(ns) -> dict:
    if ns.config:
        with open(ns.config) as fh:
            cfg = harness.sweep_config_from_dict(json.load(fh))
    else:
        if ns.t is None:
            raise InvalidParam("sweep needs --config or --t")
        spec = ("critical", None)
        if ns.Lambda is not None:
            spec = ("lambda", [from_offset(ns.t, ns.delta, ns.sigma, ns.Lambda).lam])
        elif ns.lam is not None:
            spec = ("lambda", [ns.lam])
        cfg = harness.SweepConfig(
            t_grid=[ns.t], delta=ns.delta, sigma=ns.sigma, lambda_spec=spec,
            methods=[ns.method] if ns.method else ["leading"],
            tol=ns.tol, seed=ns.seed, m_order=ns.m if ns.m is not None else 4,
        )
    rows = harness.run_sweep(cfg)
    csv_text = harness.rows_to_csv(rows)
    if ns.out and ns.format == "csv":
        with open(ns.out, "w", newline="") as fh:
            fh.write(csv_text)
        out_path = ns.out
        ns.out = None  # status JSON goes to stdout, not over the CSV
        return {"subcommand": "sweep", "flags": _echo_flags(ns),
                "rows": len(rows), "out": out_path}
    return {"subcommand": "sweep", "flags": _echo_flags(ns),
            "rows": len(rows), "rows_csv": csv_text}


def _cmd_terms(ns) -> dict:
    out = {"subcommand": "terms", "flags": _echo_flags(ns)}
    if ns.N is not None:
        table = ibp.amn_table(ns.N)
        out["table"] = {"level": table.level, "entries": table.as_strings()}
    if ns.t is not None:
        p = _build_params(ns)
        dd = _split_fields(ns, p)
        j_max = ns.j_max if ns.j_max is not None else 1
        value, terms, bound = ibp.jb2_series(p, dd.k, j_max)
        out["terms"] = [
            {"j": term.j, "re": term.value.real, "im": term.value.imag,
             "magnitude_bound": term.magnitude_bound}
            for term in terms
        ]
        out["series"] = {"re": value.real, "im": value.imag, "bound": bound,
                         "k": dd.k, "a": dd.a}
    if "table" not in out and "terms" not in out:
        raise InvalidParam("terms needs --N (table dump) or --t ... (term values)")
    return out


def _cmd_verify(ns) -> dict:
    cfg = None
    if ns.config:
        with open(ns.config) as fh:
            cfg = harness.sweep_config_from_dict(json.load(fh))
    if ns.suite == "all":
        report = harness.run_all_scans(cfg)
    else:
        report = harness.property_scan(ns.suite, cfg)
        report = {"reports": [report], "pass": report["pass"]}
    report["subcommand"] = "verify"
    report["flags"] = _echo_flags(ns)
    if not report["pass"]:
        # still exit 0 only on full pass
        report["exit_hint"] = "one or more suites failed"
    return report


def build_parser() -> _Parser:
    parser = _Parser(prog="endpoint-uniform")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("eval", help="evaluate one method at one point")
    _add_param_flags(sp)
    sp.add_argument("--method", required=True,
                    choices=("oracle", "leading", "large-omega", "all-orders",
                             "corollary"))
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("oracle", help="direct quadrature with diagnostics")
    _add_param_flags(sp)
    sp.add_argument("--piece", choices=("whole", "jb1", "jb2", "jtilde"),
                    default="whole")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("compare", help="one method against the oracle")
    _add_param_flags(sp)
    sp.add_argument("--method", required=True,
                    choices=("leading", "large-omega", "all-orders", "corollary"))
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("sweep", help="comparison table over a grid")
    _add_param_flags(sp, need_t=False)
    sp.add_argument("--method", default=None,
                    choices=("oracle", "leading", "large-omega", "all-orders",
                             "corollary"))
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("terms", help="coefficient tables and boundary terms")
    _add_param_flags(sp, need_t=False)
    sp.add_argument("--N", type=int, default=None, help="table level to dump")
    sp.add_argument("--j-max", dest="j_max", type=int, default=None)
    sp.set_defaults(func=_cmd_terms)

    sp = sub.add_parser("verify", help="property-scan suites")
    _add_param_flags(sp, need_t=False)
    sp.add_argument("--suite", default="all",
                    choices=("all",) + harness.SUITES)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        payload = ns.func(ns)
        _emit(payload, ns)
        if ns.subcommand == "verify" and not payload["pass"]:
            return 2
        return 0
    except EndpointUniformError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1 if isinstance(exc, ParameterError) else 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
