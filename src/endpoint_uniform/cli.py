"""Command-line front end.

Subcommands: eval, oracle, compare, sweep, terms, verify.  Results go to
stdout (JSON unless asked otherwise); failures produce a machine-readable
JSON object on stderr and exit code 1 for parameter problems, 2 for
numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import harness, ibp
from .errors import EndpointUniformError, InvalidParam, ParameterError
from .params import DerivedParams, ProblemParams, choose_split, derive, from_offset, split_from_a
from .quadrature import DEFAULT_TOL, jb1_oracle, jb2_oracle, jb_oracle, jtilde_oracle


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise InvalidParam(message)


# defaults of the valued flags; sweep applies them itself when it has no config
_DEFAULTS = {"delta": 0.5, "sigma": 0.5, "tol": DEFAULT_TOL}


def _add_point(sp, need_t=True):
    sp.add_argument("--t", type=float, required=need_t,
                    help="large parameter t (scientific notation ok)")
    sp.add_argument("--delta", type=float, default=_DEFAULTS["delta"])
    sp.add_argument("--sigma", type=float, default=_DEFAULTS["sigma"])
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float,
                       help="lambda directly")
    group.add_argument("--Lambda", dest="Lambda", type=float,
                       help="offset from the critical lambda: lambda = lambda_c (1+Lambda)")


def _add_tol(sp):
    sp.add_argument("--tol", type=float, default=_DEFAULTS["tol"])


def _add_order(sp):
    sp.add_argument("--m", type=int, default=None, help="expansion order (>= 4)")


def _order(ns) -> int:
    """--m, or the default expansion order if it was not given."""
    return harness.DEFAULT_ORDER if ns.m is None else ns.m


def _j_max(ns) -> int:
    """--j-max, or the one boundary term that terms keeps if it was not given."""
    return 1 if ns.j_max is None else ns.j_max


def _add_split(sp):
    _add_order(sp)
    sp.add_argument("--b", type=float, default=None, help="split exponent")
    sp.add_argument("--a", type=float, default=None, help="split width directly")


def _add_output(sp, formats=("json", "text")):
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=formats, default="json")


def _load_config(path) -> harness.SweepConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParam(f"cannot read config {path}: {exc}") from exc
    return harness.sweep_config_from_dict(data)


def _build_params(ns) -> DerivedParams:
    """The point record from --Lambda or --lambda, derived once."""
    if ns.Lambda is not None:
        return from_offset(ns.t, ns.delta, ns.sigma, ns.Lambda)
    if ns.lam is not None:
        return derive(ProblemParams(t=ns.t, delta=ns.delta, sigma=ns.sigma, lam=ns.lam))
    raise InvalidParam("one of --lambda or --Lambda is required")


def _echo_flags(ns) -> dict:
    return {key: val for key, val in sorted(vars(ns).items())
            if key not in ("func", "subcommand") and val is not None}


_SPLIT_FLAGS = ("m", "b", "a")
_FLAG_NAMES = {"lam": "--lambda", "j_max": "--j-max"}


def _refuse(ns, keys, reader: str):
    """Refuse, naming them, the flags among keys that were given: reader
    never reads them."""
    given = [key for key in keys if getattr(ns, key) is not None]
    if given:
        names = ", ".join(_FLAG_NAMES.get(key, "--" + key) for key in given)
        raise InvalidParam(f"{reader} reads no {names}")


def _split_fields(ns, d: DerivedParams, order_read=False):
    """The split from --a, or else from --m and --b; order_read says whether
    the caller reads --m as the expansion order even when --a is given."""
    if ns.a is not None:
        _refuse(ns, ("b",) if order_read else ("m", "b"), "the split from --a")
        return split_from_a(d, ns.a)
    return choose_split(d, _order(ns), ns.b)


def _emit(payload: dict, ns):
    if ns.format == "csv" and "rows_csv" in payload:
        text = payload["rows_csv"]
    elif ns.format == "text":
        text = "".join(f"{key}: {val}\n" for key, val in payload.get("result", payload).items())
    else:
        clean = {k: v for k, v in payload.items() if k != "rows_csv"}
        text = json.dumps(clean, indent=2, default=float) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(ns) -> dict:
    if ns.method != "all-orders":
        _refuse(ns, _SPLIT_FLAGS, f"eval --method {ns.method}")
    d = _build_params(ns)
    split = _split_fields(ns, d, order_read=True) if ns.method == "all-orders" else None
    result = harness.eval_method(ns.method, d, _order(ns), split)[0]
    return {"subcommand": "eval", "flags": _echo_flags(ns),
            "result": result.as_dict()}


def _cmd_oracle(ns) -> dict:
    piece = ns.piece
    if piece in ("whole", "jtilde"):
        _refuse(ns, _SPLIT_FLAGS, f"oracle --piece {piece}")
    d = _build_params(ns)
    if piece == "whole":
        res = jb_oracle(d, tol=ns.tol)
    elif piece == "jtilde":
        res = jtilde_oracle(d, tol=ns.tol)
    else:
        split = _split_fields(ns, d)
        fn = jb1_oracle if piece == "jb1" else jb2_oracle
        res = fn(d, split, tol=ns.tol)
    return {"subcommand": "oracle", "flags": _echo_flags(ns), "piece": piece,
            "result": res.as_dict()}


def _cmd_compare(ns) -> dict:
    cfg = harness.SweepConfig(
        t_grid=[ns.t], delta=ns.delta, sigma=ns.sigma,
        lambda_spec=("lambda", [_build_params(ns).lam]),
        methods=[ns.method], tol=ns.tol,
        m_order=_order(ns),
    )
    rows = harness.run_sweep(cfg, raise_errors=True)
    row = rows[0]
    return {
        "subcommand": "compare",
        "flags": _echo_flags(ns),
        "result": {
            "approx_re": row.approx.real, "approx_im": row.approx.imag,
            "oracle_re": row.oracle.real, "oracle_im": row.oracle.imag,
            "abs_err": row.abs_err, "rel_err": row.rel_err,
            # JSON has no NaN: a route that states no budget gives null
            "budget": None if math.isnan(row.budget) else row.budget, "error": row.error,
        },
        "rows_csv": harness.rows_to_csv(rows),
    }


# sweep flags that describe the grid, which a config file describes instead
_GRID_FLAGS = ("t", "delta", "sigma", "lam", "Lambda", "method", "tol", "m")


def _cmd_sweep(ns) -> dict:
    if ns.config:
        if any(getattr(ns, key) is not None for key in _GRID_FLAGS):
            raise InvalidParam("sweep --config takes no --t, --delta, --sigma, "
                               "--lambda, --Lambda, --method, --tol or --m")
        cfg = _load_config(ns.config)
    else:
        if ns.t is None:
            raise InvalidParam("sweep needs --config or --t")
        for key, val in _DEFAULTS.items():
            if getattr(ns, key) is None:
                setattr(ns, key, val)
        spec = ("critical", None)
        if ns.Lambda is not None:
            spec = ("lambda", [from_offset(ns.t, ns.delta, ns.sigma, ns.Lambda).lam])
        elif ns.lam is not None:
            spec = ("lambda", [ns.lam])
        cfg = harness.SweepConfig(
            t_grid=[ns.t], delta=ns.delta, sigma=ns.sigma, lambda_spec=spec,
            methods=[ns.method] if ns.method else ["leading"],
            tol=ns.tol, m_order=_order(ns),
        )
    rows = harness.run_sweep(cfg)
    if ns.out and ns.format == "csv":
        harness.write_csv(rows, ns.out)
        out_path = ns.out
        ns.out = None  # status JSON goes to stdout, not over the CSV
        return {"subcommand": "sweep", "flags": _echo_flags(ns),
                "rows": len(rows), "out": out_path}
    return {"subcommand": "sweep", "flags": _echo_flags(ns),
            "rows": len(rows), "rows_csv": harness.rows_to_csv(rows)}


def _cmd_terms(ns) -> dict:
    if ns.t is None:
        _refuse(ns, ("j_max", "lam", "Lambda") + _SPLIT_FLAGS, "terms without --t")
    out = {"subcommand": "terms", "flags": _echo_flags(ns)}
    if ns.N is not None:
        table = ibp.amn_table(ns.N)
        out["table"] = {"level": table.level, "entries": table.as_strings()}
    if ns.t is not None:
        d = _build_params(ns)
        split = _split_fields(ns, d)
        value, terms, bound = ibp.jb2_series(d, split, _j_max(ns))
        out["terms"] = [
            {"j": term.j, "re": term.value.real, "im": term.value.imag,
             "magnitude_bound": term.magnitude_bound}
            for term in terms
        ]
        out["series"] = {"re": value.real, "im": value.imag, "bound": bound,
                         "k": split.k, "a": split.a}
    if "table" not in out and "terms" not in out:
        raise InvalidParam("terms needs --N (table dump) or --t ... (term values)")
    return out


def _cmd_verify(ns) -> dict:
    cfg = _load_config(ns.config) if ns.config else None
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
    _add_point(sp)
    sp.add_argument("--method", required=True, choices=harness.APPROXIMATIONS)
    _add_split(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("oracle", help="direct quadrature with diagnostics")
    _add_point(sp)
    sp.add_argument("--piece", choices=("whole", "jb1", "jb2", "jtilde"),
                    default="whole")
    _add_tol(sp)
    _add_split(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("compare", help="one method against the oracle")
    _add_point(sp)
    sp.add_argument("--method", required=True, choices=harness.APPROXIMATIONS)
    _add_tol(sp)
    _add_order(sp)
    _add_output(sp, ("json", "csv", "text"))
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("sweep", help="comparison table over a grid")
    sp.add_argument("--config", type=str, default=None)
    _add_point(sp, need_t=False)
    sp.add_argument("--method", default=None, choices=harness.METHODS)
    _add_tol(sp)
    _add_order(sp)
    _add_output(sp, ("json", "csv", "text"))
    # None marks a grid flag as not given; _cmd_sweep fills in the defaults
    sp.set_defaults(func=_cmd_sweep, **dict.fromkeys(_DEFAULTS))

    sp = sub.add_parser("terms", help="coefficient tables and boundary terms")
    sp.add_argument("--N", type=int, default=None, help="table level to dump")
    sp.add_argument("--j-max", dest="j_max", type=int, default=None)
    _add_point(sp, need_t=False)
    _add_split(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_terms)

    sp = sub.add_parser("verify", help="property-scan suites")
    sp.add_argument("--suite", default="all",
                    choices=("all",) + harness.SUITES)
    sp.add_argument("--config", type=str, default=None)
    _add_output(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser(), once per process: parse_args leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
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
