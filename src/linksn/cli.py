"""Command-line interface.

Commands: ``invariant`` (s_n of a diagram), ``bounds`` (genus and
splitting bounds), ``eval`` (expression files), ``movie`` (cobordism
certificates), ``verify`` (self-check suites).  Exit codes: 0 success,
1 verification failure, 2 input error.

Each command takes the parsed arguments and returns ``(code, report,
lines)``: its exit code, its JSON report and its text output, one
string per line.  ``main`` prints the report under ``--json`` and the
lines otherwise, in one place; a reader that has closed the output
leaves the exit code as it was.  The parser is built once per process,
on first use, since callers such as the benchmark harness call ``main``
many times in one process.
"""

import argparse
import functools
import json
import os
import sys

from . import calculus as ca
from . import diagram as dg
from . import movie as mv
from . import verify
from .errors import InputError, LinkError

MAX_N_VALUES = 1000   # the most values of n one --n range may ask for


def _add_input_flags(p):
    p.add_argument("--pd", help="PD notation, e.g. 'X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]'")
    p.add_argument("--braid", help="braid word, e.g. '1 1 1'")
    p.add_argument("--strands", type=int, help="strand count for --braid")
    p.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"),
                   help="torus link T(P, Q)")


def _add_common_flags(p):
    p.add_argument("--n", default="2..2", metavar="A..B",
                   help="inclusive range of n (default 2..2)")
    p.add_argument("--json", action="store_true", help="machine output")


def _parse_n_range(text):
    a, sep, b = text.partition("..")
    try:
        a, b = int(a), int(b if sep else a)
    except ValueError:
        raise InputError(f"bad n range {text!r}, expected A..B")
    if a < 2 or b < a or b - a >= MAX_N_VALUES:
        raise InputError(f"n range {text!r} must satisfy "
                         f"2 <= A <= B < A + {MAX_N_VALUES}")
    return range(a, b + 1)


def _diagram_from_args(args):
    sources = [s for s in ("pd", "braid", "torus")
               if getattr(args, s) is not None]
    if len(sources) != 1:
        raise InputError("give exactly one of --pd, --braid, --torus")
    if args.pd is not None:
        return dg.parse_pd(args.pd), {"pd": args.pd}
    if args.braid is not None:
        if not args.strands:
            raise InputError("--braid needs --strands")
        try:
            word = [int(w) for w in args.braid.replace(",", " ").split()]
        except ValueError:
            raise InputError(f"bad --braid {args.braid!r}, expected "
                             f"integers such as '1 -2 1'")
        return dg.parse_braid(word, args.strands), \
            {"braid": word, "strands": args.strands}
    p, q = args.torus
    return dg.torus_link(p, q), {"torus": [p, q]}


def _sn_block(values):
    """The ``n`` and ``s_n`` fields of a report on ``values``, n ->
    SnValue.  The text line of a value is its ``repr``."""
    return {"n": sorted(values),
            "s_n": {str(n): {"exact": v.lo} if v.exact
                    else {"lo": v.lo, "hi": v.hi}
                    for n, v in values.items()}}


def _diagram_values(d, n_range):
    """One SnValue per requested n: the engine at n=2, closed forms or
    the crossing-change interval elsewhere."""
    values = {}
    for n in n_range:
        if n == 2:
            values[2] = ca.EngineDiagram(d).eval(2)
        else:
            values[n] = ca.sn_diagram_interval(d, n)
    return values


def _bounds_dict(d, values, source):
    bounds = {}
    l = d.n_components
    for n, v in values.items():
        bounds[f"g4_lb(n={n})"] = ca.g4_lower_bound(v, l)
    if d.is_positive and d.n_crossings:
        g3, g4 = ca.genus_positive(d)
        bounds["g3"] = g3
        bounds["g4"] = g4
    if "torus" in source:
        p, q = source["torus"]
        bounds["g4_torus"] = ca.torus_g4(p, q)
        if l > 1:
            bounds["sp_torus"] = ca.torus_splitting(p, q)
    if l > 1 and 2 in values and values[2].exact:
        try:
            parts = [ca.EngineDiagram(dg.sublink(d, [i])).eval(2)
                     for i in range(l)]
            bounds["sp_lb"] = ca.sp_lower_bound(values[2], parts, l)
        except (LinkError, ValueError):
            pass
    return bounds


def cmd_diagram(args):
    """``invariant`` and ``bounds``: the same report, but only
    ``invariant`` fills in the trace.  The empty link gets a report of
    its own and exit code 2."""
    d, source = _diagram_from_args(args)
    empty = d.n_components == 0
    values = {} if empty else _diagram_values(d, args.n)
    bounds = {} if empty else _bounds_dict(d, values, source)
    trace = ([t for v in values.values() for t in v.trace]
             if args.command == "invariant" else [])
    stats = {"c": d.n_crossings, "r": len(d.seifert_circles),
             "w": d.writhe, "l": d.n_components}
    report = {"input": source, **_sn_block(values), "stats": stats,
              "bounds": bounds, "trace": trace}
    lines = ["  ".join(f"{k}={v}" for k, v in stats.items()),
             *map(repr, values.values()),
             *(f"{key} = {val}" for key, val in bounds.items()),
             *(f"  # {t}" for t in trace)]
    if empty:
        report["error"] = "ExplicitEmpty"
    return (2 if empty else 0), report, lines


def cmd_eval(args):
    with open(args.expr) as fh:
        expr = ca.expr_from_json(fh.read())
    values = {n: ca.sn_eval(expr, n) for n in args.n}
    report = {"input": {"expr": args.expr}, **_sn_block(values),
              "trace": {str(n): v.trace for n, v in values.items()}}
    lines = [line for v in values.values()
             for line in (repr(v), *(f"  # {t}" for t in v.trace))]
    if 2 in values and not values[2].exact:
        try:
            refined = ca.refine_with_engine(expr).value
            report["engine_refinement"] = {"n": 2, "exact": refined}
            lines.append(f"engine refinement: s_2 = {refined}")
        except LinkError:
            pass
    return 0, report, lines


def cmd_movie(args):
    movie = mv.load_movie(args.movie)
    ledger = mv.validate_movie(movie)
    order = mv.check_lobb_order(ledger)
    lemma2 = ledger.lemma2_certificate()
    report = {
        "input": {"movie": args.movie},
        "chi": ledger.chi,
        "end": dg.serialize_pd(ledger.end),
        "surface_components": ledger.k,
        "moves": ledger.kinds,
        "move_order_ok": order is None,
        "lemma2": lemma2,
    }
    if order is not None:
        report["move_order_offender"] = order
    lines = [f"chi = {ledger.chi}   end = {report['end']}   k = {ledger.k}",
             f"phases: {' '.join(ledger.kinds) or '(empty)'}   "
             f"ordered: {order is None}",
             f"certificate: {lemma2['inequality']}"
             f" (applies: {lemma2['applies']})"]
    if not ledger.end.n_crossings and ledger.end.n_components:
        certs = [mv.slice_certificate(ledger, n) for n in args.n]
        report["slice_certificates"] = certs
        lines += [f"  {ineq}" for c in certs for ineq in c["inequalities"]]
    return 0, report, lines


def cmd_verify(args):
    report = verify.run(properties=args.property or None, seed=args.seed)
    lines = []
    for name, res in report["results"].items():
        mark = "ok" if not res["failures"] else "FAIL"
        lines.append(f"{name}: {res['checks']} checks  {mark}")
        lines += [f"    {f}" for f in res["failures"]]
    return (0 if report["ok"] else 1), report, lines


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="linksn",
        description="Concordance invariants s_n of links, genus and "
                    "splitting bounds, and cobordism certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("invariant", "s_n of a diagram"),
                       ("bounds", "genus / splitting bounds")):
        p = sub.add_parser(name, help=text)
        _add_input_flags(p)
        _add_common_flags(p)
        p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("eval", help="evaluate an expression file")
    p.add_argument("--expr", required=True, metavar="FILE")
    _add_common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("movie", help="validate a cobordism movie")
    p.add_argument("--movie", required=True, metavar="FILE")
    _add_common_flags(p)
    p.set_defaults(func=cmd_movie)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--property", action="append",
                   choices=sorted(verify.PROPERTIES),
                   help="suite name (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    try:
        if "n" in args:
            args.n = _parse_n_range(args.n)
        code, report, lines = args.func(args)
    except (LinkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = out or sys.stdout
    try:
        print(json.dumps(report, indent=2) if args.json else "\n".join(lines),
              file=out)
        out.flush()
    except BrokenPipeError:
        # the reader has gone: point the output at devnull so that the flush
        # at exit does not fail again, as the Python signal docs show
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
