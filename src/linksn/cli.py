"""Command-line interface.

Commands: ``invariant`` (s_n of a diagram), ``bounds`` (genus and
splitting bounds), ``eval`` (expression files), ``movie`` (cobordism
certificates), ``verify`` (self-check suites).  Exit codes: 0 success,
1 verification failure, 2 input error.
"""

import argparse
import json
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
    parts = text.split("..") if ".." in text else [text, text]
    try:
        a, b = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
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
        word = [int(w) for w in args.braid.replace(",", " ").split()]
        return dg.parse_braid(word, args.strands), \
            {"braid": word, "strands": args.strands}
    p, q = args.torus
    return dg.torus_link(p, q), {"torus": [p, q]}


def _value_dict(v):
    if v.exact:
        return {"exact": v.lo}
    return {"lo": v.lo, "hi": v.hi}


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


def _report(d, source, values, bounds, trace):
    st = dg.resolution_stats(d) if d.n_components else None
    return {
        "input": source,
        "n": sorted(values),
        "s_n": {str(n): _value_dict(v) for n, v in values.items()},
        "stats": ({"c": st.c, "r": st.r, "w": st.w, "l": st.l}
                  if st else {"c": 0, "r": 0, "w": 0, "l": 0}),
        "bounds": bounds,
        "trace": trace,
    }


def _emit(report, as_json, out):
    if as_json:
        print(json.dumps(report, indent=2), file=out)
        return
    st = report["stats"]
    print(f"c={st['c']}  r={st['r']}  w={st['w']}  l={st['l']}", file=out)
    for n in report["n"]:
        v = report["s_n"][str(n)]
        shown = v.get("exact") if "exact" in v else f"[{v['lo']}, {v['hi']}]"
        print(f"s_{n} = {shown}", file=out)
    for key, val in report["bounds"].items():
        print(f"{key} = {val}", file=out)
    for line in report["trace"]:
        print(f"  # {line}", file=out)


def cmd_diagram(args, out):
    """``invariant`` and ``bounds``: the same report, but only
    ``invariant`` fills in the trace."""
    d, source = _diagram_from_args(args)
    if d.n_components == 0:
        report = _report(d, source, {}, {}, [])
        report["error"] = "ExplicitEmpty"
        _emit(report, args.json, out)
        return 2
    n_range = _parse_n_range(args.n)
    values = _diagram_values(d, n_range)
    bounds = _bounds_dict(d, values, source)
    trace = ([t for v in values.values() for t in v.trace]
             if args.command == "invariant" else [])
    _emit(_report(d, source, values, bounds, trace), args.json, out)
    return 0


def cmd_eval(args, out):
    with open(args.expr) as fh:
        expr = ca.expr_from_json(fh.read())
    values = {n: ca.sn_eval(expr, n) for n in _parse_n_range(args.n)}
    report = {
        "input": {"expr": args.expr},
        "n": sorted(values),
        "s_n": {str(n): _value_dict(v) for n, v in values.items()},
        "trace": {str(n): v.trace for n, v in values.items()},
    }
    if 2 in values and not values[2].exact:
        try:
            refined = ca.refine_with_engine(expr)
            report["engine_refinement"] = {"n": 2, "exact": refined.value}
        except LinkError:
            pass
    if args.json:
        print(json.dumps(report, indent=2), file=out)
    else:
        for n in sorted(values):
            print(repr(values[n]), file=out)
            for line in values[n].trace:
                print(f"  # {line}", file=out)
        if "engine_refinement" in report:
            print(f"engine refinement: s_2 = "
                  f"{report['engine_refinement']['exact']}", file=out)
    return 0


def cmd_movie(args, out):
    movie = mv.load_movie(args.movie)
    ledger = mv.validate_movie(movie)
    order = mv.check_lobb_order(ledger)
    report = {
        "input": {"movie": args.movie},
        "chi": ledger.chi,
        "end": dg.serialize_pd(ledger.end),
        "surface_components": ledger.k,
        "moves": ledger.kinds,
        "move_order_ok": bool(order),
        "lemma2": ledger.lemma2_certificate(),
    }
    if not order:
        report["move_order_offender"] = order.index
    if not ledger.end.n_crossings and ledger.end.n_components:
        report["slice_certificates"] = [
            mv.slice_certificate(ledger, n).to_dict()
            for n in _parse_n_range(args.n)]
    if args.json:
        print(json.dumps(report, indent=2), file=out)
    else:
        print(f"chi = {ledger.chi}   end = {report['end']}   "
              f"k = {ledger.k}", file=out)
        print(f"phases: {' '.join(ledger.kinds) or '(empty)'}   "
              f"ordered: {report['move_order_ok']}", file=out)
        print(f"certificate: {report['lemma2']['inequality']}"
              f" (applies: {report['lemma2']['applies']})", file=out)
        for cert in report.get("slice_certificates", []):
            for ineq in cert["inequalities"]:
                print(f"  {ineq}", file=out)
    return 0


def cmd_verify(args, out):
    report = verify.run(properties=args.property or None, seed=args.seed)
    if args.json:
        print(json.dumps(report, indent=2), file=out)
    else:
        for name, res in report["results"].items():
            mark = "ok" if not res["failures"] else "FAIL"
            print(f"{name}: {res['checks']} checks  {mark}", file=out)
            for f in res["failures"]:
                print(f"    {f}", file=out)
    return 0 if report["ok"] else 1


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
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (LinkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
