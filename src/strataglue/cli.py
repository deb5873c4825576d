"""Command-line front end.

Subcommands cover graph enumeration and poset export, stratification
validation, atlas runs, plumbing evaluation, and per-signature reports.  All
numeric input is decimal (or p/q) with "re,im" pairs for complex values and
is parsed into exact rationals, so identical invocations produce
byte-identical output.  Exit codes: 0 on success, 1 on validation failure,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# Each handler imports only the layers it runs: a command is a fresh process,
# and compiling modules it never calls would be most of its start-up time.


def _dump(data, stream):
    json.dump(data, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _cmd_graphs(args, out):
    from .stable_graphs import build_poset, enumerate_stable_graphs
    if args.action == "enumerate":
        classes = enumerate_stable_graphs(args.g, args.n)
        if args.count:
            out.write("%d\n" % len(classes))
        elif args.json:
            _dump([c.graph.to_json() for c in classes], out)
        else:
            for c in classes:
                out.write(c.describe() + "\n")
        return 0
    poset = build_poset(args.g, args.n)
    if args.dot:
        out.write(poset.to_dot())
    else:
        _dump(poset.to_json(), out)
    return 0


def _cmd_strata_validate(args, out):
    from .linear_strata import _read_json, validate
    with open(args.file) as fh:
        m, field, classes = _read_json(json.load(fh))
    report = validate(m, classes, field)
    _dump(report.to_json(), out)
    return 0 if report.ok else 1


def _cmd_glue_run(args, out):
    from .gluing_engine import StratifiedModel, build_atlas
    with open(args.model) as fh:
        model = StratifiedModel.from_json(json.load(fh))
    report = build_atlas(model)
    ok = report.all_compatible and report.separation_ok and report.cover_ok
    out.write("classes = %d\n" % model.strat.num_classes)
    out.write("passes = %d\n" % report.passes)
    out.write("compatible = %s\n" % ("yes" if report.all_compatible
                                     else "no"))
    out.write("separation = %s\n" % ("yes" if report.separation_ok
                                     else "no"))
    out.write("cover = %s\n" % ("yes" if report.cover_ok else "no"))
    if args.report:
        with open(args.report, "w") as fh:
            _dump(report.to_json(), fh)
    return 0 if ok else 1


def _cmd_plumb(args, out):
    from .fields import COMPLEX, format_scalar, parse_scalar
    from .plumbing import PlumbingFixture, plumb
    t = parse_scalar(COMPLEX, args.t)
    z = parse_scalar(COMPLEX, args.z)
    fixture = PlumbingFixture(t, Fraction(args.delta))
    if not fixture.in_annulus(z):
        out.write("z lies outside the annulus |t|/delta < |z| < delta\n")
        return 1
    w = plumb(z, fixture)
    out.write("w = %s\n" % format_scalar(w))
    out.write("z lies in the annulus |t|/delta < |z| < delta\n")
    return 0


def _cmd_dm_report(args, out):
    from .dm_strata import dm_report
    report = dm_report(args.g, args.n)
    _dump(report, out)
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="strataglue",
        description="stratified gluing toolkit command line")
    sub = parser.add_subparsers(dest="command", required=True)

    graphs = sub.add_parser("graphs", help="stable graph enumeration")
    gsub = graphs.add_subparsers(dest="action", required=True)
    enum = gsub.add_parser("enumerate", help="list graph classes")
    enum.add_argument("g", type=int)
    enum.add_argument("n", type=int)
    mode = enum.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true")
    mode.add_argument("--count", action="store_true")
    poset = gsub.add_parser("poset", help="contraction poset")
    poset.add_argument("g", type=int)
    poset.add_argument("n", type=int)
    mode = poset.add_mutually_exclusive_group()
    mode.add_argument("--dot", action="store_true")
    mode.add_argument("--json", action="store_true")

    strata = sub.add_parser("strata", help="linear stratifications")
    ssub = strata.add_subparsers(dest="action", required=True)
    sval = ssub.add_parser("validate", help="check a stratification file")
    sval.add_argument("file")

    glue = sub.add_parser("glue", help="gluing atlas runs")
    lsub = glue.add_subparsers(dest="action", required=True)
    grun = lsub.add_parser("run", help="build and verify an atlas")
    grun.add_argument("model")
    grun.add_argument("--report", default=None)

    pl = sub.add_parser("plumb", help="evaluate a plumbing transition")
    pl.add_argument("--t", required=True, help="gluing parameter re,im")
    pl.add_argument("--delta", required=True, help="annulus radius")
    pl.add_argument("--z", required=True, help="input coordinate re,im")

    dm = sub.add_parser("dm", help="moduli stratum reports")
    dsub = dm.add_subparsers(dest="action", required=True)
    drep = dsub.add_parser("report", help="per-class verification report")
    drep.add_argument("g", type=int)
    drep.add_argument("n", type=int)
    return parser


_HANDLERS = {
    "graphs": _cmd_graphs,
    "strata": _cmd_strata_validate,
    "glue": _cmd_glue_run,
    "plumb": _cmd_plumb,
    "dm": _cmd_dm_report,
}


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _HANDLERS[args.command](args, out)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        err.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
