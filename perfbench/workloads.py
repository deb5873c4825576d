"""The four benchmark workloads: inputs made from a seed, ops and references.

An op is one unit of the workload's fixed work: a signature (``graphs``,
``dm``), a model (``atlas``) or a command invocation (``cli``).  ``run()``
calls into the program and returns its answer; ``verdict(answer)`` reduces
the answer to a small JSON value, and the op passes only when that value
equals ``expected``.  Op names do not depend on the seed, so verdicts of two
seeds can be compared name by name.

Program functions are looked up on their module at call time, so that the
traced run sees every call through the tracer's wrappers.

This module imports only the standard library; ``setup()`` imports the
program.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("graphs", "atlas", "dm", "cli")

LAYERS = ("stable_graphs", "linear_strata", "regions", "gluing_engine",
          "fields", "plumbing", "dm_strata", "cli")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens")

# Frozen class counts of the acceptance suite, plus (2,2) and (3,0), which
# were checked against the naive isomorphism-search oracle in tests/oracles.
CLASS_COUNTS = {(0, 3): 1, (0, 4): 4, (0, 5): 26, (0, 6): 236,
                (1, 1): 2, (1, 2): 5, (1, 3): 23, (1, 4): 163,
                (2, 0): 7, (2, 1): 16, (2, 2): 75, (3, 0): 42}

# graphs: every acceptance signature except (0,7), plus (2,2) and (3,0).
GRAPH_SIGNATURES = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3),
                    (1, 4), (2, 0), (2, 1), (2, 2), (3, 0)]

# dm: reports of well under a second each, so that a run holds many rounds;
# (0,5) has 26 classes and needs only 3 atlas builds.
DM_SIGNATURES = [(0, 4), (0, 5), (1, 1), (1, 2)]

DM_VERDICTS = ("dimension_matching", "functoriality", "equivariance",
               "atlas_compatible", "atlas_separated", "atlas_covers")

# cli: the criterion-6 plumbing fixture.
PLUMB_T = (Fraction(1, 64), Fraction(1, 128))
PLUMB_DELTA = Fraction(1, 2)


@dataclass
class Op:
    name: str
    run: object        # () -> answer
    verdict: object    # answer -> JSON value
    expected: object


def program_modules():
    return {layer: importlib.import_module("strataglue." + layer)
            for layer in LAYERS}


# -- graphs -----------------------------------------------------------------

def _graphs_ops(mods, rng, workdir, in_process):
    sg = mods["stable_graphs"]

    def op(g, n):
        def run():
            return (sg.enumerate_stable_graphs(g, n), sg.build_poset(g, n))

        def verdict(answer):
            classes, poset = answer
            edges = [c.graph.num_edges for c in poset.elements]
            most = max(edges)
            return {
                "classes": len(classes),
                "poset_classes": len(poset.elements),
                "unique_top": edges[poset.top] == 0 and edges.count(0) == 1,
                "first_layer_max_edges": set(poset.layers[0]) == {
                    i for i, e in enumerate(edges) if e == most},
            }

        count = CLASS_COUNTS[(g, n)]
        return Op("%d,%d" % (g, n), run, verdict,
                  {"classes": count, "poset_classes": count,
                   "unique_top": True, "first_layer_max_edges": True})

    sigs = list(GRAPH_SIGNATURES)
    rng.shuffle(sigs)
    return [op(g, n) for g, n in sigs]


# -- atlas ------------------------------------------------------------------

def seven_class_m3(axis):
    """The 7-class real m=3 stratification whose one merged class is the
    pair of coordinate planes through ``axis``; the three axes give its
    three coordinate relabellings."""
    bit = 1 << (axis - 1)
    planes = [0b011, 0b101, 0b110]
    merged = tuple(sorted(p for p in planes if p & bit))
    single = [(p,) for p in planes if not p & bit]
    return ((0,), (1,), (2,), (4,)) + tuple(sorted([merged] + single)) + (
        (7,),)


def _atlas_ops(mods, rng, workdir, in_process):
    ls, ge, fields = mods["linear_strata"], mods["gluing_engine"], \
        mods["fields"]
    axis = rng.choice((1, 2, 3))
    strats = [("chain4", ls.chain_stratification(4)),
              ("m3-7class", ls.LinearStratification(
                  3, fields.REAL, seven_class_m3(axis)))]
    complex_strats = [s for m in (1, 2)
                      for s in ls.enumerate_stratifications(m, fields.COMPLEX)]
    if len(complex_strats) != 3:
        raise RuntimeError("expected 3 complex m <= 2 stratifications, got %d"
                           % len(complex_strats))
    strats += [("complex-%d" % i, s) for i, s in enumerate(complex_strats)]

    def op(name, model):
        def run():
            return ge.build_atlas(model)

        def verdict(report):
            return {"compatible": report.all_compatible,
                    "separated": report.separation_ok,
                    "covers": report.cover_ok}

        return Op(name, run, verdict,
                  {"compatible": True, "separated": True, "covers": True})

    ops = [op(name, ge.linear_model(s)) for name, s in strats]
    rng.shuffle(ops)
    return ops


# -- dm ---------------------------------------------------------------------

def _dm_ops(mods, rng, workdir, in_process):
    dm = mods["dm_strata"]

    def op(g, n):
        def run():
            # as `strataglue dm report g n` calls it: a fresh atlas cache
            return dm.dm_report(g, n)

        def verdict(report):
            entries = report["classes"]
            out = {"classes": len(entries)}
            for key in DM_VERDICTS:
                out[key] = sum(1 for e in entries if e[key] is True)
            return out

        count = CLASS_COUNTS[(g, n)]
        expected = {"classes": count}
        expected.update((key, count) for key in DM_VERDICTS)
        return Op("%d,%d" % (g, n), run, verdict, expected)

    sigs = list(DM_SIGNATURES)
    rng.shuffle(sigs)
    return [op(g, n) for g, n in sigs]


# -- cli --------------------------------------------------------------------

def plumb_points(rng, count=3):
    """``count`` exact points strictly inside |t|/delta < |z| < delta."""
    t_abs2 = PLUMB_T[0] ** 2 + PLUMB_T[1] ** 2
    d2 = PLUMB_DELTA ** 2
    points = []
    while len(points) < count:
        z = (Fraction(rng.randint(-63, 63), 128),
             Fraction(rng.randint(-63, 63), 128))
        z_abs2 = z[0] ** 2 + z[1] ** 2
        if t_abs2 < z_abs2 * d2 and z_abs2 < d2:
            points.append(z)
    return points


def _parse_complex(text):
    """Inverse of the program's ``re+imi`` / ``re-imi`` rendering."""
    if not text.endswith("i"):
        raise ValueError("not a complex value: %r" % text)
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        raise ValueError("not a complex value: %r" % text)
    return Fraction(body[:cut]), Fraction(body[cut:])


def _plumb_verdict(z):
    def verdict(answer):
        code, stdout = answer
        lines = stdout.decode().splitlines()
        w = _parse_complex(lines[0][len("w = "):]) \
            if lines and lines[0].startswith("w = ") else None
        zw = None if w is None else (z[0] * w[0] - z[1] * w[1],
                                     z[0] * w[1] + z[1] * w[0])
        return {"exit": code, "zw_equals_t": zw == PLUMB_T,
                "in_annulus": lines[1:] == [
                    "z lies in the annulus |t|/delta < |z| < delta"]}
    return verdict


def _golden_verdict(name):
    with open(os.path.join(GOLDENS, name + ".out"), "rb") as fh:
        golden = fh.read()

    def verdict(answer):
        code, stdout = answer
        return {"exit": code, "stdout_matches_golden": stdout == golden}
    return verdict


def cli_commands(mods, rng, workdir):
    """(name, argv) of every command; writes the model files they read."""
    ls, ge = mods["linear_strata"], mods["gluing_engine"]
    chain2 = os.path.join(workdir, "chain2.json")
    chain3 = os.path.join(workdir, "chain3.json")
    with open(chain2, "w") as fh:
        json.dump(ge.linear_model(ls.chain_stratification(2)).to_json(), fh)
    with open(chain3, "w") as fh:
        json.dump(ls.chain_stratification(3).to_json(), fh)
    commands = [
        ("graphs-poset-0-4-dot", ["graphs", "poset", "0", "4", "--dot"]),
        ("dm-report-1-1", ["dm", "report", "1", "1"]),
        ("glue-run-chain2", ["glue", "run", chain2]),
        ("graphs-enumerate-1-3-json", ["graphs", "enumerate", "1", "3",
                                       "--json"]),
        ("graphs-poset-0-6-json", ["graphs", "poset", "0", "6", "--json"]),
        ("strata-validate-chain3", ["strata", "validate", chain3]),
        ("dm-report-1-2", ["dm", "report", "1", "2"]),
    ]
    t = "%s,%s" % PLUMB_T
    for i, z in enumerate(plumb_points(rng)):
        commands.append(("plumb-%d" % (i + 1), [
            "plumb", "--t=" + t, "--delta=%s" % PLUMB_DELTA,
            "--z=%s,%s" % z]))
    return commands


def _cli_ops(mods, rng, workdir, in_process):
    cli = mods["cli"]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")

    def op(name, argv):
        if in_process:
            def run():
                out = io.StringIO()
                code = cli.main(list(argv), out=out, err=io.StringIO())
                return code, out.getvalue().encode()
        else:
            def run():
                proc = subprocess.run(
                    [sys.executable, "-m", "strataglue.cli"] + argv,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    env=dict(env, PYTHONPATH=src), timeout=60)
                return proc.returncode, proc.stdout

        if name.startswith("plumb-"):
            z = tuple(Fraction(x) for x in argv[-1][len("--z="):].split(","))
            return Op(name, run, _plumb_verdict(z),
                      {"exit": 0, "zw_equals_t": True, "in_annulus": True})
        return Op(name, run, _golden_verdict(name),
                  {"exit": 0, "stdout_matches_golden": True})

    ops = [op(name, argv) for name, argv in cli_commands(mods, rng, workdir)]
    rng.shuffle(ops)
    return ops


_MAKE_OPS = {"graphs": _graphs_ops, "atlas": _atlas_ops, "dm": _dm_ops,
             "cli": _cli_ops}


def setup(workload, seed, workdir, in_process=False):
    """Import the program and build the workload's ops for ``seed``.

    ``in_process`` makes ``cli`` call ``cli.main`` in this process instead
    of in a child process, so that a tracer sees its calls.
    """
    mods = program_modules()
    rng = random.Random("%s:%d" % (workload, seed))
    return mods, _MAKE_OPS[workload](mods, rng, workdir, in_process)
