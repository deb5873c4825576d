"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload:

* two traced runs with one seed give identical counts: every ``*.calls``,
  ``stable_graphs.classes``, ``dm_strata.classes``,
  ``dm_strata.atlas_builds`` and ``cli.stdout_bytes``;
* a traced run with another seed gives the same verdict for every op;
* no op fails its reference check.

It also checks that the tracer restores every function and method it wraps.
Exits 1 if any check fails.
"""

from __future__ import annotations

import inspect
import os
import sys
from types import SimpleNamespace

import run
import workloads
from tracer import Tracer

SEEDS = (1, 2)
COUNT_SUFFIXES = (".calls", ".classes", ".atlas_builds", ".stdout_bytes")


def counts(record):
    return {k: v for k, v in record["layer"].items()
            if k.endswith(COUNT_SUFFIXES)}


def bindings(mods):
    """Every module attribute and class attribute the tracer may touch."""
    out = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            out[(layer, attr)] = obj
            if inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    out[(layer, attr, mname)] = meth
    return out


def check_restore():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    mods = workloads.program_modules()
    before = bindings(mods)
    with Tracer(mods) as tracer:
        during = bindings(mods)
    after = bindings(mods)
    wrapped = [k for k in before if during.get(k) is not before[k]]
    changed = [k for k in before if after.get(k) is not before[k]]
    return len(tracer.traced) > 0 and not changed, \
        "%d bindings wrapped, %d not restored" % (len(wrapped), len(changed))


def main():
    seed, other_seed = SEEDS
    results = []
    ok, detail = check_restore()
    results.append((ok, "tracer restores every wrapper (%s)" % detail))
    os.makedirs(run.OUT, exist_ok=True)
    for workload in run.WORKLOADS:
        def traced(seed):
            ns = SimpleNamespace(workload=workload, seed=seed)
            return run.worker(ns, "trace")
        first, second = traced(seed), traced(seed)
        other = traced(other_seed)
        same = counts(first) == counts(second)
        diff = sorted(k for k in counts(first)
                      if counts(first)[k] != counts(second).get(k))
        results.append((same, "%s: counts repeat exactly over two traced "
                        "runs (%d counts%s)" % (
                            workload, len(counts(first)),
                            ", differ: %s" % diff if diff else "")))
        results.append((first["verdicts"] == other["verdicts"],
                        "%s: seeds %d and %d give identical verdicts"
                        % (workload, seed, other_seed)))
        failures = first["failures"] + second["failures"] + \
            other["failures"]
        results.append((not failures, "%s: no op failed (%d failures)"
                        % (workload, len(failures))))
    for ok, text in results:
        print("%s %s" % ("PASS" if ok else "FAIL", text))
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
