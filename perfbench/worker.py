"""One benchmark process: set up a workload, then time or trace its ops.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``; the
last line of standard output is one JSON object.

    worker.py --workload W --seed N --workdir D --mode setup
        set up only; report the set-up time and calibration samples.
    worker.py --workload W --seed N --workdir D --mode time --seconds S
        set up, then repeat the workload's fixed work (one round: every op
        once) while another round fits in S seconds, and at least twice;
        report each op's time per round, verdicts, calibration samples and
        peak memory.
    worker.py --workload W --seed N --workdir D --mode trace [--spans F]
        one untraced round, then set-up and one round under the tracer,
        both in-process (``cli`` calls ``cli.main``); report per-layer
        metrics and the ratio of the two round times.  The
        traced work does not depend on S, so counts repeat exactly."""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads
from tracer import Tracer


# The host's speed drifts by tens of percent within seconds and by up to two
# times over minutes, for all code alike.  A short fixed pure-Python kernel,
# run every CALIBRATION_EVERY_S, measures that speed where and when the work
# runs, and each op's time t is also reported in reference seconds: t times
# the mean, over the kernel samples within CALIBRATION_NEAR_S of the op, of
# CALIBRATION_REF_S / kernel time.  The samples are evenly spaced in wall
# time, so that mean is the host's speed averaged over the op, which is what
# the op's time integrates; a sample slowed by preemption weighs little.
# That cancels the drift but not a change of the program, which the kernel
# does not call.
CALIBRATION_REF_S = 0.005
CALIBRATION_EVERY_S = 0.25
CALIBRATION_NEAR_S = 0.5

# ``cli`` ops are child processes, and most of their time is interpreter
# start, which the pure-Python kernel, running in this process and maybe on
# another core, tracks poorly: rescaled by it, ``cli`` times spread as much
# as raw ones.  For ``cli`` the kernel is a bare interpreter start instead,
# run before every op rather than from the timer.
INTERPRETER_REF_S = 0.1


def calibration_kernel():
    """Interpreter work like the program's: fractions, tuples, dicts,
    permutations."""
    acc, counts, total = Fraction(0), {}, 0
    for i in range(1, 600):
        acc += Fraction(i % 7, i % 13 + 1)
        key = tuple(sorted(((i * 7919) % 97, i % 5, (i * 31) % 11)))
        counts[key] = counts.get(key, 0) + 1
        total += min(itertools.permutations(key))[0]
    return acc, total


def interpreter_start():
    """A bare interpreter start: the calibration kernel for ``cli``."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Calibration:
    """Kernel samples (start, seconds).  A timed calibration takes them from
    a SIGALRM timer, between the bytecodes of whatever runs, so that long
    ops are sampled too; ``spent`` adds up the kernel's own time, which op
    times leave out.  An untimed one is sampled before every op."""

    def __init__(self, kernel=calibration_kernel, ref_s=CALIBRATION_REF_S,
                 timed=True):
        self.kernel, self.ref_s, self.timed = kernel, ref_s, timed
        self.samples = []
        self.spent = 0.0

    @classmethod
    def for_workload(cls, workload):
        if workload == "cli":
            return cls(interpreter_start, INTERPRETER_REF_S, timed=False)
        return cls()

    def tick(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            dt = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.samples.append((t0, dt))
        self.spent += dt

    def __enter__(self):
        if self.timed:
            self._previous = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S,
                             CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start=None, end=None):
        """Reference seconds per measured second: the mean speed of the
        samples within CALIBRATION_NEAR_S of [start, end], or of all."""
        near = [dt for t, dt in self.samples
                if start is None or
                start - CALIBRATION_NEAR_S <= t <= end + CALIBRATION_NEAR_S]
        return statistics.fmean(self.ref_s / dt for dt in
                                near or [dt for _, dt in self.samples])


def run_op(op):
    """The op's answer and the error it raised, one of them None."""
    try:
        return op.run(), None
    except Exception as exc:   # a failed op is counted, not fatal
        return None, exc


def verdict_of(op, answer, error):
    if error is None:
        try:
            return op.verdict(answer)
        except Exception as exc:
            error = exc
    return {"error": "%s: %s" % (type(error).__name__, error)}


def check(op, answer, error, failures):
    """Verdict of one op; a verdict other than the expected one is a
    failure, whatever the reason."""
    got = verdict_of(op, answer, error)
    if got != op.expected:
        failures.append({"op": op.name, "got": got,
                         "expected": op.expected})
    return got


def run_round(ops, failures, calibration=None):
    """Run every op once; return per-op (start, end, seconds) and verdicts.

    The seconds leave out the calibration kernel's own time."""
    spans, verdicts = {}, {}
    for op in ops:
        if calibration and not calibration.timed:
            calibration.tick()
        spent = calibration.spent if calibration else 0.0
        t0 = time.perf_counter()
        answer, error = run_op(op)
        t1 = time.perf_counter()
        spans[op.name] = (t0, t1, t1 - t0 - (
            calibration.spent - spent if calibration else 0.0))
        verdicts[op.name] = check(op, answer, error, failures)
    return spans, verdicts


def peak_rss_mib(workload):
    """Peak resident memory; for ``cli`` that of the largest child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# Derived per-layer metrics -> the function whose calls they count from.
DERIVED_FROM = {
    "stable_graphs.classes": "stable_graphs.enumerate_stable_graphs",
    "stable_graphs.canonical_yield": "stable_graphs.enumerate_stable_graphs",
    "dm_strata.classes": "dm_strata.dm_report",
    "dm_strata.atlas_builds": "dm_strata.dm_report",
    "dm_strata.atlas_cache_hit_ratio": "dm_strata.dm_report",
    "cli.stdout_bytes": "cli.main",
}


def layer_metrics(tracer, stdout_bytes, names):
    """The per-layer metrics ``names`` (those of BENCHMARK.json) that the
    traced run yields, and the sorted names among them that the workload
    does not reach.

    ``cli.startup_s`` and ``trace.overhead_ratio`` come from elsewhere.  A
    function that no longer exists yields no metric rather than an error.  A
    metric the workload does not reach (its function, or every function of
    its layer, is never called) reads 0 and is listed as not reached."""
    stats = tracer.summary()
    traced = tracer.traced
    out = {}
    for name in names:
        layer, _, rest = name.partition(".")
        function, _, kind = rest.rpartition(".")
        if rest == "self_s":
            out[name] = sum(st["self_s"] for fn, st in stats.items()
                            if fn.startswith(layer + "."))
        elif function and "%s.%s" % (layer, function) in traced:
            out[name] = stats["%s.%s" % (layer, function)][kind]

    enum = "stable_graphs.enumerate_stable_graphs"
    if enum in traced:
        classes = tracer.sizes.get(enum, 0)
        out["stable_graphs.classes"] = classes
        if "stable_graphs.canonical_form" in traced:
            tried = tracer.count_under("stable_graphs.canonical_form", enum)
            out["stable_graphs.canonical_yield"] = \
                classes / tried if tried else 0.0
    report = "dm_strata.dm_report"
    if report in traced:
        classes = tracer.sizes.get(report, 0)
        out["dm_strata.classes"] = classes
        if "gluing_engine.build_atlas" in traced:
            builds = tracer.count_under("gluing_engine.build_atlas", report)
            out["dm_strata.atlas_builds"] = builds
            out["dm_strata.atlas_cache_hit_ratio"] = \
                1 - builds / classes if classes else 0.0
    out["cli.stdout_bytes"] = stdout_bytes

    def reached(name):
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            return any(st["calls"] for fn, st in stats.items()
                       if fn.startswith(layer + "."))
        fn = DERIVED_FROM.get(name) or name.rpartition(".")[0]
        return fn in stats and stats[fn]["calls"] > 0

    return out, sorted(name for name in out if not reached(name))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "time",
                                                     "trace"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None,
                   help="file to write the traced run's spans to")
    args = p.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        result = measure(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(args):
    t0 = time.perf_counter()
    mods, ops = workloads.setup(args.workload, args.seed, args.workdir,
                                in_process=args.mode == "trace")
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "ops_per_round": len(ops)}
    if args.mode == "setup":
        calibration = Calibration()
        for _ in range(15):
            calibration.tick()
        result["speed"] = calibration.speed()
        return result

    failures = []
    if args.mode == "time":
        rounds = []
        start = time.perf_counter()
        with Calibration.for_workload(args.workload) as calibration:
            calibration.tick()
            while True:
                t_round = time.perf_counter()
                spans, verdicts = run_round(ops, failures, calibration)
                rounds.append(spans)
                used = time.perf_counter() - start
                last = time.perf_counter() - t_round
                if len(rounds) >= 2 and used + last > args.seconds:
                    break
        result.update(
            op_times=[{name: s for name, (_, _, s) in r.items()}
                      for r in rounds],
            op_ref_times=[{name: s * calibration.speed(t0, t1)
                           for name, (t0, t1, s) in r.items()}
                          for r in rounds],
            calibration_s=statistics.median(
                dt for _, dt in calibration.samples),
            verdicts=verdicts, failures=failures,
            attempted=len(ops) * len(rounds),
            peak_rss_mib=peak_rss_mib(args.workload))
        return result

    t_round = time.perf_counter()
    run_round(ops, failures)
    untraced_s = time.perf_counter() - t_round
    tracer = Tracer(mods, result_sizes={
        "stable_graphs.enumerate_stable_graphs": len,
        "dm_strata.dm_report": lambda report: len(report["classes"])})
    with tracer:
        _, traced_ops = workloads.setup(args.workload, args.seed,
                                        args.workdir, in_process=True)
        t_round = time.perf_counter()
        answers = [run_op(op) for op in traced_ops]
        traced_s = time.perf_counter() - t_round
    stdout_bytes, verdicts = 0, {}
    for op, (answer, error) in zip(traced_ops, answers):
        verdicts[op.name] = check(op, answer, error, failures)
        if args.workload == "cli" and error is None:
            stdout_bytes += len(answer[1])
    with open(os.path.join(os.path.dirname(workloads.HERE),
                           "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    metrics, not_reached = layer_metrics(tracer, stdout_bytes, names)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    if args.spans:
        tracer.write(args.spans)
    result.update(layer=metrics, not_reached=not_reached,
                  verdicts=verdicts, failures=failures, attempted=2 * len(ops),
                  traced_round_s=traced_s, untraced_round_s=untraced_s,
                  spans=len(tracer.span_name))
    return result


if __name__ == "__main__":
    sys.exit(main())
