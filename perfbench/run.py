"""strataglue benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement runs in a fresh child interpreter (see
``worker.py``), one at a time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: the workload's fixed work (one round: every op once), as the
  sum over ops of each op's median time; the rounds repeat while another
  fits in ``--seconds`` seconds, and at least twice.
* ``setup_s``: median set-up time (imports, models, CLI input files) over
  several fresh processes, after one discarded warm-up that fills the
  bytecode cache.
* ``peak_rss_mib``: peak resident memory of the timing process; for ``cli``
  that of its largest child.

Both times are in reference seconds: each process also times a short fixed
calibration kernel (for ``cli`` ops, a bare interpreter start), and a
measured time t is reported as t times the host's mean speed near it,
relative to the kernel's reference time (see ``worker.py``).
The host's speed drifts by tens of percent between runs; the kernel cancels
most of that drift, and a change to the program still moves the times in
full.  The measured seconds are printed as ``raw`` and kept in the result
file.

``--trace 1`` reports the per-layer metrics of BENCHMARK.json from one
traced round (see ``tracer.py``); its work does not depend on ``--seconds``.

Each op's answer is checked against its reference; ``failed`` counts ops
that did not match or raised.  The metrics, with units, sample counts and
the run context, are printed and also written to ``perfbench/out/``.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("graphs", "atlas", "dm", "cli")
SETUP_SAMPLES = 9          # fresh set-up processes per timed run
STARTUP_SAMPLES = 3        # bare `import strataglue.cli` processes
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # string hashing fixed, so that traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, mode, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode,
           "--workdir", os.path.join(OUT, "work-%d" % os.getpid())]
    # own process group, so that a timeout also stops the CLI children
    with subprocess.Popen(cmd + list(extra), cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("worker (%s) timed out" % mode)
    if proc.returncode != 0:
        raise BenchError("worker (%s) exited with %d"
                         % (mode, proc.returncode))
    return json.loads(stdout.decode().strip().splitlines()[-1])


def startup_samples():
    """Wall time of child processes that only import strataglue.cli."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import strataglue.cli"],
                              cwd=ROOT, env=child_env(), timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("import strataglue.cli failed")
    return samples


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.decode().strip() or None


def measure(args):
    """Metric name -> (value, sample count); plus the worker's record."""
    worker(args, "setup")                      # warm-up, discarded
    if args.trace:
        rec = worker(args, "trace", "--spans",
                     os.path.join(OUT, "spans-%s.bin" % args.workload))
        metrics = {name: (value, 1) for name, value in rec["layer"].items()}
        startup = startup_samples()
        metrics["cli.startup_s"] = (statistics.median(startup), len(startup))
        return metrics, rec
    probes = [worker(args, "setup") for _ in range(SETUP_SAMPLES)]
    rec = worker(args, "time", "--seconds", str(args.seconds))

    def op_medians(rounds):
        return {op: statistics.median(r[op] for r in rounds)
                for op in rounds[0]}

    rec["op_median_s"] = op_medians(rec["op_ref_times"])
    rec["raw"] = {
        "wall_s": sum(op_medians(rec["op_times"]).values()),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "calibration_s": rec["calibration_s"],
    }
    metrics = {
        "wall_s": (sum(rec["op_median_s"].values()), len(rec["op_times"])),
        "setup_s": (statistics.median(p["setup_s"] * p["speed"]
                                      for p in probes), len(probes)),
        "peak_rss_mib": (rec["peak_rss_mib"], 1)}
    return metrics, rec


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "strataglue",
                                       "__init__.py")):
        print("error: no strataglue source under %s/src; run from the root "
              "of a source checkout" % ROOT, file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    os.makedirs(OUT, exist_ok=True)
    try:
        metrics, rec = measure(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    unknown = set(metrics) - set(units)
    if unknown:
        print("error: metrics not in BENCHMARK.json: %s" % sorted(unknown),
              file=sys.stderr)
        return 1

    failed = len(rec["failures"])
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(), "git_commit": git_commit(),
        "ops_per_round": rec["ops_per_round"],
    }
    record = {
        "context": context,
        "metrics": {name: {"value": value, "unit": units[name],
                           "samples": samples}
                    for name, (value, samples) in sorted(metrics.items())},
        "absent": sorted(set(units) - set(metrics)),
        "not_reached": rec.get("not_reached", []),
        "ops": rec["attempted"], "ops_failed": failed,
        "failures": rec["failures"], "verdicts": rec.get("verdicts"),
        "op_median_s": rec.get("op_median_s"), "raw": rec.get("raw"),
    }
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for key, value in sorted(context.items()):
        print("context %s = %s" % (key, value))
    for name, m in record["metrics"].items():
        print("metric %s = %.6g %s (samples: %d)%s"
              % (name, m["value"], m["unit"], m["samples"],
                 ", not reached" if name in record["not_reached"] else ""))
    for name, value in sorted((rec.get("raw") or {}).items()):
        print("raw %s = %.6g s (measured seconds, not rescaled)"
              % (name, value))
    for name in record["absent"]:
        print("metric %s absent: its function no longer exists" % name)
    print("ops = %d, ops_failed = %d" % (rec["attempted"], failed))
    for f in rec["failures"]:
        print("FAILED %s: got %s, expected %s"
              % (f["op"], f["got"], f["expected"]))
    print(json.dumps({
        "correct": failed == 0, "attempted": rec["attempted"],
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
