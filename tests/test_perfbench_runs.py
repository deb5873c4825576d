"""The benchmark harness ends every run with its result line.

Each run of ``perfbench/run.py`` must exit 0 and print, as its last line of
standard output, one JSON object (NaN and Infinity rejected) whose
``correct`` is true and whose ``metrics`` are exactly the ``per_layer``
metrics of BENCHMARK.json on a traced run and its ``end_to_end`` metrics on
an untraced one.  The traced runs wrap the package's public functions, so a
change to a public signature or a new print can break them while every
untraced run still passes, and a metric whose function is gone reads
absent.  The runs are one second each, on a copy of the checkout, so their
result files stay out of the source tree.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), root / name, ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def strict_json(line):
    def reject(constant):
        raise ValueError("not strict JSON: %s" % constant)
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("workload,trace", [
    ("graphs", 1), ("atlas", 1), ("dm", 1), ("cli", 1), ("graphs", 0)])
def test_run_ends_in_a_correct_result(checkout, workload, trace):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    result = strict_json(lines[-1])
    assert result["correct"] is True
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
