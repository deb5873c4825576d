"""Record the standard output of the ``cli`` workload's fixed commands.

    python3 perfbench/record_goldens.py

The goldens in ``perfbench/goldens/`` were recorded once, at the commit that
added the benchmark; the ``cli`` workload checks every later commit's output
against them byte for byte.  Re-record only when a change of output is
intended, and say so in the change.  ``plumb`` commands take seeded inputs
and are checked arithmetically instead.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile

import workloads


def main():
    root = os.path.dirname(workloads.HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    os.makedirs(workloads.GOLDENS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as workdir:
        mods = workloads.program_modules()
        for name, argv in workloads.cli_commands(mods, random.Random(0),
                                                 workdir):
            if name.startswith("plumb-"):
                continue
            proc = subprocess.run(
                [sys.executable, "-m", "strataglue.cli"] + argv, cwd=root,
                env=env, stdout=subprocess.PIPE, check=True, timeout=120)
            with open(os.path.join(workloads.GOLDENS, name + ".out"),
                      "wb") as fh:
                fh.write(proc.stdout)
            print("%s: %d bytes" % (name, len(proc.stdout)))


if __name__ == "__main__":
    main()
