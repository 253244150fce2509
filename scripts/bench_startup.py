#!/usr/bin/env python3
"""Time the start-up of a CLI command: the wall time of a fresh
interpreter that runs `pass`, that imports numpy, that imports
`orthosig.cli`, and that runs `python -m orthosig construct --family O-
--q 4 --m 2 --out never.json`, which exits 2 at its argument checks
(q = 4 is even) before anything is built or written.  The two imports
freeze the import graph before they exit, as `cli.entry` does, so every
row's exit skips the collector's teardown as a command's does.  Each row
is the best of RUNS processes, in milliseconds, the four commands taking
turns; the second column is the row's increase over the row above it, so
the rows split a command's start-up into the interpreter, numpy, the
package's import and argument parsing with the exit.  The table has a
fixed layout and the script takes no options."""

import compileall
import os
import subprocess
import sys
import tempfile
from time import perf_counter

# run from a checkout: the package lives in <root>/src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
RUNS = 25

# (row label, interpreter arguments, expected exit code)
COMMANDS = [
    ("python -c pass", ["-c", "pass"], 0),
    ("import numpy", ["-c", "import gc, numpy; gc.freeze()"], 0),
    ("import orthosig.cli", ["-c", "import gc, orthosig.cli; gc.freeze()"], 0),
    ("construct, exits 2", ["-m", "orthosig", "construct", "--family", "O-", "--q", "4", "--m", "2",
                            "--out", "never.json"], 2),
]


def best_ms(runs):
    """The best wall time of each command, in ms, over `runs` turns."""
    # bytecode written up front, as an install does: with none, or with
    # PYTHONDONTWRITEBYTECODE set, every import would compile the sources
    compileall.compile_dir(SRC, quiet=1)
    best = [float("inf")] * len(COMMANDS)
    with tempfile.TemporaryDirectory() as cwd:
        for _ in range(runs):
            for i, (label, args, code) in enumerate(COMMANDS):
                t0 = perf_counter()
                proc = subprocess.run([sys.executable, *args], cwd=cwd, env=ENV, capture_output=True)
                elapsed = perf_counter() - t0
                if proc.returncode != code:
                    raise RuntimeError(f"{label}: exit {proc.returncode}, expected {code}\n{proc.stderr.decode()}")
                best[i] = min(best[i], elapsed * 1e3)
    return best


def main(runs=RUNS):
    print(f"{'command':20s} {'best ms':>8s} {'+ms':>7s}")
    before = 0.0
    for (label, _, _), ms in zip(COMMANDS, best_ms(runs)):
        print(f"{label:20s} {ms:8.1f} {ms - before:7.1f}")
        before = ms


if __name__ == "__main__":
    main()
