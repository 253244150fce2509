"""Traced stand-in for `python -m orthosig`, used by the traced cli-session.

    python3 perfbench/cli_shim.py OUT_STEM <orthosig arguments...>

Installs the span recorder, runs the CLI's `main` with the given
arguments and exits with its code.  Writes the per-layer table to
OUT_STEM.json and the kept spans to OUT_STEM.spans.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import orthosig.cli  # noqa: E402


def main():
    stem, argv = sys.argv[1], sys.argv[2:]
    rec = layers.Recorder()
    layers.install(rec)
    code = orthosig.cli.main(argv)
    sys.stdout.flush()
    with open(stem + ".json", "w") as fh:
        json.dump(rec.layer_table(), fh)
    rec.dump(stem + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
