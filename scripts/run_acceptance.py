#!/usr/bin/env python3
"""Run the acceptance suite and show the per-criterion PASS/FAIL lines.

One criterion (9) is expected red: the stated order identity does not
hold for the commutator subgroup; see README and notes in the test.
"""

import os
import subprocess
import sys

# run from a checkout, from any directory: pytest reads pyproject.toml,
# which puts <root>/src on the path
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

sys.exit(subprocess.call([
    sys.executable, "-m", "pytest", "-v", "-s", "tests/test_acceptance.py",
], cwd=ROOT))
