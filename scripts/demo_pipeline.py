#!/usr/bin/env python3
"""End-to-end demo: construct a signature, verify it, factor elements
through it, and run the signature-keyed cipher, all on one small group."""

import os
import random
import sys

# run from a checkout: the package lives in <root>/src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from orthosig import pgm  # noqa: E402
from orthosig.factorize import compose, tame_factor, unrank  # noqa: E402
from orthosig.lscore import canonical_ls, min_length_bound, verify_ls  # noqa: E402
from orthosig.matgroups import descriptor  # noqa: E402

desc = descriptor("O-", 3, m=2)
ls = canonical_ls(desc)
print(f"group {desc.family} n={desc.n} q={desc.q}: order {ls.claimed_order}")
print(f"block sizes {ls.block_sizes()}")
print(f"length {ls.length}, bound {min_length_bound(ls.claimed_order)}, shape {ls.meta['shape']}")

rep = verify_ls(ls, "exhaustive")
print(f"exhaustive verification: valid={rep.valid}, minimal={rep.mls}")

rng = random.Random(0)
for _ in range(3):
    v = rng.randrange(ls.claimed_order)
    iv = unrank(v, ls)
    g = compose(iv, ls)
    back = tame_factor(g, ls)
    print(f"rank {v} -> indices {list(iv)} -> factored back: {back == iv}")

key = pgm.keygen(desc, seed=42)
msgs = [0, 1, 717, 1439]
cts = [pgm.encrypt(key, m) for m in msgs]
print(f"cipher demo: {msgs} -> {cts} -> {[pgm.decrypt(key, c) for c in cts]}")
