#!/usr/bin/env python3
"""End-to-end demo: construct a signature, verify it, factor elements
through it, and run the signature-keyed cipher, all on one small group."""

import random

from orthosig import pgm
from orthosig.factorize import compose, tame_factor, unrank
from orthosig.lscore import canonical_ls, min_length_bound, verify_ls
from orthosig.matgroups import descriptor

desc = descriptor("O-", 3, m=2)
ls = canonical_ls(desc)
print(f"group {desc.family} n={desc.n} q={desc.q}: order {ls.claimed_order}")
print(f"block sizes {ls.block_sizes()}")
print(f"length {ls.length}, bound {min_length_bound(ls.claimed_order).bound}, shape {ls.meta['shape']}")

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
