#!/usr/bin/env python3
"""Survey the construction ladder over a grid of groups: which shape each
family lands on, the signature length against the minimal bound, the
verification outcome (exhaustive, membership included, within the default
budget of `verify_ls`; sampled above it), and the median time of one tame
factorization of 200 seeded members (`-` where the signature has no
decoding tables)."""

import random
import statistics
import time

from orthosig.factorize import compose, tame_factor, unrank
from orthosig.lscore import EXHAUSTIVE_BUDGET, canonical_ls, min_length_bound, verify_ls
from orthosig.matgroups import descriptor

CASES = [
    ("O-", 3, 2), ("O+", 3, 2), ("SO-", 3, 2), ("SO+", 3, 2),
    ("Oodd", 3, 1), ("Oodd", 3, 3), ("Oodd", 3, 5),
    ("O-", 3, 4), ("O+", 3, 4), ("SO-", 3, 4), ("SO+", 3, 4),
    ("PSO-", 3, 4), ("PSO+", 3, 4),
    ("O-", 5, 4), ("O+", 5, 4), ("Oodd", 5, 3),
    ("O-", 3, 6), ("O+", 3, 6),
]
DECODE_MEMBERS = 200


def decode_us(ls):
    """Median microseconds of tame_factor over seeded members of the group."""
    rng = random.Random(0)
    times = []
    for _ in range(DECODE_MEMBERS):
        g = compose(unrank(rng.randrange(ls.claimed_order), ls), ls)
        t0 = time.perf_counter()
        tame_factor(g, ls)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


print(f"{'group':>12} {'order':>10} {'len':>5} {'bound':>5} {'shape':>12} {'verified':>9} {'s':>6} "
      f"{'decode µs':>9}")
for fam, q, n in CASES:
    t0 = time.monotonic()
    ls = canonical_ls(descriptor(fam, q, n=n))
    bound = min_length_bound(ls.claimed_order).bound
    if ls.claimed_order <= EXHAUSTIVE_BUDGET:
        rep = verify_ls(ls, "exhaustive")
        verdict = "exact" if rep.valid else "INVALID"
    elif ls.plan is not None:
        rep = verify_ls(ls, "sampled", samples=2000, seed=42)
        verdict = "sampled" if rep.valid else "INVALID"
    else:
        verdict = "-"
    dt = time.monotonic() - t0
    decode = f"{decode_us(ls):.0f}" if ls.plan is not None else "-"
    shape = ls.meta.get("shape", "projected" if ls.meta.get("projected") else "?")
    print(f"{fam + str(n) + '(' + str(q) + ')':>12} {ls.claimed_order:>10} {ls.length:>5} "
          f"{bound:>5} {shape:>12} {verdict:>9} {dt:>6.1f} {decode:>9}")
