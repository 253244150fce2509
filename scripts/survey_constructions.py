#!/usr/bin/env python3
"""Survey the construction ladder over a grid of groups: which shape each
family lands on, the signature length against the minimal bound, the
verification outcome (exhaustive, membership included, within the default
budget of `verify_ls`; sampled above it), the decode step of each level
of the plan, the median time of one `compose` of 200 seeded index vectors,
and the median time of one tame factorization of their products (`-` where
the signature has no decoding tables); each time is the lowest of the
medians of five passes over the same vectors."""

import os
import random
import statistics
import sys
import time

# run from a checkout: the package lives in <root>/src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from orthosig.factorize import compose, tame_factor, unrank  # noqa: E402
from orthosig.lscore import EXHAUSTIVE_BUDGET, _TablePlan, canonical_ls, min_length_bound, verify_ls  # noqa: E402
from orthosig.matgroups import descriptor  # noqa: E402

CASES = [
    ("O-", 3, 2), ("O+", 3, 2), ("SO-", 3, 2), ("SO+", 3, 2),
    ("Oodd", 3, 1), ("Oodd", 3, 3), ("Oodd", 3, 5),
    ("O-", 3, 4), ("O+", 3, 4), ("SO-", 3, 4), ("SO+", 3, 4),
    ("PSO-", 3, 4), ("PSO+", 3, 4),
    ("O-", 5, 4), ("O+", 5, 4), ("Oodd", 5, 3),
    ("O-", 3, 6), ("O+", 3, 6),
    ("O-", 9, 4),
]
DECODE_MEMBERS = 200
PASSES = 5


def timed_us(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, (time.perf_counter() - t0) * 1e6


def decode_steps(rec):
    """The decode step of each level record of the plan, top first, down
    the `sub` chain to the first table that answers a member: `front` or
    `stab` for a stage's product table, `siegel` for a stage without one,
    `table` for a base level; `-` without a plan."""
    steps = []
    while rec is not None:
        table = "table" if isinstance(rec, _TablePlan) else "front" if rec.front else "stab" if rec.stab else None
        steps.append(table or "siegel")
        rec = None if table else rec.sub
    return ">".join(steps) or "-"


def compose_decode_us(ls):
    """Microseconds of compose over seeded index vectors, and of
    tame_factor over their products (None without decoding tables): the
    lowest median of PASSES passes over the same vectors."""
    rng = random.Random(0)
    ivs = [unrank(rng.randrange(ls.claimed_order), ls) for _ in range(DECODE_MEMBERS)]
    compose_medians, decode_medians = [], []
    for _ in range(PASSES):
        compose_us, decode_us = [], []
        for iv in ivs:
            g, us = timed_us(compose, iv, ls)
            compose_us.append(us)
            if ls.plan is not None:
                decode_us.append(timed_us(tame_factor, g, ls)[1])
        compose_medians.append(statistics.median(compose_us))
        if decode_us:
            decode_medians.append(statistics.median(decode_us))
    return min(compose_medians), min(decode_medians) if decode_medians else None


print(f"{'group':>12} {'order':>10} {'len':>5} {'bound':>5} {'shape':>12} {'steps':>12} {'verified':>9} {'s':>6} "
      f"{'compose µs':>10} {'decode µs':>9}")
for fam, q, n in CASES:
    t0 = time.monotonic()
    ls = canonical_ls(descriptor(fam, q, n=n))
    bound = min_length_bound(ls.claimed_order)
    if ls.claimed_order <= EXHAUSTIVE_BUDGET:
        rep = verify_ls(ls, "exhaustive")
        verdict = "exact" if rep.valid else "INVALID"
    elif ls.plan is not None:
        rep = verify_ls(ls, "sampled", samples=2000, seed=42)
        verdict = "sampled" if rep.valid else "INVALID"
    else:
        verdict = "-"
    dt = time.monotonic() - t0
    compose_us, decode_us = compose_decode_us(ls)
    decode = f"{decode_us:.0f}" if decode_us is not None else "-"
    shape = ls.meta.get("shape", "projected" if ls.meta.get("projected") else "?")
    print(f"{fam + str(n) + '(' + str(q) + ')':>12} {ls.claimed_order:>10} {ls.length:>5} "
          f"{bound:>5} {shape:>12} {decode_steps(ls.plan):>12} {verdict:>9} {dt:>6.1f} {compose_us:>10.1f} "
          f"{decode:>9}")
