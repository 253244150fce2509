#!/usr/bin/env python3
"""Time the one-element paths a cipher key takes: `unrank`, `compose`,
`tame_factor` and `rank` on the canonical signatures of O-4(5), O-4(9),
Oodd5(3) and O+6(3), one 25-sample sampled `verify_ls` of O+6(3), and one
PGM round trip (`encrypt` then `decrypt`) with the seed-1 keys of O-4(3)
and O+4(5).  Each row is the best of five repeats, in microseconds per
call, over a fixed set of seeded ranks (or messages, or sample seeds)
that every repeat walks once; the signatures and keys are built before
timing.  The table has a fixed layout and the script takes no options."""

import os
import random
import sys
from time import perf_counter

# run from a checkout: the package lives in <root>/src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from orthosig import pgm  # noqa: E402
from orthosig.factorize import compose, rank, tame_factor, unrank  # noqa: E402
from orthosig.lscore import canonical_ls, verify_ls  # noqa: E402
from orthosig.matgroups import descriptor  # noqa: E402

GROUPS = [("O-", 5, 2), ("O-", 9, 2), ("Oodd", 3, 2), ("O+", 3, 3)]
SAMPLED = ("O+", 3, 3)
KEYS = [("O-", 3, 2), ("O+", 5, 2)]
REPEATS = 5
INPUTS = 200


def label(family, q, m):
    n = 2 * m + 1 if family == "Oodd" else 2 * m
    return f"{family}{n}({q})"


def best_us(f, args):
    """The best of REPEATS walks of f over args, in µs per call."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for a in args:
            f(a)
        best = min(best, perf_counter() - t0)
    return best / len(args) * 1e6


def rows(rng):
    """(group, operation, µs per call) of each row."""
    for g in GROUPS:
        ls = canonical_ls(descriptor(g[0], g[1], m=g[2]))
        ranks = [rng.randrange(ls.claimed_order) for _ in range(INPUTS)]
        ivs = [unrank(v, ls) for v in ranks]
        elems = [compose(iv, ls) for iv in ivs]
        yield label(*g), "unrank", best_us(lambda v: unrank(v, ls), ranks)
        yield label(*g), "compose", best_us(lambda iv: compose(iv, ls), ivs)
        yield label(*g), "tame_factor", best_us(lambda x: tame_factor(x, ls), elems)
        yield label(*g), "rank", best_us(lambda iv: rank(iv, ls), ivs)
    ls = canonical_ls(descriptor(SAMPLED[0], SAMPLED[1], m=SAMPLED[2]))
    seeds = [rng.randrange(2 ** 31) for _ in range(8)]
    yield label(*SAMPLED), "sampled verify 25", best_us(lambda s: verify_ls(ls, "sampled", samples=25, seed=s),
                                                        seeds)
    for g in KEYS:
        key = pgm.keygen(descriptor(g[0], g[1], m=g[2]), 1)
        msgs = [rng.randrange(key.order) for _ in range(INPUTS // 4)]
        yield label(*g), "pgm round trip", best_us(lambda x: pgm.decrypt(key, pgm.encrypt(key, x)), msgs)


def main():
    print(f"{'group':9s} {'operation':18s} {'µs':>9s}")
    for group, op, us in rows(random.Random(1)):
        print(f"{group:9s} {op:18s} {us:9.2f}")


if __name__ == "__main__":
    main()
