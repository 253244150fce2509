#!/usr/bin/env python3
"""Time the field arithmetic that the decoder and the builders lean on:
the cold construction of the field (`FqContext(p, e)` outside the
`fq_context` cache: its primitive element and every table, the modulus
coming from the `smallest_irreducible` cache),
`FqContext.mat_mul` on one pair of 6x6 matrices, on a stack of 25 and on
a stack of 4096 (each times one matrix), `rref` of one 6x12 matrix and of
a stack of 4096, and `v_scale` of one 6-vector, over F_3, F_5 and F_9.
Each row is the best of five repeats, in microseconds per call, on seeded
codes; the table has a fixed layout and the script takes no options."""

import os
import sys
import timeit

# run from a checkout: the package lives in <root>/src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from orthosig.fields import FqContext, fq_context  # noqa: E402

FIELDS = [(3, 1), (5, 1), (3, 2)]
N = 6
REPEATS = 5


def best_us(f, number):
    return min(timeit.repeat(f, number=number, repeat=REPEATS)) / number * 1e6


def rows(fq, rng):
    """(operation, µs per call) of each row, with calls per repeat set to
    take a few ms each on a 2-core machine."""
    def codes(*shape):
        return rng.integers(0, fq.q, shape).astype(np.int16)

    yield "FqContext cold", best_us(lambda: FqContext(fq.p, fq.e), 20)
    B = codes(N, N)
    for name, A, number in [("mat_mul pair", codes(N, N), 4000), ("mat_mul stack 25", codes(25, N, N), 1000),
                            ("mat_mul stack 4096", codes(4096, N, N), 4)]:
        yield name, best_us(lambda: fq.mat_mul(A, B), number)
    for name, M, number in [("rref one", codes(N, 2 * N), 40), ("rref stack 4096", codes(4096, N, 2 * N), 1)]:
        yield name, best_us(lambda: fq.rref(M), number)
    s, v = np.int16(fq.q - 1), codes(N)
    yield "v_scale", best_us(lambda: fq.v_scale(s, v), 4000)


def main():
    print(f"{'field':6s} {'operation':18s} {'µs':>9s}")
    for p, e in FIELDS:
        fq = fq_context(p, e)
        for op, us in rows(fq, np.random.default_rng(fq.q)):
            print(f"F_{fq.q:<4d} {op:18s} {us:9.2f}")


if __name__ == "__main__":
    main()
