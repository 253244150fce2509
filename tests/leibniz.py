"""Reference determinant shared by the test modules."""

import itertools


def det_by_permutations(fq, a):
    """The Leibniz expansion, one signed product per permutation."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1 if inversions % 2 == 0 else fq.neg(1)
        for i, j in enumerate(perm):
            term = fq.mul(term, int(a[i][j]))
        total = fq.add(total, term)
    return total
