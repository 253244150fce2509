"""Reference determinant and elimination shared by the test modules,
written apart from the package's stacked kernel."""

import itertools

import numpy as np


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


def rref_by_rows(fq, A):
    """Gauss-Jordan elimination of one matrix, column by column, row by
    row; returns the reduced row echelon form and its pivot columns."""
    R = np.array(A, dtype=np.int16, copy=True)
    rows, cols = R.shape
    piv = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = next((i for i in range(r, rows) if R[i, c]), None)
        if sel is None:
            continue
        if sel != r:
            R[[r, sel]] = R[[sel, r]]
        R[r] = fq.v_scale(fq.inv(int(R[r, c])), R[r])
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] = fq.v_add(R[i], fq.v_scale(fq.neg(int(R[i, c])), R[r]))
        piv.append(c)
        r += 1
    return R, piv
