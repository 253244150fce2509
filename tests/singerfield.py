"""F_{q^k} as F_q[A], A a Singer matrix: the element with coordinates v in
the basis 1, alpha, .., alpha^(k-1) is the matrix sum_j v_j A^j, whose first
column is v."""

import numpy as np

from orthosig.matgroups import powers


def elements(fq, A, coords):
    """The matrices sum_j v_j A^j for the rows v of `coords`, one product
    with the flattened powers of the (k, k) array A."""
    k = len(A)
    return fq.mat_mul(np.asarray(coords, dtype=np.int16), powers(fq, A, k).reshape(k, k * k)).reshape(-1, k, k)
