"""Reference computations made apart from the program under test.

Group orders, singular point counts and the minimal-length bound come from
textbook closed forms and a trial-division factorisation written here, not
from `orthosig.matgroups` or `orthosig.lscore`.  Matrix checks for prime
fields (e = 1) use plain integer arithmetic mod p.  The workloads compare
the program's outputs against these functions.
"""

from __future__ import annotations

import itertools

import numpy as np


def split_q(q: int) -> tuple[int, int]:
    """(p, e) with q = p**e, or ValueError when q is not a prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, r = 0, q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def factorise(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def min_length(order: int) -> int:
    """Minimal signature length: sum of a*p over |G| = prod p**a."""
    return sum(a * p for p, a in factorise(order).items())


def kind(family: str) -> str:
    """Form kind of a family name: minus, plus or odd."""
    if family.endswith("odd"):
        return "odd"
    return {"-": "minus", "+": "plus"}[family[-1]]


def dimension(family: str, m: int) -> int:
    return 2 * m + 1 if family.endswith("odd") else 2 * m


def group_order(family: str, q: int, m: int) -> int:
    """|G| for G in O, SO or PSO of kind minus, plus or odd, q odd.

    |O-(2m, q)|  = 2 q^{m(m-1)} (q^m + 1) prod_{i<m} (q^{2i} - 1)
    |O+(2m, q)|  = 2 q^{m(m-1)} (q^m - 1) prod_{i<m} (q^{2i} - 1)
    |O(2m+1, q)| = 2 q^{m^2} prod_{i<=m} (q^{2i} - 1)
    SO has index 2 in O; PSO = SO / {I, -I} in even dimension, SO otherwise.
    """
    k = kind(family)
    if k == "odd":
        order = 2 * q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
    else:
        order = 2 * q ** (m * (m - 1)) * (q ** m + (1 if k == "minus" else -1))
        for i in range(1, m):
            order *= q ** (2 * i) - 1
    if family.startswith("PSO"):
        return order // 2 // (2 if k != "odd" else 1)
    if family.startswith("SO"):
        return order // 2
    if family.startswith("O"):
        return order
    raise ValueError(f"no closed form here for {family}")


def singular_points(kind: str, q: int, m: int) -> int:
    """Number of singular projective points of the quadric.

    minus, dim 2m: (q^m + 1)(q^{m-1} - 1) / (q - 1)
    plus,  dim 2m: (q^m - 1)(q^{m-1} + 1) / (q - 1)
    odd, dim 2m+1: (q^{2m} - 1) / (q - 1)
    """
    if kind == "minus":
        return (q ** m + 1) * (q ** (m - 1) - 1) // (q - 1)
    if kind == "plus":
        return (q ** m - 1) * (q ** (m - 1) + 1) // (q - 1)
    if kind == "odd":
        return (q ** (2 * m) - 1) // (q - 1)
    raise ValueError(kind)


def digits(rank: int, sizes) -> list[int]:
    """Mixed-radix digits of rank, first block fastest-varying."""
    out = []
    for s in sizes:
        out.append(rank % s)
        rank //= s
    return out


# ----------------------------------------------------------------------
# prime-field matrix arithmetic


def mat_product(mats, p: int) -> np.ndarray:
    acc = np.asarray(mats[0], dtype=np.int64) % p
    for m in mats[1:]:
        acc = (acc @ np.asarray(m, dtype=np.int64)) % p
    return acc


def count_singular_points(gram, p: int) -> int:
    """Brute-force count of projective points v with v^T G v = 0 mod p."""
    G = np.asarray(gram, dtype=np.int64)
    n = G.shape[0]
    vecs = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    nz = vecs[np.any(vecs != 0, axis=1)]
    first = nz[np.arange(len(nz)), np.argmax(nz != 0, axis=1)]
    reps = nz[first == 1]
    vals = np.einsum("ij,jk,ik->i", reps, G, reps) % p
    return int(np.count_nonzero(vals == 0))


def check_gram(gram, kind: str, p: int, m: int) -> list[str]:
    """The form the elements preserve: symmetric, non-singular mod p, and
    with the closed-form number of singular points for its kind."""
    G = np.asarray(gram, dtype=np.int64)
    problems = []
    if not np.array_equal(G, G.T):
        problems.append("gram matrix is not symmetric")
    if round(np.linalg.det(G.astype(float))) % p == 0:
        problems.append("gram matrix is singular mod p")
    got, want = count_singular_points(G, p), singular_points(kind, p, m)
    if got != want:
        problems.append(f"form has {got} singular points, closed form {want}")
    return problems


def check_products(blocks, gram, p: int, index_vectors, projective=False) -> list[str]:
    """Products of the indexed block elements preserve G and are pairwise
    distinct (up to sign for projective groups)."""
    G = np.asarray(gram, dtype=np.int64) % p
    problems = []
    seen = {}
    for iv in index_vectors:
        g = mat_product([blocks[b][i] for b, i in enumerate(iv)], p)
        if not np.array_equal((g.T @ G @ g) % p, G):
            problems.append(f"product at {list(iv)} does not preserve the form")
        key = min(g.tobytes(), ((-g) % p).tobytes()) if projective else g.tobytes()
        if key in seen and seen[key] != tuple(iv):
            problems.append(f"index vectors {list(seen[key])} and {list(iv)} give one product")
        seen[key] = tuple(iv)
    return problems


def check_signature(family, q, m, order, sizes, length, minimal) -> list[str]:
    """Order, block sizes, length bound and the minimal flag of a signature."""
    want = group_order(family, q, m)
    bound = min_length(want)
    problems = []
    if order != want:
        problems.append(f"order {order}, closed form {want}")
    prod = 1
    for s in sizes:
        prod *= s
    if prod != want:
        problems.append(f"block sizes multiply to {prod}, closed form {want}")
    if length != sum(sizes):
        problems.append(f"length {length} is not the sum of block sizes")
    if length < bound:
        problems.append(f"length {length} below the minimal bound {bound}")
    if bool(minimal) != (length == bound):
        problems.append(f"minimal={minimal} but length {length}, bound {bound}")
    return problems
