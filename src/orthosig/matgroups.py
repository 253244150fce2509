"""Dense matrices over F_q, Singer cycles, the one breadth-first closure,
and the literal block generator used by the signature constructions.

Inside the package an element is an (n, n) int16 array of field codes and
a set of elements is a (k, n, n) stack.  `Mat`, an immutable value object
hashed on its entry bytes, is the one element a caller hands in or gets
back: a composed or factored element, a matrix read from a file, and the
blocks of a signature.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache

import numpy as np

from .fields import (
    FieldError, FqContext, _mat_pow, check_field_size, companion_powers, first_primitive, fq_context, is_int,
    keys, product_rows, read_only, smallest_irreducible,
)


class ConstructionMismatch(RuntimeError):
    """A literal generator recipe failed its isometry or order assertion."""


class OrderNotFound(RuntimeError):
    pass


# A family name is a base followed by the suffix of a form kind, such as
# "PSO-" or "Oodd".  This module is the only one that reads or spells one.
BASES = ("O", "SO", "Omega", "PSO", "POmega")
SUFFIXES = {"minus": "-", "plus": "+", "odd": "odd"}

# name -> (projective, linear base, kind): PSO and POmega are the quotients
# of SO and Omega by the scalars +-I
_PARTS = {base + suffix: (base.startswith("P"), base.removeprefix("P"), kind)
          for base in BASES for kind, suffix in SUFFIXES.items()}
FAMILIES = tuple(_PARTS)


def split_family(name: str) -> tuple[bool, str, str]:
    """(projective, base, kind) of a family name: whether the group is a
    quotient by +-I, the linear group O, SO or Omega it is taken from, and
    the form kind.  Raises ValueError on any name outside FAMILIES."""
    try:
        return _PARTS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown family {name!r}") from None


def family_of(base: str, kind: str) -> str:
    """The family name of a base in BASES and a form kind."""
    return base + SUFFIXES[kind]


@dataclass(frozen=True)
class GroupDescriptor:
    """Which group: family name, field size q = p^e, matrix dimension n.
    p, e, kind and whether the group is projective are set once here, from
    the values its checks compute; they are not fields, so `==`, the hash
    and `replace` see family, q and n alone."""

    family: str
    q: int
    n: int

    def __post_init__(self):
        projective, _, kind = split_family(self.family)
        for name, value in (("q", self.q), ("n", self.n)):
            if not is_int(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
        p, e = check_field_size(self.q)
        if p == 2:
            raise ValueError("q must be odd")
        if kind != "odd":
            if self.n % 2 != 0 or self.n < 2:
                raise ValueError(f"family {self.family} needs even n >= 2, got {self.n}")
        elif self.n % 2 != 1:
            raise ValueError(f"odd-dimension family needs odd n, got {self.n}")
        elif self.n < 1:
            raise ValueError(f"odd-dimension family needs n >= 1, got {self.n}")
        for name, value in (("p", p), ("e", e), ("kind", kind), ("projective", projective)):
            object.__setattr__(self, name, value)

    @property
    def m(self):
        """The rank: n = 2m, or 2m + 1 for the odd kind."""
        return self.n // 2

    def base_family(self):
        """The family name without its kind suffix, one of BASES."""
        projective, base, _ = split_family(self.family)
        return "P" + base if projective else base

    def with_base(self, base: str) -> GroupDescriptor:
        """The group of another base in BASES with the same kind, q and n."""
        return GroupDescriptor(family_of(base, self.kind), self.q, self.n)

    def to_json(self):
        # "k" is kept so that every file written keeps its bytes
        return {"family": self.family, "q": self.q, "n": self.n, "k": 0}

    @staticmethod
    def from_json(d):
        if missing := [key for key in ("family", "q", "n") if key not in d]:
            raise ValueError(f"group descriptor has no {', '.join(missing)}")
        return GroupDescriptor(d["family"], d["q"], d["n"])


def descriptor(family: str, q: int, m: int | None = None, n: int | None = None) -> GroupDescriptor:
    if n is None:
        if m is None:
            raise ValueError("need m or n")
        n = 2 * m + 1 if split_family(family)[2] == "odd" else 2 * m
    return GroupDescriptor(family, q, n)


# ----------------------------------------------------------------------


class Mat:
    """Immutable square matrix over F_q (entries are field codes)."""

    __slots__ = ("fq", "a", "_key")

    def __init__(self, fq: FqContext, a):
        arr = np.ascontiguousarray(a, dtype=np.int16)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("Mat needs a square array")
        arr.setflags(write=False)
        self.fq = fq
        self.a = arr
        self._key = arr.tobytes()

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def key(self):
        return self._key

    def __mul__(self, other):
        return Mat(self.fq, self.fq.mat_mul(self.a, other.a))

    def __eq__(self, other):
        return isinstance(other, Mat) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Mat({self.a.tolist()})"

    def __array__(self, dtype=None, copy=None):
        # np.asarray of a list of matrices is their (k, n, n) stack
        return self.a.astype(self.a.dtype if dtype is None else dtype, copy=bool(copy))

    def inv(self):
        return Mat(self.fq, self.fq.mat_inv(self.a))

    def pow(self, k: int):
        if k < 0:
            return self.inv().pow(-k)
        return Mat(self.fq, self.fq.mat_pow(self.a, k))

    def to_json(self):
        return {
            "n": self.n,
            "entries": [[list(self.fq.coeffs(c)) for c in row] for row in self.a],
        }

    @staticmethod
    def from_json(fq: FqContext, d):
        """The matrix of a `to_json` dict: a matrix record
        (`check_matrix_record`) whose every entry is a list of e
        coefficients in [0, p), FieldError otherwise."""
        check_matrix_record(d)
        if any(not isinstance(c, list) or len(c) != fq.e for row in d["entries"] for c in row):
            raise FieldError(f"every entry needs a list of {fq.e} coefficients")
        a = [[fq.from_coeffs(c) for c in row] for row in d["entries"]]
        return Mat(fq, np.array(a, dtype=np.int16))


def check_matrix_record(d, n=None):
    """Raises a ValueError that names the fault unless d is a matrix record
    as `Mat.to_json` writes it: an object with an int "n" >= 1 (equal to n,
    when given) and "entries", a list of "n" rows of "n" entries each."""
    if not isinstance(d, dict):
        raise ValueError(f"a matrix record is an object, got {type(d).__name__} {d!r:.40}")
    size = d.get("n")
    if not (is_int(size) and size >= 1):
        raise ValueError(f'a matrix record needs an int "n" of at least 1, got {size!r}')
    if n is not None and size != n:
        raise ValueError(f'the record is labelled "n": {size}, not {n}')
    rows = d.get("entries")
    if not (isinstance(rows, list) and len(rows) == size
            and all(isinstance(r, list) and len(r) == size for r in rows)):
        raise ValueError(f'"entries" of a record labelled "n": {size} must be {size} lists of {size} entries')


# ----------------------------------------------------------------------


@cache
def singer_generator(k: int, fq: FqContext) -> np.ndarray:
    """A read-only k x k array A over F_q of multiplicative order q^k - 1:
    the map
    x -> alpha x on F_{q^k} in the F_q-basis 1, alpha, .., alpha^(k-1), so
    the companion matrix of the minimal polynomial of alpha over F_q.

    F_{q^k} is F_p[C], C the companion matrix of the degree ek modulus, and
    alpha its first primitive element (`first_primitive`).  F_q sits in it
    as the span of 1, gamma, .., gamma^(e-1), gamma = alpha^((p^ek-1)/(q-1));
    theta, the lex-smallest of its q elements that is a root of the modulus
    of F_q, reads F_q codes.  One F_p solve against the basis alpha^j
    theta^i (j < k major, i < e) gives the F_q-coordinates of alpha^k, the
    last column.  For k = 1, A is the generator of F_q.  Nothing of size
    p^ek is built."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return read_only(np.array([[fq.generator]], dtype=np.int16))
    p, e = fq.p, fq.e
    d = e * k
    cpow = companion_powers(smallest_irreducible(p, d), p)  # C^0, .., C^(d-1)
    alpha = np.tensordot(first_primitive(p, cpow), cpow, 1) % p
    gamma = _mat_pow(alpha, (p ** d - 1) // (fq.q - 1), p)
    basis = [cpow[0][:, 0]]
    for _ in range(e - 1):
        basis.append(gamma @ basis[-1] % p)
    sub = product_rows(p, e, 0, fq.q) @ np.array(basis) % p  # the elements of F_q
    mult = np.tensordot(sub, cpow, 1) % p
    value = np.zeros_like(sub)
    for c in fq.modulus[::-1]:  # Horner, the leading coefficient first
        value = (mult @ value[:, :, None])[:, :, 0] % p
        value[:, 0] = (value[:, 0] + c) % p
    theta = np.tensordot(min(sub[~value.any(axis=1)].tolist()), cpow, 1) % p
    cols = [cpow[0][:, 0]]  # theta^i, then alpha^j theta^i
    for _ in range(e - 1):
        cols.append(theta @ cols[-1] % p)
    for _ in range(d - e):
        cols.append(alpha @ cols[-e] % p)
    last = alpha @ cols[-e] % p  # alpha^k
    y = fq_context(p, 1).solve(np.array(cols, dtype=np.int16).T, last.astype(np.int16))
    A = np.eye(k, k=-1, dtype=np.int16)
    A[:, -1] = y.reshape(k, e).astype(np.int64) @ p ** np.arange(e)
    return read_only(A)


def powers(fq: FqContext, x, s: int):
    """The (s, n, n) stack x^0, .., x^(s-1) of an (n, n) array: a running
    product that doubles the table with one stacked product a step,
    x^(j+k) = x^j x^k for j < k = the current length."""
    P = fq.identity(len(x))[None]
    xk = x
    while len(P) < s:
        P = np.concatenate([P, fq.mat_mul(P[:s - len(P)], xk)])
        if len(P) < s:
            xk = fq.mat_mul(P[-1], x)
    return P


def element_order(fq: FqContext, x, cap: int) -> int:
    """Least t <= cap with x^t = I for an (n, n) array x, read off the table
    `powers` of x^0, .., x^cap; raises OrderNotFound beyond cap, or
    FieldError when x is singular (no power of it is I, so the determinant
    is only taken once the table has no hit)."""
    hit = np.flatnonzero((powers(fq, x, cap + 1)[1:] == fq.identity(len(x))).all(axis=(1, 2)))
    if len(hit):
        return int(hit[0]) + 1
    if fq.det(x) == 0:
        raise FieldError("singular matrix has no order")
    raise OrderNotFound(f"order exceeds cap {cap}")


# ----------------------------------------------------------------------
# group orders, closed forms


def order_sp(n: int, q: int) -> int:
    if n % 2:
        raise ValueError("symplectic groups need even dimension")
    m = n // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def order_orthogonal(kind: str, n: int, q: int) -> int:
    """|O_n^kind(q)| for odd q."""
    if kind == "odd":
        if n % 2 == 0:
            raise ValueError("odd kind needs odd n")
        m = (n - 1) // 2
        out = 2 * q ** (m * m)
        for i in range(1, m + 1):
            out *= q ** (2 * i) - 1
        return out
    if n % 2 or n < 2:
        raise ValueError("even kind needs even n >= 2")
    m = n // 2
    eps = 1 if kind == "plus" else -1
    out = 2 * q ** (m * (m - 1)) * (q ** m - eps)
    for i in range(1, m):
        out *= q ** (2 * i) - 1
    return out


def group_order(desc: GroupDescriptor) -> int:
    base = desc.base_family()
    if desc.n == 1:
        o = 2
    else:
        o = order_orthogonal(desc.kind, desc.n, desc.q)
    if base == "O":
        return o
    if base == "SO":
        return o // 2
    if base == "PSO":
        so = o // 2
        return so // 2 if desc.n % 2 == 0 else so
    if base == "Omega":
        if desc.n <= 2:
            raise ValueError("Omega order not defined here for n <= 2")
        return o // 4
    raise ValueError("POmega order depends on whether -I is in Omega; use enumeration")


def isotropic_point_count(kind: str, q: int, m: int) -> int:
    if kind == "minus":
        return (q ** m + 1) * (q ** (m - 1) - 1) // (q - 1)
    if kind == "plus":
        return (q ** m - 1) * (q ** (m - 1) + 1) // (q - 1)
    if kind == "odd":
        return (q ** m - 1) * (q ** m + 1) // (q - 1)
    raise ValueError(kind)


def maximal_ts_count(kind: str, q: int, r: int) -> int:
    """Number of totally singular subspaces of the Witt index r, the
    largest dimension: the product of q^i + 1 over r consecutive i, from
    i = 0 (plus), 1 (odd) or 2 (minus)."""
    lo = {"plus": 0, "odd": 1, "minus": 2}[kind]
    out = 1
    for i in range(lo, lo + r):
        out *= q ** i + 1
    return out


# ----------------------------------------------------------------------
# closure enumeration


_CLOSURE_CAP = 2_000_000


def closure(starts, images, limit):
    """Breadth-first closure of the arrays `starts` under `images`, the one
    BFS of the package.

    `images(x)` gives the images of node x as one stack.  Nodes are
    deduplicated by their keys (`fields.keys`, one call per stack) and kept
    in first-seen order, and the walk stops once `limit` nodes are known.
    Returns (nodes, parent, via): node t is images(nodes[parent[t]])[via[t]],
    and a start node has parent and via -1.  Nodes are copies, so they do
    not keep their stacks alive.
    """
    nodes, seen = [], set()
    parent, via = array("l"), array("l")
    # the starts, then the images of each node in turn
    t, stack = -1, starts
    while stack is not None:
        for i, key in enumerate(keys(stack).tolist()):
            if len(nodes) == limit:
                break
            if key not in seen:
                seen.add(key)
                nodes.append(np.array(stack[i]))
                parent.append(t)
                via.append(-1 if t < 0 else i)
        t += 1
        stack = images(nodes[t]) if t < len(nodes) < limit else None
    return nodes, parent, via


def mulclose(fq: FqContext, gens):
    """Multiplicative closure of a (k, n, n) generator stack, as one stack
    in BFS order from the identity, deterministic: the identity alone for
    no generators."""
    nodes = closure([fq.identity(gens.shape[-1])], lambda x: fq.mat_mul(x, gens), _CLOSURE_CAP + 1)[0]
    if len(nodes) > _CLOSURE_CAP:
        raise RuntimeError("closure exceeded cap")
    return np.stack(nodes)


def derived_subgroup(fq: FqContext, gens):
    """Derived subgroup of the group a (k, n, n) generator stack generates:
    the normal closure of the k^2 commutators a b a^-1 b^-1, in (a, b)
    order, from one stacked inverse and three stacked products, as one
    stack in BFS order from the identity: the identity alone for no
    generators."""
    n = gens.shape[-1]
    invs = fq.mat_inv(gens)
    ab = fq.mat_mul(gens[:, None], gens[None])
    comms = fq.mat_mul(fq.mat_mul(ab, invs[:, None]), invs[None]).reshape(-1, n, n)

    # close under multiplication and conjugation by the ambient generators
    def images(x):
        return np.concatenate([fq.mat_mul(x, comms), fq.mat_mul(fq.mat_mul(gens, x), invs)])

    nodes = closure([fq.identity(n), *comms], images, _CLOSURE_CAP + 1)[0]
    if len(nodes) > _CLOSURE_CAP:
        raise RuntimeError("derived subgroup exceeded cap")
    return np.stack(nodes)


# ----------------------------------------------------------------------
# literal block generators


def standard_generators(desc: GroupDescriptor, space):
    """The literal cyclic-block generator a for a staged signature, an
    (n, n) array in the space's Witt coordinates: a torus element of order q^m + 1 (minus, odd)
    or q^{m-1} + 1 (plus), checked to be an isometry of determinant 1.

    Returns (a, notes).  The B block is built by the stage itself, as
    D + D^{-T} with D a Singer cycle of order q^r - 1 on the base subspace.
    For SO the notes record why that form is used: a starred D* from the
    dot-product orthogonal group must be an involution, so it has order
    q^r - 1 only when q^r - 1 <= 2 (q = 3, r = 1).  Raises
    ConstructionMismatch when the literal recipe for a fails its isometry or
    order assertion; callers may fall back to the search in lscore.
    """
    from . import forms  # deferred; forms imports this module

    base = desc.base_family()
    if base not in ("O", "SO"):
        raise ValueError("standard_generators covers the O and SO families")
    kind, q, m = desc.kind, desc.q, space.m
    a = _literal_a(kind, space)
    expected_a = {"minus": q ** m + 1, "plus": q ** (m - 1) + 1, "odd": q ** m + 1}[kind]
    ord_a = element_order(space.fq, a, expected_a + 1)
    if ord_a != expected_a:
        raise ConstructionMismatch(f"a has order {ord_a}, expected {expected_a}")
    if not forms.preserves_form(space.fq, space.gram, a):
        raise ConstructionMismatch("a is not an isometry")
    if space.fq.det(a) != 1:
        raise ConstructionMismatch("a has determinant != 1")
    target = q ** space.witt_index - 1
    if base == "SO" and target > 2:
        return a, [
            "starred b requires an involutory orthogonal D* of order "
            f"{target}; impossible, falling back",
            "orthogonal-subgroup b variant unavailable; using the inverse-transpose block form (det 1)",
        ]
    return a, []


def _literal_a(kind: str, space) -> np.ndarray:
    if kind == "plus":
        return _plus_literal_a(space)
    if kind not in ("minus", "odd"):
        raise ValueError(kind)
    # multiplication by b = alpha^(q^m - 1), of order q^m + 1, on F_{q^2m}
    fq, m, n = space.fq, space.m, space.n
    blk = fq.identity(n)
    blk[:2 * m, :2 * m] = fq.mat_pow(singer_generator(2 * m, fq), space.q ** m - 1)
    return space.model_to_witt(blk)


def _plus_literal_a(space) -> np.ndarray:
    """Order q^{m-1}+1 torus on an embedded (2m-2)-dimensional subspace of
    minus type, identity on its 2-dimensional anisotropic complement."""
    from . import forms

    fq = space.fq
    q, m, n = space.q, space.m, space.n
    if m == 1:
        raise ConstructionMismatch("plus type with m = 1 has no torus block")
    U2 = forms.find_anisotropic_plane(space)
    Ubasis = forms.perp_basis(space, U2)
    GU = forms.gram_restriction(space, Ubasis)
    model = forms.build_space("minus", fq, m - 1)
    phi, lam = forms.align_spaces(model, GU, fq)
    if lam != 1:
        raise ConstructionMismatch("embedded minus subspace is only similar, not isometric")
    t_model = model.model_to_witt(fq.mat_pow(singer_generator(2 * m - 2, fq), q ** (m - 1) - 1))
    t_U = fq.mat_mul(fq.mat_mul(phi, t_model), fq.mat_inv(phi))
    # assemble in full-space Witt coordinates: columns describe images of
    # the U-basis and of the complement basis
    C = np.concatenate([Ubasis, U2], axis=0).T.astype(np.int16)  # witt coords of [U | U2]
    Cinv = fq.mat_inv(np.ascontiguousarray(C))
    big = np.zeros((n, n), dtype=np.int16)
    big[:n - 2, :n - 2] = t_U
    big[n - 2:, n - 2:] = fq.identity(2)
    return fq.mat_mul(fq.mat_mul(C, big), Cinv)
