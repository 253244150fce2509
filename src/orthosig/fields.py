"""Exact arithmetic in F_q = F_{p^e}, and the envelope of accepted (q, m).

Elements of F_q are stored as integer codes in [0, q): the base-p digits
of a code, low degree first, are the coefficients in the power basis of
its modulus.  Moduli and primitive elements are chosen by deterministic
lexicographic scans (coefficient vectors compared low-degree-first) so
serialized artifacts reproduce across runs and machines; a candidate
modulus or primitive element is tested by matrix powers in F_p[C], C the
companion matrix of a modulus.  Larger fields are never tabulated: the
geometry works in F_q[A], A a Singer matrix (`matgroups.singer_generator`).
Each F_q is one `FqContext`, whose `rref` is every Gaussian elimination.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import repeat

import numpy as np


# the largest stack the package builds in one piece: product segments and
# walks, decode tables, sampled batches and candidate scans; each use reads
# it at call time as `fields.CHUNK`.  Below 2^15, so the digits of a table
# of at most CHUNK products fit int16
CHUNK = 4096


class FieldError(ValueError):
    pass


def is_int(value) -> bool:
    """Whether a number read from a file is an int: a bool or a float with
    an integral value is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_prime(n: int) -> bool:
    return n >= 2 and factorint(n) == {n: 1}


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def split_prime_power(q: int) -> tuple[int, int]:
    """q = p^e with p prime, else raises."""
    f = factorint(q) if q > 1 else {}
    if len(f) != 1:
        raise FieldError(f"q = {q} is not a prime power")
    (p, e), = f.items()
    return p, e


# ----------------------------------------------------------------------
# F_p[x]/(m) as F_p[C], C the companion matrix of the monic modulus m

def _companion(m, p) -> np.ndarray:
    """The int64 matrix C of y -> x y on F_p[x]/(m), m monic of degree d
    with coefficients low degree first, in the power basis: x^j goes to
    x^(j+1) and x^(d-1) to -(m_0 + .. + m_(d-1) x^(d-1)).  A polynomial h
    acts as h(C), which is invertible exactly when gcd(h, m) = 1."""
    d = len(m) - 1
    C = np.eye(d, k=-1, dtype=np.int64)
    C[:, -1] = np.negative(m[:d]) % p
    return C


def companion_powers(m, p) -> np.ndarray:
    """The (d, d, d) int64 stack C^0, .., C^(d-1) of the companion matrix C
    of m: the element with coefficients c acts as M_c = sum c_i C^i."""
    C = _companion(m, p)
    P = [np.eye(len(C), dtype=np.int64)]
    for _ in range(len(C) - 1):
        P.append(P[-1] @ C % p)
    return np.array(P)


def _mat_pow(A, k, p) -> np.ndarray:
    """A^k mod p, for a matrix or each of a stack, by square-and-multiply
    in plain int64: entries lie below p < 2^15, so a sum of d products
    stays below d 2^30."""
    out = np.eye(A.shape[-1], dtype=np.int64)
    while k:
        if k & 1:
            out = out @ A % p
        k >>= 1
        if k:
            A = A @ A % p
    return out


def _is_irreducible(m, p) -> bool:
    """Rabin's test on the companion matrix C of the monic m of degree d:
    m is irreducible iff C^(p^d) = C and h = C^(p^(d/l)) - C is invertible
    for every prime l | d.  Once C^(p^d) = C, F_p[C] is a product of fields
    F_(p^d_i) with every d_i | d, so h is invertible iff h^(p^d - 1) = 1.
    As the Frobenius fixes F_p, h^(p^k) = C^(p^(d/l + k)) - C^(p^k), and
    h^(p^d - 1) is the product of those d differences, to the power p - 1:
    a few small products for each l, and none for degree 1."""
    C = _companion(m, p)
    d = len(C)
    frob = [C]  # frob[k] = C^(p^k), and frob[d] must be C
    for _ in range(d):
        frob.append(_mat_pow(frob[-1], p, p))
    if (frob[d] != C).any():
        return False
    one = np.eye(d, dtype=np.int64)
    for ell in factorint(d):
        norm = one
        for k in range(d):
            norm = norm @ (frob[(d // ell + k) % d] - frob[k]) % p
        if (_mat_pow(norm, p - 1, p) != one).any():
            return False
    return True


def product_rows(base: int, width: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of itertools.product(range(base), repeat=width), as a
    (hi - lo, width) int64 array: the base-`base` digits of lo..hi-1, the
    most significant first."""
    weights = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64)[:, None] // weights % base


def first_primitive(p: int, powers) -> np.ndarray:
    """The coefficients (low degree first) of the first primitive element of
    F_p[C], with `powers` the stack C^0, .., C^(d-1) (`companion_powers`):
    the first coefficient vector c, compared low-degree-first, whose matrix
    M_c = sum c_i C^i has M_c^((n-1)/l) != I for every prime l | n - 1,
    n = p^d.  The candidates are tested in stacks of 1, 2, 4, .. in scan
    order: the first is usually primitive, but over F_{p^2} with x of small
    order the scan can pass p multiples of x first."""
    d = len(powers)
    n = p ** d
    lo, step = 1, 1  # the zero vector first in scan order, and not a unit
    while lo < n:
        tails = product_rows(p, d, lo, min(lo + step, n))
        M = (tails @ powers.reshape(d, d * d)).reshape(-1, d, d) % p
        ok = np.ones(len(M), dtype=bool)
        for ell in factorint(n - 1):
            ok &= (_mat_pow(M, (n - 1) // ell, p) != powers[0]).any(axis=(1, 2))
        if ok.any():
            return tails[ok.argmax()]
        lo, step = lo + step, 2 * step
    raise FieldError("no primitive element found")  # pragma: no cover


@cache
def smallest_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree d over F_p.

    Coefficient tuples (c0, .., c_{d-1}) are compared low-degree-first.
    For d >= 2 a candidate with a root in F_p has a linear factor: the
    candidates are evaluated at every point of F_p in stacks, in order, and
    only those without a root get Rabin's test, one at a time (the scan
    usually stops after a few).
    """
    x = np.arange(p, dtype=np.int64)
    X = np.ones((d + 1, p), dtype=np.int64)  # X[i] = x^i mod p
    for i in range(1, d + 1):
        X[i] = X[i - 1] * x % p
    total, step = p ** d, max(1, CHUNK // p)
    for lo in range(0, total, step):
        tails = product_rows(p, d, lo, min(lo + step, total))
        if d >= 2:
            tails = tails[((tails @ X[:d] + X[d]) % p != 0).all(axis=1)]
        for tail in tails.tolist():
            m = tail + [1]
            if _is_irreducible(m, p):
                return tuple(m)
    raise FieldError(f"no irreducible of degree {d} over F_{p}")  # pragma: no cover


# ----------------------------------------------------------------------
# the parameter envelope: F_q, and the dimension of V = F_q^2m

def table_bytes_per_entry(e: int) -> int:
    """Bytes per entry of the q x q tables of an FqContext over F_{p^e}:
    ADD and MUL (int16) always, and PM (int32) and UN (int16) for e > 1."""
    return 4 if e == 1 else 10


# the q x q tables of F_q may take at most this many bytes (q <= 4096 for
# prime q and q <= 2590 for e > 1); the same budget draws the bound on V
TABLE_BUDGET = 64 * 2 ** 20


def check_field_size(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, or raises FieldError when F_q lies outside the
    envelope: codes are int16, so q < 2^15, and the q x q tables of its
    FqContext must fit TABLE_BUDGET.  Nothing is allocated."""
    if q >= 2 ** 15:
        raise FieldError(f"q = {q} is past the limit q < 2^15 = 32768 of int16 field codes")
    p, e = split_prime_power(q)
    per_entry = table_bytes_per_entry(e)
    if q * q * per_entry > TABLE_BUDGET:
        top = math.isqrt(TABLE_BUDGET // per_entry)
        raise FieldError(f"q = {q} is past the limit q <= {top} for {'prime q' if e == 1 else 'e > 1'} "
                         f"of the {TABLE_BUDGET // 2 ** 20} MiB field-table budget (its q x q tables would take "
                         f"{q * q * per_entry / 2 ** 20:.1f} MiB)")
    return p, e


def check_tower_size(q: int, m: int) -> tuple[int, int]:
    """(p, e) with q = p^e, or raises FieldError when the space V =
    F_q^2m of rank m lies outside the envelope: F_q must pass
    `check_field_size`, and q^2m (4em + 24) must fit TABLE_BUDGET.
    Nothing is allocated.

    That bound once sized tables of all q^2m elements of F_{q^2m}, which
    are no longer built.  It stays because `spread-check` enumerates all
    q^2m / (q - 1) points of V (about 850 MB at q = 37, m = 3): widening
    it means bounding that enumeration first."""
    p, e = check_field_size(q)
    per_vector = 4 * e * m + 24
    if q ** (2 * m) * per_vector > TABLE_BUDGET:
        raise FieldError(f"q = {q}, m = {m} is past the limit q^2m <= {TABLE_BUDGET // per_vector} of the "
                         f"{TABLE_BUDGET // 2 ** 20} MiB envelope (V = F_q^2m has {q ** (2 * m)} vectors, "
                         f"counted at {per_vector} B each: {q ** (2 * m) * per_vector / 2 ** 20:.1f} MiB)")
    return p, e


class FqContext:
    """The field F_q = F_{p^e} and its matrix/vector arithmetic.

    Entry codes are ints in [0, q): the base-p digits of a code, low degree
    first, are its coefficients in the power basis of `modulus`, the
    lex-smallest monic irreducible of degree e (`smallest_irreducible`).
    `generator` is the code of the first primitive element alpha
    (`first_primitive`).  The context holds `digits` (q x e int16, the
    digits of each code), `exp` (q - 1 int64, the codes of alpha^k) and
    `log` (q int64, -1 at 0), and from them the int16 gather tables: `ADD`
    and `MUL` are q x q, `NEG` and `INV` (0 at 0) have q entries.  `add`,
    `mul`, `neg` and `inv` read one entry each; they are the scalar
    arithmetic of the package.  Every table is read-only, as the context is
    shared by every caller in the process (`fq_context`).

    For e = 1 vectors and matrices are plain numpy integers read back
    through `RES`, RES[v] = v mod p for every int16 v (2^16 entries, a
    negative v at 2^16 + v, where numpy `take` wraps it): a sum, scaled
    vector or product of codes that fits int16 becomes codes with one
    gather in place of an integer division.  One pair of matrices is
    multiplied by int16 `dot`, a stack or a broadcast pair by int16 `@`.
    Wider sums (large p, or more columns than `int16_width`) and other
    dtypes take int64 and `%`.

    For e > 1 vectors and matrices gather from the tables.  A matrix
    product also uses two more q^2 tables: `PM` (q x q int32) packs the
    digits of a product ab in base p^2, PM[a, b] = sum_i digit_i(ab)
    p^(2i), so that p + 1 packed products add without a carry between
    digits, and `UN` (q^2 int16) reads such a sum back to the code of its
    digits mod p.

    `rref` is the one Gaussian elimination: it works on a stack of matrices
    at once and carries the signed pivot product, and `rank`, `det`,
    `solve` and `mat_inv` are its cases.
    """

    def __init__(self, p: int, e: int):
        check_field_size(p ** e)
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        self.p = p
        self.e = e
        self.q = q = p ** e
        self.fast = (e == 1)
        self.modulus = smallest_irreducible(p, e)
        pvec = p ** np.arange(e, dtype=np.int64)
        digs = np.empty((q, e), dtype=np.int16)
        tmp = np.arange(q, dtype=np.int64)
        for i in range(e):
            digs[:, i] = tmp % p
            tmp //= p
        self.digits = digs
        powers = companion_powers(self.modulus, p)
        alpha = first_primitive(p, powers)
        self.generator = int(alpha @ pvec)
        # exp[k] = code of alpha^k ; log[code] = k.  The coefficient vectors
        # of alpha^0..alpha^(q-1) come from M_alpha, the F_p matrix of
        # x -> alpha x, doubling the computed run with each matrix power.
        A = np.tensordot(alpha, powers, 1) % p
        vecs = np.zeros((1, e), dtype=np.int64)
        vecs[0, 0] = 1
        while len(vecs) < q:
            vecs = np.concatenate([vecs, (vecs @ A.T) % p])
            A = (A @ A) % p
        codes = vecs[:q] @ pvec
        if codes[q - 1] != 1:
            raise FieldError("primitive element scan failed")  # pragma: no cover
        self.exp = codes[:q - 1]
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(q - 1)
        # digit by digit, so no (q, q, e) temporary is built
        self.ADD = np.zeros((q, q), dtype=np.int16)
        for i in range(e):
            self.ADD += ((digs[:, None, i] + digs[None, :, i]) % p) * np.int16(p ** i)
        log = self.log.astype(np.int32)
        exp = self.exp.astype(np.int16)
        self.MUL = exp[(log[:, None] + log[None, :]) % (q - 1)]
        self.MUL[0] = self.MUL[:, 0] = 0
        self.NEG = (p - digs) % p @ pvec.astype(np.int16)
        self.INV = exp[-log % (q - 1)]
        self.INV[0] = 0
        if e > 1:
            packed = (digs.astype(np.int32) @ (p ** (2 * np.arange(e)))).astype(np.int32)
            self.PM = packed[self.MUL]
            self.UN = np.zeros(q * q, dtype=np.int16)
            sums = np.arange(q * q, dtype=np.int32)
            for i in range(e):
                self.UN += (sums % (p * p) % p).astype(np.int16) * np.int16(p ** i)
                sums //= p * p
            tables = [self.PM, self.UN]
        else:
            # entry i holds the int16 whose bits are those of i, reduced in place
            self.RES = np.arange(2 ** 16, dtype=np.uint16).view(np.int16)
            np.remainder(self.RES, p, out=self.RES)
            tables = [self.RES]
        read_only([self.digits, self.exp, self.log, self.ADD, self.MUL, self.NEG, self.INV, *tables])
        self.two_inv = self.inv(2 % q if p != 2 else 1)
        # a product s u of two codes fits int16 below p = 182, and a sum of
        # n of them for n up to `int16_width`: n (p - 1)^2 < 2^15
        self.int16_products = p <= 181
        self.int16_width = (2 ** 15 - 1) // (p - 1) ** 2

    # -- scalars
    def add(self, a, b):
        return int(self.ADD[a, b])

    def mul(self, a, b):
        return int(self.MUL[a, b])

    def neg(self, a):
        return int(self.NEG[a])

    def inv(self, a):
        if a == 0:
            raise FieldError("inversion of zero")
        return int(self.INV[a])

    def coeffs(self, a) -> tuple[int, ...]:
        return tuple(self.digits[a].tolist())

    def from_coeffs(self, coeffs) -> int:
        """The code of sum c_i x^i; every c_i must be an int in [0, p)."""
        if len(coeffs) > self.e:
            raise FieldError("coefficient vector too long")
        if not all(is_int(c) and 0 <= c < self.p for c in coeffs):
            raise FieldError(f"coefficients must lie in [0, {self.p}), got {list(coeffs)}")
        return int(sum(c * self.p ** i for i, c in enumerate(coeffs)))

    # -- vectors (1-d int16 arrays of codes)
    def v_add(self, u, v):
        if self.fast:
            w = u + v
            return self.RES.take(w) if w.dtype == np.int16 else w % self.p
        return self.ADD[u, v]

    def v_scale(self, s, u):
        if self.fast:
            if self.int16_products and u.dtype == np.int16 and getattr(s, "dtype", np.int16) == np.int16:
                return self.RES.take(s * u)
            return ((s * u.astype(np.int64)) % self.p).astype(np.int16)
        return self.MUL[s, u]

    def v_neg(self, u):
        if self.fast:
            return self.RES.take(-u) if u.dtype == np.int16 else (-u) % self.p
        return self.NEG[u]

    def identity(self, n):
        m = np.zeros((n, n), dtype=np.int16)
        np.fill_diagonal(m, 1)
        return m

    def mat_mul(self, A, B):
        """A @ B; stacks of matrices broadcast as in numpy's matmul."""
        if self.fast:
            if A.dtype == B.dtype == np.int16 and A.shape[-1] <= self.int16_width:
                # every sum of products of codes fits int16, so no widening;
                # `dot` skips the stack dispatch of `@` for one pair
                return self.RES.take(A.dot(B) if A.ndim == B.ndim == 2 else A @ B)
            return ((A.astype(np.int64) @ B.astype(np.int64)) % self.p).astype(np.int16)
        # each digit of a sum of p + 1 packed products is at most
        # (p + 1)(p - 1) < p^2, so a chunk of p + 1 terms sums without carry
        G = self.PM[A[..., :, :, None], B[..., None, :, :]]  # G[..., i, k, j]
        c = self.p + 1
        if A.shape[-1] <= c:
            return self.UN[G.sum(axis=-2)]
        chunks = (self.UN[G[..., k:k + c, :].sum(axis=-2)] for k in range(0, A.shape[-1], c))
        return reduce(lambda X, Y: self.ADD[X, Y], chunks)

    def mat_pow(self, A, k):
        """A^k for k >= 0, of a matrix or of each matrix of a stack, by
        square-and-multiply."""
        out = np.broadcast_to(self.identity(A.shape[-1]), A.shape)
        while k:
            if k & 1:
                out = self.mat_mul(out, A)
            k >>= 1
            if k:
                A = self.mat_mul(A, A)
        return np.array(out)

    def mat_vec(self, A, v):
        """A v for a vector v and a matrix A, or each matrix of a stack."""
        return self.mat_mul(A, v[:, None])[..., 0]

    def rref(self, A):
        """The one Gaussian elimination of the package.

        Takes an (r, n) matrix or a (k, r, n) stack and returns (R, rank,
        d): the int16 reduced row echelon forms, the ranks and the signed
        pivot products (an int each for one matrix, arrays for a stack).
        The signed pivot product is the determinant of a square matrix;
        it is 0 when the rank is less than r.

        At most r steps: step t moves, in each matrix, the row at or below
        t whose first nonzero entry lies furthest left to row t (a swap
        negates d), multiplies d by that entry, scales it to 1 and clears
        its column in every other row.  A matrix whose rows from t on are
        zero pivots on its zero row t, which changes no row and zeroes d;
        the sweep stops once every matrix is done.  Rows past the rank are
        zero, and the rank is the number of nonzero rows.
        """
        one = np.ndim(A) == 2
        if self.fast:
            # below p = 182 every a - f x of codes fits int16
            red = self.RES.take if self.int16_products else (lambda x: x % self.p)
            R = red(np.array(A, dtype=np.int16 if self.int16_products else np.int64, ndmin=3))

            def mul(s, x):
                return red(s * x)

            def axpy(a, f, x):
                return red(a - f * x)
        else:
            R = np.array(A, dtype=np.int16, ndmin=3)

            def mul(s, x):
                return self.MUL[s, x]

            def axpy(a, f, x):
                return self.ADD[a, self.NEG[self.MUL[f, x]]]
        k, r, n = R.shape
        ks, rows = np.arange(k), np.arange(r)
        d = np.ones(k, dtype=R.dtype)
        swaps = np.zeros(k, dtype=bool)
        # the nonzero pattern, with a last column that marks a zero row
        nz = np.ones((k, r, n + 1), dtype=bool)
        for t in range(r):
            np.not_equal(R[:, t:], 0, out=nz[:, t:, :n])
            lead = nz[:, t:].argmax(axis=2)
            j = lead.argmin(axis=1)
            c = lead[ks, j]
            if c.min(initial=n) == n:  # every matrix is done, short of rank r
                d[:] = 0
                break
            np.minimum(c, n - 1, out=c)  # a done matrix: any column of row t
            j += t
            prow = R[ks, j]
            R[ks, j] = R[:, t]
            swaps ^= j != t
            piv = prow[ks, c]
            d = mul(d, piv)
            prow = mul(self.INV[piv][:, None], prow)
            R[:, t] = prow
            f = R[ks[:, None], rows, c[:, None]]
            f[:, t] = 0
            R = axpy(R, f[:, :, None], prow[:, None, :])
        rank = (R != 0).any(axis=2).sum(axis=1)
        d = np.where(swaps, self.NEG[d], d).astype(np.int16, copy=False)
        R = R.astype(np.int16, copy=False)
        return (R[0], int(rank[0]), int(d[0])) if one else (R, rank, d)

    def rank(self, A):
        """The rank of a matrix (an int) or of each matrix of a stack."""
        return self.rref(A)[1]

    def det(self, A):
        """The determinant of an (n, n) matrix (an int), or of each matrix
        of a (k, n, n) stack (an int16 array)."""
        return self.rref(A)[2]

    def mat_inv(self, A):
        """The inverse of a matrix, or of each matrix of a stack, from the
        reduced form of [A | I]; raises on a singular matrix."""
        n = A.shape[-1]
        I = self.identity(n)
        R = self.rref(np.concatenate([A, np.broadcast_to(I, A.shape)], axis=-1))[0]
        if not (R[..., :n] == I).all():
            raise FieldError("singular matrix")
        return np.ascontiguousarray(R[..., n:])

    def solve(self, A, b):
        """One solution x of A x = b, or raises when A x = b has none.  A
        (rows, k) right-hand side b gives the (n, k) solutions of its k
        columns, from one elimination; it raises when any column has none."""
        n = A.shape[1]
        R, rank, _ = self.rref(np.concatenate([A, b.reshape(len(b), -1)], axis=1))
        lead = (R[:rank] != 0).argmax(axis=1)
        if (lead >= n).any():
            raise FieldError("inconsistent linear system")
        x = np.zeros((n,) + b.shape[1:], dtype=np.int16)
        x[lead] = R[:rank, n:].reshape((rank,) + b.shape[1:])
        return x

    def quad(self, G, v):
        """v^T G v / 2 (the quadratic form of the polar form G) of a vector
        (an int), or of every row of a (k, n) stack (an int16 array)."""
        v = np.asarray(v, dtype=np.int16)
        w = self.mat_mul(v[..., None, :], G)
        out = self.v_scale(self.two_inv, self.mat_mul(w, v[..., :, None])[..., 0, 0])
        return int(out) if v.ndim == 1 else out

    def bil(self, G, u, v):
        """u^T G v of two vectors (an int), or of the rows of two (k, n)
        stacks (an int16 array)."""
        u, v = np.asarray(u, dtype=np.int16), np.asarray(v, dtype=np.int16)
        out = self.mat_mul(self.mat_mul(u[..., None, :], G), v[..., :, None])[..., 0, 0]
        return int(out) if out.ndim == 0 else out


@cache
def fq_context(p: int, e: int) -> FqContext:
    return FqContext(p, e)


def read_only(v):
    """v, with every array in it (v itself, or an item of its tuples and
    lists at any depth) marked read-only: what a cache hands out is shared
    by every caller, so the code that builds it makes it so."""
    if isinstance(v, np.ndarray):
        v.setflags(write=False)
    elif isinstance(v, (tuple, list)):
        for x in v:
            read_only(x)
    return v


class FrozenInstanceError(AttributeError):
    """An attempt to rebind or delete an attribute of a `Record`."""


class Record:
    """The package's one record type: a frozen value with named fields.

    A subclass's fields are its annotated names and those of its bases, in
    MRO order, read once when the class is made; no code is generated, as
    a dataclass would at every import.  `__init__` binds its arguments by
    position or name; a field not given takes the class attribute of its
    name, a fresh copy when that is a dict or list, and a field with
    neither, or an argument that names no field, raises TypeError.  Each
    field is set through `object.__setattr__`, in field order, and then
    `__post_init__` runs if the class has one.  Nothing goes through
    `vars(self)`: a materialised instance dict slows every later attribute
    read.  Any other store or delete raises FrozenInstanceError.  A record
    compares by identity unless its class defines `__eq__`."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {}
        for klass in reversed(cls.__mro__):
            names.update(dict.fromkeys(klass.__dict__.get("__annotations__", ())))
        cls._fields = tuple(names)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        for name in cls._fields:
            if name in values:
                value = values[name]
            elif hasattr(cls, name):
                value = getattr(cls, name)
                if isinstance(value, (dict, list)):
                    value = value.copy()
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


def replace(record: Record, /, **changes) -> Record:
    """A new record of the same class, with the fields of `record` but
    for `changes`; `__post_init__` runs again."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


def keys(A):
    """The key of each row of a stack, the bytes of that row as a C-order
    int16 array: one numpy void scalar each (`.tolist()` gives the bytes),
    so keys sort and compare as those bytes.  The package's one key."""
    A = np.ascontiguousarray(A, dtype=np.int16)
    A = A.reshape(len(A), math.prod(A.shape[1:]))
    return A.view(np.dtype((np.void, A.shape[1] * A.itemsize)))[:, 0]


def row_index(A, values=None):
    """The dict from the key of each row of A to its position, or to the
    matching item of `values`; a repeated row maps to its last position."""
    return dict(zip(keys(A).tolist(), range(len(A)) if values is None else values))


def lookup(index, A):
    """What the dict index maps the key of each row of A to, as an intp
    array; -1 where a row's key is not in it."""
    return np.fromiter(map(index.get, keys(A).tolist(), repeat(-1)), dtype=np.intp, count=len(A))


def projective_points(fq: FqContext, basis, lead=None):
    """The canonical points of the row span of a (k, n) basis in reduced
    echelon form, as an (N, n) array: the combinations c B for every
    coefficient row c whose first nonzero entry is 1, lead-major (first
    c_0 = 1, then c_0 = 0 and c_1 = 1, ..) and within one lead in
    lexicographic order of the later entries, the last fastest.  As B is
    reduced, the first nonzero entry of c B is that 1, so each point of
    the span comes once, as its canonical representative.  One product of
    the coefficient table with B makes them all; with `lead`, only the
    q^(k-1-lead) points whose coefficient row starts there.  An (s, k, n)
    stack of bases gives the (s, N, n) points of each."""
    basis = np.asarray(basis, dtype=np.int16)
    k, n = basis.shape[-2:]
    blocks = []
    for i in range(k) if lead is None else [lead]:
        c = np.zeros((fq.q ** (k - 1 - i), k), dtype=np.int16)
        c[:, i] = 1
        if i < k - 1:
            c[:, i + 1:] = np.indices((fq.q,) * (k - 1 - i), dtype=np.int16).reshape(k - 1 - i, -1).T
        blocks.append(c)
    if not blocks:
        return np.zeros(basis.shape[:-2] + (0, n), dtype=np.int16)
    return fq.mat_mul(np.concatenate(blocks), basis)
