"""Trace-defined quadratic geometries of minus, plus and odd kind, point
classification, Witt bases, reflections, Eichler (Siegel) maps and the
isometry / special / commutator-subgroup membership tests.

Working coordinates: every space carries a deterministic Witt basis and
group elements are stored in Witt coordinates, where the polar form has
the standard block shape [[0, I, 0], [I, 0, 0], [0, 0, A]] with A the
anisotropic block.  Q(v) = f(v, v) / 2 throughout (odd characteristic).
"""

from __future__ import annotations

import random
from functools import cache

import numpy as np

from . import fields
from .fields import FqContext, product_rows, projective_points, read_only
from .matgroups import (
    Mat,
    derived_subgroup,
    family_of,
    isotropic_point_count,
    mulclose,
    powers,
    singer_generator,
    split_family,
)


class GeometryError(ValueError):
    pass


KINDS = ("minus", "plus", "odd")


class QuadraticSpace:
    """A non-singular quadratic space with a fixed Witt frame.  Its forms,
    frame and point sets are read-only arrays: a space is shared by every
    caller of the cache that built it."""

    def __init__(self, kind, fq, gram_model):
        self.kind = kind
        self.fq: FqContext = fq
        self.gram_model = np.array(gram_model, dtype=np.int16, order="C")
        self.n = self.gram_model.shape[0]
        self.p, self.e, self.q = fq.p, fq.e, fq.q
        C, R = _witt_decompose(fq, self.gram_model)
        self.C = C  # columns: witt vectors in model coordinates
        self.Cinv = fq.mat_inv(C)
        self.gram = fq.mat_mul(fq.mat_mul(np.ascontiguousarray(C.T), self.gram_model), C)
        self.witt_index = R
        self.anis_dim = self.n - 2 * R
        self.anis_gram = np.ascontiguousarray(self.gram[2 * R:, 2 * R:])
        expected = {"minus": (self.n - 2) // 2, "plus": self.n // 2, "odd": (self.n - 1) // 2}
        if kind in expected and R != expected[kind]:
            raise GeometryError(f"witt index {R} does not match kind {kind}")
        read_only((self.gram_model, self.C, self.Cinv, self.gram, self.anis_gram))

    @property
    def m(self):
        return self.n // 2

    # -- forms in witt coordinates

    def Q(self, v):
        return self.fq.quad(self.gram, np.asarray(v, dtype=np.int16))

    def f(self, u, v):
        return self.fq.bil(self.gram, np.asarray(u, dtype=np.int16), np.asarray(v, dtype=np.int16))

    def e_vec(self, i):
        v = np.zeros(self.n, dtype=np.int16)
        v[i] = 1
        return v

    def f_vec(self, i):
        v = np.zeros(self.n, dtype=np.int16)
        v[self.witt_index + i] = 1
        return v

    def model_to_witt(self, g):
        """C^-1 g C: an (n, n) array in model coordinates moved to the
        space's Witt coordinates."""
        fq = self.fq
        return fq.mat_mul(fq.mat_mul(self.Cinv, g), self.C)

    # -- projective points (canonical reps: first nonzero coordinate is 1)

    def canon(self, v):
        """The canonical rep of the point of a vector, or of each row of a
        (k, n) stack."""
        v = np.asarray(v, dtype=np.int16)
        nz = v != 0
        if not nz.any(axis=-1).all():
            raise GeometryError("zero vector has no projective point")
        lead = np.take_along_axis(v, nz.argmax(axis=-1)[..., None], axis=-1)
        return np.ascontiguousarray(self.fq.v_scale(self.fq.INV[lead], v))

    @cache
    def gram_inv(self):
        """The inverse of the Witt form, a read-only (n, n) array."""
        return read_only(self.fq.mat_inv(self.gram))

    @cache
    def points(self):
        """Every projective point as a read-only (N, n) array of canonical
        reps, in `projective_points` order of the unit basis."""
        check_enumeration_budget(self.q, self.n)
        return read_only(projective_points(self.fq, self.fq.identity(self.n)))

    @cache
    def isotropic_points(self):
        """The singular points of `points`, in its order, as a read-only
        (N, n) array."""
        pts = self.points()
        return read_only(pts[self.Q(pts) == 0])


ENUM_BUDGET = 10 ** 8


def check_enumeration_budget(q, n):
    if q ** n > ENUM_BUDGET:
        raise GeometryError(
            f"point enumeration budget exceeded: q^n = {q ** n} > {ENUM_BUDGET}"
        )


def _witt_decompose(fq, G, prescribed=()):
    """Greedy hyperbolic-pair extraction; returns (C, witt_index), C with
    the Witt vectors as columns.

    The singular vectors of the leading pairs are the prescribed rows, in
    order (they must span a totally singular subspace); the remaining pairs
    come from the deterministic scan of the complement: the first singular
    point of its reduced basis in `projective_points` order, and the first
    point there that pairs with it.
    """
    n = G.shape[0]
    comp = fq.identity(n)
    pres = np.asarray(prescribed, dtype=np.int16).reshape(-1, n)
    sings, partners = [], []

    def project(W, sing, partner):
        """The rows of W moved into the perp of the pair, all at once."""
        W = fq.v_add(W, fq.v_scale(fq.NEG[fq.bil(G, W, partner)][:, None], sing))
        return fq.v_add(W, fq.v_scale(fq.NEG[fq.bil(G, W, sing)][:, None], partner))

    while True:
        if len(pres):
            sing, pres = pres[0], pres[1:]
            if fq.quad(G, sing) != 0:
                raise GeometryError("prescribed vector is not singular")
        else:
            sing = _first_point(fq, comp, lambda V: fq.quad(G, V) == 0)
            if sing is None:
                break
        partner = _first_point(fq, comp, lambda V: fq.bil(G, V, sing) != 0)
        if partner is None:
            # a radical vector is singular and stays in the complement
            raise GeometryError("bilinear form is singular")
        partner = fq.v_scale(fq.inv(fq.bil(G, sing, partner)), partner)
        qq = fq.quad(G, partner)
        if qq:
            partner = fq.v_add(partner, fq.v_scale(fq.neg(qq), sing))
        sings.append(sing)
        partners.append(partner)
        R, rank, _ = fq.rref(project(comp, sing, partner))
        comp = R[:rank]
        pres = project(pres, sing, partner)
    C = np.concatenate([np.array(sings + partners, dtype=np.int16).reshape(-1, n), comp]).T
    return np.ascontiguousarray(C), len(sings)


def _first_point(fq, basis, hit):
    """The first point of the row span of a reduced basis, in
    `projective_points` order, on which hit (a test of an (N, n) stack)
    holds, or None: one lead block of candidates at a time."""
    for lead in range(len(basis)):
        V = projective_points(fq, basis, lead)
        found = np.flatnonzero(hit(V))
        if len(found):
            return V[found[0]]
    return None


# ----------------------------------------------------------------------
# space constructors


@cache
def build_space(kind: str, fq: FqContext, m: int) -> QuadraticSpace:
    """The trace-defined geometry of the given kind and rank m over F_q.

    V = F_{q^2m} is F_q[A], A = `singer_generator`(2m, fq) the map x ->
    alpha x, in the F_q-basis 1, alpha, .., alpha^(2m-1); an element x is
    its matrix X, the trace down to F_q is the matrix trace tr, and the
    conjugation xbar = x^(q^m) is X -> X^(q^m).
    minus: f(x,y) = tr(X Ybar), so Q(x) is the trace of the norm x xbar
           from F_{q^m} down to F_q.
    plus:  with b = alpha^(q^m - 1), coordinates x = x1 + x2 b over F_{q^m},
           f(x,y) = tr(X1 Y2 + X2 Y1) / 2, Q(x) = tr(X1 X2) / 2.
    odd:   the minus geometry of rank 2m orthogonally extended by an
           anisotropic line with Q(z) = 1 (dimension 2m + 1); for m = 0
           the line alone, the space of O_1.
    """
    if kind not in KINDS:
        raise GeometryError(f"unknown kind {kind!r}")
    gram = np.zeros((0, 0), dtype=np.int16)
    if m or kind != "odd":  # the line of O_1 has no trace part
        A = singer_generator(2 * m, fq)
        X = powers(fq, A, 2 * m)  # the basis alpha^j
        Xbar = powers(fq, fq.mat_pow(A, fq.q ** m), 2 * m)  # their conjugates
        if kind == "plus":
            B = fq.mat_pow(A, fq.q ** m - 1)
            # bbar = b^-1, so x2 = (x - xbar) / (b - b^-1) and x1 = x - x2 b
            X2 = fq.mat_mul(fq.v_add(X, fq.v_neg(Xbar)), fq.mat_inv(fq.v_add(B, fq.v_neg(fq.mat_inv(B)))))
            T = _trace_pairing(fq, fq.v_add(X, fq.v_neg(fq.mat_mul(X2, B))), X2)
            gram = fq.v_scale(fq.two_inv, fq.v_add(T, T.T))
        else:
            gram = _trace_pairing(fq, X, Xbar)
    if kind == "odd":
        gram = np.pad(gram, (0, 1))
        gram[-1, -1] = 2 % fq.q
    space = QuadraticSpace(kind, fq, gram)
    _spot_check_quadratic_law(space)
    return space


def _trace_pairing(fq, X, Y):
    """The F_q matrix of tr(X_i Y_j) over two (k, n, n) stacks: as tr(X Y)
    is the sum of X_ab Y_ba, one product of the flattened X_i with the
    flattened transposes of the Y_j."""
    n2 = X.shape[-1] ** 2
    return fq.mat_mul(X.reshape(-1, n2), np.swapaxes(Y, 1, 2).reshape(-1, n2).T)


def _spot_check_quadratic_law(space):
    """Q(lam u + v) = lam^2 Q(u) + lam f(u, v) + Q(v) on six random
    triples, drawn u, v, lam in turn and checked in one stacked pass."""
    rng = random.Random(7)
    fq, n = space.fq, space.n
    D = np.array([[rng.randrange(fq.q) for _ in range(2 * n + 1)] for _ in range(6)], dtype=np.int16)
    u, v, lam = D[:, :n], D[:, n:2 * n], D[:, 2 * n]
    lhs = space.Q(fq.v_add(fq.v_scale(lam[:, None], u), v))
    rhs = fq.v_add(fq.v_add(fq.v_scale(fq.v_scale(lam, lam), space.Q(u)), fq.v_scale(lam, space.f(u, v))),
                   space.Q(v))
    if (lhs != rhs).any():
        raise GeometryError("quadratic form law failed")  # pragma: no cover


# ----------------------------------------------------------------------
# membership


def enumerate_isotropic_points(space: QuadraticSpace, check_count=True):
    pts = space.isotropic_points()
    if check_count and space.kind in KINDS and space.n >= 2:
        expected = isotropic_point_count(space.kind, space.q, space.m)
        if len(pts) != expected:
            raise GeometryError(
                f"isotropic point count {len(pts)} != closed form {expected}"
            )  # pragma: no cover
    return pts


def preserves_form(fq: FqContext, G, A):
    """Whether A^T G A = G, for one matrix or for each of a (k, n, n) stack."""
    lhs = fq.mat_mul(fq.mat_mul(np.swapaxes(A, -1, -2), G), A)
    return (lhs == G).all(axis=(-2, -1))


def omega_rank_criterion(space: QuadraticSpace, A):
    """Even-rank test for membership in the commutator subgroup: whether
    I + g has even rank, for each matrix g of a (k, n, n) stack, as a
    boolean array from one stacked rank."""
    fq = space.fq
    return fq.rank(fq.v_add(fq.identity(space.n), A)) % 2 == 0


def membership(space: QuadraticSpace, g: Mat, family: str) -> bool:
    return bool(membership_many(space, g.a[None], family)[0])


def membership_many(space: QuadraticSpace, A, family: str):
    """Membership of each matrix of a (k, n, n) stack in the family's group,
    as a boolean array: one stacked isometry test, one stacked determinant
    and, for Omega, one stacked rank for the even-rank criterion.  For PSO
    and POmega a matrix is a member when it or its negative lies in SO or
    Omega."""
    projective, base, kind = split_family(family)
    fq = space.fq
    A = np.asarray(A, dtype=np.int16)
    if projective:
        linear = family_of(base, kind)
        return membership_many(space, A, linear) | membership_many(space, fq.v_neg(A), linear)
    ok = preserves_form(fq, space.gram, A)
    if base == "O":
        return ok
    idx = np.flatnonzero(ok)
    ok[idx] = fq.det(A[idx]) == 1
    if base == "SO":
        return ok
    # Omega via the even-rank criterion; audits compare it with the
    # commutator-closure oracle, see omega_audit.
    idx = np.flatnonzero(ok)
    ok[idx] = omega_rank_criterion(space, A[idx])
    return ok


def eichler(fq: FqContext, gram, i, u):
    """The Eichler (Siegel) map of the hyperbolic pair (e_i, f_i) of a Witt
    frame along u orthogonal to that pair,
    v -> v + f(v,e_i) u - f(v,u) e_i - Q(u) f(v,e_i) e_i,
    as the matrix I + u (G e_i)^T - e_i (G u + Q(u) G e_i)^T: a rank-one
    update of I, and then of its row i.  A (k, n) stack of u gives the
    (k, n, n) stack of maps."""
    u = np.asarray(u, dtype=np.int16)
    ge = gram[:, i]
    gu = fq.mat_mul(u[..., None, :], gram.T)
    qu = fq.v_scale(fq.two_inv, fq.mat_mul(gu, u[..., :, None]))
    w = fq.v_add(gu, fq.v_scale(qu, ge))
    E = fq.v_add(fq.identity(len(gram)), fq.v_scale(u[..., :, None], ge))
    E[..., i, :] = fq.v_add(E[..., i, :], fq.v_neg(w[..., 0, :]))
    return E


def isometry_inverse(space: QuadraticSpace, A):
    """The inverses G^-1 A^T G of a (k, n, n) stack of isometries A of the
    Witt form G of the space, with no elimination: G^-1 is the space's
    `gram_inv`.  One stacked product A A^-1 = I checks them; raises
    GeometryError when some A is not an isometry."""
    fq = space.fq
    A = np.asarray(A, dtype=np.int16)
    Ainv = fq.mat_mul(fq.mat_mul(space.gram_inv(), np.swapaxes(A, -1, -2)), space.gram)
    if not (fq.mat_mul(A, Ainv) == fq.identity(space.n)).all():
        raise GeometryError("matrix is not an isometry of the form")
    return Ainv


# ----------------------------------------------------------------------
# isometry group generators and oracles


@cache
def reflections(space: QuadraticSpace):
    """All reflections, one per non-singular projective point v in point
    order, as one read-only (k, n, n) int16 stack shared by every caller:
    one rank update I + (-Q(v)^-1 v) (Gv)^T per point."""
    fq = space.fq
    V = space.points()
    qv = space.Q(V)
    keep = qv != 0
    V, qv = V[keep], qv[keep]
    col = fq.v_scale(fq.NEG[fq.INV[qv]][:, None], V)
    row = fq.mat_mul(V, space.gram)
    return read_only(fq.v_add(fq.identity(space.n), fq.mat_mul(col[:, :, None], row[:, None, :])))


def o_generators(space: QuadraticSpace):
    """The generators of O: the stack of all reflections."""
    return reflections(space)


def so_generators(space: QuadraticSpace):
    """The generators r_0 r_i, i >= 1, of SO, r_i the reflections, as one
    stacked product: a (0, n, n) stack when there are fewer than two."""
    R = reflections(space)
    return space.fq.mat_mul(R[:1], R[1:])


@cache
def enumerate_isometry_group(space: QuadraticSpace, family="O"):
    """Full enumeration by closure (desk scale only), as one read-only
    (k, n, n) stack in the BFS order of the closure of the reflections; SO
    keeps the elements of determinant 1 in that order."""
    if family == "O":
        els = mulclose(space.fq, reflections(space))
    elif family == "SO":
        els = enumerate_isometry_group(space, "O")
        els = els[space.fq.det(els) == 1]
    else:
        raise ValueError(family)
    return read_only(els)


@cache
def omega_oracle(space: QuadraticSpace):
    """Key set (`fields.keys`) and read-only (k, n, n) stack of the elements
    of the commutator subgroup of the full isometry group, computed as a
    normal closure of generator commutators; both are shared by every
    caller."""
    els = read_only(derived_subgroup(space.fq, o_generators(space)))
    return frozenset(fields.keys(els).tolist()), els


def omega_audit(space: QuadraticSpace):
    """Element-by-element comparison of the even-rank criterion with the
    commutator-closure oracle over the special isometry group."""
    oracle, _ = omega_oracle(space)
    so = enumerate_isometry_group(space, "SO")
    truths = map(oracle.__contains__, fields.keys(so).tolist())
    disagreements = [{"matrix": Mat(space.fq, g).to_json(), "rank_criterion": bool(crit),
                      "commutator_oracle": bool(truth)}
                     for g, crit, truth in zip(so, omega_rank_criterion(space, so), truths) if crit != truth]
    return {
        "group_size": len(so),
        "omega_size": len(oracle),
        "agreement": not disagreements,
        "disagreements": disagreements,
    }


# ----------------------------------------------------------------------
# subspace helpers used by the generator constructions


def find_anisotropic_plane(space: QuadraticSpace):
    """First 2-dimensional subspace (by the deterministic scan order) on
    which Q has no nonzero singular vector; rows are witt coordinates.

    Pairs (v1, v2) of non-singular points are scanned in point order, v2
    fastest.  For each v1, one stacked f(v1, .) keeps the v2 orthogonal to
    v1 (so v2 != v1, as f(v, v) = 2 Q(v) != 0), and one stacked Q over
    v1 + c v2, c < q, keeps those whose plane is anisotropic: its other
    vectors are multiples of v2, where Q is nonzero."""
    fq = space.fq
    pts = space.points()
    nonsing = pts[space.Q(pts) != 0]
    cs = np.arange(fq.q, dtype=np.int16)[None, :, None]
    for v1 in nonsing:
        v2 = nonsing[space.f(v1, nonsing) == 0]
        aniso = (space.Q(fq.v_add(v1, fq.v_scale(cs, v2[:, None, :]))) != 0).all(axis=1)
        if aniso.any():
            return np.array([v1, v2[aniso.argmax()]], dtype=np.int16)
    raise GeometryError("no anisotropic plane found")


def perp_basis(space: QuadraticSpace, rows):
    """Reduced basis (rows) of the orthogonal complement of the row span."""
    fq = space.fq
    M = fq.mat_mul(np.ascontiguousarray(np.atleast_2d(rows)), space.gram)
    return nullspace(fq, M)


def nullspace(fq: FqContext, M):
    """Reduced basis (rows) of the vectors v with M v = 0: the right parts
    of the rows of the reduced [M^T | I] whose left part is zero, which
    that form leaves reduced."""
    r, cols = M.shape
    R, _, _ = fq.rref(np.concatenate([M.T, fq.identity(cols)], axis=1))
    return np.ascontiguousarray(R[~R[:, :r].any(axis=1), r:])


def gram_restriction(space: QuadraticSpace, rows):
    """The matrix of f(r_i, r_j) over the rows r_i, one product R G R^T."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int16))
    return space.fq.mat_mul(space.fq.mat_mul(rows, space.gram), np.ascontiguousarray(rows.T))


def align_spaces(model: QuadraticSpace, gram_target, fq: FqContext):
    """A similarity phi with phi^T G_target phi = lam * model.gram.

    Both sides are first Witt-decomposed; the hyperbolic parts align by
    construction and the anisotropic blocks are matched by a small scan.
    Returns (phi, lam).
    """
    gram_target = np.ascontiguousarray(gram_target, dtype=np.int16)
    Ct, R = _witt_decompose(fq, gram_target)
    std = fq.mat_mul(fq.mat_mul(np.ascontiguousarray(Ct.T), gram_target), Ct)
    At = np.ascontiguousarray(std[2 * R:, 2 * R:])
    Am = model.anis_gram
    if R != model.witt_index or At.shape != Am.shape:
        raise GeometryError("spaces have different Witt invariants")
    ad = At.shape[0]
    lam_M = _match_anisotropic(fq, At, Am, ad)
    if lam_M is None:
        raise GeometryError("anisotropic parts are not similar")
    lam, Mson = lam_M
    n = model.n
    D = np.zeros((n, n), dtype=np.int16)
    for i in range(R):
        D[i, i] = 1
        D[R + i, R + i] = lam
    if ad:
        D[2 * R:, 2 * R:] = Mson
    phi = fq.mat_mul(Ct, D)
    return np.ascontiguousarray(phi), lam


def _match_anisotropic(fq, At, Am, ad):
    """The first (lam, M) with M^T At M = lam Am and det M != 0, lam in
    1, .., q - 1 and, for each lam, M in itertools.product order of its
    entries; None when there is none.  Each stack of at most fields.CHUNK
    candidates takes one stacked product M^T At M."""
    if ad == 0:
        return 1, np.zeros((0, 0), dtype=np.int16)
    total = fq.q ** (ad * ad)
    for lam in range(1, fq.q):
        target = fq.v_scale(lam, Am)
        for lo in range(0, total, fields.CHUNK):
            M = product_rows(fq.q, ad * ad, lo, min(lo + fields.CHUNK, total))
            M = M.astype(np.int16).reshape(-1, ad, ad)
            hit = M[(fq.mat_mul(fq.mat_mul(np.swapaxes(M, 1, 2), At), M) == target).all(axis=(1, 2))]
            hit = hit[fq.det(hit) != 0] if len(hit) else hit
            if len(hit):
                return lam, hit[0]
    return None
