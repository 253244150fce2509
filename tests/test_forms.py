import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from leibniz import det_by_permutations

from orthosig.fields import fq_context, projective_points
from orthosig.forms import (
    GeometryError,
    QuadraticSpace,
    build_space,
    eichler,
    enumerate_isotropic_points,
    find_anisotropic_plane,
    gram_restriction,
    membership,
    membership_many,
    omega_audit,
    omega_rank_criterion,
    perp_basis,
    preserves_form,
    reflections,
    so_generators,
    enumerate_isometry_group,
)
from orthosig.matgroups import (
    Mat,
    descriptor,
    group_order,
    isotropic_point_count,
    singer_generator,
)


COUNT_CASES = [
    ("minus", 3, 1, 0),
    ("plus", 3, 1, 2),
    ("minus", 3, 2, 10),
    ("plus", 3, 2, 16),
    ("odd", 3, 1, 4),
    ("minus", 5, 1, 0),
    ("plus", 5, 1, 2),
    ("odd", 5, 1, 6),
]


@pytest.mark.parametrize("kind,q,m,expected", COUNT_CASES)
def test_point_counts(kind, q, m, expected):
    space = build_space(kind, fq_context(q, 1), m)
    pts = enumerate_isotropic_points(space)
    assert len(pts) == expected
    assert isotropic_point_count(kind, q, m) == expected


def test_witt_indices():
    assert build_space("minus", fq_context(3, 1), 2).witt_index == 1
    assert build_space("plus", fq_context(3, 1), 2).witt_index == 2
    assert build_space("odd", fq_context(3, 1), 2).witt_index == 2
    s = build_space("minus", fq_context(3, 1), 1)
    assert s.witt_index == 0 and s.anis_dim == 2
    sp = build_space("plus", fq_context(3, 1), 1)
    assert sp.witt_index == 1 and sp.anis_dim == 0


def test_gram_standard_blocks(minus32):
    s = minus32
    R = s.witt_index
    G = s.gram
    for i in range(R):
        assert G[i, R + i] == 1 and G[R + i, i] == 1
        assert s.Q(s.e_vec(i)) == 0 and s.Q(s.f_vec(i)) == 0


def test_q_zero_every_kind():
    for kind in ("minus", "plus", "odd"):
        s = build_space(kind, fq_context(3, 1), 1)
        assert s.Q(np.zeros(s.n, dtype=np.int16)) == 0


def test_is_isometry(minus32):
    s = minus32
    assert preserves_form(s.fq, s.gram, s.fq.identity(4))
    # multiplication by b = alpha^(q^m - 1), of norm 1
    beta = s.fq.mat_pow(singer_generator(4, s.fq), 8)
    assert preserves_form(s.fq, s.gram_model, beta)


def test_scalar_not_isometry_when_4_ne_1():
    s5 = build_space("minus", fq_context(5, 1), 1)
    assert not preserves_form(s5.fq, s5.gram, s5.fq.v_scale(2, s5.fq.identity(2)))  # Q scales by 4 != 1 in F_5


def test_isometries_closed_under_product(minus32):
    s = minus32
    refl = reflections(s)
    rng = random.Random(1)
    for _ in range(40):
        g, h = Mat(s.fq, rng.choice(refl)), Mat(s.fq, rng.choice(refl))
        assert preserves_form(s.fq, s.gram, (g * h).a)
        assert preserves_form(s.fq, s.gram, g.inv().a)


def test_reflection_properties():
    # reflections(s) holds one reflection per non-singular point, in point order
    for kind in ("minus", "plus", "odd"):
        s = build_space(kind, fq_context(3, 1), 1)
        nonsing = [v for v in s.points() if s.Q(v) != 0]
        for v, a in list(zip(nonsing, reflections(s)))[:10]:
            r = Mat(s.fq, a)
            assert s.fq.mat_vec(r.a, v).tolist() == s.fq.v_neg(v).tolist()
            assert r * r == Mat(s.fq, s.fq.identity(s.n))
            assert s.fq.det(r.a) == s.fq.neg(1)


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_canon_of_a_stack_is_the_canon_of_each_row(p, e):
    # the first nonzero entry of each row is scaled to 1; a zero row raises
    s = build_space("odd", fq_context(p, e), 1)
    V = np.array([[0, 2, 1], [1, 0, 0], [0, 0, s.q - 1], [s.q - 1, 1, 2]], dtype=np.int16)
    got = s.canon(V)
    assert got.shape == V.shape and got.dtype == np.int16
    for v, c in zip(V, got):
        lead = v[np.flatnonzero(v)[0]]
        assert c.tolist() == s.fq.v_scale(s.fq.inv(int(lead)), v).tolist()
        assert c.tolist() == s.canon(v).tolist() and c[np.flatnonzero(c)[0]] == 1
    with pytest.raises(GeometryError, match="zero vector"):
        s.canon(np.concatenate([V, np.zeros((1, 3), dtype=np.int16)]))
    with pytest.raises(GeometryError, match="zero vector"):
        s.canon(np.zeros(3, dtype=np.int16))


def test_siegel_properties(minus32):
    # the Eichler maps of the first hyperbolic pair along u in its perp
    s = minus32
    n = s.n

    def siegel_unipotent(s, u):
        return Mat(s.fq, eichler(s.fq, s.gram, 0, u))

    zero = np.zeros(n, dtype=np.int16)
    assert siegel_unipotent(s, zero) == Mat(s.fq, s.fq.identity(n))
    # admissible directions: orthogonal to the first pair
    us = []
    for v in s.points():
        if s.f(v, s.e_vec(0)) == 0 and s.f(v, s.f_vec(0)) == 0:
            us.append(v)
    rng = random.Random(0)
    for _ in range(20):
        u1, u2 = rng.choice(us), rng.choice(us)
        lhs = siegel_unipotent(s, u1) * siegel_unipotent(s, u2)
        assert lhs == siegel_unipotent(s, s.fq.v_add(u1, u2))
    # image size is q^(2m-2) = 9
    import itertools

    imgs = set()
    fullspan = [s.fq.v_scale(c, us[0]) for c in range(3)]
    vecs = set()
    for c1 in range(3):
        for c2 in range(3):
            u = s.fq.v_add(s.fq.v_scale(c1, us[0]), s.fq.v_scale(c2, us[1]))
            imgs.add(siegel_unipotent(s, u).key)
    assert len(imgs) == 9


def test_witt_basis_shapes():
    sp = build_space("plus", fq_context(3, 1), 1)
    assert sp.witt_index == 1 and sp.anis_gram.shape == (0, 0)
    sm = build_space("minus", fq_context(3, 1), 1)
    assert sm.witt_index == 0 and sm.anis_gram.shape == (2, 2)


def test_membership_families(minus32):
    s = minus32
    I = Mat(s.fq, s.fq.identity(4))
    minus = Mat(s.fq, s.fq.v_neg(s.fq.identity(4)))
    assert membership(s, I, "SO-")
    r = Mat(s.fq, reflections(s)[0])
    assert membership(s, r, "O-") and not membership(s, r, "SO-")
    # -I has even rank(I + -I) = 0, the criterion places it in Omega
    assert membership(s, minus, "Omega-")
    assert membership(s, r, "PSO-") == membership(s, minus * r, "PSO-")


def test_omega_audit_reports():
    s = build_space("minus", fq_context(3, 1), 2)
    audit = omega_audit(s)
    assert audit["group_size"] == 720
    assert audit["omega_size"] == 360
    # the even-rank criterion disagrees with the oracle here; the audit
    # must say so explicitly rather than fail silently
    assert audit["agreement"] is False
    assert len(audit["disagreements"]) > 0
    # oracle contains -I iff 4 divides q^m + 1; here it does not
    assert (s.fq.v_neg(s.fq.identity(4)).tobytes() in {g.tobytes() for g in enumerate_isometry_group(s, "SO")})


def test_enumerate_isometry_group_sizes():
    for kind, fam, q, m in [("minus", "O-", 3, 1), ("plus", "O+", 3, 1), ("odd", "Oodd", 3, 1)]:
        s = build_space(kind, fq_context(q, 1), m)
        n = 2 * m + (1 if kind == "odd" else 0)
        assert len(enumerate_isometry_group(s, "O")) == group_order(descriptor(fam, q, n=n))


def _first_anisotropic_plane(s):
    # the pair scan one pair and one scalar at a time: v1, then v2, over the
    # non-singular points in point order
    nonsing = [v for v in s.points() if s.Q(v) != 0]
    for v1 in nonsing:
        for v2 in nonsing:
            if s.f(v1, v2) == 0 and all(s.Q(s.fq.v_add(v1, s.fq.v_scale(c, v2))) for c in range(s.q)):
                return [v1.tolist(), v2.tolist()]


@pytest.mark.parametrize("kind,p,e,m", [("plus", 3, 1, 2), ("plus", 5, 1, 2), ("plus", 3, 2, 2),
                                        ("plus", 3, 1, 3), ("minus", 3, 1, 2), ("odd", 5, 1, 1)])
def test_anisotropic_plane_is_the_first_of_the_pair_scan(kind, p, e, m):
    s = build_space(kind, fq_context(p, e), m)
    assert find_anisotropic_plane(s).tolist() == _first_anisotropic_plane(s)


def test_anisotropic_plane_and_perp(plus32):
    s = plus32
    rows = find_anisotropic_plane(s)
    G2 = gram_restriction(s, rows)
    assert s.fq.rank(G2) == 2
    pb = perp_basis(s, rows)
    assert pb.shape == (2, 4)
    for u in pb:
        for v in rows:
            assert s.f(u, v) == 0


def test_line_space():
    s = build_space("odd", fq_context(3, 1), 0)
    assert s.n == 1 and s.witt_index == 0
    assert s.Q(np.array([1], dtype=np.int16)) == 1


@pytest.mark.parametrize("p,gram", [
    (7, [[0]]),
    (3, [[1, 1], [1, 1]]),
    (5, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),  # a hyperbolic pair, then the radical
])
def test_a_singular_form_is_refused(p, gram):
    with pytest.raises(GeometryError, match="bilinear form is singular"):
        QuadraticSpace("odd", fq_context(p, 1), gram)


def test_enumeration_budget_guard():
    from orthosig.forms import check_enumeration_budget

    check_enumeration_budget(3, 6)
    with pytest.raises(GeometryError):
        check_enumeration_budget(5, 12)


def test_omega_oracle_is_closed(minus32):
    import random

    from orthosig.forms import omega_oracle

    keys, els = omega_oracle(minus32)
    rng = random.Random(6)
    for _ in range(60):
        g, h = Mat(minus32.fq, rng.choice(els)), Mat(minus32.fq, rng.choice(els))
        assert (g * h).key in keys
        assert g.inv().key in keys


def test_cached_element_stacks_are_read_only(minus32):
    # every caller gets the same cached stacks, so none may edit them: an
    # edit of the oracle once changed what a later omega_audit reported
    from orthosig.forms import omega_oracle

    keys, els = omega_oracle(minus32)
    stacks = [els, enumerate_isometry_group(minus32, "O"), enumerate_isometry_group(minus32, "SO"),
              singer_generator(4, minus32.fq)]
    for A in stacks:
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0] = A[0, 0]
    with pytest.raises(AttributeError):
        keys.clear()
    assert len(keys) == len(els) == omega_audit(minus32)["omega_size"]


def _eichler_by_columns(fq, gram, i, u):
    """Reference: the image of each unit vector b under
    v -> v + f(v,e_i) u - f(v,u) e_i - Q(u) f(v,e_i) e_i, one column at a time."""
    n = gram.shape[0]
    ei = np.zeros(n, dtype=np.int16)
    ei[i] = 1
    qu = fq.quad(gram, u)
    cols = []
    for j in range(n):
        b = np.zeros(n, dtype=np.int16)
        b[j] = 1
        fbe = fq.bil(gram, b, ei)
        img = fq.v_add(b, fq.v_scale(fbe, u))
        img = fq.v_add(img, fq.v_scale(fq.neg(fq.bil(gram, b, u)), ei))
        img = fq.v_add(img, fq.v_scale(fq.neg(fq.mul(qu, fbe)), ei))
        cols.append(img)
    return np.array(cols, dtype=np.int16).T


@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]),
       st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_eichler_closed_form_matches_columns(pe, R, anis, seed):
    # standard Witt frame [[0, I, 0], [I, 0, 0], [0, 0, A]] with a random
    # non-singular diagonal A, and u orthogonal to the pair (e_i, f_i)
    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    n = 2 * R + anis
    gram = np.zeros((n, n), dtype=np.int16)
    for j in range(R):
        gram[j, R + j] = gram[R + j, j] = 1
    for j in range(2 * R, n):
        gram[j, j] = rng.integers(1, fq.q)
    i = int(rng.integers(0, R))
    u = rng.integers(0, fq.q, n).astype(np.int16)
    u[i] = u[R + i] = 0
    g = eichler(fq, gram, i, u)
    assert g.dtype == np.int16
    assert np.array_equal(g, _eichler_by_columns(fq, gram, i, u))
    assert np.array_equal(fq.mat_mul(fq.mat_mul(np.ascontiguousarray(g.T), gram), g), gram)
    # a stack of u gives the stack of maps
    us = rng.integers(0, fq.q, (3, n)).astype(np.int16)
    us[:, [i, R + i]] = 0
    us[0] = u
    assert [a.tolist() for a in eichler(fq, gram, i, us)] == \
        [_eichler_by_columns(fq, gram, i, v).tolist() for v in us]


def _member_by_definition(space, g, family):
    """Membership one element at a time from the definitions: an isometry,
    of determinant 1 below O, of even rank(I + g) below SO, and up to -I
    for the projective families."""
    fq = space.fq
    if family.startswith("P"):
        return (_member_by_definition(space, g, family[1:])
                or _member_by_definition(space, Mat(fq, fq.v_neg(fq.identity(space.n))) * g, family[1:]))
    G = Mat(fq, space.gram)
    if (Mat(fq, np.ascontiguousarray(g.a.T)) * G * g).key != G.key:
        return False
    if family.startswith("O-") or family.startswith("O+") or family.startswith("Oodd"):
        return True
    if det_by_permutations(fq, g.a) != 1:
        return False
    return family.startswith("SO") or bool(omega_rank_criterion(space, g.a[None])[0])


@given(st.sampled_from([("minus", 3, 1, 2), ("plus", 5, 1, 2), ("odd", 3, 1, 2), ("minus", 3, 2, 1),
                        ("plus", 3, 2, 2)]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_membership_of_a_stack_matches_one_at_a_time(spec, seed):
    kind, p, e, m = spec
    space = build_space(kind, fq_context(p, e), m)
    fq, n = space.fq, space.n
    refl = reflections(space)
    rng = random.Random(seed)
    elems = []
    for _ in range(10):
        g = Mat(fq, fq.identity(n))
        for _ in range(rng.randrange(4)):
            g = g * Mat(fq, refl[rng.randrange(len(refl))])
        a = g.a.copy()
        kind_of = rng.randrange(4)
        if kind_of == 1:
            a = fq.v_neg(a)
        elif kind_of == 2:
            a = fq.v_scale(rng.randrange(1, fq.q), a)
        elif kind_of == 3:
            i, j = rng.randrange(n), rng.randrange(n)
            a[i, j] = fq.add(int(a[i, j]), rng.randrange(1, fq.q))
        elems.append(Mat(fq, a))
    stack = np.stack([g.a for g in elems])
    tag = {"minus": "-", "plus": "+", "odd": "odd"}[kind]
    for family in ("O", "SO", "Omega", "PSO", "POmega"):
        got = membership_many(space, stack, family + tag)
        assert got.dtype == bool
        assert got.tolist() == [membership(space, g, family + tag) for g in elems] == \
            [_member_by_definition(space, g, family + tag) for g in elems]


def _quad_by_entries(fq, G, v):
    # v^T G v / 2 one scalar product at a time
    s = 0
    for i in range(len(v)):
        for j in range(len(v)):
            s = fq.add(s, fq.mul(fq.mul(int(v[i]), int(G[i, j])), int(v[j])))
    return fq.mul(fq.two_inv, s)


@given(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2)]), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=6), st.data())
def test_hypothesis_stacked_quad_matches_rows(pe, n, k, data):
    # q = 3, 5, 9, 25: the stack gives each row's form, and a row alone
    # gives the same value as an int
    fq = fq_context(*pe)
    entries = st.integers(min_value=0, max_value=fq.q - 1)
    G = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                 dtype=np.int16).reshape(n, n)
    G = fq.v_add(G, np.ascontiguousarray(G.T))
    V = np.array(data.draw(st.lists(entries, min_size=k * n, max_size=k * n)),
                 dtype=np.int16).reshape(k, n)
    want = [_quad_by_entries(fq, G, v) for v in V]
    got = fq.quad(G, V)
    assert got.dtype == np.int16 and got.shape == (k,)
    assert got.tolist() == want
    assert [fq.quad(G, v) for v in V] == want
    assert all(type(fq.quad(G, v)) is int for v in V)


@pytest.mark.parametrize("kind,p,e,m", [("minus", 3, 1, 2), ("plus", 5, 1, 2), ("odd", 3, 2, 1),
                                        ("minus", 3, 2, 2), ("odd", 3, 1, 2)])
def test_reflections_match_the_closed_form_per_vector(kind, p, e, m):
    # one reflection per non-singular point, in point order, with the bytes
    # of I - Q(v)^-1 v (Gv)^T built entry by entry
    s = build_space(kind, fq_context(p, e), m)
    fq = s.fq
    nonsing = [v for v in s.points() if _quad_by_entries(fq, s.gram, v)]
    got = reflections(s)
    assert len(got) == len(nonsing)
    for v, r in zip(nonsing, got):
        c = fq.neg(fq.inv(_quad_by_entries(fq, s.gram, v)))
        gv = fq.mat_vec(s.gram, v)
        want = np.array([[fq.add(int(i == j), fq.mul(fq.mul(c, int(v[i])), int(gv[j])))
                          for j in range(s.n)] for i in range(s.n)], dtype=np.int16)
        assert r.tobytes() == want.tobytes()


def test_reflections_are_one_read_only_stack():
    # every caller shares the cached stack, so it cannot be edited in place
    s = build_space("minus", fq_context(3, 1), 2)
    R = reflections(s)
    assert R is reflections(s)
    assert R.dtype == np.int16 and R.shape == (len(s.points()) - len(s.isotropic_points()), 4, 4)
    with pytest.raises(ValueError):
        R[0, 0, 0] = 2


def test_point_sets_are_read_only_arrays():
    # the cached points and singular points are shared by every caller as
    # (N, n) int16 arrays, the singular ones in point order
    s = build_space("minus", fq_context(3, 1), 2)
    P, L = s.points(), s.isotropic_points()
    assert P is s.points() and L is s.isotropic_points()
    assert P.dtype == L.dtype == np.int16 and P.shape == (40, 4) and L.shape == (10, 4)
    assert L.tobytes() == P[s.Q(P) == 0].tobytes()
    for X in (P, L):
        with pytest.raises(ValueError):
            X[0, 0] = 2


def test_so_generators_are_the_first_reflection_times_each_other():
    s = build_space("odd", fq_context(3, 1), 1)
    R = [Mat(s.fq, a) for a in reflections(s)]
    assert [a.tobytes() for a in so_generators(s)] == [(R[0] * r).key for r in R[1:]]
    # the line has one reflection, -1, and SO_1 is trivial
    assert so_generators(build_space("odd", fq_context(3, 1), 0)).shape == (0, 1, 1)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
@pytest.mark.parametrize("k", range(5))
def test_projective_points_match_an_itertools_walk(p, e, k):
    # a random reduced basis of a k-space of F_q^4; the reference walks the
    # coefficient rows lead by lead, later entries lexicographic, the last
    # fastest, one scalar combination per row
    fq = fq_context(p, e)
    n = 4
    rng = np.random.default_rng(10 * p + k)
    while True:
        R, rank, _ = fq.rref(rng.integers(0, fq.q, (k, n)).astype(np.int16))
        if rank == k:
            break
    B = R[:k]
    want = []
    for lead in range(k):
        for tail in itertools.product(range(fq.q), repeat=k - lead - 1):
            v = np.zeros(n, dtype=np.int16)
            for c, row in zip((1,) + tail, B[lead:]):
                v = fq.v_add(v, fq.v_scale(c, row))
            want.append(v)
    got = projective_points(fq, B)
    assert got.shape == (len(want), n) == ((fq.q ** k - 1) // (fq.q - 1), n)
    assert got.dtype == np.int16 and got.tobytes() == np.array(want, dtype=np.int16).reshape(-1, n).tobytes()
    # canonical: the first nonzero entry of every point is 1
    assert (got[np.arange(len(got)), (got != 0).argmax(axis=1)] == 1).all()
    for lead in range(k):
        start = sum(fq.q ** (k - 1 - i) for i in range(lead))
        assert projective_points(fq, B, lead).tobytes() == got[start:start + fq.q ** (k - 1 - lead)].tobytes()


# SHA-256 of space.C.tobytes(), the Witt basis of the space of each group
# of scripts/survey_constructions.py, recorded before the Witt scan was
# stacked: the frames must not change
SPACE_C_SHA256 = {
    ("O-", 3, 2): "f9d10b77126ab15bc3488ce712403813f59b1dc4781f4cf22bef2feacd0a2868",
    ("O+", 3, 2): "6a2d8d4e6d667083ae2ee78fe0c7f5f707696b1b0f0fd44ca3ed06c807cb59e8",
    ("SO-", 3, 2): "f9d10b77126ab15bc3488ce712403813f59b1dc4781f4cf22bef2feacd0a2868",
    ("SO+", 3, 2): "6a2d8d4e6d667083ae2ee78fe0c7f5f707696b1b0f0fd44ca3ed06c807cb59e8",
    ("Oodd", 3, 1): "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
    ("Oodd", 3, 3): "24eb0af378724c5d9169e2a09636db7330ff7ae1b519f47f1cbb465761eab0dd",
    ("Oodd", 3, 5): "f55875f41353b14f88557cba065adfb8b3bc61180f782006eb2d8fc13c2b7533",
    ("O-", 3, 4): "a86e4b907d72df50d4237077783cc5b120b5977e9dc205d8824155552db3cc48",
    ("O+", 3, 4): "2b027cf1c1e4176dfcb2aa6ae4431af9bada4d8798171ee1e0d0d4b62d5d4726",
    ("SO-", 3, 4): "a86e4b907d72df50d4237077783cc5b120b5977e9dc205d8824155552db3cc48",
    ("SO+", 3, 4): "2b027cf1c1e4176dfcb2aa6ae4431af9bada4d8798171ee1e0d0d4b62d5d4726",
    ("PSO-", 3, 4): "a86e4b907d72df50d4237077783cc5b120b5977e9dc205d8824155552db3cc48",
    ("PSO+", 3, 4): "2b027cf1c1e4176dfcb2aa6ae4431af9bada4d8798171ee1e0d0d4b62d5d4726",
    ("O-", 5, 4): "42feb5251e5aada25ff935eee1b79e19b1dcb5fc103112ca82abf397a113ef07",
    ("O+", 5, 4): "f6d7fcbce594ebc7193c34c99b2cf8c93f2735f33ef736ebb9f9b213d93d122f",
    ("Oodd", 5, 3): "b94377ec64e0dce3ee419ed451e5cd901b5ec77b3857a8a5fce9e240c21ef2ab",
    ("O-", 3, 6): "0df5cb544d2bcbc54b67519fd0511f44e78dfd566bbeb7e7391d12e61ed02a61",
    ("O+", 3, 6): "2898308735e186e37238c27ce969d7f0a77fba8428d0603620740397a4fce315",
}


@pytest.mark.parametrize("fam,q,n", sorted(SPACE_C_SHA256))
def test_witt_bases_of_the_survey_grid_match_golden_hashes(fam, q, n):
    import hashlib

    from orthosig.lscore import space_for

    C = space_for(descriptor(fam, q, n=n)).C
    assert hashlib.sha256(C.tobytes()).hexdigest() == SPACE_C_SHA256[(fam, q, n)]


# SHA-256 of the model gram and of the Witt basis C of `space_for`, e > 1
# for all three kinds and groups past the survey grid, recorded before the
# geometry was built on powers of the Singer matrix
MODEL_SHA256 = {
    ("O-", 9, 4): ("a88bb742ef5f8bc6f56e17feae811d1566d9a244f30b28a9c3ccb736cb84042e",
        "1356e72619c32c5e7ac9e540edabbe10c58d63fce3030def648568890191b1ca"),
    ("O+", 9, 4): ("ede7dccddbda2a815bcccaa8f537b5c6f95c9382aa23fe0f6466a52702f28c9e",
        "537ec252bbdc35469245a1e2a5c84d185e49b97d5cf7c6839a9fafe401606f0d"),
    ("Oodd", 9, 5): ("7380600d14ff720df6ce42771b0fb8a0071b82fd0fa8c4a9df174c669ad4ff7d",
        "6242c7567051cc1f4b8b2b743e27570880196de635d1cce53d198004074b78a4"),
    ("O-", 25, 4): ("3bc039ed5ad77cea9a8edc30fd89bf71e78983442b5d9da0cd78a30c75102a79",
        "ca0ac47fd3f8dded3d9e5752a15312236872ac0773f98bc9ab3124001d18b937"),
    ("O+", 25, 4): ("7070c4e0dfef5836d335be37b6c13e968756292ede740f7e18977f09a02cad3d",
        "024a3afc9d914370f47fdafd3dd228c8beb26a80db5083b572633e758656b416"),
    ("Oodd", 25, 3): ("e2b4f1e21e0e7269247aa4e7f0485f3d3b6cf2d0a47f9e6c0f2fc1db9f264c18",
        "ccba03190873efb2b9f837b14a6899e2f083976d2e29d78d45b83ec2d44552ab"),
    ("O-", 5, 6): ("d864af8877c181b1034404623a68c15debb6d12726d423f70f49e13b97c90dcc",
        "e712ce4d0fadfeb831052a1d1ebacf7679f6715ee47363b1d9b6e7648a618a65"),
    ("O+", 5, 6): ("7ff56c75499a919ccd30b498b5d7992110b296e3304e40da4344ffc4256cfa66",
        "240ce9de63482bc6e3a3305b5141a5f0b704e2c5b0a7fad51a832771f55282f9"),
    ("O-", 3, 8): ("dab54184987449f59f54988e1be6e55d885221bad064ca7c002b7c7c93194983",
        "8fbc4d939943ffffec46adaee3d74b55a1f60a6d7c5b5e175864ff9aa7553186"),
    ("O+", 3, 8): ("3816741aeab60ee82cf8c2ac0884a615ee52626fa5195d6bd9eef37c58aeff47",
        "d0b3fde6f0c480d5c27d89b0b5a6426f59c1f39e2dcd802eba686de58348031f"),
}


@pytest.mark.parametrize("fam,q,n", sorted(MODEL_SHA256))
def test_model_grams_and_witt_bases_match_golden_hashes(fam, q, n):
    import hashlib

    from orthosig.lscore import space_for

    space = space_for(descriptor(fam, q, n=n))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (space.gram_model, space.C))
    assert got == MODEL_SHA256[(fam, q, n)]
