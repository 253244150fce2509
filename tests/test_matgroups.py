import random

import numpy as np
import pytest
from headblocks import singer_b, stage_spread
from singerfield import elements

from orthosig.fields import FieldError, fq_context
from orthosig.forms import build_space, preserves_form
from orthosig.lscore import canonical_ls
from orthosig.matgroups import (
    FAMILIES,
    GroupDescriptor,
    Mat,
    OrderNotFound,
    closure,
    derived_subgroup,
    descriptor,
    element_order,
    group_order,
    mulclose,
    order_sp,
    singer_generator,
    split_family,
    standard_generators,
)


def test_mat_arith_basics():
    fq = fq_context(3, 1)
    I4 = Mat(fq, fq.identity(4))
    assert I4.inv() == I4
    Z = Mat(fq, np.zeros((4, 4), dtype=np.int16))
    assert fq.rank(Z.a) == 0
    A = Mat(fq, np.array([[1, 1], [0, 2]], dtype=np.int16))
    assert fq.det(A.a) == 2
    assert Mat(fq, fq.mat_inv(np.ascontiguousarray(A.a.T))) == Mat(fq, np.array([[1, 0], [1, 2]], dtype=np.int16)).inv()


def test_mat_errors():
    fq = fq_context(3, 1)
    Z = Mat(fq, np.zeros((2, 2), dtype=np.int16))
    with pytest.raises(FieldError):
        Z.inv()


def test_mult_matrix_identity_and_homomorphism():
    # x -> X, the matrix of y -> x y on F_81 = F_3[A], sends 1 to I and
    # products to products; the first column of X is x itself
    fq = fq_context(3, 1)
    A = singer_generator(4, fq)
    assert elements(fq, A, [[1, 0, 0, 0]])[0].tolist() == fq.identity(4).tolist()
    rng = np.random.default_rng(11)
    U, V = rng.integers(0, 3, (2, 1000, 4)).astype(np.int16)
    MU, MV = elements(fq, A, U), elements(fq, A, V)
    assert (MU[:, :, 0] == U).all()
    assert (fq.mat_mul(MU, MV) == elements(fq, A, fq.mat_mul(MU, V[:, :, None])[..., 0])).all()
    # 0 is the one element with a singular matrix, and k = 0 has no cycle
    nonzero = U.any(axis=1)
    assert ((fq.det(MU) != 0) == nonzero).all() and not nonzero.all()
    with pytest.raises(ValueError):
        singer_generator(0, fq)


def test_mult_matrix_determinant_is_norm():
    # det(A^s) is the norm of alpha^s down to F_q, alpha^(s (q^k-1)/(q-1)),
    # which sits in F_q[A] as that scalar matrix
    rng = random.Random(4)
    for p, e, k in [(3, 1, 4), (5, 1, 2), (3, 2, 2), (5, 2, 2), (3, 3, 2)]:
        fq = fq_context(p, e)
        A = Mat(fq, singer_generator(k, fq))
        exp = (fq.q ** k - 1) // (fq.q - 1)
        for _ in range(8):
            s = rng.randrange(1, fq.q ** k - 1)
            assert A.pow(s * exp) == Mat(fq, fq.v_scale(fq.det(A.pow(s).a), fq.identity(k)))


def test_singer_generator():
    fq = fq_context(3, 1)
    s1 = singer_generator(1, fq)
    assert s1.tolist() == [[2]]
    assert element_order(fq, s1, 2) == 2
    s2 = singer_generator(2, fq)
    assert element_order(fq, s2, 8) == 8
    assert Mat(fq, s2).pow(8) == Mat(fq, fq.identity(2))
    fq5 = fq_context(5, 1)
    s25 = singer_generator(2, fq5)
    assert element_order(fq5, s25, 24) == 24


# SHA-256 of the entry bytes of singer_generator(k, fq_context(p, e)), keyed
# (p, e, k), recorded while F_(p^ek) was still built with tables: every
# k <= 8 whose field has at most 3^12 elements
SINGER_SHA256 = {
    (3, 1, 1): "99be5efb88ca2013bd8e4eb035fd42d5245468fe9afa70d8ba9c1c419a48c4e8",
    (3, 1, 2): "4b419c57c27c31e26f924bb6b5164be50586b6fd36e393f45bb10581ddf1a74d",
    (3, 1, 3): "f30561bd5630fadf6d7dc85642697d06c60be95c3c9434b8bc4d0a0a903d4131",
    (3, 1, 4): "25c048b6594601c59d5890edac518fbbdc42237ba1004b7a72aa18f25250f017",
    (3, 1, 5): "f85fb1873a23e2d09a1c58b10d39f3ff690eb763d4e0a2689b925eb918724253",
    (3, 1, 6): "ab2f85436fcd24faf18dfa56dbd168631ed802de52c847378b18fd82987b044f",
    (3, 1, 7): "6aef793996c2ab30912dc513259d0e716e3f7f6e7c27c0f1ccdf92640ba07d29",
    (3, 1, 8): "e0b057c78d07b49964110b069d25a38c6ac59eb94338e0489e3cd4db72859a03",
    (5, 1, 1): "99be5efb88ca2013bd8e4eb035fd42d5245468fe9afa70d8ba9c1c419a48c4e8",
    (5, 1, 2): "de55a1a49425e3306153ce874954e666c339117f89204fb8259aaebe2c448df1",
    (5, 1, 3): "ad74583628cf186b9aae66360759f21e40ba04168ca19bfb7420a8d04932330a",
    (5, 1, 4): "9c3eeb067bfad5f4945ebe7887d1bd450e5da0ac0e1ff49a479725fea156f934",
    (5, 1, 5): "33506809548dfc8d4ee63b3b259f2b935f70e81d5120a60ad5c348ce59726130",
    (5, 1, 6): "2afd317e4fd6cd24762e86842f6a2e48bc36ecbb7398c0cda0da18e870231bf3",
    (5, 1, 7): "6894da5f5f2cea2b150ba090c0497c981901150011b70001413a5ebadb8c506e",
    (5, 1, 8): "4f1caf81857f0a4c8d1be9ee213d3c9366ee732d0a42f03e0b13fe00de45e65f",
    (3, 2, 1): "c0ba8a33ac67f44abff5984dfbb6f56c46b880ac2b86e1f23e7fa9c402c53ae7",
    (3, 2, 2): "d1e6f2116fd28f00161f866b1e9b0c4a954cc2a09eaa7f30054242b7f2d29189",
    (3, 2, 3): "0e061bf05e7a81f947f7ead8be92593c52e9c48bd2154b176f78b128137ead42",
    (3, 2, 4): "6f5e51124619040904f14b9ced9bfe302398ac409b577826e6756013b5f566ce",
    (3, 2, 5): "28eac027eaaffe6a49212174cb31bcfcabbfadd901da9ecf39d49065f2d10ae5",
    (3, 2, 6): "f4acf65ea1f728269886499f76a498b94a262b6d3a9f14e91b2f22750fde40cb",
    (5, 2, 1): "707bf0b938f307b5c222e670598b865d5e1f8a8003df82c7abbf7c9f8fa4d720",
    (5, 2, 2): "e3c37efc0bb122446d8d41b12b47680844404aee1fdb530b43a54e8fb211a94e",
    (5, 2, 3): "6858badc096a605e5267633d079910773ca9b1bfe0a2ba8b6ce9636b7e514f6d",
    (5, 2, 4): "902541f918c86540fdde678742bafc265121ba8d26a86f02017e3df7f43d8ebf",
    (3, 3, 1): "08da7c45cb204377e7e42249cda5713fa865116ddbb4cb5a1949b2e5b438a6ab",
    (3, 3, 2): "90d19123c317373d522191406da48f4e64ca438ff81297db81024fb87db79e92",
    (3, 3, 3): "f063239ac9e7c46260b755e2dce1b48b466edd2836497ac14b27b66c05899ca0",
    (3, 3, 4): "5bd1b93511ce3b132aeb0b8349352d96b0a5c57541ba09c44ab80189954b5262",
}


@pytest.mark.parametrize("p,e,k", sorted(SINGER_SHA256))
def test_singer_matrices_match_golden_hashes(p, e, k):
    import hashlib

    A = singer_generator(k, fq_context(p, e))
    assert hashlib.sha256(A.tobytes()).hexdigest() == SINGER_SHA256[(p, e, k)]


def test_element_order():
    fq = fq_context(3, 1)
    assert element_order(fq, fq.identity(3), 5) == 1
    assert element_order(fq, fq.v_neg(fq.identity(3)), 5) == 2
    with pytest.raises(OrderNotFound):
        element_order(fq, singer_generator(2, fq), 7)
    with pytest.raises(FieldError):  # singular: no power is I
        element_order(fq, np.array([[1, 1], [2, 2]], dtype=np.int16), 7)


def test_group_orders():
    assert order_sp(2, 3) == 24
    assert order_sp(2, 5) == 120
    assert group_order(descriptor("O-", 3, n=4)) == 1440
    assert group_order(descriptor("O+", 3, n=4)) == 1152
    assert group_order(descriptor("Oodd", 3, n=3)) == 48
    assert group_order(descriptor("SO-", 3, n=4)) == 720
    assert group_order(descriptor("PSO-", 3, n=4)) == 360
    assert group_order(descriptor("O-", 3, n=6)) == 26127360
    assert group_order(descriptor("Oodd", 3, n=1)) == 2


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor("O-", 4, 4)
    with pytest.raises(ValueError):
        GroupDescriptor("O-", 3, 3)
    with pytest.raises(ValueError):
        GroupDescriptor("Oodd", 3, 4)
    with pytest.raises(ValueError, match="n >= 1"):
        GroupDescriptor("Oodd", 3, -1)
    d = descriptor("SOodd", 3, m=1)
    assert d.n == 3 and d.kind == "odd" and d.base_family() == "SO"
    # the int16-code limit: 32771 is the smallest prime above 2^15.  The
    # 64 MiB table budget: 4093 is the largest prime inside it, and 4099 and
    # 32749 (the largest prime below 2^15) are past it.  None builds a table
    assert GroupDescriptor("O-", 4093, 2).q == 4093
    for q in (4099, 32749):
        with pytest.raises(ValueError, match="64 MiB"):
            GroupDescriptor("O-", q, 2)
    with pytest.raises(ValueError, match="2\\^15"):
        GroupDescriptor("O-", 32771, 2)


def test_family_names_are_a_base_and_a_kind_suffix():
    assert FAMILIES == (
        "O-", "O+", "Oodd", "SO-", "SO+", "SOodd", "Omega-", "Omega+", "Omegaodd",
        "PSO-", "PSO+", "PSOodd", "POmega-", "POmega+", "POmegaodd",
    )
    assert split_family("Oodd") == (False, "O", "odd")
    assert split_family("POmega+") == (True, "Omega", "plus")
    for name in ("GL", "parabolic", "SO", "PSO-x", "O-+"):
        with pytest.raises(ValueError, match="unknown family"):
            split_family(name)
        with pytest.raises(ValueError, match="unknown family"):
            GroupDescriptor(name, 3, 4)
    d = descriptor("PSO-", 3, m=2)
    assert (d.projective, d.base_family(), d.kind, d.m) == (True, "PSO", "minus", 2)
    assert d.with_base("SO") == descriptor("SO-", 3, n=4)
    assert descriptor("SOodd", 5, m=3).with_base("PSO").family == "PSOodd"


def test_standard_generator_orders_minus():
    # order of the a block is q^m + 1 = 10; the stage's base subspace is a
    # point, one Singer coset, so the stage has no B block
    space = build_space("minus", fq_context(3, 1), 2)
    a, notes = standard_generators(descriptor("O-", 3, n=4), space)
    assert element_order(space.fq, a, 11) == 10
    assert preserves_form(space.fq, space.gram, a) and notes == []
    ls = canonical_ls(descriptor("O-", 3, n=4))
    assert len(stage_spread(ls).W0) == 1 and singer_b(ls) is None


def test_standard_generator_orders_plus():
    # order of the stage's B block is q^r - 1 = 8, r = 2
    space = build_space("plus", fq_context(3, 1), 2)
    a, notes = standard_generators(descriptor("O+", 3, n=4), space)
    assert element_order(space.fq, a, 5) == 4  # q^{m-1} + 1
    assert preserves_form(space.fq, space.gram, a) and notes == []
    for fam in ("O+", "SO+"):
        ls = canonical_ls(descriptor(fam, 3, n=4))
        assert len(stage_spread(ls).W0) == 2
        b = singer_b(ls)
        assert element_order(space.fq, b.a, 9) == 8
        assert preserves_form(space.fq, space.gram, b.a) and space.fq.det(b.a) == 1


def test_standard_generator_orders_odd():
    # order of the a block is q^m + 1 = 4
    space = build_space("odd", fq_context(3, 1), 1)
    a, notes = standard_generators(descriptor("Oodd", 3, n=3), space)
    assert element_order(space.fq, a, 5) == 4


def test_standard_generator_notes_of_so():
    # the starred D* of an SO signature exists only for q^r - 1 <= 2
    def fallback(order):
        return [f"starred b requires an involutory orthogonal D* of order {order}; impossible, falling back",
                "orthogonal-subgroup b variant unavailable; using the inverse-transpose block form (det 1)"]

    for fam, kind, q, m, want in [("SO+", "plus", 3, 2, fallback(8)), ("SO-", "minus", 3, 2, []),
                                  ("SOodd", "odd", 3, 1, []), ("O+", "plus", 3, 2, []),
                                  ("SO-", "minus", 5, 2, fallback(4))]:
        space = build_space(kind, fq_context(q, 1), m)
        _, notes = standard_generators(descriptor(fam, q, n=space.n), space)
        assert notes == want


def test_mulclose_dihedral():
    space = build_space("minus", fq_context(3, 1), 1)
    from orthosig.forms import reflections

    els = mulclose(space.fq, reflections(space))
    assert len(els) == 8  # dihedral of order 2(q+1)


def _bfs_one_at_a_time(starts, images):
    """Reference closure: a queue of Mat nodes, one image at a time."""
    order, seen = [], set()
    for x in starts:
        if x.key not in seen:
            seen.add(x.key)
            order.append(x)
    for x in order:  # the list grows while it is walked
        for y in images(x):
            if y.key not in seen:
                seen.add(y.key)
                order.append(y)
    return order


CLOSURE_SPACES = [("minus", 3, 1, 1), ("minus", 3, 1, 2), ("plus", 3, 1, 2), ("odd", 3, 1, 1),
                  ("odd", 5, 1, 1), ("minus", 3, 2, 1), ("plus", 3, 2, 1)]


@pytest.mark.parametrize("kind,p,e,m", CLOSURE_SPACES)
def test_mulclose_keeps_bfs_order(kind, p, e, m):
    from orthosig.forms import reflections

    space = build_space(kind, fq_context(p, e), m)
    gens = reflections(space)
    mats = [Mat(space.fq, a) for a in gens]
    want = _bfs_one_at_a_time([Mat(space.fq, space.fq.identity(space.n))], lambda x: [x * g for g in mats])
    assert [g.tobytes() for g in mulclose(space.fq, gens)] == [g.key for g in want]


@pytest.mark.parametrize("kind,p,e,m", CLOSURE_SPACES)
def test_derived_subgroup_keeps_bfs_order(kind, p, e, m):
    # the SO generators are not involutions, so they tell g x g^-1 from
    # g^-1 x g
    from orthosig.forms import o_generators, so_generators

    space = build_space(kind, fq_context(p, e), m)
    for gens in (o_generators(space), so_generators(space)):
        mats = [Mat(space.fq, a) for a in gens]
        invs = [g.inv() for g in mats]
        comms = [a * b * ai * bi for a, ai in zip(mats, invs) for b, bi in zip(mats, invs)]
        want = _bfs_one_at_a_time(
            [Mat(space.fq, space.fq.identity(space.n))] + comms,
            lambda x: [x * c for c in comms] + [g * x * gi for g, gi in zip(mats, invs)])
        assert [g.tobytes() for g in derived_subgroup(space.fq, gens)] == [g.key for g in want]


def test_closure_records_parents_and_stops_at_the_limit():
    fq = fq_context(5, 1)
    S = Mat(fq, singer_generator(2, fq))  # order 24, and -I = S^12
    stack = np.stack([S.a, (S * S).a, fq.v_neg(fq.identity(2))])

    def images(x):
        return fq.mat_mul(x, stack)

    nodes, parent, via = closure([fq.identity(2), stack[2]], images, 10 ** 6)
    assert len(nodes) == 24 == len({x.tobytes() for x in nodes})
    assert list(parent[:2]) == list(via[:2]) == [-1, -1]
    for t in range(2, len(nodes)):
        assert parent[t] < t
        assert nodes[t].tobytes() == images(nodes[parent[t]])[via[t]].tobytes()
    for limit in range(1, 26):
        head = closure([fq.identity(2), stack[2]], images, limit)
        assert [x.tobytes() for x in head[0]] == [x.tobytes() for x in nodes[:limit]]
        assert head[1] == parent[:limit] and head[2] == via[:limit]


def test_closures_raise_beyond_the_cap(monkeypatch):
    from orthosig import matgroups
    from orthosig.forms import o_generators, reflections

    space = build_space("odd", fq_context(3, 1), 1)  # O_3(3) of order 48, derived subgroup 12
    monkeypatch.setattr(matgroups, "_CLOSURE_CAP", 48)
    assert len(mulclose(space.fq, reflections(space))) == 48
    monkeypatch.setattr(matgroups, "_CLOSURE_CAP", 47)
    with pytest.raises(RuntimeError, match="^closure exceeded cap$"):
        mulclose(space.fq, reflections(space))
    monkeypatch.setattr(matgroups, "_CLOSURE_CAP", 12)
    assert len(derived_subgroup(space.fq, o_generators(space))) == 12
    monkeypatch.setattr(matgroups, "_CLOSURE_CAP", 11)
    with pytest.raises(RuntimeError, match="^derived subgroup exceeded cap$"):
        derived_subgroup(space.fq, o_generators(space))


def test_mat_serialization_roundtrip():
    fq = fq_context(3, 2)
    rng = random.Random(3)
    A = Mat(fq, np.array([[rng.randrange(9) for _ in range(3)] for _ in range(3)], dtype=np.int16))
    assert Mat.from_json(fq, A.to_json()) == A


def test_matrix_arithmetic_over_f9():
    # the gather-table path (e > 1) agrees with scalar field arithmetic
    fq = fq_context(3, 2)
    A = Mat(fq, np.array([[4, 1], [0, 2]], dtype=np.int16))
    B = Mat(fq, np.array([[3, 5], [7, 1]], dtype=np.int16))
    C = A * B
    for i in range(2):
        for j in range(2):
            manual = fq.add(fq.mul(int(A.a[i, 0]), int(B.a[0, j])),
                            fq.mul(int(A.a[i, 1]), int(B.a[1, j])))
            assert int(C.a[i, j]) == manual
    if fq.det(A.a) != 0:
        assert A * A.inv() == Mat(fq, fq.identity(2))
