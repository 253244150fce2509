import random

import numpy as np
import pytest
from headblocks import singer_b, stage_spread

from orthosig.fields import FieldError, fq_context, make_tower
from orthosig.forms import build_space, is_isometry
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
    identity,
    mulclose,
    mult_matrix,
    neg_identity,
    order_sp,
    singer_generator,
    split_family,
    standard_generators,
)


def test_mat_arith_basics():
    fq = fq_context(3, 1)
    I4 = identity(fq, 4)
    assert I4.inv() == I4
    Z = Mat(fq, np.zeros((4, 4), dtype=np.int16))
    assert Z.rank() == 0
    A = Mat(fq, np.array([[1, 1], [0, 2]], dtype=np.int16))
    assert A.det() == 2
    assert A.transpose_inv() == Mat(fq, np.array([[1, 0], [1, 2]], dtype=np.int16)).inv()


def test_mat_errors():
    fq = fq_context(3, 1)
    Z = Mat(fq, np.zeros((2, 2), dtype=np.int16))
    with pytest.raises(FieldError):
        Z.inv()


def test_mult_matrix_identity_and_homomorphism():
    t = make_tower(3, 1, 2)
    assert mult_matrix(1, t) == identity(t.fq, 4)
    rng = random.Random(11)
    for _ in range(1000):
        s1 = rng.randrange(1, t.top.order)
        s2 = rng.randrange(1, t.top.order)
        assert mult_matrix(s1, t) * mult_matrix(s2, t) == mult_matrix(t.top.mul(s1, s2), t)
    with pytest.raises(ValueError):
        mult_matrix(0, t)


def test_mult_matrix_determinant_is_norm():
    t = make_tower(3, 1, 2)
    rng = random.Random(4)
    exp = (t.top.order - 1) // (t.q - 1)  # the norm down to F_q is s^exp
    for _ in range(20):
        s = rng.randrange(1, t.top.order)
        assert mult_matrix(s, t).det() == t.top_to_fq_code(t.top.pow(s, exp))


def test_singer_generator():
    fq = fq_context(3, 1)
    s1 = singer_generator(1, fq)
    assert s1.a.tolist() == [[2]]
    assert element_order(s1, 2) == 2
    s2 = singer_generator(2, fq)
    assert element_order(s2, 8) == 8
    assert s2.pow(8) == identity(fq, 2)
    fq5 = fq_context(5, 1)
    s25 = singer_generator(2, fq5)
    assert element_order(s25, 24) == 24


def test_element_order():
    fq = fq_context(3, 1)
    assert element_order(identity(fq, 3), 5) == 1
    assert element_order(neg_identity(fq, 3), 5) == 2
    with pytest.raises(OrderNotFound):
        element_order(singer_generator(2, fq), 7)
    with pytest.raises(FieldError):  # singular: no power is I
        element_order(Mat(fq, np.array([[1, 1], [2, 2]], dtype=np.int16)), 7)


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
    space = build_space("minus", make_tower(3, 1, 2))
    a, notes = standard_generators(descriptor("O-", 3, n=4), space)
    assert element_order(a, 11) == 10
    assert is_isometry(space, a) and notes == []
    ls = canonical_ls(descriptor("O-", 3, n=4))
    assert len(stage_spread(ls).W0) == 1 and singer_b(ls) is None


def test_standard_generator_orders_plus():
    # order of the stage's B block is q^r - 1 = 8, r = 2
    space = build_space("plus", make_tower(3, 1, 2))
    a, notes = standard_generators(descriptor("O+", 3, n=4), space)
    assert element_order(a, 5) == 4  # q^{m-1} + 1
    assert is_isometry(space, a) and notes == []
    for fam in ("O+", "SO+"):
        ls = canonical_ls(descriptor(fam, 3, n=4))
        assert len(stage_spread(ls).W0) == 2
        b = singer_b(ls)
        assert element_order(b, 9) == 8
        assert is_isometry(space, b) and b.det() == 1


def test_standard_generator_orders_odd():
    # order of the a block is q^m + 1 = 4
    space = build_space("odd", make_tower(3, 1, 1))
    a, notes = standard_generators(descriptor("Oodd", 3, n=3), space)
    assert element_order(a, 5) == 4


def test_standard_generator_notes_of_so():
    # the starred D* of an SO signature exists only for q^r - 1 <= 2
    def fallback(order):
        return [f"starred b requires an involutory orthogonal D* of order {order}; impossible, falling back",
                "orthogonal-subgroup b variant unavailable; using the inverse-transpose block form (det 1)"]

    for fam, kind, q, m, want in [("SO+", "plus", 3, 2, fallback(8)), ("SO-", "minus", 3, 2, []),
                                  ("SOodd", "odd", 3, 1, []), ("O+", "plus", 3, 2, []),
                                  ("SO-", "minus", 5, 2, fallback(4))]:
        space = build_space(kind, make_tower(q, 1, m))
        _, notes = standard_generators(descriptor(fam, q, n=space.n), space)
        assert notes == want


def test_mulclose_dihedral():
    space = build_space("minus", make_tower(3, 1, 1))
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

    space = build_space(kind, make_tower(p, e, m))
    gens = reflections(space)
    mats = [Mat(space.fq, a) for a in gens]
    want = _bfs_one_at_a_time([identity(space.fq, space.n)], lambda x: [x * g for g in mats])
    assert [g.key for g in mulclose(space.fq, gens)] == [g.key for g in want]


@pytest.mark.parametrize("kind,p,e,m", CLOSURE_SPACES)
def test_derived_subgroup_keeps_bfs_order(kind, p, e, m):
    # the SO generators are not involutions, so they tell g x g^-1 from
    # g^-1 x g
    from orthosig.forms import o_generators, so_generators

    space = build_space(kind, make_tower(p, e, m))
    for gens in (o_generators(space), so_generators(space)):
        mats = [Mat(space.fq, a) for a in gens]
        invs = [g.inv() for g in mats]
        comms = [a * b * ai * bi for a, ai in zip(mats, invs) for b, bi in zip(mats, invs)]
        want = _bfs_one_at_a_time(
            [identity(space.fq, space.n)] + comms,
            lambda x: [x * c for c in comms] + [g * x * gi for g, gi in zip(mats, invs)])
        assert [g.key for g in derived_subgroup(space.fq, gens)] == [g.key for g in want]


def test_closure_records_parents_and_stops_at_the_limit():
    fq = fq_context(5, 1)
    S = singer_generator(2, fq)  # order 24, and -I = S^12
    stack = np.stack([S.a, (S * S).a, neg_identity(fq, 2).a])

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

    space = build_space("odd", make_tower(3, 1, 1))  # O_3(3) of order 48, derived subgroup 12
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
    gf = fq.gf
    A = Mat(fq, np.array([[4, 1], [0, 2]], dtype=np.int16))
    B = Mat(fq, np.array([[3, 5], [7, 1]], dtype=np.int16))
    C = A * B
    for i in range(2):
        for j in range(2):
            manual = gf.add(gf.mul(int(A.a[i, 0]), int(B.a[0, j])),
                            gf.mul(int(A.a[i, 1]), int(B.a[1, j])))
            assert int(C.a[i, j]) == manual
    if A.det() != 0:
        assert A * A.inv() == identity(fq, 2)
