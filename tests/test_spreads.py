import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from headblocks import stage_spread
from leibniz import det_by_permutations, rref_by_rows

from orthosig.fields import fq_context, projective_points
from orthosig.forms import build_space, enumerate_isotropic_points
from orthosig.matgroups import Mat, descriptor, element_order, powers, standard_generators
from orthosig.spreads import (
    NotAPartialSpread,
    PartialSpread,
    classical_spread,
    act_rref,
    act_subspace,
    cyclic_orbits,
    orbits_are_partial_spreads,
    schreier_transversal,
    span_points,
    subspace,
    verify_partition,
)


def all_points(fq, n):
    return projective_points(fq, fq.identity(n))


def test_classical_spread_31():
    fq = fq_context(3, 1)
    sp = classical_spread(fq, 1)
    assert len(sp) == 4  # q^m + 1
    covered = set()
    for m in sp.members:
        for v in span_points(fq, m):
            covered.add(v.tobytes())
    # 4 lines, 2 nonzero vectors each, covering all 8 = all 4 points of P(F_9)
    assert len(covered) == 4
    rep = verify_partition(sp, all_points(fq, 2), fq)
    assert rep["ok"] and rep["points_per_member"] == 1


def test_classical_spread_w0_is_subfield():
    fq = fq_context(3, 1)
    sp = classical_spread(fq, 2)
    assert len(sp) == 10
    w0 = sp.members[0]
    # the first member is F_{q^m} itself: contains the vector of 1, e_0
    one = fq.identity(4)[0]
    assert len(subspace(fq, np.vstack([w0, one]))) == len(w0)


@pytest.mark.parametrize("p,e,m", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 1), (5, 1, 2), (7, 1, 1), (3, 2, 1),
                                   (5, 2, 1)])
def test_classical_spread_partitions_V(p, e, m):
    # over F_{p^e} the e m spanning vectors of a translate have F_q-rank m:
    # each member is the m nonzero rows of its echelon form
    fq = fq_context(p, e)
    sp = classical_spread(fq, m)
    assert sp.members.shape == (fq.q ** m + 1, m, 2 * m) and sp.members.dtype == np.int16
    assert (sp.members != 0).any(axis=-1).all()
    rep = verify_partition(sp, all_points(fq, 2 * m), fq)
    assert rep["ok"]


# SHA-256 of the member stack of classical_spread(fq_context(p, e), m),
# keyed (p, e, m), recorded while it was built from tables of F_(q^2m)
CLASSICAL_SPREAD_SHA256 = {
    (3, 1, 1): "78888781dcc1d7801b76acac7e1c311c20d2b454a0f0520b5af9f23bbf94ed58",
    (3, 1, 2): "a7bc67c45ea739c1a7450f115458fb29dd48e707c350b09df50711c1e72b27af",
    (3, 1, 3): "b7ce33c2301334bc9d849e3e940b97d3ca9f2e20d6540e233f4de6bfb6469c07",
    (5, 1, 1): "14060d64bf39f6f9cd18acef40c0a2ea4c95be367e6d6146d2377920ffa64c71",
    (5, 1, 2): "607d063f7436c5c26011190473c470fedd2657dc65adcfc1159b938a6bda4a04",
    (7, 1, 1): "3aec088eabf6802d58f989ae505a9adb89399b987503d7d56b6fcc5f729fb531",
    (3, 2, 1): "626e73c8015371b36ce6b8c605de3aaaae0c4a7f2ddc55041a704df4c611d1f5",
    (5, 2, 1): "fb719b156a97cf9f97f6db552b282829d59360fe9760f5000eaf1ce875a79d8a",
}


@pytest.mark.parametrize("p,e,m", sorted(CLASSICAL_SPREAD_SHA256))
def test_classical_spread_members_match_golden_hashes(p, e, m):
    import hashlib

    sp = classical_spread(fq_context(p, e), m)
    assert hashlib.sha256(sp.members.tobytes()).hexdigest() == CLASSICAL_SPREAD_SHA256[(p, e, m)]


def _walked_spread(fq, walk):
    sp = PartialSpread(walk, fq)
    sp.check_pairwise()
    return sp


def _orbits(fq, g, bases, steps):
    """`cyclic_orbits` of a (k, r, n) stack of bases under <g>, g an
    (n, n) array, walked up to g^steps."""
    return cyclic_orbits(fq, powers(fq, g, steps + 1)[1:], bases)


def test_orbit_partial_spread_identity():
    s = build_space("minus", fq_context(3, 1), 2)
    W0 = subspace(s.fq, [s.e_vec(0)])
    orbits = _orbits(s.fq, s.fq.identity(4), W0[None], 1)
    assert orbits.ret.tolist() == [1]
    sp = _walked_spread(s.fq, orbits.walk(0, 1))
    assert len(sp) == 1
    assert sp.members[0].tobytes() == W0.tobytes()


def test_orbit_partial_spread_minus_torus_collapses():
    # the cyclic block of order 10 only reaches 5 distinct images: its
    # fifth power is -I, which fixes every subspace
    s = build_space("minus", fq_context(3, 1), 2)
    a, _ = standard_generators(descriptor("O-", 3, n=4), s)
    W0 = subspace(s.fq, [enumerate_isotropic_points(s)[0]])
    orbits = _orbits(s.fq, a, W0[None], 10)
    assert orbits.ret.tolist() == [5]
    assert len(_walked_spread(s.fq, orbits.walk(0, 5))) == 5


def test_orbit_partial_spread_plus_sharp():
    # the plus-type block of order q^{m-1}+1 = 4 is sharply transitive on
    # the 4-line system through a compatible base
    from orthosig.lscore import canonical_ls

    ls = canonical_ls(descriptor("O+", 3, n=4))
    assert ls.meta["shape"] == "literal"
    plan = stage_spread(ls)
    _, gen, size = plan.layers[0]
    W0 = plan.W0
    fq = fq_context(3, 1)
    orbits = _orbits(fq, gen, W0[None], size)
    assert orbits.ret.tolist() == [size] == [4]
    assert len(_walked_spread(fq, orbits.walk(0, size))) == 4


def test_overlapping_members_raise():
    s = build_space("plus", fq_context(3, 1), 2)
    W1 = subspace(s.fq, [s.e_vec(0), s.e_vec(1)])
    W2 = subspace(s.fq, [s.e_vec(0), s.f_vec(1)])
    sp = PartialSpread([W1, W2], s.fq)
    with pytest.raises(NotAPartialSpread):
        sp.check_pairwise()
    # pairs (0, 3) and (1, 2) meet; the first in row-major order is the witness
    s = build_space("plus", fq_context(3, 1), 3)
    (e0, e1, e2), (f0, f1, f2) = [s.e_vec(i) for i in range(3)], [s.f_vec(i) for i in range(3)]
    sp = PartialSpread([subspace(s.fq, [e0, e1]), subspace(s.fq, [e2, f0]), subspace(s.fq, [f0, f1]),
                        subspace(s.fq, [e1, f2])], s.fq)
    with pytest.raises(NotAPartialSpread, match="^members 0 and 3 intersect nontrivially$") as exc:
        sp.check_pairwise()
    assert exc.value.witness == (0, 3)


def test_duplicate_member_violation():
    s = build_space("plus", fq_context(3, 1), 2)
    W1 = subspace(s.fq, [s.e_vec(0), s.e_vec(1)])
    with pytest.raises(NotAPartialSpread):
        PartialSpread([W1, W1], s.fq)


def test_partition_violation_report():
    # a member list missing part of L yields an uncovered violation
    s = build_space("minus", fq_context(3, 1), 2)
    pts = enumerate_isotropic_points(s)
    members = [subspace(s.fq, [v]) for v in pts[:8]]
    rep = verify_partition(PartialSpread(members, s.fq), pts, s.fq)
    assert not rep["ok"]
    assert rep["uncovered"] == 2
    assert any(v["kind"] == "uncovered" for v in rep["violations"])


def test_act_subspace():
    s = build_space("plus", fq_context(3, 1), 2)
    W = subspace(s.fq, [s.e_vec(0), s.e_vec(1)])
    g = s.fq.identity(4)
    assert act_subspace(s.fq, g, W).tobytes() == W.tobytes()


# ---------------------------------------------------------------- batched kernel


@settings(max_examples=60)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4), st.data())
def test_hypothesis_batched_act_matches_one_at_a_time(pe, n, r, k, data):
    # q = 3, 5, 7, 9, 25: the einsum path and the table path
    fq = fq_context(*pe)
    entries = st.integers(min_value=0, max_value=fq.q - 1)
    mats = np.array(data.draw(st.lists(entries, min_size=k * n * n, max_size=k * n * n)),
                    dtype=np.int16).reshape(k, n, n)
    rows = np.array(data.draw(st.lists(entries, min_size=r * n, max_size=r * n)),
                    dtype=np.int16).reshape(r, n)
    R, rank, _ = act_rref(fq, mats, rows)
    for i in range(k):
        imgs = np.array([fq.mat_vec(mats[i], v) for v in rows], dtype=np.int16)
        R1, piv = rref_by_rows(fq, imgs)
        assert np.array_equal(R[i], R1)
        assert rank[i] == len(piv)
        S = act_subspace(fq, mats[i], subspace(fq, rows))
        assert S.dtype == np.int16 and S.tolist() == R1[:len(piv)].tolist()
        assert S.tobytes() == R[i, :rank[i]].tobytes()


def _reference_orbit(fq, g, W, cap):
    """The orbit of a subspace under <g>, stepped one `act_subspace` at a
    time: W, gW, .. up to the first repeat, or cap + 1 images when no
    image within cap steps repeats."""
    out, cur = [W], W
    for _ in range(cap):
        cur = act_subspace(fq, g, cur)
        if cur.tobytes() in {o.tobytes() for o in out}:
            break
        out.append(cur)
    return out


def test_orbit_precheck_matches_check_pairwise():
    # every base of the literal rung's walk: the stacked test of W against
    # its images agrees with the full pairwise check of the orbit (whole
    # orbits on O-4(3), none on O+6(3) or Oodd5(3))
    from orthosig.lscore import ts_subspace_transporters

    seen = set()
    for kind, fam, m in [("minus", "O-", 2), ("plus", "O+", 3), ("odd", "Oodd", 2)]:
        s = build_space(kind, fq_context(3, 1), m)
        lit, _ = standard_generators(descriptor(fam, 3, n=s.n), s)
        bases, _ = ts_subspace_transporters(s, False)
        orbits = _orbits(s.fq, lit, bases, 12)
        for size in set(orbits.ret.tolist()) - {0}:
            idx = np.flatnonzero(orbits.ret == size)
            walks = np.stack([orbits.walk(i, size) for i in idx])
            for walk, ok in zip(walks, orbits_are_partial_spreads(s.fq, walks)):
                try:
                    _walked_spread(s.fq, walk)
                    want = True
                except NotAPartialSpread:
                    want = False
                assert ok == want
                seen.add(want)
    assert seen == {True, False}


def test_members_that_meet_never_partition_the_singular_points():
    # the ladder checks its candidate spreads by the partition alone: the
    # members are images of a totally singular base, so two that meet
    # share a singular point, which is then covered twice.  The candidates
    # are the unions of one or two orbits of the literal block on the bases
    from orthosig.lscore import ts_subspace_transporters

    raised = 0
    for kind, fam, m in [("minus", "O-", 2), ("plus", "O+", 2), ("odd", "Oodd", 2), ("plus", "O+", 3)]:
        s = build_space(kind, fq_context(3, 1), m)
        lit, _ = standard_generators(descriptor(fam, 3, n=s.n), s)
        bases, _ = ts_subspace_transporters(s, False)
        orbits = _orbits(s.fq, lit, bases, element_order(s.fq, lit, 100))
        assert orbits.ret.all()
        walks = orbits.walks
        for i, j in itertools.combinations_with_replacement(range(len(walks)), 2):
            sp = PartialSpread(np.concatenate([walks[i]] + ([walks[j]] if j > i else [])), s.fq)
            try:
                sp.check_pairwise()
            except NotAPartialSpread:
                raised += 1
                assert not verify_partition(sp, s.isotropic_points(), s.fq)["ok"]
    assert raised


def test_cyclic_orbits_walk_each_orbit_once_with_orbit_walks_images(monkeypatch):
    # every base of the literal rung: the return time and images that the
    # per-base reference walk gives, for orbits that close within the
    # steps and ones that do not, with chunks from one image up; a closed
    # orbit is one walk for all its members
    from orthosig import fields
    from orthosig.lscore import ts_subspace_transporters

    for kind, fam, m in [("minus", "O-", 2), ("plus", "O+", 3), ("odd", "Oodd", 2)]:
        s = build_space(kind, fq_context(3, 1), m)
        lit, _ = standard_generators(descriptor(fam, 3, n=s.n), s)
        bases, _ = ts_subspace_transporters(s, False)
        for steps in (3, 12):
            want = [_reference_orbit(s.fq, lit, W, steps) for W in bases]
            ret = [len(o) if len(o) <= steps else 0 for o in want]
            closed = {frozenset(o.tobytes() for o in w) for w, t in zip(want, ret) if t}
            for chunk in (1, 7, 4096):
                monkeypatch.setattr(fields, "CHUNK", chunk)
                orbits = cyclic_orbits(s.fq, powers(s.fq, lit, steps + 1)[1:], bases)
                assert orbits.ret.tolist() == ret
                for i, (w, t) in enumerate(zip(want, ret)):
                    assert [R.tobytes() for R in orbits.walk(i, t or steps)] == [o.tobytes() for o in w[:steps]]
                assert len(orbits.walks) == len(closed) + ret.count(0)


@pytest.mark.parametrize("kind,p,e,m,r", [("minus", 3, 1, 2, 1), ("plus", 3, 1, 2, 2),
                                          ("minus", 3, 2, 2, 1)])
def test_schreier_transversal_keeps_bfs_order(kind, p, e, m, r):
    # the batched BFS inserts nodes and transporters exactly as the
    # one-generator-at-a-time BFS does
    from orthosig.forms import o_generators

    s = build_space(kind, fq_context(p, e), m)
    gens = o_generators(s)
    mats = [Mat(s.fq, a) for a in gens]
    W0 = subspace(s.fq, [s.e_vec(i) for i in range(r)])
    want = {W0.tobytes(): Mat(s.fq, s.fq.identity(s.n))}
    frontier = [W0]
    while frontier:
        new = []
        for node in frontier:
            for g in mats:
                img = act_subspace(s.fq, g.a, node)
                if img.tobytes() not in want:
                    want[img.tobytes()] = g * want[node.tobytes()]
                    new.append(img)
        frontier = new
    bases, moves = schreier_transversal(s.fq, W0, gens, len(want))
    assert bases.shape == (len(want), r, s.n) and moves.shape == (len(want), s.n, s.n)
    assert [B.tobytes() for B in bases] == list(want)
    assert [M.tobytes() for M in moves] == [g.key for g in want.values()]


def test_schreier_transversal_raises_beyond_the_cap(monkeypatch):
    from orthosig import spreads
    from orthosig.forms import o_generators

    s = build_space("minus", fq_context(3, 1), 2)  # 10 singular points
    w0 = enumerate_isotropic_points(s)[0]
    monkeypatch.setattr(spreads, "_TRANSVERSAL_CAP", 10)
    bases, moves = schreier_transversal(s.fq, w0[None, :], o_generators(s), 10)
    assert len(bases) == len(moves) == 10
    monkeypatch.setattr(spreads, "_TRANSVERSAL_CAP", 9)
    with pytest.raises(RuntimeError, match="^transversal exceeded cap$"):
        schreier_transversal(s.fq, w0[None, :], o_generators(s), 10)


def _unbounded_transversal(fq, start, gens):
    # the walk without a size: every node is expanded with every generator
    want = {start.tobytes(): Mat(fq, fq.identity(gens.shape[-1]))}
    queue = [start]
    for node in queue:
        for g, img in zip(gens, act_rref(fq, gens, node)[0]):
            if img.tobytes() not in want:
                want[img.tobytes()] = Mat(fq, g) * want[node.tobytes()]
                queue.append(img)
    return want


@pytest.mark.parametrize("det1", [False, True])
@pytest.mark.parametrize("kind,q,m", [("minus", 3, 2), ("minus", 5, 2), ("minus", 9, 2),
                                      ("plus", 3, 2), ("plus", 5, 2), ("plus", 9, 2),
                                      ("odd", 3, 1), ("odd", 5, 1), ("odd", 9, 1), ("odd", 3, 2)])
def test_schreier_transversal_stops_at_the_closed_form_size(kind, q, m, det1):
    # the orbits of the maximal totally singular subspaces and of the
    # singular points have their closed-form sizes, and the walk bounded
    # by that size returns the unbounded walk's keys, order and transporters
    from orthosig.forms import o_generators, so_generators
    from orthosig.lscore import ts_subspace_transporters
    from orthosig.fields import split_prime_power
    from orthosig.matgroups import isotropic_point_count, maximal_ts_count

    s = build_space(kind, fq_context(*split_prime_power(q)), m)
    gens = so_generators(s) if det1 else o_generators(s)
    r = s.witt_index
    ts_size = maximal_ts_count(kind, q, r) // (2 if det1 and kind == "plus" else 1)
    W0 = subspace(s.fq, [s.e_vec(i) for i in range(r)])
    for start, size in [(W0, ts_size),
                        (s.isotropic_points()[0][None, :], isotropic_point_count(kind, q, m))]:
        want = _unbounded_transversal(s.fq, start, gens)
        assert len(want) == size
        bases, moves = schreier_transversal(s.fq, start, gens, size)
        assert [B.tobytes() for B in bases] == list(want)
        assert [M.tobytes() for M in moves] == [g.key for g in want.values()]
        with pytest.raises(RuntimeError, match=f"^orbit has {size} members, expected {size + 1}$"):
            schreier_transversal(s.fq, start, gens, size + 1)
    bases, moves = ts_subspace_transporters(s, det1)
    want = _unbounded_transversal(s.fq, W0, gens)
    assert [B.tobytes() for B in bases] == list(want)
    assert [M.tobytes() for M in moves] == [g.key for g in want.values()]


def test_a_cached_spread_plan_is_frozen(capsys):
    # spread_construction hands every caller the one plan of the space: a
    # note appended to it once reached the stdout of the next spread-check
    # in the same process
    from dataclasses import FrozenInstanceError

    from orthosig.cli import main
    from orthosig.lscore import space_for, spread_construction

    argv = ["spread-check", "--kind", "minus", "--q", "3", "--m", "2"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    plan = spread_construction(space_for(descriptor("O-", 3, m=2)), "O-")
    with pytest.raises(AttributeError):
        plan.notes.append("edited")
    with pytest.raises(FrozenInstanceError):
        plan.notes += ("edited",)
    with pytest.raises(TypeError):
        plan.partition["ok"] = False
    # the twisted layers of O-4(3): the literal generator and a transporter
    for X in (plan.W0, plan.members.members, *(layer[1] for layer in plan.layers)):
        with pytest.raises(ValueError, match="read-only"):
            X[(0,) * X.ndim] = 2
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def _pairwise_reference(fq, members):
    # the one-pair-at-a-time check: (message, witness) of the first
    # intersecting pair in row-major order, or None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            A, B = members[i], members[j]
            if fq.rank(np.concatenate([A, B])) != len(A) + len(B):
                return f"members {i} and {j} intersect nontrivially", (i, j)
    return None


@settings(max_examples=80)
@given(st.sampled_from([(3, 1), (5, 1), (3, 2)]), st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=7), st.sampled_from([1, 2, 5, 4096]), st.data())
def test_hypothesis_stacked_check_pairwise_matches_the_pair_loop(pe, n, count, chunk, data):
    from orthosig import fields

    # one dimension r per spread; drawn rows of lower rank are dropped
    fq = fq_context(*pe)
    entries = st.integers(min_value=0, max_value=fq.q - 1)
    r = data.draw(st.integers(min_value=1, max_value=min(3, n)))
    members = {}
    for _ in range(count):
        S = subspace(fq, np.array(data.draw(st.lists(entries, min_size=r * n, max_size=r * n)),
                                  dtype=np.int16).reshape(r, n))
        if len(S) == r:
            members.setdefault(S.tobytes(), S)
    members = np.array(list(members.values()), dtype=np.int16).reshape(-1, r, n)
    want = _pairwise_reference(fq, members)
    old, fields.CHUNK = fields.CHUNK, chunk
    try:
        PartialSpread(members, fq).check_pairwise()
        got = None
    except NotAPartialSpread as exc:
        got = str(exc), exc.witness
    finally:
        fields.CHUNK = old
    assert got == want


@settings(max_examples=80)
@given(st.sampled_from([(3, 1), (5, 1), (3, 2)]), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4), st.data())
def test_hypothesis_rref_stack_matches_rref_with_dependent_rows(pe, r, n, k, data):
    # q = 3, 5, 9; some columns are zero, so pivots move right, and some
    # rows are combinations of the other rows, so a stack mixes full and
    # deficient row ranks and a dependent row can sit above the pivot rows;
    # the reference is the row-by-row loop of leibniz.rref_by_rows
    fq = fq_context(*pe)
    entries = st.integers(min_value=0, max_value=fq.q - 1)
    A = np.array(data.draw(st.lists(entries, min_size=k * r * n, max_size=k * r * n)),
                 dtype=np.int16).reshape(k, r, n)
    for i in range(k):
        A[i, :, data.draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0
        for j in range(r):
            if data.draw(st.booleans()):
                row = np.zeros(n, dtype=np.int16)
                for t in set(range(r)) - {j}:
                    row = fq.v_add(row, fq.v_scale(data.draw(entries), A[i, t]))
                A[i, j] = row
    R, rank, d = fq.rref(A)
    assert R.dtype == np.int16 and R.shape == A.shape
    for i in range(k):
        R1, piv = rref_by_rows(fq, A[i])
        assert np.array_equal(R[i], R1)
        assert rank[i] == len(piv)
        R0, rank0, _ = fq.rref(A[i])  # one matrix, as the stack
        assert np.array_equal(R0, R1) and rank0 == len(piv)
        if r == n:
            assert d[i] == det_by_permutations(fq, A[i])
        elif rank[i] < r:
            assert d[i] == 0
