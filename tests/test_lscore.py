import itertools
import math
import random
from functools import reduce
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, strategies as st

from headblocks import head_blocks, stage_spread
from orthosig.fields import FrozenInstanceError, fq_context, lookup, replace, row_index
from orthosig.forms import build_space, enumerate_isometry_group, isometry_inverse
from orthosig.lscore import (
    InjectivityFail,
    LogSignature,
    LsError,
    UnsupportedFamily,
    canonical_lift,
    canonical_ls,
    cyclic_set_mls,
    min_length_bound,
    parabolic_ls,
    ProductTables,
    project_ls,
    space_for,
    spread_construction,
    verify_ls,
)
from orthosig.matgroups import (
    Mat,
    descriptor,
    group_order,
    singer_generator,
)
from orthosig.spreads import CyclicOrbits, NotAPartialSpread, PartialSpread, act_rref


def test_min_length_bound():
    assert min_length_bound(1) == 0
    assert min_length_bound(8) == 6
    assert min_length_bound(1440) == 21
    assert min_length_bound(48) == 11
    assert min_length_bound(1152) == 20


# ---------------------------------------------------------------- cyclic sets


def _cyclic_model(s):
    """Integer model of a cyclic group element of order >= s."""
    fq = fq_context(3, 1)
    k = singer_generator(2, fq)  # order 8
    return k


def test_cyclic_set_mls_trivial():
    fq = fq_context(3, 1)
    ls = cyclic_set_mls(fq, fq.identity(2), 1)
    assert ls.blocks == () and ls.claimed_order == 1 and ls.length == 0


def test_cyclic_set_mls_6():
    fq = fq_context(5, 1)
    x = singer_generator(1, fq)  # order 4... need order >= 6, use 2x2 singer
    x = Mat(fq, singer_generator(2, fq))  # order 24
    ls = cyclic_set_mls(fq, x.a, 6)
    assert sorted(len(b) for b in ls.blocks) == [2, 3]
    assert ls.length == 5
    # exhaustive uniqueness
    seen = set()
    for iv in itertools.product(*[range(len(b)) for b in ls.blocks]):
        g = None
        for b, i in zip(ls.blocks, iv):
            g = b[i] if g is None else g * b[i]
        seen.add(g.key)
    assert len(seen) == 6
    assert {x.pow(i).key for i in range(6)} == seen


def test_cyclic_set_mls_4_index_sums():
    fq = fq_context(3, 1)
    x = singer_generator(2, fq)  # order 8
    ls = cyclic_set_mls(fq, x, 4)
    assert [len(b) for b in ls.blocks] == [2, 2]
    assert ls.length == 4
    # the exponent sums stay below s = 4 for every block choice
    radices = ls.meta["radices"]
    Ms = [1, radices[0]]
    max_sum = sum((r - 1) * M for r, M in zip(radices, Ms))
    assert max_sum == 3 < 4


def test_cyclic_set_index_sum_property_bulk():
    # sum over blocks of (r_t - 1) M_t = s - 1 < s for every s
    from orthosig.lscore import _mixed_radices

    for s in range(2, 2001):
        radices = _mixed_radices(s)
        M = 1
        total = 0
        for r in radices:
            total += (r - 1) * M
            M *= r
        assert total == s - 1


def test_cyclic_set_uniqueness_small_exhaustive():
    # integer model: digits map bijectively onto {0..s-1}
    from orthosig.lscore import _mixed_radices

    for s in range(1, 65):
        radices = _mixed_radices(s) if s > 1 else []
        seen = set()
        for iv in itertools.product(*[range(r) for r in radices]):
            val = sum(d * math.prod(radices[:i]) for i, d in enumerate(iv))
            digits, j = [], val
            for r in radices:
                j, d = divmod(j, r)
                digits.append(d)
            assert val not in seen and digits == list(iv)
            seen.add(val)
        assert len(seen) == (s if s > 1 else 1)


def _power_cases():
    # the einsum path (q = 3, 5) and the table path (q = 9)
    return [Mat(fq, singer_generator(k, fq))
            for k, fq in [(2, fq_context(3, 1)), (3, fq_context(5, 1)), (2, fq_context(3, 2))]]


def test_running_powers_and_cyclic_blocks_match_pow():
    from orthosig.lscore import cyclic_blocks
    from orthosig.matgroups import powers

    for x in _power_cases():
        for s in [1, 2, 3, 4, 5, 7, 8, 12, 13, 30, 64]:
            assert [a.tobytes() for a in powers(x.fq, x.a, s)] == [x.pow(j).key for j in range(s)]
            blocks, radices = cyclic_blocks(x.fq, x.a, s)
            want, M = [], 1
            for r in radices:
                step = x.pow(M)
                want.append([step.pow(j).key for j in range(r)])
                M *= r
            assert [[a.tobytes() for a in blk] for blk in blocks] == want


@pytest.mark.parametrize("fam,q,n", [("O-", 5, 4), ("O+", 3, 4), ("O-", 9, 4), ("Oodd", 3, 5),
                                     ("SO+", 3, 6)])
def test_stage_inverse_power_tables_match_pow(fam, q, n):
    # the strips of every stage are its inverse powers T^-1 b^-j a^-i: for
    # the head row of each singular point p, the product h of the A and B
    # blocks it names carries the base point to p, and the strip is
    # (h T)^-1 byte for byte, T the working frame (enter, at the top stage)
    from orthosig.lscore import space_for

    desc = descriptor(fam, q, n=n)
    while desc.n >= 3:
        ls = canonical_ls(desc)
        space, plan = space_for(desc), ls.plan
        A, B = head_blocks(ls)
        w = stage_spread(ls).W0[0]
        T = Mat(space.fq, plan.enter)
        for pt, row in enumerate(plan.head.tolist()):
            h = reduce(lambda x, y: x * y, [blk[i] for blk, i in zip(A + B, row)])
            assert plan.strips[pt].tobytes() == (h * T).pow(-1).key
            v = plan.vectors[np.flatnonzero(plan.point == pt)[0]]
            assert space.canon(space.fq.mat_vec(h.a, w)).tobytes() == space.canon(v).tobytes()
        desc = replace(desc, n=desc.n - 2)


@pytest.mark.parametrize("fam,q,n", [("O+", 3, 6), ("SO+", 3, 6), ("Oodd", 3, 5), ("SOodd", 3, 5)])
def test_transversal_inverses_are_isometry_inverses(fam, q, n):
    from orthosig.forms import GeometryError, isometry_inverse, preserves_form
    from orthosig.lscore import space_for

    desc = descriptor(fam, q, n=n)
    ls = canonical_ls(desc)
    (layer,) = ls.meta["a_layers"]
    assert layer["type"] == "transversal"
    elems = ls.blocks[0]
    want = np.stack([g.inv().a for g in elems])
    space = space_for(desc)
    A = np.stack([g.a for g in elems])
    assert np.array_equal(isometry_inverse(space, A), want)
    # a shear of one Witt vector is invertible but moves the form
    shear = space.fq.identity(n)
    shear[0, 1] = 1
    assert not preserves_form(space.fq, space.gram, shear)
    A[len(A) // 2] = shear
    with pytest.raises(GeometryError, match="not an isometry"):
        isometry_inverse(space, A)


def test_stage_assembly_inverts_once_per_cyclic_generator(monkeypatch):
    # built cold, a stage inverts no generator and takes no powers one at a
    # time: the strips come from one stacked isometry inverse of the head
    # products, and the cyclic blocks from running powers
    from orthosig.lscore import _spread_construction

    calls = {"inv": 0, "pow": 0}

    def counted(name, f):
        def wrapper(self, *args):
            calls[name] += 1
            return f(self, *args)
        return wrapper

    monkeypatch.setattr(Mat, "inv", counted("inv", Mat.inv))
    monkeypatch.setattr(Mat, "pow", counted("pow", Mat.pow))
    for fam, q, n in [("O+", 3, 6), ("Oodd", 3, 5), ("O+", 5, 4), ("O-", 9, 4)]:
        for cached in (canonical_ls, _spread_construction):
            cached.cache_clear()
        calls.update(inv=0, pow=0)
        canonical_ls(descriptor(fam, q, n=n))
        assert calls == {"inv": 0, "pow": 0}, (fam, q, n)


def test_cyclic_set_rejects_oversize():
    fq = fq_context(3, 1)
    x = singer_generator(2, fq)  # order 8
    with pytest.raises(LsError):
        cyclic_set_mls(fq, x, 9)


def test_cyclic_set_of_an_element_of_large_order():
    # x of order 124 spans a set of 6; only x^1 .. x^5 need to differ from I,
    # so no order is searched for
    fq = fq_context(5, 1)
    ls = cyclic_set_mls(fq, singer_generator(3, fq), 6)
    assert [len(b) for b in ls.blocks] == [2, 3]
    rep = verify_ls(ls, "exhaustive")
    assert rep.valid and rep.products_checked == 6
    # the first power that is I names the order
    minus = fq.v_neg(fq.identity(3))
    with pytest.raises(LsError, match="^cyclic set size 3 exceeds element order 2$"):
        cyclic_set_mls(fq, minus, 3)
    assert cyclic_set_mls(fq, minus, 2).claimed_order == 2


def test_cyclic_set_refuses_a_singular_element():
    from orthosig.fields import FieldError

    fq = fq_context(5, 1)
    x = np.diag([0, 1, 2]).astype(np.int16)  # distinct powers, but no group element
    for s in (1, 3):
        with pytest.raises(FieldError, match="singular"):
            cyclic_set_mls(fq, x, s)


# ---------------------------------------------------------------- semidirect


def test_semidirect_parabolic_o4minus():
    space = build_space("minus", fq_context(3, 1), 2)
    ls = parabolic_ls(space, 1)
    R, Q = ls.blocks
    assert len(R) * len(Q) == ls.claimed_order == 144
    rep = verify_ls(ls, "exhaustive")
    assert rep.valid


# ---------------------------------------------------------------- parabolic


def test_parabolic_sizes():
    s4 = build_space("minus", fq_context(3, 1), 2)
    ls = parabolic_ls(s4, 1)
    assert ls.meta["R_size"] == 9 and ls.meta["Q_size"] == 16 and ls.claimed_order == 144
    assert ls.claimed_order == group_order(descriptor("O-", 3, n=4)) // 10
    s3 = build_space("odd", fq_context(3, 1), 1)
    ls3 = parabolic_ls(s3, 1)
    assert ls3.meta["R_size"] == 3 and ls3.meta["Q_size"] == 4 and ls3.claimed_order == 12


def test_parabolic_k2_shape():
    s6 = build_space("minus", fq_context(3, 1), 3)
    ls = parabolic_ls(s6, 2)
    # q^{k(k-1)/2 + k(2m-2k)} = 3^{1+4}
    assert ls.meta["R_size"] == 243
    assert ls.meta["Q_size"] == 48 * 8  # GL_2(3) x O_2^-(3)


def test_parabolic_k_bounds():
    s4 = build_space("minus", fq_context(3, 1), 2)
    with pytest.raises(LsError):
        parabolic_ls(s4, 2)  # witt index is 1


# ---------------------------------------------------------------- canonical


CANONICAL_CASES = [
    ("O-", 3, 2, 8, 6),
    ("O+", 3, 2, 4, 4),
    ("SO-", 3, 2, 4, 4),
    ("SO+", 3, 2, 2, 2),
    ("Oodd", 3, 1, 2, 2),
    ("Oodd", 3, 3, 48, 11),
    ("O-", 3, 4, 1440, 21),
    ("O+", 3, 4, 1152, 20),
    ("SO-", 3, 4, 720, 19),
    ("SO+", 3, 4, 576, 18),
]


@pytest.mark.parametrize("fam,q,n,order,length", CANONICAL_CASES)
def test_canonical_orders_and_lengths(fam, q, n, order, length):
    ls = canonical_ls(descriptor(fam, q, n=n))
    assert ls.claimed_order == order
    assert ls.length == length
    assert length == min_length_bound(order)


def test_canonical_exhaustive_o2minus():
    ls = canonical_ls(descriptor("O-", 3, n=2))
    rep = verify_ls(ls, "exhaustive")
    assert rep.valid and rep.mls


def test_canonical_exhaustive_o4minus():
    ls = canonical_ls(descriptor("O-", 3, n=4))
    rep = verify_ls(ls, "exhaustive")
    assert rep.valid and rep.mls and rep.products_checked == 1440


def test_canonical_unsupported_family():
    with pytest.raises(UnsupportedFamily):
        canonical_ls(descriptor("Omega-", 3, n=4))


def test_verify_detects_repeated_element():
    ls = canonical_ls(descriptor("O-", 3, n=2))
    blocks = [list(b) for b in ls.blocks]
    blocks[0][1] = blocks[0][0]  # repeat an element
    broken = LogSignature(ls.group, blocks, ls.claimed_order)
    rep = verify_ls(broken, "exhaustive")
    assert not rep.valid
    assert rep.collisions


def test_verify_sampled_roundtrip():
    ls = canonical_ls(descriptor("O-", 3, n=4))
    rep = verify_ls(ls, "sampled", samples=300, seed=42)
    assert rep.valid and rep.seed == 42


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_verify_needs_at_least_one_sample(samples):
    # no samples check nothing, so they cannot make a valid report
    ls = canonical_ls(descriptor("O-", 3, n=4))
    with pytest.raises(LsError, match="sampled verification needs samples >= 1"):
        verify_ls(ls, "sampled", samples=samples)


@pytest.mark.parametrize("fam,q,n", [("O+", 3, 6), ("O-", 3, 6), ("Oodd", 3, 5), ("Oodd", 3, 7),
                                     ("O-", 5, 4), ("O-", 9, 4)])
def test_every_stage_base_point_is_fixed_by_every_later_block(fam, q, n):
    # down the sub chain of stage records, every block of a stage past its
    # head maps the stage's base point to a multiple of itself, in the
    # stage's own frame: the premise of a stabilizer chain
    from orthosig.lscore import _StagePlan

    rec, stages = canonical_ls(descriptor(fam, q, n=n)).plan, 0
    while isinstance(rec, _StagePlan):
        fq, point = rec.fq, rec.space.canon(rec.w)
        later = np.concatenate(rec.blocks[rec.bounds[0]:])
        assert (rec.space.canon(fq.mat_vec(later, rec.w)) == point).all()
        rec, stages = rec.sub, stages + 1
    assert stages == (n - 1) // 2


def test_only_the_program_finishes_a_signature():
    # the constructor takes what a file holds; plan and tables come from
    # the finishers, and the tables of every finished signature are the
    # tables of its blocks, byte for byte
    from orthosig import pgm

    fq = fq_context(3, 1)
    for field in ("plan", "tables"):
        with pytest.raises(TypeError):
            LogSignature(None, [[Mat(fq, fq.identity(2))]], 1, {}, **{field: None})
    finished = [canonical_ls(descriptor("O-", 3, n=4)), canonical_ls(descriptor("O+", 3, n=6)),
                canonical_ls(descriptor("PSO+", 3, n=4)), canonical_ls(descriptor("PSOodd", 3, n=5)),
                pgm.keygen(descriptor("O+", 5, n=4), seed=3).beta_ls,
                cyclic_set_mls(fq, singer_generator(2, fq), 6), parabolic_ls(build_space("plus", fq, 2), 1)]
    for ls in finished:
        assert ls.tables is not None
        g = ls.blocks[0][0]
        built = ProductTables.build(g.fq, g.n, ls.blocks).tables
        assert len(ls.tables.tables) == len(built)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ls.tables.tables, built))


# ---------------------------------------------------------------- spread plans


def test_spread_construction_shapes():
    s = build_space("minus", fq_context(3, 1), 2)
    plan = spread_construction(s, "O-")
    assert plan.shape == "twisted"
    assert plan.literal_ok is False
    assert plan.partition["ok"]
    assert len(plan.members) == 10
    sp = build_space("plus", fq_context(3, 1), 2)
    plan2 = spread_construction(sp, "O+")
    assert plan2.shape == "literal" and plan2.literal_ok
    assert plan2.partition["points_per_member"] == 4


def test_spread_construction_a_block_bijects():
    s = build_space("plus", fq_context(3, 1), 2)
    plan = spread_construction(s, "O+")
    (kind, gen, size), = plan.layers
    from orthosig.spreads import act_subspace

    images = set()
    cur = plan.W0
    for j in range(size):
        images.add(cur.tobytes())
        cur = act_subspace(s.fq, gen, cur)
    assert images == {m.tobytes() for m in plan.members.members}


def test_spread_construction_odd_m2_degrades():
    s = build_space("odd", fq_context(3, 1), 2)
    plan = spread_construction(s, "Oodd")
    assert plan.shape == "transversal"
    assert plan.partition["ok"]
    assert any("trivial point spread" in note for note in plan.notes)


def test_spread_empty_for_anisotropic():
    s = build_space("minus", fq_context(3, 1), 1)
    plan = spread_construction(s, "O-")
    assert plan.shape == "empty"


def test_plus_type_of_odd_witt_index_walks_no_orbit():
    # every two generators of one family of Q+(5, 3) share a point, so no
    # spread of q^2 + 1 = 10 of them exists, and no orbit of them would
    # give a layered block even if the rungs ran at n = 6
    from orthosig import lscore
    from orthosig.spreads import point_positions

    space = build_space("plus", fq_context(3, 1), 3)
    bases, _ = lscore.ts_subspace_transporters(space, True)  # one family
    at = point_positions(space.fq, bases, space.isotropic_points())
    assert all(set(at[i]) & set(at[j]) for i, j in itertools.combinations(range(len(bases)), 2))


def test_the_layered_rungs_run_only_up_to_n_4(monkeypatch):
    # from n = 5 the ladder builds no literal generator, walks no totally
    # singular subspace and steps no torus orbit: it takes the point
    # transversal at once, with one note; at n = 4 the rungs still run, and
    # still give the twisted O-4(3) and the literal O+4(3)
    from orthosig import lscore, spreads

    def refuse(*args, **kwargs):
        raise AssertionError("a layered rung ran")

    four = {fam: space_for(descriptor(fam, 3, n=4)) for fam in ("O-", "O+")}
    assert lscore._spread_construction.__wrapped__(four["O-"], False).shape == "twisted"
    assert lscore._spread_construction.__wrapped__(four["O+"], False).shape == "literal"
    for name in ("ts_subspace_transporters", "standard_generators"):
        monkeypatch.setattr(lscore, name, refuse)
    monkeypatch.setattr(spreads, "cyclic_orbits", refuse)
    for fam, n, det1 in [("Oodd", 5, False), ("Oodd", 5, True), ("O-", 6, False), ("O-", 6, True),
                         ("O+", 6, False)]:
        space = space_for(descriptor(fam, 3, n=n))
        plan = lscore._spread_construction.__wrapped__(space, det1)
        assert plan.shape == "transversal" and plan.partition["ok"]
        assert len(plan.members) == len(space.isotropic_points())
        assert plan.notes == ("the layered rungs are tried only up to n = 4; degrading to the trivial point "
                              "spread with a transversal block",)
    for space in four.values():
        with pytest.raises(AssertionError, match="a layered rung ran"):
            lscore._spread_construction.__wrapped__(space, False)


def test_a_walk_is_checked_on_the_count_of_its_reflections_before_any_is_built(monkeypatch):
    # both walks count the reflections, one per non-singular point, and
    # refuse a walk past spreads._WALK_CAP without building them: a space
    # with the point counts of Oodd5(37) raises before `reflections` runs;
    # under the cap the generators are the ones the walk has always taken
    from orthosig import forms, lscore, spreads

    class Counts:
        def __init__(self, points, singular):
            self.n_points, self.n_singular = points, singular

        def points(self):
            return range(self.n_points)

        def isotropic_points(self):
            return range(self.n_singular)

    monkeypatch.setattr(forms, "reflections", None)
    for det1 in (False, True):
        with pytest.raises(RuntimeError, match=r"past its limit of 1,000,000,000 images: 52,060 subspaces under "
                                               rf"{1874161 - det1:,} generators"):
            lscore._walk_generators(Counts(1926221, 52060), det1, 52060)
        # the cap on the orbit comes first, with its own message
        with pytest.raises(RuntimeError, match="^transversal exceeded cap$"):
            lscore._walk_generators(Counts(1926221, 52060), det1, spreads._TRANSVERSAL_CAP + 1)
    monkeypatch.undo()
    space = build_space("minus", fq_context(3, 1), 2)
    assert lscore._walk_generators(space, False, 10) is forms.o_generators(space)
    assert np.array_equal(lscore._walk_generators(space, True, 10), forms.so_generators(space))
    # the largest walk built, O+6(9), sits under the cap: 7,462 points
    # under 58,968 reflections
    spreads.check_walk(7462, 58968)
    with pytest.raises(RuntimeError):
        spreads.check_walk(12720, 279841)  # Oodd5(23)


def _per_base_orbits(fq, pows, bases):
    """Reference for `spreads.cyclic_orbits`: every base stepped on its own
    walk with `act_rref`, one power of the generator at a time."""
    steps, a = len(pows), np.broadcast_to(pows[0], (len(bases),) + pows[0].shape)
    imgs = [bases]
    for _ in range(steps):
        imgs.append(act_rref(fq, a, imgs[-1])[0])
    imgs = np.stack(imgs, axis=1)
    home = (imgs[:, 1:] == bases[:, None]).all(axis=(2, 3))
    ret = np.where(home.any(axis=1), home.argmax(axis=1) + 1, 0)
    walks = [imgs[i, :t or steps] for i, t in enumerate(ret)]
    index = row_index(bases)
    return CyclicOrbits(ret, np.arange(len(bases)), np.zeros(len(bases), dtype=np.intp), walks,
                        [lookup(index, W) for W in walks])


def _every_orbit_tested(fq, orbits, size):
    """Reference for `lscore._spread_orbits`: the full pairwise check of the
    orbit of every base of that size."""
    out = []
    for i in np.flatnonzero(orbits.ret == size):
        try:
            PartialSpread(orbits.walk(i, size), fq).check_pairwise()
        except NotAPartialSpread:
            continue
        out.append(i)
    return np.array(out, dtype=np.intp)


def _layer_keys(layers):
    return [(kind, *[x.tobytes() if isinstance(x, np.ndarray) else x for x in rest]) for kind, *rest in layers]


@pytest.mark.parametrize("fam,q,n", [("O-", 3, 4), ("O-", 5, 4), ("O-", 9, 4), ("O+", 5, 4)])
def test_ladder_walks_each_orbit_once_to_the_plan_a_per_base_walk_gives(fam, q, n, monkeypatch):
    # the literal, twisted and transversal rungs: the same plan, notes and
    # member order as when every base walks its own orbit and every orbit
    # is checked pair by pair
    from orthosig import lscore, spreads

    space = space_for(descriptor(fam, q, n=n))
    got = spread_construction(space, fam)
    monkeypatch.setattr(spreads, "cyclic_orbits", _per_base_orbits)
    monkeypatch.setattr(lscore, "_spread_orbits", lambda orbits, at, size: _every_orbit_tested(space.fq, orbits, size))
    want = lscore._spread_construction.__wrapped__(space, False)
    assert got.shape == want.shape
    assert got.notes == want.notes
    assert got.W0.tobytes() == want.W0.tobytes()
    assert [m.tobytes() for m in got.members.members] == [m.tobytes() for m in want.members.members]
    assert _layer_keys(got.layers) == _layer_keys(want.layers)


# ---------------------------------------------------------------- projection


def test_project_so4minus():
    ls = canonical_ls(descriptor("SO-", 3, n=4))
    pls = project_ls(ls)
    assert pls.claimed_order == 360
    assert pls.group.family == "PSO-"
    rep = verify_ls(pls, "exhaustive")
    assert rep.valid and rep.mls


def test_project_aliased_block_is_absorbed():
    # a fully aliased cyclic block is halved by keeping one lift per pair
    fq = fq_context(3, 1)
    space = build_space("minus", fq_context(3, 1), 1)
    G = [Mat(fq, g) for g in enumerate_isometry_group(space, "O")]
    one, minus = Mat(fq, fq.identity(2)), Mat(fq, fq.v_neg(fq.identity(2)))
    so = [g for g in G if fq.det(g.a) == 1]  # cyclic of order 4 containing -I
    gen = next(g for g in so if g != one and g * g != one)
    aliased = [one, gen, minus, gen * minus]
    refl = next(g for g in G if fq.det(g.a) != 1)
    ls = LogSignature(None, [aliased, [one, refl]], 8)
    pls = project_ls(ls)
    assert pls.claimed_order == 4


def test_project_doubly_aliased_fails():
    # aliasing spread over two blocks cannot be absorbed by halving one
    fq = fq_context(3, 1)
    I, mI = Mat(fq, fq.identity(2)), Mat(fq, fq.v_neg(fq.identity(2)))
    ls = LogSignature(None, [[I, mI], [I, mI]], 4)
    with pytest.raises(InjectivityFail, match="multiple blocks identify elements") as exc:
        project_ls(ls)
    assert exc.value.witnesses == [(0, [I.to_json()]), (1, [I.to_json()])]


@pytest.mark.parametrize("q,order,last", [(3, 360, True), (5, 7800, False)])
def test_project_folds_a_nonidentity_singleton_into_its_neighbour(q, order, last):
    # the halved block, left-translated by h and its left neighbour
    # right-translated by h^-1 (as `pgm.keygen` translates), halves to the
    # singleton of h g != +-I: SO-4(3) halves its last block, so it folds
    # into the block before; SO-4(5) folds it into the next block
    desc = descriptor("SO-", q, m=2)
    ls = canonical_ls(desc)
    t = canonical_ls(desc.with_base("PSO")).meta["halved_block"]
    fq = fq_context(q, 1)
    stacks = [np.asarray(b, dtype=np.int16) for b in ls.blocks]
    h = stacks[0][1]
    stacks[t] = fq.mat_mul(h, stacks[t])
    stacks[t - 1] = fq.mat_mul(stacks[t - 1], isometry_inverse(space_for(desc), h[None])[0])
    pls = project_ls(LogSignature.from_stacks(desc, fq, 4, stacks, ls.claimed_order, {}))
    g = stacks[t][0]
    assert (t == len(stacks) - 1) == last
    if last:
        where, folded = t - 1, fq.mat_mul(stacks[t - 1], g)
    else:
        where, folded = t, fq.mat_mul(g, stacks[t + 1])
    assert pls.meta["halved_block"] == t and len(pls.blocks) == len(stacks) - 1
    assert np.array_equal(np.asarray(pls.blocks[where]), canonical_lift(fq, folded))
    rep = verify_ls(pls)
    assert pls.claimed_order == rep.products_checked == order and rep.valid


def test_project_refuses_a_projective_signature():
    # PSO is already the quotient: halving it again would be no signature of it
    with pytest.raises(UnsupportedFamily, match="not PSO-$"):
        project_ls(canonical_ls(descriptor("PSO-", 3, m=2)))


def test_project_refuses_a_signature_of_o():
    with pytest.raises(UnsupportedFamily, match="not O-$"):
        project_ls(canonical_ls(descriptor("O-", 3, n=4)))


def test_project_refuses_an_unlabelled_signature_with_no_blocks():
    # neither a group nor a block gives the dimension
    with pytest.raises(LsError, match="no blocks"):
        project_ls(LogSignature(None, [], 1))


def _hand_mats(fq, *rows):
    return [Mat(fq, np.array(a, dtype=np.int16)) for a in rows]


def test_project_refuses_an_aliased_block_it_cannot_halve_cleanly():
    # I and -I pair up in the block and the swap does not, so one lift per
    # pair keeps two of its three elements
    fq = fq_context(3, 1)
    I, mI, swap = _hand_mats(fq, [[1, 0], [0, 1]], [[2, 0], [0, 2]], [[0, 1], [1, 0]])
    with pytest.raises(InjectivityFail, match="cannot be halved cleanly") as exc:
        project_ls(LogSignature(None, [[I, mI, swap]], 3))
    assert exc.value.witnesses == [(0, [I.to_json()])]


def test_project_refuses_when_no_halving_is_a_transversal():
    # the one even block halves to [I, I], whose products repeat
    fq = fq_context(3, 1)
    I, swap, diag = _hand_mats(fq, [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 2]])
    with pytest.raises(InjectivityFail, match="no single-block halving"):
        project_ls(LogSignature(None, [[I, I, swap, diag]], 4))


def test_project_keeps_a_lone_nonidentity_singleton_as_a_block():
    # the block halves to the singleton [swap], with no block to fold into
    fq = fq_context(3, 1)
    swap, diag = _hand_mats(fq, [[0, 1], [1, 0]], [[1, 0], [0, 2]])
    pls = project_ls(LogSignature(None, [[swap, diag]], 2))
    assert pls.claimed_order == 1 and pls.group is None
    assert [[g.key for g in b] for b in pls.blocks] == [[swap.key]]


# ---------------------------------------------------------------- hypothesis


@given(st.integers(min_value=2, max_value=500))
def test_bound_additivity(s):
    # the bound is additive over factorizations: bound(a*b) = bound(a) + bound(b)
    a = s
    b = 2 * s + 1
    assert min_length_bound(a * b) == min_length_bound(a) + min_length_bound(b)


def test_parabolic_so_variant():
    space = build_space("minus", fq_context(3, 1), 2)
    ls = parabolic_ls(space, 1, "SO")
    # q^{2m-2} : (GL_1 x SO_2^-(3)) = 9 * 2 * 4
    assert ls.meta["R_size"] == 9 and ls.meta["Q_size"] == 8
    rep = verify_ls(ls, "exhaustive")
    assert rep.valid


def test_a_and_b_blocks_meet_only_in_identity():
    # the product set of the leading layers and the Singer coset block
    # share only the identity
    met = 0
    for fam, q, n in [("O+", 3, 4), ("O-", 3, 4), ("Oodd", 3, 3)]:
        ls = canonical_ls(descriptor(fam, q, n=n))
        one = Mat(ls.blocks[0][0].fq, ls.blocks[0][0].fq.identity(n))
        A, B = head_blocks(ls)
        akeys, bkeys = ({reduce(lambda x, y: x * y, g, one).key for g in itertools.product(*blocks)}
                        for blocks in (A, B))
        if B:
            assert akeys & bkeys == {one.key}
            met += 1
    assert met


def test_pso_odd_dimension_equals_so():
    # -I has determinant -1 in odd dimension, so the projective quotient
    # coincides with the special group
    ls = canonical_ls(descriptor("PSOodd", 3, n=3))
    assert ls.claimed_order == group_order(descriptor("SOodd", 3, n=3)) == 24
    rep = verify_ls(ls, "exhaustive")
    assert rep.valid and rep.mls


def test_so5_transversal_valid():
    ls = canonical_ls(descriptor("SOodd", 3, n=5))
    assert ls.claimed_order == 51840
    assert ls.meta["shape"] == "transversal"
    rep = verify_ls(ls, "sampled", samples=400, seed=3)
    assert rep.valid


# SHA-256 of json.dumps(canonical_ls(...).to_json(), sort_keys=True),
# recorded before the subspace-orbit work was batched (the first nine) and
# before the Eichler maps, Witt frames and block-product loops were merged
# (the next three), and before the literal b was dropped and the BFS loops
# became one closure (the last four: the SO notes of the dropped b, a
# signature without notes, and the element scan), and before the
# anisotropic match was stacked (O-4(7) and O-4(25), whose match scans run
# far past the others'), and before `project_ls` worked on block stacks
# (the last ten, PSO): every rung of the construction ladder must keep
# producing the same blocks, in the same order.  The n >= 5 hashes
# (Oodd5(3), SOodd5(3), O-6(3), O+6(3)) were recorded again when the
# layered rungs stopped above n = 4: their blocks and every other key kept
# their bytes, and meta.notes became the one note of the point transversal.
GOLDEN_SHA256 = {
    ("O-", 3, 4): "9746ebc30dd2c080e75d247b2b620904e5c3f02f2bbbe1ac070e10cfeb319f8b",
    ("O+", 3, 4): "b02c4e3eaf63cfa9898a88f00cf52a07fe4dae484776b452654fdd9df7797fe0",
    ("SO-", 3, 4): "08dad9affbcc5cfb55e4028cea4143ac7411d83d95188bbf01d80a579da23e28",
    ("O-", 5, 4): "39d8e6e148d6a689208bca5377c527d5e2e142167d866a82b5c476ec641f6b3f",
    ("O+", 5, 4): "70691c476877a7d0951e0718868053c1d037ea13cbf1ac47e9cbd422ee0fca49",
    ("O-", 9, 4): "72256145b42c38963c607b5175e59225f06905a7e1b9221832ce2f6bda6c3561",
    ("Oodd", 3, 5): "33e93893a9777c2d40aceca93627099dd9fb983173997ceba3febd734db68b34",
    ("O+", 3, 6): "d435ac0fabb33aa675b87c494701d662d9a28acf4a4e6ba8c96a079bf3cce634",
    ("PSO-", 3, 4): "d4f731d12d165b1a4e7db3c497045cbf0d5a66f67d075c4ca36a91c56bd4ef90",
    ("SO-", 5, 4): "3b31476699de4b35aeffb1239d69232eb04ed46ce32e0210af0e114d25f309ae",
    ("PSO+", 5, 4): "486476f4e0da7d9d0368f6c56cc7f5b6a0ec807966929818cd22489f8ba2ece7",
    ("Oodd", 5, 3): "452b1905ea1cfbc840e68e552758b245a1ecdeeb15d090dafaade80c3d209264",
    ("SO+", 3, 4): "e1e3b6c350bc710e112376fb3d4a2464c40e68cd8a84e77626482804eb011a7e",
    ("SOodd", 3, 5): "e1cdf2ee0b1cabe7ee50477234ec1ffa99e2970a5ce0a16aabca5079572f7ee6",
    ("SOodd", 3, 3): "33ec9f7f48ce7c32dbb5283867911ecefab57fb0273367fb5b84a47ded6beff3",
    ("O-", 3, 6): "03a4a98744d79a72963f6d789946e0844da6373c09327b52e06c2e9202818e45",
    ("O-", 7, 4): "1398ce6543be2faf02ea4d649cde8d2f2f2f36415ae5c73c91098491928ff3bd",
    ("O-", 25, 4): "ea07905be8ccc9241d6b17bcbc68831f1ef93c9ef8b0115b4f3099a21a58509f",
    ("PSO+", 3, 4): "2b90154d7fe74827b159d0d0310de675c38e4bbd01d5c54e823594d10cffb641",
    ("PSO-", 5, 4): "57c49b4122c5edcbdff162bf14508f73d77ce9f584070b0cd48e5dc4e0399df6",
    ("PSO-", 7, 4): "623a1a075cf92fa227c99d46df51598ddf42c2adc6f2465776088c770a12f1f8",
    ("PSO+", 7, 4): "64500a97b05c8c328323795cd6abfcc36705a94059accc5cc64a205f9d30561c",
    ("PSO-", 9, 4): "36cfed795e48f6b07c1e8ea93613601423246a55bebab5c304bed736be4c80d3",
    ("PSO-", 3, 2): "2d306682f54b8708a5369c963187ae71363b66cee3caf7f36805b5ec5ab89134",
    ("PSO+", 3, 2): "30b0dd967975cdc5461d19b865b3f4d0014735c30ecf487fd359c9c1c2a8b63d",
    ("PSO-", 5, 2): "2b51757ba595d895d9327ab75f380ce9a665c7092fe011092e9143c8c5f6fa91",
    ("PSO+", 5, 2): "5d54e9891b93aa7c14c2503da149490c26b3729637c219eee7135646a607f7f4",
    ("PSO-", 9, 2): "f6bf55f38f52aedf789aeb383ec833523b16d9fb3eacf06c8ac841f5135860c6",
}


@pytest.mark.parametrize("fam,q,n", sorted(GOLDEN_SHA256))
def test_canonical_signatures_match_golden_hashes(fam, q, n):
    import hashlib
    import json

    ls = canonical_ls(descriptor(fam, q, n=n))
    doc = json.dumps(ls.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == GOLDEN_SHA256[(fam, q, n)]


# SHA-256 of every array of the decode plan (`_plan_digest`, table rows in
# the order of their entry bytes), recorded when the Siegel table replaced
# the closed-form border: every other array hashes as it did while each
# table was still indexed twice, by entry bytes and by sorted base-q
# integer keys.  The strips, digits and tables a stage decodes through must
# stay the same to the byte.
PLAN_SHA256 = {
    ("O-", 3, 4): "3d4b2908f646e35b3d02451da860137d546499e5cf4a063b070b2c17c08a94a5",
    ("O+", 5, 4): "e3afe33bf0dbc299ee4f43ee5fbd01df49ae45515278fbeffa9f223a95fe17a1",
    ("O-", 9, 4): "ade416aa5cfdf11b0e1bd7359970859032b6c3ed08d4cf432170d4f43656727f",
    ("Oodd", 3, 5): "858ee27aa9c34068e6e19acfca882adce8dc7a45caffe4c15b7f34081bdeeed1",
    ("PSOodd", 3, 5): "b1c8f705ceea59a9e24554ec35e1d65da83844644c158f1bf29e0ff1b9acc5f9",
    ("O+", 3, 6): "ef042e8ddd888baf181463c4595529f57ae79845adb08146f2fcf2726001a3b0",
    ("SOodd", 17, 3): "caef332689cef5d3de0212690f82abb13ae06ec8f87a70deb61b2196d3884589",
    ("Oodd", 3, 7): "3cadbca2bf6d9c21c6afc89d0dadec857a99f9bb14d7345134e271a824e71f23",
    ("O-", 7, 4): "b19d7f255b26ef50a4b8f661bae1c456e261199902e422a132a6239766ec32fc",
    ("O-", 25, 4): "afae8f50ab8058c301d377c0bf84f37393dba1893401bdd51724bc78c39c0eff",
}


def _plan_digest(h, plan, path="plan"):
    """Feeds the name, dtype, shape and bytes of each array of the plan to
    the hash h, then those of its sub-plan, front and stabilizer table.  The
    rows of a table (`vectors` with `point`, `siegel` with `siegel_inv`,
    `mats` with `ivs`) go in the order of the entry bytes of its first
    array, so the digest pins what the table holds and not the order it is
    kept in."""
    from orthosig.lscore import _StagePlan

    stage = isinstance(plan, _StagePlan)
    tables, names = (((("vectors", "point"), ("siegel", "siegel_inv")),
                      ("strips", "head", "enter", "SP", "gl1_digits", "work_gram"))
                     if stage else ((("mats", "ivs"),), ()))
    arrays = []
    for rows in tables:
        by_bytes = sorted(range(len(getattr(plan, rows[0]))), key=lambda i: getattr(plan, rows[0])[i].tobytes())
        arrays += [(name, np.asarray(getattr(plan, name))[by_bytes]) for name in rows]
    for name, a in arrays + [(name, getattr(plan, name)) for name in names]:
        a = np.ascontiguousarray(a)
        h.update(f"{path}.{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    for name in ("sub", "front", "stab") if stage else ():
        if getattr(plan, name) is not None:
            _plan_digest(h, getattr(plan, name), f"{path}.{name}")


@pytest.mark.parametrize("fam,q,n", sorted(PLAN_SHA256))
def test_decode_plans_match_golden_hashes(fam, q, n):
    import hashlib

    h = hashlib.sha256()
    _plan_digest(h, canonical_ls(descriptor(fam, q, n=n)).plan)
    assert h.hexdigest() == PLAN_SHA256[(fam, q, n)]


# SHA-256 of json.dumps(parabolic_ls(build_space(kind, fq_context(p, 1), m),
# k).to_json(), sort_keys=True), recorded before the Eichler maps were
# merged: the unipotent radical is the closure of those maps.
PARABOLIC_SHA256 = {
    ("plus", 3, 2, 1): "0b94aa00e0d95357e6609ff9b86f8676d33319f9c8a2944121a8f560fa3d47ca",
    ("plus", 3, 2, 2): "234f4825075a867c0ea2e706fe17eeb2427afb4fe9769e72668e9035caf5a693",
    ("minus", 3, 2, 1): "25e3a027a8af7e46be1d05867e524e1ac6c2de74f0edce5707111647b48c3f07",
    ("odd", 3, 2, 1): "e126dfd735ca392a45e2f39781b1b5ae31fc330164c0effd889da02ed91ec15a",
    ("plus", 5, 2, 1): "7fa9d5473a46f28cd4425794c1836ec82f361fc2b345ce1d46a53627835d6408",
}


@pytest.mark.parametrize("kind,p,m,k", sorted(PARABOLIC_SHA256))
def test_parabolic_signatures_match_golden_hashes(kind, p, m, k):
    import hashlib
    import json

    ls = parabolic_ls(build_space(kind, fq_context(p, 1), m), k)
    doc = json.dumps(ls.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == PARABOLIC_SHA256[(kind, p, m, k)]


@given(st.sampled_from([(3, 1), (3, 2), (5, 1)]),
       st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=4),
       st.sampled_from([1, 2, 3, 5, 8, 4096]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_product_tables_walk_in_product_order(pe, sizes, chunk, seed):
    # small chunk sizes put segment and chunk boundaries inside every block
    # and split the last table from the leading walk at every position
    from orthosig import fields

    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    blocks = [[Mat(fq, rng.integers(0, fq.q, (3, 3))) for _ in range(s)] for s in sizes]
    old, fields.CHUNK = fields.CHUNK, chunk
    try:
        tables = ProductTables.build(fq, 3, blocks)
        chunks = list(tables.walk())
    finally:
        fields.CHUNK = old
    # a segment is one block or has at most chunk products
    assert math.prod(len(T) for T in tables.tables) == math.prod(sizes)
    assert all(len(T) <= chunk or len(T) in sizes for T in tables.tables)
    assert all(0 < len(c) <= max(chunk, sizes[-1] if sizes else 1) for c in chunks)
    walked = np.concatenate(chunks)
    ivs = list(itertools.product(*[range(s) for s in sizes]))
    assert walked.dtype == np.int16 and len(walked) == len(ivs)
    gathered = tables.products(ivs)
    for iv, g, h in zip(ivs, walked, gathered):
        want = Mat(fq, fq.identity(3))
        for b, i in zip(blocks, iv):
            want = want * b[i]
        assert g.tobytes() == h.tobytes() == want.key


@pytest.mark.parametrize("p,n,length", [(3, 6, 40), (181, 3, 30), (191, 4, 12), (7, 8, 25)])
def test_compose_is_exact_across_deferred_reductions(p, n, length, monkeypatch):
    # with one segment per block, long chains of the largest codes go
    # through one `mat_mul` per block, in int16 where n (p - 1)^2 < 2^15
    # and in int64 past it (p = 191), and every product, from compose and
    # from the sampled products, must agree with exact integers
    from orthosig import fields, lscore
    from orthosig.factorize import compose

    monkeypatch.setattr(fields, "CHUNK", 1)
    fq = fq_context(p, 1)
    rng = np.random.default_rng(p * n)
    mats = rng.integers(0, p, (length, 2, n, n)).astype(np.int16)
    mats[:, 0] = p - 1
    ls = LogSignature(None, [[Mat(fq, a) for a in pair] for pair in mats], 2 ** length)
    ivs = [[0] * length, [1] * length, rng.integers(0, 2, length).tolist()]
    assert len(ls.product_tables().tables) == length
    samples = [(iv, A) for chunk_ivs, A in lscore._sampled_products(random.Random(p), ls, 20)
               for iv, A in zip(chunk_ivs, A)]
    for iv, g in [(iv, compose(tuple(iv), ls).a) for iv in ivs] + samples:
        want = np.eye(n, dtype=object)
        for pair, i in zip(mats, iv):
            want = (want @ pair[i].astype(object)) % p
        assert g.dtype == np.int16 and g.tolist() == want.tolist()


# [random.Random(2024).randrange(s) for s in DRAW_SIZES], six rows, recorded
# before the sampled digits were drawn through getrandbits
DRAW_SIZES = [1, 2, 3, 4, 5, 8, 9, 130, 2 ** 10, 2 ** 10 + 1]
DRAW_ROWS = [[0, 0, 2, 2, 1, 6, 4, 62, 1020, 725], [0, 0, 1, 2, 4, 1, 3, 119, 303, 435],
             [0, 0, 1, 3, 3, 1, 2, 83, 799, 677], [0, 0, 1, 3, 3, 5, 3, 104, 469, 418],
             [0, 0, 0, 2, 4, 5, 6, 28, 678, 472], [0, 1, 1, 1, 1, 5, 7, 36, 536, 793]]


def test_sampled_digits_are_drawn_as_randrange_draws_them(monkeypatch):
    # 300 samples cross a chunk boundary; the generator must end where the
    # same randrange calls leave it
    from orthosig import fields, lscore

    monkeypatch.setattr(fields, "CHUNK", 256)
    fq = fq_context(3, 1)
    ls = LogSignature(None, [[Mat(fq, fq.identity(1))] * s for s in DRAW_SIZES], math.prod(DRAW_SIZES))
    rng, ref = random.Random(2024), random.Random(2024)
    rows = [iv for ivs, _ in lscore._sampled_products(rng, ls, 300) for iv in ivs]
    assert rows[:6] == DRAW_ROWS
    assert rows == [[ref.randrange(s) for s in DRAW_SIZES] for _ in range(300)]
    assert rng.getstate() == ref.getstate()


# SHA-256 of json.dumps(verify_ls(canonical O+6(3), "sampled", samples=25,
# seed=seed).to_json(), sort_keys=True), recorded before the sampled digits
# were drawn through getrandbits
SAMPLED_O6_SHA256 = {
    0: "3b26897e805618deb8311f4abc459599dbf9e5faa6c88cccba92a0f3acc32c9c",
    7: "029dbde2b5d248e5f88e846a229e755513538d9d3bc65aa666f743a0e731e4c8",
    42: "7216cddecf58d67891be85fa4ce25ea6277e3e807500b2b655f22d48163d81aa",
}


@pytest.mark.parametrize("seed", sorted(SAMPLED_O6_SHA256))
def test_sampled_reports_of_o6_3_match_golden_hashes(seed):
    import hashlib
    import json

    rep = verify_ls(canonical_ls(descriptor("O+", 3, n=6)), "sampled", samples=25, seed=seed)
    doc = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == SAMPLED_O6_SHA256[seed]


def _misdecoding(monkeypatch, errors):
    """Makes every stage plan decode a stack with its last digit one more
    and the given errors, and returns canonical O-4(3), whose plan is one."""
    from orthosig.lscore import _StagePlan

    decode_many = _StagePlan.decode_many

    def wrong(self, A, stats=None):
        digits, _ = decode_many(self, A, stats)
        digits = digits.copy()
        digits[:, -1] += 1
        return digits, dict(errors)

    monkeypatch.setattr(_StagePlan, "decode_many", wrong)
    return canonical_ls(descriptor("O-", 3, n=4))


def test_sampled_verify_lists_the_first_six_failures_in_sample_order(monkeypatch):
    # batches of 4 put the sixth failure in the second batch, so the check
    # decodes 8 products; the report once counted all 50 samples as checked
    from orthosig import fields, lscore

    ls = _misdecoding(monkeypatch, {})
    monkeypatch.setattr(fields, "CHUNK", 4)
    rep = verify_ls(ls, "sampled", samples=50, seed=3)
    ivs = [iv for ivs, _ in lscore._sampled_products(random.Random(3), ls, 6) for iv in ivs]
    assert not rep.valid and not rep.mls and rep.products_checked == 8
    assert rep.collisions == [{"iv": iv, "got": iv[:-1] + [iv[-1] + 1]} for iv in ivs]


def test_sampled_verify_raises_the_first_decode_error_in_row_order(monkeypatch):
    ls = _misdecoding(monkeypatch, {2: LsError("row 2"), 1: LsError("row 1")})
    with pytest.raises(LsError, match="row 1"):
        verify_ls(ls, "sampled", samples=10, seed=3)


def _report_variants(fam, q, n):
    """A plan-less copy of the canonical signature of each kind a file can
    hold: the canonical blocks, element 1 of blocks 0 and 1 swapped, and
    element 1 of block 0 replaced by a shear outside the group."""
    ref = canonical_ls(descriptor(fam, q, n=n))
    swapped = [list(b) for b in ref.blocks]
    swapped[0][1], swapped[1][1] = swapped[1][1], swapped[0][1]
    shear = np.eye(n, dtype=np.int16)
    shear[0, n - 1] = 1
    foreign = [list(b) for b in ref.blocks]
    foreign[0][1] = Mat(ref.blocks[0][0].fq, shear)
    variants = {"plan": ref}
    for name, blocks in (("canonical", ref.blocks), ("swapped", swapped), ("foreign", foreign)):
        variants[name] = LogSignature(ref.group, [list(b) for b in blocks], ref.claimed_order)
    return variants


# SHA-256 of json.dumps(verify_ls(...).to_json(), sort_keys=True), recorded
# before decoding and membership were batched: the sampled and exhaustive
# reports (counts, failures and collisions in sample order, not_in_group)
# must not change.  "plan" is the canonical signature with its tables.
VERIFY_REPORT_SHA256 = {
    ("O-", 3, 4, "canonical", "sampled", 42):
        "54cd8b4fcdaad6e0364a6895dc0bb827835bcfcf370fd148492d30bfc71bdec8",
    ("O-", 3, 4, "canonical", "sampled", 7):
        "086c39650b8b5fe9d01b2d079bd035c35857071246876a0f91ea3e26e892fef5",
    ("O-", 3, 4, "canonical", "exhaustive", None):
        "aaba1ac9485079d224c50d085f57792bc77743f9e4091b5742ab1da598a96c2b",
    ("O-", 3, 4, "swapped", "sampled", 42):
        "6b2ed0dfb22ce6341ecd26371ebee32aa3f0cfce14d163ec88c5dce2605cb15e",
    ("O-", 3, 4, "swapped", "sampled", 7):
        "bed61782919e45b7c72f31165727273083601d1435147a550ca4b93ca5b16fac",
    ("O-", 3, 4, "swapped", "exhaustive", None):
        "5bdda61fb0b75d68b7c1fc1ded983c05a00ff536210ec860b0e5bdc3b3ec5468",
    ("O-", 3, 4, "foreign", "sampled", 42):
        "a76298ab42796272c6e289f0271ce5ac1cf0a798b8f18d15f48beef4741c8bda",
    ("O-", 3, 4, "foreign", "sampled", 7):
        "51ff0be4adfed01eb911262df8b656f16d2ee58335e8b08a51df0966961c59ec",
    ("O-", 3, 4, "foreign", "exhaustive", None):
        "df5423d30352e66d2bc30241927faa9d868b8aac7db18cfddfc0da890a5f4362",
    ("O-", 3, 4, "plan", "sampled", 42):
        "b6cbb39325d7b624e8e59eef8ddc5dee3ed4dea93540f6eabee2939174df6543",
    ("O+", 5, 4, "canonical", "sampled", 42):
        "9ebe2b243bcd66a7c4c548b156a6ae5b58c24df80942ee96e90824fc09baff95",
    ("O+", 5, 4, "canonical", "sampled", 7):
        "5ba0dbe26e26eaf6654f85726d59af9dbe9ec1c4b8b7ba842e0adcadcd0df993",
    ("O+", 5, 4, "canonical", "exhaustive", None):
        "27edf948ba5b80ea64f7991addbfcc2f861ae616a19e9666ab29c874a92f6f66",
    ("O+", 5, 4, "swapped", "sampled", 42):
        "dd5a88a61949ff9896fe3493ca5d6e45b89d88d4250ecb67bcb043a5adab3a03",
    ("O+", 5, 4, "swapped", "sampled", 7):
        "5ba0dbe26e26eaf6654f85726d59af9dbe9ec1c4b8b7ba842e0adcadcd0df993",
    ("O+", 5, 4, "swapped", "exhaustive", None):
        "0d6a69f1d56f44d801b56531edcd50cb2f9955db0fdabf31ba1e2e9b6f92f676",
    ("O+", 5, 4, "foreign", "sampled", 42):
        "16392649c0b6ff526f32cf6cbeb47aaed6e08ab0a12b6ce995cf9bf47725901c",
    ("O+", 5, 4, "foreign", "sampled", 7):
        "9ccb6a2181e088e8facedff158feec97ab148893c38df172c5efb0a9acf44f90",
    ("O+", 5, 4, "foreign", "exhaustive", None):
        "dd5b900dc3785574b25f67a1872017bb5838d65853736119feb754b5b41b665d",
    ("O+", 5, 4, "plan", "sampled", 42):
        "0e4cce1a58ff9ce93de2678908a1fa73d286037e28b410b845a0ee2b96cafea4",
    ("O+", 3, 6, "canonical", "sampled", 42):
        "38d4ab574edfcba1082c6c5697868868f43661ce087a5104cb40872c35d67bbf",
    ("O+", 3, 6, "canonical", "sampled", 7):
        "93985acca96ca6d10ba81bab7c9d23a027d2056258818e97fcf87f9035b9d798",
    ("O+", 3, 6, "swapped", "sampled", 42):
        "38d4ab574edfcba1082c6c5697868868f43661ce087a5104cb40872c35d67bbf",
    ("O+", 3, 6, "swapped", "sampled", 7):
        "93985acca96ca6d10ba81bab7c9d23a027d2056258818e97fcf87f9035b9d798",
    ("O+", 3, 6, "foreign", "sampled", 42):
        "c83e91f31bfa7e301b9358e9943b7e5d15ca35148b0e4657005d954f47ceaf3a",
    ("O+", 3, 6, "foreign", "sampled", 7):
        "0e8966fa16a869171cb8e83316c527b3b41a41367313afacf14ff671d220c0b1",
    ("O+", 3, 6, "plan", "sampled", 42):
        "8793b06ba07dd35533446469841d48c53affe3bb2e05c38278094cb058c20599",
    ("PSO-", 3, 4, "canonical", "exhaustive", None):
        "6bef42caf68cd11bae120cefa527187cd61019493f0b8ea72efe1f33abd50442",
    ("PSO-", 3, 4, "swapped", "exhaustive", None):
        "1497b7bf95a91576029b163324e4450d3e9271ada0de6330470950180079f0f2",
    ("PSO-", 3, 4, "foreign", "exhaustive", None):
        "101b28c89e25b0558451e0d3cddeeb0572fde997f11b27bfdf270f7e6348f9a4",
}


@pytest.mark.parametrize("fam,q,n,variant,mode,seed", sorted(VERIFY_REPORT_SHA256, key=str))
def test_verify_reports_match_golden_hashes(fam, q, n, variant, mode, seed):
    import hashlib
    import json

    ls = _report_variants(fam, q, n)[variant]
    kw = {"samples": 300 if seed == 42 else 200, "seed": seed} if mode == "sampled" else {}
    doc = json.dumps(verify_ls(ls, mode, **kw).to_json(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == VERIFY_REPORT_SHA256[(fam, q, n, variant, mode, seed)]


@pytest.mark.parametrize("chunk", [4096, 100])
@pytest.mark.parametrize("fam,q,n", [("O-", 3, 4), ("PSO-", 3, 4), ("SO+", 3, 4)])
def test_exhaustive_reports_list_every_collision_as_a_dict_walk_does(fam, q, n, chunk, monkeypatch):
    # the golden report hashes see only the first three collisions; the
    # whole list, in product order with the first index vector of each key,
    # comes from the reference walk (chunk 100 splits the walk mid-block);
    # the canonical signature is built at the default chunk, so the cache
    # keeps the plan it holds at the default
    from orthosig import fields
    from dictwalk import verify_by_dict_walk

    variants = _report_variants(fam, q, n)
    monkeypatch.setattr(fields, "CHUNK", chunk)
    for name, ls in variants.items():
        rep = verify_ls(ls, "exhaustive")
        collisions, outside, distinct = verify_by_dict_walk(ls)
        assert (rep.collisions, rep.not_in_group) == (collisions, outside)
        assert rep.valid == (not collisions and not outside and distinct == ls.claimed_order)
        assert rep.products_checked == ls.claimed_order
        if name == "swapped" and fam != "SO+":
            assert len(collisions) > 3


def test_the_no_block_signature_checks_one_product():
    # SO_1 is the trivial group: no blocks, and the one product is I
    ls = canonical_ls(descriptor("SOodd", 3, n=1))
    assert (ls.blocks, ls.claimed_order) == ((), 1)
    for sig in (ls, LogSignature(ls.group, [], 1)):
        rep = verify_ls(sig, "exhaustive")
        assert (rep.valid, rep.mls, rep.products_checked, rep.collisions, rep.not_in_group) == \
            (True, True, 1, [], 0)


def test_a_finished_signature_refuses_an_edit_in_place():
    # its blocks are tuples, so the tables it carries never go stale and
    # every later caller of canonical_ls gets the signature as built
    ls = canonical_ls(descriptor("O-", 3, n=4))
    with pytest.raises(TypeError):
        ls.blocks[0][1], ls.blocks[1][1] = ls.blocks[1][1], ls.blocks[0][1]
    assert verify_ls(canonical_ls(descriptor("O-", 3, n=4)), "exhaustive").valid


@pytest.mark.parametrize("n", [2, 4])
def test_a_signature_with_a_copy_of_its_plan_compares_equal(n):
    # the plans hold arrays and take no part in ==; framed by the identity,
    # a plan holds equal arrays that are new objects
    a = canonical_ls(descriptor("O-", 3, n=n))
    fq = a.plan.fq
    one = fq.identity(n)
    b = LogSignature.from_stacks(a.group, fq, n, a.plan.blocks, a.claimed_order, a.meta,
                                 plan=a.plan.framed(one, one))
    assert b.plan is not a.plan and a == b


def test_a_finished_signature_refuses_every_edit():
    # meta is a read-only mapping all the way down and the signature is
    # frozen, so no caller of canonical_ls edits what the next one reads
    import json

    desc = descriptor("O-", 3, n=4)
    ls = canonical_ls(desc)
    doc, plan, tables = json.dumps(ls.to_json(), sort_keys=True), ls.plan, ls.tables
    assert ls.meta["notes"]
    with pytest.raises(TypeError):
        ls.meta["minimal"] = False
    with pytest.raises(AttributeError):
        ls.meta["notes"].append("edited")
    with pytest.raises(TypeError):
        ls.meta["a_layers"][0]["size"] = 1
    for name in ("plan", "tables", "meta", "blocks"):
        with pytest.raises(FrozenInstanceError):
            setattr(ls, name, None)
    again = canonical_ls(desc)
    assert again is ls and again.plan is plan and again.tables is tables
    assert again.meta["minimal"] is True and json.dumps(again.to_json(), sort_keys=True) == doc


@pytest.mark.parametrize("fam,q,n", [("O-", 3, 2), ("SOodd", 3, 1), ("Oodd", 3, 3), ("O-", 3, 4),
                                     ("Oodd", 3, 5), ("O+", 3, 6), ("O-", 9, 4)])
def test_every_level_record_holds_its_signature_blocks_read_only(fam, q, n):
    # down the sub chain, each level's record holds the blocks of the
    # canonical signature of that level, byte for byte, as read-only stacks
    from orthosig.lscore import _StagePlan

    rec, levels = canonical_ls(descriptor(fam, q, n=n)).plan, 0
    while rec is not None:
        ls = canonical_ls(descriptor(fam, q, n=n - 2 * levels))
        assert len(rec.blocks) == len(ls.blocks)
        for S, blk in zip(rec.blocks, ls.blocks):
            assert S.dtype == np.int16 and not S.flags.writeable
            assert S.tobytes() == np.stack([g.a for g in blk]).tobytes()
            with pytest.raises(ValueError):
                S[0, 0, 0] = 1
        rec, levels = rec.sub if isinstance(rec, _StagePlan) else None, levels + 1
    assert levels == (n + 1) // 2


def test_a_cached_stage_record_cannot_be_edited():
    # canonical_ls hands every caller one record: a zeroed head table once
    # sent the element of rank 1234 to the wrong digits, with no error
    from orthosig.factorize import compose, tame_factor, unrank

    ls = canonical_ls(descriptor("O+", 5, n=4))
    iv = unrank(1234, ls)
    g = compose(iv, ls)
    with pytest.raises(ValueError, match="read-only"):
        ls.plan.head[:] = 0
    assert tame_factor(g, ls) == iv == (0, 2, 1, 0, 4, 1, 1, 0, 0, 0, 0)


def test_cached_product_tables_cannot_be_edited():
    # one written row of a cached table once turned exhaustive verification
    # of the canonical signature from VALID to INVALID
    ls = canonical_ls(descriptor("O-", 3, n=4))
    tables = ls.tables.tables
    with pytest.raises(ValueError, match="read-only"):
        tables[0][1] = tables[0][0]
    with pytest.raises(TypeError):
        tables[0] = tables[0][:1]
    assert verify_ls(ls, "exhaustive").valid


def mutable_parts(root, path):
    """Where something reachable from root can be edited in place: each
    writable array, and each list, dict or set that a public attribute, a
    tuple or a read-only mapping holds.  The walk enters tuples,
    frozensets, read-only mappings and the objects of the package (their
    attributes and slots); a private list or dict of an object, which only
    its own methods read, is not entered."""
    found, seen = [], set()

    def visit(v, path):
        if id(v) in seen:
            return
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            if v.flags.writeable:
                found.append(path)
        elif isinstance(v, (list, dict, set)):
            found.append(path)
        elif isinstance(v, (tuple, frozenset)):
            for i, x in enumerate(v):
                visit(x, f"{path}[{i}]")
        elif isinstance(v, MappingProxyType):
            for k, x in v.items():
                visit(x, f"{path}[{k!r}]")
        elif type(v).__module__.startswith("orthosig."):
            for name in [*getattr(v, "__dict__", ()), *getattr(type(v), "__slots__", ())]:
                x = getattr(v, name)
                if not (name.startswith("_") and isinstance(x, (list, dict))):
                    visit(x, f"{path}.{name}")

    visit(root, path)
    return found


def test_the_walk_finds_what_can_be_edited():
    fq = fq_context(3, 1)
    sp = PartialSpread([[[1, 0]]], fq)
    sp.members, sp.notes, sp._index = np.zeros(2), ("a", ["b"]), {}
    ls = LogSignature(None, [(Mat(fq, np.eye(2)),)], 1, {"k": 1})
    assert mutable_parts((sp, ls), "x") == ["x[0].members", "x[0].notes[1]", "x[1].blocks", "x[1].meta"]


# (family, q, n), the shape of the signature and the table its record
# holds: the front table of a small group, the stabilizer table, the Siegel
# path alone, a base case's table, or no record (a projected signature)
WALKED = [("O-", 3, 4, "twisted", "front"), ("O+", 5, 4, "literal", "stab"), ("O-", 9, 4, "twisted", "siegel"),
          ("O+", 3, 6, "transversal", "siegel"), ("Oodd", 3, 5, "transversal", "stab"),
          ("O-", 3, 2, "base", "table"), ("PSO-", 3, 4, "twisted", None)]


@pytest.mark.parametrize("fam,q,n,shape,table", WALKED)
def test_what_the_caches_hand_out_is_read_only(fam, q, n, shape, table):
    # every cache hands out what every later caller shares: no writable
    # array and no public list or dict is reachable from any of it
    from orthosig.forms import omega_oracle, reflections
    from orthosig.lscore import _StagePlan

    desc = descriptor(fam, q, n=n)
    space, ls = space_for(desc), canonical_ls(desc)
    fq = space.fq
    handed = {"fq_context": fq_context(fq.p, fq.e), "space_for": space, "reflections": reflections(space),
              "singer_generator": [singer_generator(k, fq) for k in (1, 2, n)],
              "spread_construction": spread_construction(space, fam), "canonical_ls": ls}
    if group_order(desc.with_base("O")) <= 1440:
        handed.update(enumerate_isometry_group=[enumerate_isometry_group(space, f) for f in ("O", "SO")],
                      omega_oracle=omega_oracle(space))
    for name, value in handed.items():
        assert mutable_parts(tuple(value) if isinstance(value, list) else value, name) == []
    plan = ls.plan
    held = (None if plan is None else "table" if not isinstance(plan, _StagePlan)
            else "front" if plan.front is not None else "stab" if plan.stab is not None else "siegel")
    assert (ls.meta["shape"], held) == (shape, table)


def test_verify_rejects_a_group_past_the_envelope_instead_of_skipping_membership():
    # O-2(1549) passes the q x q bound, but its top field does not; a
    # hand-made signature of it must not come out VALID unchecked
    from orthosig.fields import FieldError

    fq = fq_context(1549, 1)
    shear = np.eye(2, dtype=np.int16)
    shear[0, 1] = 1
    ls = LogSignature(descriptor("O-", 1549, n=2), [[Mat(fq, fq.identity(2)), Mat(fq, shear)]], 2)
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(FieldError, match="q\\^2m"):
            verify_ls(ls, mode, samples=10)


def test_verify_compares_the_claimed_order_where_a_closed_form_exists():
    ref = canonical_ls(descriptor("O-", 3, n=4))
    short = LogSignature(ref.group, ref.blocks[:2], 10)
    for mode in ("exhaustive", "sampled"):
        rep = verify_ls(short, mode, samples=50)
        assert not rep.valid and "claimed order 10 is not the group order 1440" in rep.notes
    # POmega has no closed-form order, so the claim stands on the other checks
    fq = fq_context(3, 1)
    rep = verify_ls(LogSignature(descriptor("POmega-", 3, n=4), [[Mat(fq, fq.identity(4))]], 1), "exhaustive")
    assert rep.valid and rep.notes == [
        "claimed order not compared with the group order: "
        "POmega order depends on whether -I is in Omega; use enumeration"]


TAMPER_GROUPS = [("O-", 3, 4), ("SO+", 3, 4), ("PSO-", 3, 4), ("Oodd", 5, 3)]
TAMPERS = ["drop", "repeat", "swap", "entry", "order", "rename"]


def _tamper(data, doc):
    """Apply one drawn tamper to a signature file's JSON document; returns
    its name and, for a repeat or a swap, whether both elements came from
    one block."""
    from orthosig.matgroups import FAMILIES

    blocks = doc["blocks"]
    how = data.draw(st.sampled_from(TAMPERS))
    if how == "drop":
        del blocks[data.draw(st.integers(0, len(blocks) - 1))]
    elif how in ("repeat", "swap"):
        spots = [(i, j) for i, b in enumerate(blocks) for j in range(len(b))]
        (i, j), (k, l) = data.draw(st.lists(st.sampled_from(spots), min_size=2, max_size=2, unique=True)
                                   .filter(lambda s: blocks[s[0][0]][s[0][1]] != blocks[s[1][0]][s[1][1]]))
        if how == "repeat":
            blocks[i][j] = blocks[k][l]
        else:
            blocks[i][j], blocks[k][l] = blocks[k][l], blocks[i][j]
        return how, i == k
    elif how == "entry":
        i = data.draw(st.integers(0, len(blocks) - 1))
        entries = blocks[i][data.draw(st.integers(0, len(blocks[i]) - 1))]["entries"]
        r, c = data.draw(st.integers(0, len(entries) - 1)), data.draw(st.integers(0, len(entries) - 1))
        p = doc["group"]["q"]  # the inputs are prime fields
        entries[r][c] = [data.draw(st.integers(0, p - 1).filter(lambda x: [x] != entries[r][c]))]
    elif how == "order":
        old = doc["claimed_order"]
        doc["claimed_order"] = data.draw(st.integers(1, 2 * 10 ** 6).filter(lambda x: x != old))
    else:
        old = doc["group"]["family"]
        doc["group"]["family"] = data.draw(st.sampled_from([f for f in (*FAMILIES, "GL") if f != old]))
    return how, False


@given(group=st.sampled_from(TAMPER_GROUPS), data=st.data())
def test_a_tampered_file_verifies_as_the_dict_walk_says_or_exits_2(group, data, tmp_path_factory):
    import contextlib
    import io
    import json

    from dictwalk import verify_by_dict_walk
    from orthosig import cli
    from orthosig.serial import load_ls

    doc = json.loads(json.dumps(canonical_ls(descriptor(group[0], group[1], n=group[2])).to_json()))
    how, one_block = _tamper(data, doc)
    path = tmp_path_factory.mktemp("tamper") / "ls.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--in", str(path), "--mode", "exhaustive"])
    if code == 2:
        assert "error" in json.loads(out.getvalue().split("\n# ")[0])
        return
    ls = load_ls(str(path))
    rep = verify_ls(ls, "exhaustive")
    collisions, outside, distinct = verify_by_dict_walk(ls)
    try:
        order_ok = ls.claimed_order == group_order(ls.group)
    except ValueError:  # POmega has no closed-form order
        order_ok = True
    assert (rep.collisions, rep.not_in_group) == (collisions, outside)
    assert rep.valid == (not collisions and not outside and distinct == ls.claimed_order and order_ok)
    assert code == (0 if rep.valid else 1)
    # a swap inside one block keeps the product set; a dropped block, a
    # repeat inside one block and a wrong order always break the signature.
    # A rename can name the same group: PSO-4(3) is POmega-4(3), since -I
    # is not in Omega-4(3)
    if how == "swap":
        assert rep.valid or not one_block
    if how in ("drop", "order") or (how == "repeat" and one_block):
        assert not rep.valid


def test_every_o_minus_2_inside_the_envelope_builds_and_verifies():
    # O-2(q) is dihedral of order 2(q + 1); every odd prime power up to 200
    from orthosig.fields import factorint

    qs = [q for q in range(3, 201, 2) if len(factorint(q)) == 1]
    assert len(qs) == 53
    for q in qs:
        ls = canonical_ls(descriptor("O-", q, n=2))
        rep = verify_ls(ls, "exhaustive")
        assert ls.claimed_order == 2 * (q + 1) and rep.valid and rep.products_checked == 2 * (q + 1), q


def test_verify_reports_that_cannot_be_made():
    for ls in _report_variants("O+", 3, 6).values():
        with pytest.raises(LsError, match="exhaustive verification needs"):
            verify_ls(ls, "exhaustive")
    # the projective quotient carries no decoding tables
    for ls in _report_variants("PSO-", 3, 4).values():
        with pytest.raises(LsError, match="sampled verification needs a decodable plan"):
            verify_ls(ls, "sampled", samples=300, seed=42)


def test_parabolic_reuses_its_middle_space():
    # a new space, so that no earlier call has filled the caches for it
    from orthosig.forms import QuadraticSpace, reflections

    s = build_space("minus", fq_context(3, 1), 2)
    space = QuadraticSpace(s.kind, s.fq, s.gram_model)
    before = (enumerate_isometry_group.cache_info().currsize, reflections.cache_info().currsize)
    for _ in range(3):
        parabolic_ls(space, 1)
    after = (enumerate_isometry_group.cache_info().currsize, reflections.cache_info().currsize)
    assert (after[0] - before[0], after[1] - before[1]) == (1, 1)


# sha256 of `spread-check --kind plus --q q --m 1` stdout
PLANE_SPREAD_CHECK_SHA256 = {
    3: "5d4da88be3c64a4183be39d5cd32c45b5031d1bbce3f58a42bf7f1910763ba18",
    5: "f5c5eb8f71961f02488b8c736fcf4f5b44e5bae3cd84762ab6aceb1d588b1c99",
    7: "bed9568530d390e7c3904503a8b0490376447a62574e198abd2887d81b0082e7",
    9: "fd2b95b9d0ec42a5b29ba79eb11da4ca3ceec6b1fb06c6b5a51542e0093a75ee",
}


@pytest.mark.parametrize("q", sorted(PLANE_SPREAD_CHECK_SHA256))
def test_plane_block_is_the_first_swapping_generator(q, capsys):
    # on the hyperbolic plane no literal recipe applies; the first O
    # generator swaps the two singular points and is the cyclic block
    import hashlib

    from orthosig import cli
    from orthosig.fields import split_prime_power
    from orthosig.forms import o_generators

    s = build_space("plus", fq_context(*split_prime_power(q)), 1)
    plan = spread_construction(s, "O+")
    (kind, gen, size), = plan.layers
    assert (plan.shape, kind, size) == ("cyclic", "cyc", 2)
    assert gen.tobytes() == o_generators(s)[0].tobytes()
    assert cli.main(["spread-check", "--kind", "plus", "--q", str(q), "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PLANE_SPREAD_CHECK_SHA256[q]


def test_plane_so_has_no_transitive_block():
    # SO fixes both singular points of the plane, so even the point
    # transversal cannot be built: the ladder says so
    for q in (3, 5, 7):
        s = space_for(descriptor("SO+", q, m=1))
        with pytest.raises(LsError, match="^SO of the hyperbolic plane fixes both singular points, "
                                          "so no block moves one onto the other$"):
            spread_construction(s, "SO+")


def test_all_gl_weights_stay_below_2_63_inside_the_envelope():
    # `fields.product_rows` gives _all_gl its k x k matrices as the base-q
    # digits of one int64 row index, with k at most the Witt index, so at
    # most the m of the space.  Walk every q and m the envelope accepts and
    # check that q^(m m) fits
    from orthosig.fields import FieldError, check_field_size, check_tower_size, factorint

    def accepted(q, m):
        try:
            check_tower_size(q, m)
            return True
        except FieldError:
            return False

    widest = 0
    for q in range(3, 2 ** 15, 2):
        if len(factorint(q)) != 1 or not accepted(q, 1):
            continue
        check_field_size(q)
        m = 1
        while accepted(q, m):
            assert q ** (m * m) < 2 ** 63
            widest = max(widest, q ** (m * m))
            m += 1
    # the widest is q = 3, m = 6 (Witt index 6: O+12(3), Oodd13(3)), whose
    # GL6(3) rows are 58-bit indices
    assert widest == 3 ** 36
