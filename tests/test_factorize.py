import random

import pytest
from headblocks import stage_spread
from test_lscore import PLAN_SHA256

from orthosig.factorize import (
    FactorError,
    compose,
    rank,
    tame_factor,
    unrank,
)
from orthosig.lscore import LogSignature, canonical_ls
from orthosig.matgroups import Mat, descriptor


def test_identity_decodes_to_zero():
    ls = canonical_ls(descriptor("O-", 3, n=4))
    fq = ls.blocks[0][0].fq
    iv = tame_factor(Mat(fq, fq.identity(4)), ls)
    assert all(i == 0 for i in iv)


def test_membership_space_is_built_once_per_descriptor(monkeypatch):
    from orthosig import lscore

    ls = canonical_ls(descriptor("O-", 3, n=4))
    g = compose(unrank(788, ls), ls)
    calls = []
    build = lscore.build_space
    monkeypatch.setattr(lscore, "build_space", lambda *a: calls.append(a) or build(*a))
    for _ in range(5):
        tame_factor(g, ls)
    assert len(calls) <= 1


def test_pure_a_block_power():
    # a^3 for the leading cyclic block decodes to (3, 0, 0, ...)
    ls = canonical_ls(descriptor("O-", 3, n=4))
    layer_kind, gen, size = stage_spread(ls).layers[0]
    assert layer_kind == "cyc" and size == 5 and ls.meta["a_layers"][0]["radices"] == (5,)
    g = Mat(ls.blocks[0][0].fq, gen).pow(3)
    iv = tame_factor(g, ls)
    assert iv[0] == 3
    assert all(i == 0 for i in iv[1:])


def test_roundtrip_seeded_bulk():
    ls = canonical_ls(descriptor("O-", 3, n=4))
    rng = random.Random(20240301)
    for _ in range(2000):
        iv = unrank(rng.randrange(ls.claimed_order), ls)
        g = compose(iv, ls)
        assert tame_factor(g, ls) == iv


def test_roundtrip_every_element_small():
    ls = canonical_ls(descriptor("Oodd", 3, n=3))
    for v in range(ls.claimed_order):
        iv = unrank(v, ls)
        assert tame_factor(compose(iv, ls), ls) == iv


def test_rank_unrank_bijection_small():
    ls = canonical_ls(descriptor("O-", 3, n=2))
    assert ls.claimed_order == 8
    assert unrank(0, ls) == (0,) * len(ls.blocks)
    for v in range(8):
        assert rank(unrank(v, ls), ls) == v


def test_rank_mixed_radix_example():
    # block sizes (2, 3, 2): rank((1, 2, 1)) = 1 + 2*2 + 1*6 = 11
    fq = canonical_ls(descriptor("O-", 3, n=2)).blocks[0][0].fq
    I = Mat(fq, fq.identity(2))
    ls = LogSignature(None, [[I, I], [I, I, I], [I, I]], 12)
    assert rank((1, 2, 1), ls) == 11
    assert unrank(11, ls) == (1, 2, 1)


def test_out_of_range_errors():
    ls = canonical_ls(descriptor("O-", 3, n=2))
    with pytest.raises(FactorError):
        unrank(8, ls)
    with pytest.raises(FactorError):
        rank((9, 0, 0), ls)


def test_not_in_group():
    ls = canonical_ls(descriptor("O-", 3, n=4))
    import numpy as np

    from orthosig import forms
    from orthosig.lscore import space_for

    fq = ls.blocks[0][0].fq
    shear = np.eye(4, dtype=np.int16)
    shear[0, 2] = 1
    bad = Mat(fq, shear)
    assert not forms.preserves_form(fq, space_for(ls.group).gram, bad.a)
    with pytest.raises(FactorError):
        tame_factor(bad, ls)


def test_decode_cost_is_bounded():
    # decoding is lookups plus a bounded number of matrix products,
    # independent of the group order
    ls = canonical_ls(descriptor("O-", 3, n=6))
    rng = random.Random(7)
    for _ in range(20):
        iv = unrank(rng.randrange(ls.claimed_order), ls)
        g = compose(iv, ls)
        assert tame_factor(g, ls) == iv
        # the counts come from the stack decoder
        stats = {}
        ls.plan.decode_many(g.a[None], stats)
        # generous bound: a handful of products per stage, depth m
        assert stats.get("mults", 0) <= 12 * 3


from hypothesis import given, strategies as st


@given(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**6))
def test_hypothesis_rank_unrank_roundtrip(sizes, seedval):
    import numpy as np

    from orthosig.fields import fq_context

    fq = fq_context(3, 1)
    I = Mat(fq, fq.identity(2))
    total = 1
    for s in sizes:
        total *= s
    ls = LogSignature(None, [[I] * s for s in sizes], total)
    v = seedval % total
    iv = unrank(v, ls)
    assert rank(iv, ls) == v
    assert all(0 <= x < s for x, s in zip(iv, sizes))


# groups over q = 3, 5, 7, 9, 25 in the O, SO and PSOodd families; O-2(25)
# decodes through the base-case table alone
DECODE_GROUPS = [("O-", 3, 4), ("SO+", 3, 4), ("O+", 5, 4), ("SO-", 5, 4), ("O-", 7, 4),
                 ("O-", 9, 4), ("Oodd", 7, 3), ("Oodd", 9, 3), ("SOodd", 25, 3),
                 ("PSOodd", 3, 5), ("PSOodd", 25, 3), ("O-", 25, 2)]


def _mixed_elements(ls, seed, k):
    """Members, scalar multiples, members with one entry changed, garbage,
    zero matrices and negatives, in a fixed rotation."""
    import numpy as np

    fq = ls.blocks[0][0].fq
    n = ls.group.n
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    out = []
    for i in range(k):
        g = compose(unrank(rng.randrange(ls.claimed_order), ls), ls).a.copy()
        kind = i % 5
        if kind == 1:
            g = fq.v_scale(rng.randrange(1, fq.q), g)
        elif kind == 2:
            r, c = rng.randrange(n), rng.randrange(n)
            g[r, c] = fq.add(int(g[r, c]), rng.randrange(1, fq.q))
        elif kind == 3:
            g = nrng.integers(0, fq.q, (n, n)).astype(np.int16)
        elif kind == 4:
            g = np.zeros((n, n), dtype=np.int16) if i % 10 == 4 else fq.v_neg(g)
        out.append(g)
    return out


def _decode_one(plan, fq, a, stats):
    """The digits of one element, or the exception decoding it raises;
    stats, when given, gets the counts of the element decoded as a
    one-element stack."""
    from orthosig.lscore import LsError

    if stats is not None:
        plan.decode_many(a[None], stats)
    try:
        return plan.decode(Mat(fq, a))
    except (LsError, ValueError) as exc:
        return exc


@given(st.sampled_from(DECODE_GROUPS), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=12))
def test_decode_many_matches_decoding_one_at_a_time(group, seed, k):
    import numpy as np

    ls = canonical_ls(descriptor(group[0], group[1], n=group[2]))
    fq = ls.blocks[0][0].fq
    stack = np.stack(_mixed_elements(ls, seed, k))
    many_stats = {}
    digits, errors = ls.plan.decode_many(stack, many_stats)
    one_stats = {}
    for r, a in enumerate(stack):
        one = _decode_one(ls.plan, fq, a, one_stats)
        if isinstance(one, Exception):
            assert type(errors[r]) is type(one) and str(errors[r]) == str(one)
        else:
            assert r not in errors and digits[r].tolist() == one
    assert many_stats == one_stats


def test_decode_many_of_members_round_trips():
    import numpy as np

    for group in DECODE_GROUPS:
        ls = canonical_ls(descriptor(group[0], group[1], n=group[2]))
        rng = random.Random(11)
        ivs = [unrank(rng.randrange(ls.claimed_order), ls) for _ in range(40)]
        digits, errors = ls.plan.decode_many(np.stack([compose(iv, ls).a for iv in ivs]))
        assert not errors
        assert [tuple(row) for row in digits.tolist()] == ivs


# SHA-256 of json.dumps of the decode result of each of 60 _mixed_elements
# (seed 2024): the digits, or "<exception type>: <message>".  Recorded
# before decoding was batched; every error message must stay the same.
DECODE_SHA256 = {
    ("O-", 3, 4): "d75157d859792bbb4c29a4efd73419ae8690a71c86bbeca6617a11fb0770f528",
    ("SO+", 3, 4): "1103989fc5d742270ad5c814f907a2188e5c1ac499a69415398b87a5a858f7fb",
    ("O-", 9, 4): "fa91365f69fe17cc1e8f408cb37866537c008e323cc4c7c0ab2420bd31d938f0",
    ("Oodd", 3, 5): "0c51d867f242e43085c0905c5b4152debc7a675d1b7be43d805bda8f0e87cf43",
    ("O+", 3, 6): "4b6d0896e4916a1a868805b980cb5c0d67da23106278da46d4357667f9c440b5",
    ("SOodd", 25, 3): "b50cee0fb6d618090d086633f32fadfe4322761f275aebc6caf55b5addab54f8",
    ("O-", 25, 2): "c4b2e5525da93fb49c3f28a4679f70991413a1aca9572170a6326e85bfef02eb",
}


@pytest.mark.parametrize("fam,q,n", sorted(DECODE_SHA256))
def test_decode_results_match_golden_hashes(fam, q, n):
    import hashlib
    import json

    ls = canonical_ls(descriptor(fam, q, n=n))
    fq = ls.blocks[0][0].fq
    res = []
    for g in _mixed_elements(ls, 2024, 60):
        one = _decode_one(ls.plan, fq, g, None)
        res.append(f"{type(one).__name__}: {one}" if isinstance(one, Exception) else one)
    doc = json.dumps(res).encode()
    assert hashlib.sha256(doc).hexdigest() == DECODE_SHA256[(fam, q, n)]


# SHA-256 of json.dumps of what tame_factor gives for each of the same 60
# _mixed_elements: the digits, or "<exception type>: <message>".  Recorded
# while membership was still tested before decoding; deciding it only on a
# failed decode must name every failure the same way.
TAME_FACTOR_SHA256 = {
    ("O-", 3, 4): "5510e2bbf3b2e5c185b18de7bc7e06675e7181e5bfb45813bfe6787924d00e15",
    ("SO+", 3, 4): "700395e9ad22f1ebb525bd959d814897c32a4c4b181841ec049d8265f1350677",
    ("O-", 9, 4): "4e792af3ef1617e8d9101e2211ef3adac5b0f394418fd78cd53e9b38a474b835",
    ("Oodd", 3, 5): "4a203f8365467fc257fe320a7934ca58ad444de5f52b3fb418e7e5332af1f238",
    ("O+", 3, 6): "0360a8869a9470f0b1b3fe009acfd06b3047a1b7d82f19cfdb44a03424009b02",
    ("SOodd", 25, 3): "f629cbaa0e7a3804820e4b91935462adbea0f8c9759f3acb7178b45a11ad2cf6",
    ("O-", 25, 2): "7241c5ff7263c05496ec47f6dcd89958f6ff6cbd582d4386b6cf0916463a23b0",
}


@pytest.mark.parametrize("fam,q,n", sorted(TAME_FACTOR_SHA256))
def test_tame_factor_results_match_golden_hashes(fam, q, n):
    import hashlib
    import json

    from orthosig.matgroups import Mat

    assert set(TAME_FACTOR_SHA256) == set(DECODE_SHA256)
    ls = canonical_ls(descriptor(fam, q, n=n))
    fq = ls.blocks[0][0].fq
    res = []
    for g in _mixed_elements(ls, 2024, 60):
        try:
            res.append(list(tame_factor(Mat(fq, g), ls)))
        except Exception as exc:
            res.append(f"{type(exc).__name__}: {exc}")
    doc = json.dumps(res).encode()
    assert hashlib.sha256(doc).hexdigest() == TAME_FACTOR_SHA256[(fam, q, n)]


def _without_tables(plan):
    """The plan with the product-table front and stabilizer table of every
    stage taken off, so that every element goes down the stage path."""
    from orthosig.fields import replace
    from orthosig.lscore import _StagePlan

    if not isinstance(plan, _StagePlan):
        return plan
    return replace(plan, front=None, stab=None, sub=_without_tables(plan.sub))


def _tables(plan):
    """Which product table each stage of the plan, top first, carries:
    "front", "stab" or None."""
    from orthosig.lscore import _StagePlan

    out = []
    while isinstance(plan, _StagePlan):
        assert plan.front is None or plan.stab is None
        out.append("front" if plan.front is not None else "stab" if plan.stab is not None else None)
        plan = plan.sub
    return out


def test_small_stages_carry_a_product_table_front():
    # a front when the stage has at most FRONT_ORDER elements, else a stab
    # table when its point stabilizer has, else neither.  O-4(3) has 1440
    # elements; O-4(5) has 31200 and a stabilizer of 1200; Oodd5(3) has a
    # stabilizer of 2592 and the tail Oodd3(3) (48); O+6(3) has a
    # stabilizer of 186624 and the tail O+4(3) (1152); O-4(9) has a
    # stabilizer of 12960
    assert _tables(canonical_ls(descriptor("O-", 3, n=4)).plan) == ["front"]
    assert _tables(canonical_ls(descriptor("O-", 5, n=4)).plan) == ["stab"]
    assert _tables(canonical_ls(descriptor("Oodd", 3, n=5)).plan) == ["stab", "front"]
    assert _tables(canonical_ls(descriptor("O+", 3, n=6)).plan) == [None, "front"]
    assert _tables(canonical_ls(descriptor("O-", 9, n=4)).plan) == [None]
    front = canonical_ls(descriptor("O-", 3, n=4)).plan.front
    assert len(front._rows) == 1440 and front.ivs.shape == (1440, front.width)
    plan = canonical_ls(descriptor("O-", 5, n=4)).plan
    assert len(plan.stab._rows) == 1200
    assert plan.stab.ivs.shape == (1200, plan.width - plan.head.shape[1])


@pytest.mark.parametrize("fam,q,n", [("O-", 3, 4), ("SO+", 3, 4), ("O+", 3, 6), ("Oodd", 3, 5),
                                     ("Oodd", 9, 3), ("PSOodd", 3, 5), ("O-", 5, 4), ("O+", 5, 4),
                                     ("O+", 7, 4), ("Oodd", 3, 7)])
def test_the_front_answers_as_the_stage_path_does(fam, q, n):
    # members are answered by one lookup, at the first stage with a front
    # or stabilizer table; everything else goes down the stage path, with
    # its digits and errors
    import numpy as np

    ls = canonical_ls(descriptor(fam, q, n=n))
    rng = random.Random(3)
    members = [compose(unrank(rng.randrange(ls.claimed_order), ls), ls).a for _ in range(20)]
    bare_plan = _without_tables(ls.plan)
    A = np.stack(members + _mixed_elements(ls, 3, 40) + _border_perturbed(bare_plan, members, 3))
    stats, bare_stats = {}, {}
    digits, errors = ls.plan.decode_many(A, stats)
    bare, bare_errors = bare_plan.decode_many(A, bare_stats)
    assert np.array_equal(digits, bare)
    assert {r: (type(e), str(e)) for r, e in errors.items()} == \
        {r: (type(e), str(e)) for r, e in bare_errors.items()}
    assert not set(range(20)) & set(errors)
    assert stats["lookups"] >= 20 and stats.get("mults", 0) < bare_stats["mults"]


@pytest.mark.parametrize("fam,q,n,want", [
    ("O-", 5, 4, {"mults": 2, "lookups": 1}), ("O+", 5, 4, {"mults": 2, "lookups": 1}),
    ("Oodd", 3, 5, {"mults": 2, "lookups": 1}), ("O-", 9, 4, {"mults": 4, "lookups": 1}),
    ("O+", 3, 6, {"mults": 4, "lookups": 1})])
def test_a_member_decode_counts_its_products_and_lookups(fam, q, n, want):
    # below a stabilizer table: into the frame and hw, then one lookup;
    # without one the border adds E(-u) and E(-u) hw, and the tail its own
    # lookup
    ls = canonical_ls(descriptor(fam, q, n=n))
    rng = random.Random(5)
    for _ in range(10):
        iv = unrank(rng.randrange(ls.claimed_order), ls)
        assert tame_factor(compose(iv, ls), ls) == iv
        stats = {}
        ls.plan.decode_many(compose(iv, ls).a[None], stats)
        assert stats == want


def _matrix_path_decode_into(plan, Z, rows, out, errors, col, stats):
    """The stage decode with the full Eichler matrix E(-u) multiplied into
    hw and the border of E(-u) hw compared with d(lam) entry by entry, as
    it was before the residue went to closed form; the reference for
    `_StagePlan._decode_into`."""
    import numpy as np

    from orthosig import forms
    from orthosig.lscore import LsError, _StagePlan, _reject

    if not isinstance(plan, _StagePlan):
        return plan._decode_into(Z, rows, out, errors, col, stats)
    if not len(rows):
        return
    fq, R, SP, n = plan.space.fq, plan.R, plan.SP, plan.n
    ZT = fq.mat_mul(Z, plan.enter)
    found = [plan._points.get(np.ascontiguousarray(v).tobytes()) for v in ZT[:, :, 0]]
    alive = np.array([p is not None for p in found])
    for r, v in zip(rows[~alive].tolist(), ZT[~alive, :, 0]):
        errors[r] = (LsError("element does not move the base point inside the singular set") if v.any() else
                     forms.GeometryError("zero vector has no projective point"))
    # a missed row goes on through point 0
    pt = np.array([0 if p is None else p for p in found], dtype=np.intp)
    hw = fq.mat_mul(plan.strips[pt], ZT)
    lam = hw[:, 0, 0]
    if stats is not None:
        stats["mults"] = stats.get("mults", 0) + len(rows) + int(alive.sum())
    alive &= ~_reject(errors, rows, alive & ((lam == 0) | hw[:, 1:, 0].any(axis=1)), LsError,
                      "element does not stabilize the base point")
    u = fq.v_scale(lam[:, None], hw[:, :, R])
    u[:, [0, R]] = 0
    digits = np.concatenate(
        [plan.head[pt], fq.digits[u[:, SP]].reshape(len(rows), -1), plan.gl1_digits[lam]], axis=1)
    out[rows, col:col + digits.shape[1]] = digits
    yw = fq.mat_mul(forms.eichler(fq, plan.work_gram, 0, fq.v_neg(u)), hw)
    d = np.broadcast_to(fq.identity(n), yw.shape).copy()
    d[:, 0, 0], d[:, R, R] = lam, fq.INV[lam]
    border = np.zeros((n, n), dtype=bool)
    border[[0, R]] = border[:, [0, R]] = True
    if stats is not None:
        stats["mults"] += 2 * int(alive.sum())
    alive &= ~_reject(errors, rows, alive & ((yw != d) & border).any(axis=(1, 2)),
                      LsError, "stabilizer residue is not block diagonal")
    _matrix_path_decode_into(plan.sub, yw[alive][:, SP[:, None], SP], rows[alive], out, errors,
                             col + digits.shape[1], stats)


def _border_perturbed(plan, members, seed):
    """Members changed in one entry of row R (f_0) or of row 0 (e_0) of the
    stage matrix hw = S Z E, in alternation, at a column of SP: Z + S^-1 D E^-1
    for the strip S of Z's point and E = plan.enter.  Column 0 of hw, and
    with it the point, stays; a row-R change leaves row 0 of hw and the
    Siegel coordinates alone, and a row-0 change leaves row R alone."""
    import numpy as np

    fq, rng = plan.space.fq, random.Random(seed)
    Einv = fq.mat_inv(plan.enter)
    out = []
    for i, Z in enumerate(members):
        pt = plan._points[np.ascontiguousarray(fq.mat_mul(Z, plan.enter)[:, 0]).tobytes()]
        D = np.zeros_like(Z)
        D[(plan.R, 0)[i % 2], rng.choice(plan.SP.tolist())] = rng.randrange(1, fq.q)
        S_inv = fq.mat_inv(plan.strips[pt])
        out.append(fq.v_add(Z, fq.mat_mul(fq.mat_mul(S_inv, D), Einv)))
    return out


def _mislabeled_points(plan):
    """The plan with every other singular line's vectors filed under the
    next line: a stage matrix read through the wrong strip moves the line
    of e_0, which no element does through a consistent table, so this is
    the one way to fail column 0 alone."""
    import numpy as np

    from orthosig.fields import replace

    lines = plan.strips.shape[0]
    return replace(plan, point=np.where(plan.point % 2 == 0, (plan.point + 1) % lines, plan.point))


@pytest.mark.parametrize("fam,q,n", [
    ("O-", 3, 4), ("O+", 3, 4), ("O-", 5, 4), ("O+", 5, 4), ("O-", 9, 4), ("O+", 9, 4),
    ("O-", 25, 4), ("O+", 25, 4), ("Oodd", 3, 5), ("O+", 3, 6), ("O+", 3, 8),
    ("SO-", 3, 4), ("SO+", 5, 4), ("SO-", 9, 4), ("SOodd", 3, 5), ("SO+", 3, 6), ("PSOodd", 3, 5)])
def test_closed_form_residue_matches_the_matrix_path(fam, q, n):
    # members, scalar multiples, one-entry perturbations, random matrices,
    # zeros and negatives, members that fail only row f_0 or only row e_0
    # of the border, and everything again through a table that fails only
    # column 0: the same digits (failing rows included), errors and stats
    # as multiplying the whole Eichler matrix in.  Both run without the
    # product tables, so that every element takes the stage path
    import numpy as np

    ls = canonical_ls(descriptor(fam, q, n=n))
    bare = _without_tables(ls.plan)
    mixed = _mixed_elements(ls, 7, 40)
    rows_only = _border_perturbed(bare, [compose(unrank(v, ls), ls).a for v in range(0, 400, 10)], 7)
    A = np.stack(mixed + rows_only)
    messages = set()
    for plan in (bare, _mislabeled_points(bare)):
        stats = {}
        digits, errors = plan.decode_many(A, stats)
        want, want_errors, want_stats = np.zeros_like(digits), {}, {}
        _matrix_path_decode_into(plan, A, np.arange(len(A)), want, want_errors, 0, want_stats)
        assert np.array_equal(digits, want)
        assert {r: (type(e), str(e)) for r, e in errors.items()} == \
            {r: (type(e), str(e)) for r, e in want_errors.items()}
        assert stats == want_stats
        assert len(errors) < len(A)
        messages |= {str(e) for e in errors.values()}
        if plan is bare:
            assert all(str(errors.get(r)) == "stabilizer residue is not block diagonal"
                       for r in range(len(mixed), len(A)))
    assert {"element does not stabilize the base point",
            "stabilizer residue is not block diagonal"} <= messages


def _failing_rows(plan):
    """One element for each way a stage row can fail, each with the plan it
    goes through.  Most are built as stage matrices hw in the working frame
    and moved to the input frame through the strip S of singular point 0:
    Z = S^-1 hw E^-1 with E = plan.enter, so that Z E has column 0 on that
    point's line whenever hw has column 0 on the line of e_0."""
    import numpy as np

    fq, n, R, SP = plan.fq, plan.n, plan.R, plan.SP
    Einv = fq.mat_inv(plan.enter)

    def from_hw(*entries):
        hw = fq.identity(n)
        for i, j, c in entries:
            hw[i, j] = c
        return fq.mat_mul(fq.mat_mul(fq.mat_inv(plan.strips[0]), hw), Einv)

    # Z E = M: column 0 is the first e_i or e_i + e_j on no singular line
    I = fq.identity(n)
    off = next(v for v in [*I, *(fq.v_add(a, b) for a in I for b in I)] if v.tobytes() not in plan._points)
    M = I.copy()
    M[:, 0] = off
    return {
        "zero": (plan, np.zeros((n, n), dtype=np.int16)),
        "zero column 0": (plan, from_hw((0, 0, 0))),
        "off the singular set": (plan, fq.mat_mul(M, Einv)),
        "row f_0": (plan, from_hw((R, SP[0], 1))),
        "row e_0": (plan, from_hw((0, SP[0], 1))),
        # through a table that files point 0 under point 1, the one way
        # to fail column 0 alone
        "column 0": (_mislabeled_points(_without_tables(plan)), from_hw()),
        # a shear on SP has order p, prime to the order 2(q + 1) of the
        # isometries of the anisotropic plane SP, so the base table lacks it
        "table miss": (plan, from_hw((SP[0], SP[1], 1))),
    }


# the error decode_many names for each way a stage row fails, recorded
# while the stage step still searched sorted base-q keys
FAILING_ROW_ERRORS = {
    "zero": ("GeometryError", "zero vector has no projective point"),
    "zero column 0": ("GeometryError", "zero vector has no projective point"),
    "off the singular set": ("LsError", "element does not move the base point inside the singular set"),
    "row f_0": ("LsError", "stabilizer residue is not block diagonal"),
    "row e_0": ("LsError", "stabilizer residue is not block diagonal"),
    "column 0": ("LsError", "element does not stabilize the base point"),
    "table miss": ("LsError", "element is not covered by this signature"),
}


@pytest.mark.parametrize("fam,q", [("O-", 3), ("O-", 9)])
def test_decode_many_names_the_error_of_each_failing_row(fam, q):
    # O-4(3) has a front table and O-4(9) none; each row fails at its own
    # branch of the stage step or of the base-case table below it, and the
    # one-element decode raises the same error
    from orthosig.matgroups import Mat

    ls = canonical_ls(descriptor(fam, q, n=4))
    got, raised = {}, {}
    for name, (plan, Z) in _failing_rows(ls.plan).items():
        _, errors = plan.decode_many(Z[None])
        got[name] = (type(errors[0]).__name__, str(errors[0]))
        with pytest.raises(Exception) as exc:
            plan.decode(Mat(plan.fq, Z))
        raised[name] = (type(exc.value).__name__, str(exc.value))
    assert got == raised == FAILING_ROW_ERRORS


# every group whose plan bytes are pinned, and O-4(5), the one group of the
# decode benchmark missing from them
ONE_PATH_GROUPS = sorted(PLAN_SHA256) + [("O-", 5, 4)]


@pytest.mark.parametrize("fam,q,n", ONE_PATH_GROUPS)
def test_one_element_decode_answers_as_the_stack_path_does(fam, q, n):
    # the dict path of plan.decode against decode_many of the one-element
    # stack, through the real plan, through one whose points are
    # mislabelled and through one without product tables, whose every
    # stage takes the Siegel step, on the inputs of the closed-form residue
    # test: the same digits or the same error, and whatever _decode_one
    # accepts recomposes to the element itself
    from orthosig.matgroups import Mat

    ls = canonical_ls(descriptor(fam, q, n=n))
    fq = ls.blocks[0][0].fq
    members = [compose(unrank(v, ls), ls).a for v in range(0, ls.claimed_order, ls.claimed_order // 40)]
    others = _mixed_elements(ls, 7, 40) + _border_perturbed(ls.plan, members, 7)
    mislabeled = _mislabeled_points(ls.plan)
    for plan in (ls.plan, mislabeled, _without_tables(ls.plan)):
        for i, g in enumerate(members + others):
            digits, errors = plan.decode_many(g[None])
            got = _decode_one(plan, fq, g, None)
            if errors:
                assert (type(got), str(got)) == (type(errors[0]), str(errors[0]))
            else:
                assert got == digits[0].tolist()
            one = plan._decode_one(g)
            if plan is not mislabeled and i < len(members):
                # a member never needs the stack path
                assert one is not None
            if one is not None:
                assert not errors and one == got
                assert compose(tuple(one), ls) == Mat(fq, g)


def _stages(plan):
    """The stage plans of a plan, top first."""
    from orthosig.lscore import _StagePlan

    while isinstance(plan, _StagePlan):
        yield plan
        plan = plan.sub


@pytest.mark.parametrize("fam,q,n", sorted(PLAN_SHA256))
def test_the_siegel_table_of_every_stage_is_exact(fam, q, n):
    # q^|SP| distinct rows E(u), the first the identity, each times E(-u)
    # on its row the identity: the maps along every u on SP, once each
    import numpy as np

    for stage in _stages(canonical_ls(descriptor(fam, q, n=n)).plan):
        fq, E, E_inv = stage.fq, stage.siegel, stage.siegel_inv
        assert E.shape == E_inv.shape == (q ** len(stage.SP), n, n)
        assert (fq.mat_mul(E, E_inv) == fq.identity(n)).all()
        assert (E[0] == fq.identity(n)).all()
        assert len({a.tobytes() for a in E}) == len(E)
        n -= 2


@pytest.mark.parametrize("fam,q,n", ONE_PATH_GROUPS)
def test_a_wrong_siegel_table_only_fails_to_decode(fam, q, n):
    # with the E(-u) rows of every stage rotated by one, no member decodes
    # to wrong digits: each one that reaches a Siegel step fails, on both
    # paths, with the error the stack path names
    import numpy as np

    from orthosig.fields import replace
    from orthosig.lscore import LsError, _StagePlan
    from orthosig.matgroups import Mat

    def rotated(plan):
        if not isinstance(plan, _StagePlan):
            return plan
        return replace(plan, siegel_inv=np.roll(plan.siegel_inv, 1, axis=0), sub=rotated(plan.sub))

    ls = canonical_ls(descriptor(fam, q, n=n))
    fq = ls.blocks[0][0].fq
    members = [compose(unrank(v, ls), ls).a for v in range(0, ls.claimed_order, ls.claimed_order // 40)]
    for plan in (rotated(ls.plan), rotated(_without_tables(ls.plan))):
        digits, errors = plan.decode_many(np.stack(members))
        for i, g in enumerate(members):
            want = ls.plan.decode(Mat(fq, g))
            if i in errors:
                assert (type(errors[i]), str(errors[i])) == (LsError, "stabilizer residue is not block diagonal")
                with pytest.raises(LsError, match="stabilizer residue is not block diagonal"):
                    plan.decode(Mat(fq, g))
            else:
                assert digits[i].tolist() == plan.decode(Mat(fq, g)) == want
        if plan.front is None and plan.stab is None:
            assert len(errors) == len(members)


@pytest.mark.parametrize("fam,q,n", ONE_PATH_GROUPS)
def test_one_element_decode_reads_any_layout_of_a_member(fam, q, n):
    # the dict keys are C-ordered int16 bytes: a transposed view, a
    # Fortran-ordered copy, a read-only copy and a wider dtype of a member
    # all decode to its digits, on both paths
    import numpy as np

    from orthosig.matgroups import Mat

    ls = canonical_ls(descriptor(fam, q, n=n))
    fq = ls.blocks[0][0].fq
    rng = random.Random(f"layout/{fam}{n}({q})")
    for _ in range(5):
        iv = unrank(rng.randrange(ls.claimed_order), ls)
        g = compose(iv, ls).a
        frozen = g.copy()
        frozen.setflags(write=False)
        for view in (np.ascontiguousarray(g.T).T, np.asfortranarray(g), frozen):
            assert np.array_equal(view, g)
            assert ls.plan._decode_one(view) == list(iv)
            assert ls.plan.decode(Mat(fq, view)) == list(iv)
            assert ls.plan.decode_many(view[None])[0][0].tolist() == list(iv)
        assert ls.plan.decode_many(g[None].astype(np.int64))[0][0].tolist() == list(iv)


def test_plan_decoders_take_only_codes_of_the_plan_field():
    # 4 I and the float stack 1.7 I used to decode as the identity of
    # O-4(3), and code 200 against O-4(9) ended in a bare numpy IndexError
    import numpy as np

    from orthosig.fields import fq_context
    from orthosig.lscore import LsError
    from orthosig.matgroups import Mat

    plan = canonical_ls(descriptor("O-", 3, n=4)).plan
    eye = np.eye(4, dtype=np.int16)
    bad_code = "stack has an entry outside the codes 0..2 of F_3"
    for stack in (4 * eye[None], -eye[None], (eye + 65536 * np.eye(4, dtype=np.int64))[None]):
        with pytest.raises(LsError, match=bad_code):
            plan.decode_many(stack)
    with pytest.raises(LsError, match="expected integer codes of F_3, got dtype float64"):
        plan.decode_many(1.7 * eye[None])
    for a in (4 * eye, -eye):
        with pytest.raises(LsError, match=bad_code):
            plan.decode(Mat(fq_context(3, 1), a))
    big = canonical_ls(descriptor("O-", 9, n=4)).plan
    with pytest.raises(LsError, match="outside the codes 0..8 of F_9"):
        big.decode_many(200 * eye[None])
    with pytest.raises(LsError, match="outside the codes 0..8 of F_9"):
        big.decode(Mat(fq_context(3, 2), 200 * eye))
    # a negative int8 code reads as 128..255 unsigned, which is below q = 131
    base = canonical_ls(descriptor("O-", 131, n=2)).plan
    for a in (np.array([[-128, 0], [0, 1]], dtype=np.int8), np.array([[-1, 0], [0, 1]], dtype=np.int64)):
        with pytest.raises(LsError, match="outside the codes 0..130 of F_131"):
            base.decode_many(a[None])
    # the shape is checked first, and codes in range still decode
    with pytest.raises(LsError, match=r"got shape \(1, 3, 3\)"):
        plan.decode_many(4 * np.eye(3, dtype=np.int16)[None])
    assert plan.decode_many(eye[None].astype(np.uint8))[0].tolist() == [plan.decode(Mat(fq_context(3, 1), eye))]


# the survey grid of scripts/survey_constructions.py, O-4(9) (e > 1) and
# both parities of PSO
COMPOSE_GROUPS = [
    ("O-", 3, 2), ("O+", 3, 2), ("SO-", 3, 2), ("SO+", 3, 2),
    ("Oodd", 3, 1), ("Oodd", 3, 3), ("Oodd", 3, 5),
    ("O-", 3, 4), ("O+", 3, 4), ("SO-", 3, 4), ("SO+", 3, 4),
    ("PSO-", 3, 4), ("PSO+", 3, 4),
    ("O-", 5, 4), ("O+", 5, 4), ("Oodd", 5, 3),
    ("O-", 3, 6), ("O+", 3, 6),
    ("O-", 9, 4), ("PSOodd", 3, 3), ("PSOodd", 5, 3),
]


@pytest.mark.parametrize("fam,q,n", COMPOSE_GROUPS)
def test_compose_is_the_left_to_right_product(fam, q, n):
    # through the tables built with the signature, and through tables built
    # per call from the blocks of a plain copy
    ls = canonical_ls(descriptor(fam, q, n=n))
    assert ls.tables is not None
    copy = LogSignature(ls.group, [list(b) for b in ls.blocks], ls.claimed_order)
    rng = random.Random(f"compose/{fam}{n}({q})")
    for _ in range(25):
        iv = unrank(rng.randrange(ls.claimed_order), ls)
        want = Mat(ls.blocks[0][0].fq, ls.blocks[0][0].fq.identity(n))
        for blk, i in zip(ls.blocks, iv):
            want = want * blk[i]
        assert compose(iv, ls) == want == compose(iv, copy)


def test_compose_through_seven_segments_over_f1543():
    # 65 * 65 > PRODUCT_CHUNK, so each block is its own segment, and at
    # p = 1543 the int64 running product must be reduced once on the way
    # through the seven tables; a hand-made signature, not a group
    import numpy as np

    from orthosig.fields import fq_context
    from orthosig.matgroups import Mat

    fq = fq_context(1543, 1)
    rng = np.random.default_rng(1543)
    blocks = [[Mat(fq, a) for a in rng.integers(0, fq.q, (65, 3, 3))] for _ in range(7)]
    ls = LogSignature(None, blocks, 65 ** 7)
    assert len(ls.product_tables().tables) == 7
    for v in random.Random(1543).sample(range(ls.claimed_order), 200):
        iv = unrank(v, ls)
        want = Mat(fq, fq.identity(3))
        for blk, i in zip(blocks, iv):
            want = want * blk[i]
        assert compose(iv, ls) == want


def _one_row_cases():
    # the COMPOSE_GROUPS signatures and the seven-segment F_1543 one
    import numpy as np

    from orthosig.fields import fq_context
    from orthosig.matgroups import Mat

    for fam, q, n in COMPOSE_GROUPS:
        yield f"{fam}{n}({q})", canonical_ls(descriptor(fam, q, n=n))
    fq = fq_context(1543, 1)
    rng = np.random.default_rng(1543)
    blocks = [[Mat(fq, a) for a in rng.integers(0, fq.q, (65, 3, 3))] for _ in range(7)]
    yield "F_1543", LogSignature(None, blocks, 65 ** 7)


def test_one_row_product_is_the_stack_product_byte_for_byte():
    # on the all-zero, all-last and 25 seeded index vectors of each
    import numpy as np

    for name, ls in _one_row_cases():
        tables = ls.product_tables()
        rng = random.Random(f"product/{name}")
        ivs = [tuple(0 for _ in ls.sizes), tuple(s - 1 for s in ls.sizes)]
        ivs += [tuple(unrank(rng.randrange(ls.claimed_order), ls)) for _ in range(25)]
        for iv in ivs:
            one, stacked = tables.product(iv), tables.products([iv])[0]
            assert one.shape == stacked.shape == (tables.n, tables.n), name
            assert one.dtype == stacked.dtype == np.int16, name
            assert one.tobytes() == stacked.tobytes(), (name, iv)


def test_composed_elements_are_read_only():
    # on one segment the composed element is a view of a table row, so a
    # write to it must raise and leave the table as it was
    for fam, q, n, segments in [("O-", 3, 4, 1), ("O+", 5, 4, 2), ("O+", 3, 6, 3)]:
        ls = canonical_ls(descriptor(fam, q, n=n))
        assert len(ls.product_tables().tables) == segments
        for v in (0, ls.claimed_order - 1, ls.claimed_order // 3):
            g = compose(unrank(v, ls), ls)
            with pytest.raises(ValueError, match="read-only"):
                g.a[0, 0] = (g.a[0, 0] + 1) % q
            assert compose(unrank(v, ls), ls) == g


def test_plan_decode_of_the_wrong_size_raises_the_stack_message():
    import numpy as np

    from orthosig.lscore import LsError

    ls = canonical_ls(descriptor("O-", 3, n=4))
    fq = ls.blocks[0][0].fq
    small = Mat(fq, fq.identity(3))
    with pytest.raises(LsError) as many:
        ls.plan.decode_many(small.a[None])
    with pytest.raises(LsError) as one:
        ls.plan.decode(small)
    assert str(one.value) == str(many.value) == \
        "expected a stack of 4x4 matrices, got shape (1, 3, 3)"
    assert np.array_equal(ls.plan.decode_many(np.stack([fq.identity(4)]))[0],
                          [ls.plan.decode(Mat(fq, fq.identity(4)))])


def test_indices_and_ranks_must_be_integers():
    # a float index or rank used to be taken as it came: 1.5 composed as
    # index 1, ranked as 6.5, and a float rank unranked to float digits
    import numpy as np

    ls = canonical_ls(descriptor("O-", 3, n=4))
    rest = (0,) * (len(ls.blocks) - 2)
    for bad in (1.5, 1.0, "1", None):
        iv = (bad, 1) + rest
        for f in (compose, rank):
            with pytest.raises(FactorError, match="block 0 is not an integer"):
                f(iv, ls)
    for bad in (5.7, 5.0, "5"):
        with pytest.raises(FactorError, match="is not an integer"):
            unrank(bad, ls)
    # numpy integers are integers, and what comes out is Python ints
    iv = unrank(700, ls)
    wide = tuple(np.int64(x) for x in iv)
    assert compose(wide, ls) == compose(iv, ls)
    assert rank(wide, ls) == 700 and type(rank(wide, ls)) is int
    assert unrank(np.int64(700), ls) == iv
    assert all(type(x) is int for x in unrank(np.int64(700), ls))
    with pytest.raises(FactorError, match=r"index 7 out of range \[0, 5\) in block 0"):
        rank((np.int16(7), 1) + rest, ls)


def test_tame_factor_takes_only_codes_of_the_signature_field():
    # each of these used to decode: 4 I over F_5 as the identity of O-4(3)
    # (4 = 1 mod 3), -I as -I, and code 200 against O-4(9) ended in a bare
    # numpy IndexError
    import numpy as np

    from orthosig.fields import fq_context
    from orthosig.matgroups import Mat

    ls = canonical_ls(descriptor("O-", 3, n=4))
    with pytest.raises(FactorError, match="element is over F_5, signature is over F_3"):
        tame_factor(Mat(fq_context(5, 1), 4 * np.eye(4)), ls)
    with pytest.raises(FactorError, match="outside the codes 0..2 of F_3"):
        tame_factor(Mat(fq_context(3, 1), -np.eye(4)), ls)
    with pytest.raises(FactorError, match="element is over F_9, signature is over F_3"):
        tame_factor(Mat(fq_context(3, 2), np.eye(4)), ls)
    big = canonical_ls(descriptor("O-", 9, n=4))
    with pytest.raises(FactorError, match="outside the codes 0..8 of F_9"):
        tame_factor(Mat(fq_context(3, 2), 200 * np.eye(4)), big)
    # an equal context built anew is the same field
    from orthosig.fields import FqContext

    assert tame_factor(Mat(FqContext(3, 1), np.eye(4)), ls) == \
        tame_factor(Mat(fq_context(3, 1), fq_context(3, 1).identity(4)), ls)


def test_tame_factor_checks_the_codes_once_and_never_hands_them_to_membership(monkeypatch):
    # the plan's decoder reads the entries of an element once, and an
    # entry that is not a code ends in tame_factor's own error, before any
    # membership test, and in a CodeError on the counted stack path
    import numpy as np

    from orthosig import factorize
    from orthosig.fields import fq_context
    from orthosig.lscore import CodeError

    def no_membership(*args):
        raise AssertionError("membership was consulted")

    monkeypatch.setattr(factorize.forms, "membership", no_membership)
    for fam, q, p, e, bad in [("O-", 3, 3, 1, -1), ("O-", 3, 3, 1, 3), ("O-", 9, 3, 2, 200), ("O+", 5, 5, 1, 7)]:
        ls = canonical_ls(descriptor(fam, q, n=4))
        a = np.eye(4, dtype=np.int16)
        a[1, 2] = bad
        with pytest.raises(FactorError, match=f"^element has an entry outside the codes 0..{q - 1} of F_{q}$"):
            tame_factor(Mat(fq_context(p, e), a), ls)
        with pytest.raises(CodeError):
            ls.plan.decode_many(a[None], {})


@pytest.mark.parametrize("fam,q,n", [("O-", 3, 4), ("O+", 5, 4), ("O+", 3, 6), ("O-", 9, 4)])
def test_a_member_with_one_entry_moved_by_q_is_refused_on_every_decode_path(fam, q, n, monkeypatch):
    # entry + q and entry - q are congruent to the entry mod p, so a product
    # read back through the residue table would map the matrix onto the
    # member: the front table (O-4(3)), the stabilizer table (O+4(5)), the
    # Siegel step (O+6(3)) and the extension-field gathers (O-4(9)) must
    # each refuse it as a non-code, before any membership test
    import numpy as np

    from orthosig import factorize
    from orthosig.lscore import CodeError
    from orthosig.matgroups import Mat

    def no_membership(*args):
        raise AssertionError("membership was consulted")

    monkeypatch.setattr(factorize.forms, "membership", no_membership)
    ls = canonical_ls(descriptor(fam, q, n=n))
    fq = ls.plan.fq
    rng = random.Random(f"congruent/{fam}{n}({q})")
    for _ in range(4):
        member = compose(unrank(rng.randrange(ls.claimed_order), ls), ls).a
        i, j = rng.randrange(n), rng.randrange(n)
        for shift in (q, -q):
            bad = member.copy()
            bad[i, j] += shift
            with pytest.raises(FactorError, match=f"^element has an entry outside the codes 0..{q - 1} of F_{q}$"):
                tame_factor(Mat(fq, bad), ls)
            with pytest.raises(CodeError):
                ls.plan.decode_many(bad[None], {})


def test_the_trivial_group_composes_and_factors_its_one_element():
    # SO_1 has no blocks: its one index vector is (), whose product is I
    ls = canonical_ls(descriptor("SOodd", 3, n=1))
    one = compose((), ls)
    assert one == Mat(one.fq, one.fq.identity(1))
    assert tame_factor(one, ls) == () == unrank(0, ls) and rank((), ls) == 0
