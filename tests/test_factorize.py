import random

import pytest

from orthosig.factorize import (
    FactorError,
    IndexVector,
    compose,
    rank,
    tame_factor,
    unrank,
)
from orthosig.lscore import LogSignature, canonical_ls
from orthosig.matgroups import descriptor, identity


def test_identity_decodes_to_zero():
    ls = canonical_ls(descriptor("O-", 3, n=4))
    fq = ls.blocks[0][0].fq
    iv = tame_factor(identity(fq, 4), ls)
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
    layer_kind, (gen, size, radices, _) = ls.plan.layers[0]
    assert layer_kind == "cyc" and size == 5 and radices == [5]
    g = gen.pow(3)
    iv = tame_factor(g, ls)
    assert iv.indices[0] == 3
    assert all(i == 0 for i in iv.indices[1:])


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
    assert unrank(0, ls) == IndexVector((0,) * len(ls.blocks))
    for v in range(8):
        assert rank(unrank(v, ls), ls) == v


def test_rank_mixed_radix_example():
    # block sizes (2, 3, 2): rank((1, 2, 1)) = 1 + 2*2 + 1*6 = 11
    fq = canonical_ls(descriptor("O-", 3, n=2)).blocks[0][0].fq
    from orthosig.matgroups import identity as _id

    I = _id(fq, 2)
    ls = LogSignature(None, [[I, I], [I, I, I], [I, I]], 12)
    assert rank(IndexVector((1, 2, 1)), ls) == 11
    assert unrank(11, ls) == IndexVector((1, 2, 1))


def test_out_of_range_errors():
    ls = canonical_ls(descriptor("O-", 3, n=2))
    with pytest.raises(FactorError):
        unrank(8, ls)
    with pytest.raises(FactorError):
        rank(IndexVector((9, 0, 0)), ls)


def test_not_in_group():
    ls = canonical_ls(descriptor("O-", 3, n=4))
    import numpy as np

    from orthosig import forms
    from orthosig.lscore import space_for
    from orthosig.matgroups import Mat

    fq = ls.blocks[0][0].fq
    shear = np.eye(4, dtype=np.int16)
    shear[0, 2] = 1
    bad = Mat(fq, shear)
    assert not forms.is_isometry(space_for(ls.group), bad)
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
        stats = {}
        assert tame_factor(g, ls, stats) == iv
        # generous bound: a handful of products per stage, depth m
        assert stats.get("mults", 0) <= 12 * 3


from hypothesis import given, strategies as st


@given(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**6))
def test_hypothesis_rank_unrank_roundtrip(sizes, seedval):
    import numpy as np

    from orthosig.fields import fq_context
    from orthosig.matgroups import identity as _id

    fq = fq_context(3, 1)
    I = _id(fq, 2)
    total = 1
    for s in sizes:
        total *= s
    ls = LogSignature(None, [[I] * s for s in sizes], total)
    v = seedval % total
    iv = unrank(v, ls)
    assert rank(iv, ls) == v
    assert all(0 <= x < s for x, s in zip(iv.indices, sizes))
