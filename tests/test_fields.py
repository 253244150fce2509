import hashlib
import itertools
import random

import numpy as np
import pytest
from fieldpins import GF_PINS, MODULI
from hypothesis import given, strategies as st
from leibniz import det_by_permutations, rref_by_rows

from orthosig.fields import (
    FieldError,
    LevelMismatch,
    bar,
    factorint,
    field_arith,
    fq_context,
    make_tower,
    smallest_irreducible,
    split_prime_power,
    trace_to_base,
)


def test_factorint():
    assert factorint(1) == {}
    assert factorint(1440) == {2: 5, 3: 2, 5: 1}
    assert split_prime_power(9) == (3, 2)
    with pytest.raises(FieldError):
        split_prime_power(12)


def test_smallest_irreducible_low_degree_first():
    # over F_3 the first monic irreducible quadratic in low-degree-first
    # lexicographic order is x^2 + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert smallest_irreducible(3, 1) == (0, 1)


def _divides(p, g, m):
    """Whether the monic g divides m over F_p, both low degree first: the
    remainder of schoolbook long division is zero."""
    r, dg = list(m), len(g) - 1
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k]
        if c:
            for i, gi in enumerate(g):
                r[k - dg + i] = (r[k - dg + i] - c * gi) % p
    return not any(r[:dg])


def _irreducible_by_trial_division(p, m):
    """No monic polynomial of degree 1 .. deg(m) / 2 divides m."""
    d = len(m) - 1
    return not any(_divides(p, list(tail) + [1], m)
                   for k in range(1, d // 2 + 1) for tail in itertools.product(range(p), repeat=k))


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_smallest_irreducible_matches_brute_force_scan(p, d):
    # the root pre-test and Rabin's test pick the first candidate, in
    # low-degree-first order, that trial division finds irreducible
    first = next(tuple(tail) + (1,) for tail in itertools.product(range(p), repeat=d)
                 if _irreducible_by_trial_division(p, list(tail) + [1]))
    assert smallest_irreducible(p, d) == first


def test_moduli_match_their_pins():
    assert {pd: smallest_irreducible(*pd) for pd in MODULI} == MODULI


def test_primitive_elements_and_exp_tables_match_their_pins():
    from orthosig.fields import GF

    for (p, d), pin in GF_PINS.items():
        gf = GF(p, d)
        assert (gf.alpha, hashlib.sha256(gf.exp.tobytes()).hexdigest()) == pin, (p, d)


def test_smallest_irreducible_does_not_depend_on_the_root_test_stack(monkeypatch):
    # stacks from one candidate up, cut anywhere across the candidates the
    # root test rejects, give the result of a single stack
    from orthosig import fields

    for p, d in [(3, 4), (3, 8), (5, 3), (7, 2)]:
        want = smallest_irreducible(p, d)
        for chunk in (1, 7, 50):
            monkeypatch.setattr(fields, "_ROOT_CHUNK", chunk)
            assert smallest_irreducible.__wrapped__(p, d) == want


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 4), (3, 8)])
def test_exp_table_matches_repeated_multiplication(p, d):
    from orthosig.fields import GF

    gf = GF(p, d)
    rng = random.Random(p * 100 + d)
    alpha = list(gf.coeffs(gf.alpha))
    for k in [0, 1, 2, gf.order - 2] + [rng.randrange(gf.order - 1) for _ in range(20)]:
        x, base, e = [1] + [0] * (d - 1), alpha, k
        while e:  # alpha^k by square-and-multiply in coefficient arithmetic
            if e & 1:
                x = _coeff_mul(p, gf.modulus, x, base)
            base = _coeff_mul(p, gf.modulus, base, base)
            e >>= 1
        code = gf.from_coeffs(x)
        assert gf.exp[k] == code
        assert gf.log[code] == k
    assert sorted(gf.exp.tolist()) == list(range(1, gf.order))


def test_tower_deterministic_constants():
    t = make_tower(3, 1, 1)
    assert t.top.modulus == (1, 0, 1)
    assert t.top.coeffs(t.alpha) == (1, 1)  # alpha = x + 1
    assert t.top.element_order(t.alpha) == 8


def test_tower_f81_alpha_order():
    t = make_tower(3, 1, 2)
    assert t.top.element_order(t.alpha) == 80


def test_tower_rejects_bad_parameters():
    with pytest.raises(FieldError):
        make_tower(2, 1, 1)
    with pytest.raises(FieldError):
        make_tower(9, 1, 1)
    with pytest.raises(FieldError):
        make_tower(3, 0, 1)
    with pytest.raises(FieldError):
        make_tower(3, 1, 0)


def test_field_arith_examples():
    t = make_tower(3, 1, 2)
    one = t.one(3)
    assert field_arith("inv", one) == one
    # in F_9 with modulus x^2 + 1: x * x = 2
    x9 = t.fe(2, (0, 1))
    assert field_arith("mul", x9, x9) == t.fe(2, (2, 0))
    # Lagrange: x^(q-1) = 1 for x in F_q*
    fq = t.fe(1, (2,))
    assert field_arith("pow", fq, 2) == t.one(1)


def test_field_arith_errors():
    t = make_tower(3, 1, 2)
    with pytest.raises(FieldError):
        field_arith("inv", t.fe(3, (0, 0, 0, 0)))
    with pytest.raises(LevelMismatch):
        field_arith("add", t.one(1), t.one(2))


def test_trace_examples():
    t = make_tower(3, 1, 2)
    assert trace_to_base(t.fe(2, (0, 0))) == t.fe(1, (0,))
    # tr_{F9/F3}(1) = 1 + 1^3 = 2
    assert trace_to_base(t.one(2)) == t.fe(1, (2,))
    # tr(x) = x + x^3 = 0 with modulus x^2 + 1
    assert trace_to_base(t.fe(2, (0, 1))) == t.fe(1, (0,))


def test_bar_examples():
    t = make_tower(3, 1, 2)
    a = t.fe(3, t.top.coeffs(t.alpha))
    assert bar(bar(a)) == a
    # subfield elements are fixed
    c = t.project(t.embed(t.fe(2, (1, 2))), 3)
    assert bar(c) == c
    # norm alpha * bar(alpha) lands in F_9
    prod = field_arith("mul", a, bar(a))
    t.project(t.embed(prod), 2)  # no LevelMismatch


def test_bulk_ring_axioms_seeded():
    t = make_tower(3, 1, 2)
    top = t.top
    rng = random.Random(99)
    for _ in range(1100):
        a, b, c = (rng.randrange(top.order) for _ in range(3))
        assert top.mul(a, b) == top.mul(b, a)
        assert top.add(a, b) == top.add(b, a)
        assert top.mul(a, top.add(b, c)) == top.add(top.mul(a, b), top.mul(a, c))
        assert top.mul(top.mul(a, b), c) == top.mul(a, top.mul(b, c))


def test_trace_linearity_and_bar_automorphism():
    t = make_tower(3, 1, 2)
    top = t.top
    rng = random.Random(5)
    qm = 9
    for _ in range(200):
        x, y = rng.randrange(top.order), rng.randrange(top.order)
        assert top.add(t.bar_code(x), t.bar_code(y)) == t.bar_code(top.add(x, y))
        assert top.mul(t.bar_code(x), t.bar_code(y)) == t.bar_code(top.mul(x, y))
    # F_q-linearity of the trace on the middle level
    sub = [t.embed(t.fe(2, (i, j))) for i in range(3) for j in range(3)]
    lams = [t.embed(t.fe(1, (c,))) for c in range(3)]
    for _ in range(300):
        x, y = rng.choice(sub), rng.choice(sub)
        lam = rng.choice(lams)
        lhs = t.trace_code(top.add(top.mul(lam, x), y), 2)
        rhs = top.add(top.mul(lam, t.trace_code(x, 2)), t.trace_code(y, 2))
        assert lhs == rhs


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=80))
def test_hypothesis_add_mul_closed_in_levels(a, b):
    t = make_tower(3, 1, 2)
    top = t.top
    s = top.add(a, b)
    m = top.mul(a, b)
    assert 0 <= s < 81 and 0 <= m < 81
    if a and b:
        assert top.mul(m, top.inv(b)) == a


def test_serialization_roundtrip():
    t = make_tower(5, 1, 2)
    d = t.to_json()
    assert d["p"] == 5 and d["e"] == 1 and d["m"] == 2
    x = t.fe(2, (3, 1))
    assert x.to_json() == {"level": 2, "coeffs": [3, 1]}


def test_e2_tower():
    t = make_tower(3, 2, 1)
    assert t.q == 9
    assert t.top.order == 81
    assert t.top.element_order(t.alpha) == 80
    assert t.top_to_vec(t.alpha).tolist() == [0, 1]


@pytest.mark.parametrize("p,e,m", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 1),
                                   (5, 2, 1), (3, 3, 1)])
def test_top_to_vec_inverts_vec_to_top_on_every_code(p, e, m):
    # the F_q read-off of the solved digits is a bijection onto F_q^2m,
    # inverted by the sum of the coordinates times the powers of alpha
    t = make_tower(p, e, m)
    top = t.top

    def vec_to_top(vec):
        acc = 0
        for j, c in enumerate(vec):
            coord = t.embed(t.fe(1, t.fq.gf.coeffs(int(c))))
            acc = top.add(acc, top.mul(top.pow(t.alpha, j), coord))
        return acc

    vecs = [t.top_to_vec(c) for c in range(top.order)]
    assert all(v.dtype == np.int16 and v.shape == (2 * m,) for v in vecs)
    assert [vec_to_top(v) for v in vecs] == list(range(top.order))


@pytest.mark.parametrize("p,e,m", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2), (5, 2, 1),
                                   (7, 1, 2)])
def test_embedding_is_the_sum_of_coefficients_times_powers_of_the_root(p, e, m):
    # every element of F_q and of F_q^m, and every twentieth of the top,
    # embeds as sum c_i theta^i, theta the root the tower picked for the
    # level's modulus (x itself at the top)
    from orthosig.fields import subfield_root

    t = make_tower(p, e, m)
    top = t.top
    for lvl, deg in t.level_degree.items():
        theta = top.p if lvl == 3 else subfield_root(top, t.moduli[lvl], deg)
        rows = list(itertools.product(range(p), repeat=deg))[::20 if lvl == 3 else 1]
        want = []
        for cs in rows:
            acc = 0
            for i, c in enumerate(cs):
                acc = top.add(acc, top.mul(c, top.pow(theta, i)))
            want.append(acc)
        assert t.embed_coeffs(lvl, rows).tolist() == want
        assert [t.embed(t.fe(lvl, cs)) for cs in rows[:5]] == want[:5]


def test_fq_context_tables():
    fq = fq_context(3, 1)
    assert fq.mul(2, 2) == 1
    assert fq.inv(2) == 2
    fq9 = fq_context(3, 2)
    for a in range(1, 9):
        assert fq9.mul(a, fq9.inv(a)) == 1


def _assert_tables_match_gf(fq, rows):
    gf = fq.gf
    for t in (fq.ADD, fq.MUL, fq.NEG, fq.INV):
        assert t.dtype.name == "int16"
    assert fq.NEG.tolist() == [gf.neg(a) for a in range(fq.q)]
    assert fq.INV.tolist() == [0] + [gf.inv(a) for a in range(1, fq.q)]
    for a in rows:
        assert fq.ADD[a].tolist() == [gf.add(a, b) for b in range(fq.q)]
        assert fq.MUL[a].tolist() == [gf.mul(a, b) for b in range(fq.q)]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_fq_context_tables_match_scalar_gf_on_every_pair(p, e):
    fq = fq_context(p, e)
    _assert_tables_match_gf(fq, range(fq.q))


def test_fq_context_tables_match_scalar_gf_on_sampled_rows_at_191():
    rng = random.Random(191)
    _assert_tables_match_gf(fq_context(191, 1), [0, 1, 190] + rng.sample(range(2, 190), 12))


def _coeff_add(p, x, y):
    return [(a + b) % p for a, b in zip(x, y)]


def _coeff_mul(p, modulus, x, y):
    """Schoolbook product of coefficient lists, reduced by the monic modulus."""
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] = (prod[i + j] + a * b) % p
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for i, mi in enumerate(modulus):
                prod[k - d + i] = (prod[k - d + i] - c * mi) % p
    return prod[:d]


@given(st.sampled_from([(3, 2), (3, 4), (3, 6), (5, 4), (7, 2), (3, 8)]),
       st.integers(min_value=0), st.integers(min_value=0))
def test_gf_scalar_ops_match_coefficient_arithmetic(pd, a, b):
    from orthosig.fields import _gf

    p, d = pd
    gf = _gf(p, d)
    a, b = a % gf.order, b % gf.order
    x, y = list(gf.coeffs(a)), list(gf.coeffs(b))
    assert list(gf.coeffs(gf.add(a, b))) == _coeff_add(p, x, y)
    assert list(gf.coeffs(gf.neg(a))) == [(-c) % p for c in x]
    assert list(gf.coeffs(gf.sub(a, b))) == _coeff_add(p, x, [(-c) % p for c in y])
    assert list(gf.coeffs(gf.mul(a, b))) == _coeff_mul(p, gf.modulus, x, y)


@pytest.mark.parametrize("p,d", [(3, 6), (5, 4)])
def test_gf_holds_no_table_beyond_order_times_degree(p, d):
    import numpy as np

    from orthosig.fields import GF

    gf = GF(p, d)
    arrays = [v for v in vars(gf).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert max(a.size for a in arrays) <= gf.order * d


@pytest.mark.parametrize("p", [181, 191, 193])
def test_v_scale_matches_scalar_mul_for_large_p(p):
    # s * u no longer fits int16 once p > 181: 190 * 190 mod 191 is 1
    import numpy as np

    fq = fq_context(p, 1)
    u = np.arange(p, dtype=np.int16)
    for s in range(p):
        got = fq.v_scale(s, u)
        assert got.dtype == np.int16
        assert got.tolist() == [fq.mul(s, x) for x in range(p)]
    # an array of scalars multiplies row by row
    table = fq.v_scale(u[:, None], u)
    assert table.dtype == np.int16
    assert table.tolist() == [[fq.mul(s, x) for x in range(p)] for s in range(p)]


@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_det_of_a_stack_matches_the_leibniz_expansion(pe, n, seed):
    import numpy as np

    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, fq.q, (6, n, n)).astype(np.int16)
    stack[1, -1] = 0                                   # a zero row
    stack[2, :, 0] = fq.v_scale(2, stack[2, :, -1])    # dependent columns
    stack[3] = np.triu(stack[3])                       # pivots on the diagonal
    got = fq.det(stack)
    assert got.dtype == np.int16
    want = [det_by_permutations(fq, a) for a in stack]
    assert got.tolist() == want == [fq.det(a) for a in stack]
    assert fq.det(stack[:1]).tolist() == want[:1]


ELIMINATION_FIELDS = st.sampled_from([(3, 1), (5, 1), (3, 2)])  # q = 3, 5, 9


@given(ELIMINATION_FIELDS, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_solve_with_many_right_hand_sides_matches_one_column_solves(pe, rows, n, k, seed):
    # some columns of A are zero and some columns of b are images A x, so
    # the draws mix consistent and inconsistent columns
    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, fq.q, (rows, n)).astype(np.int16)
    A[:, rng.random(n) < 0.4] = 0
    b = rng.integers(0, fq.q, (rows, k)).astype(np.int16)
    images = rng.random(k) < 0.7
    b[:, images] = fq.mat_mul(A, rng.integers(0, fq.q, (n, k)).astype(np.int16))[:, images]
    cols = []
    for j in range(k):
        try:
            cols.append(fq.solve(A, b[:, j]))
        except FieldError:
            cols.append(None)
    if any(x is None for x in cols):
        with pytest.raises(FieldError):
            fq.solve(A, b)
        return
    X = fq.solve(A, b)
    assert X.shape == (n, k) and X.dtype == np.int16
    assert np.array_equal(X, np.stack(cols, axis=1))
    assert np.array_equal(fq.mat_mul(A, X), b)


@given(ELIMINATION_FIELDS, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_rank_of_a_stack_matches_the_rank_of_each_matrix(pe, r, n, seed):
    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, fq.q, (6, r, n)).astype(np.int16)
    stack[1] = 0                                            # rank 0
    stack[2, -1] = fq.v_scale(2, stack[2, 0])               # a dependent row
    stack[3, :, rng.random(n) < 0.5] = 0                    # zero columns
    got = fq.rank(stack)
    assert got.tolist() == [fq.rank(a) for a in stack] == [len(rref_by_rows(fq, a)[1]) for a in stack]
    R, rank, d = fq.rref(stack[:0])  # an empty stack
    assert R.shape == (0, r, n) and rank.shape == d.shape == (0,)


@given(ELIMINATION_FIELDS, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mat_inv_inverts_or_raises_on_a_singular_matrix(pe, n, seed):
    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, fq.q, (n, n)).astype(np.int16)
    if det_by_permutations(fq, A) == 0:
        with pytest.raises(FieldError):
            fq.mat_inv(A)
    else:
        assert np.array_equal(fq.mat_mul(A, fq.mat_inv(A)), fq.identity(n))
    A[-1] = fq.v_scale(int(rng.integers(0, fq.q)), A[0]) if n > 1 else 0
    with pytest.raises(FieldError):
        fq.mat_inv(A)


@given(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2)]),
       st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_bil_matches_the_entry_loop(pe, n, seed):
    # u^T G v summed entry by entry in the field, for single vectors and
    # for the rows of a stack
    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    G = rng.integers(0, fq.q, (n, n)).astype(np.int16)
    U, V = rng.integers(0, fq.q, (2, 5, n)).astype(np.int16)

    def entry_loop(u, v):
        s = 0
        for a in range(n):
            for b in range(n):
                s = fq.add(s, fq.mul(fq.mul(int(u[a]), int(G[a, b])), int(v[b])))
        return s

    want = [entry_loop(u, v) for u, v in zip(U, V)]
    got = [fq.bil(G, u, v) for u, v in zip(U, V)]
    assert all(type(x) is int for x in got)
    assert got == want == fq.bil(G, U, V).tolist()


@pytest.mark.parametrize("p,n", [(3, 8), (73, 6), (79, 6), (181, 1), (181, 2), (191, 3)])
def test_mat_mul_is_exact_at_the_largest_codes(p, n):
    # products of codes add up to n * (p - 1)^2, which fits int16 only for
    # the smaller cases; every case must agree with wide integer arithmetic
    import numpy as np

    fq = fq_context(p, 1)
    rng = np.random.default_rng(p * n)
    A = np.full((2, n, n), p - 1, dtype=np.int16)
    A[1] = rng.integers(0, p, (n, n))
    B = np.full((n, n), p - 1, dtype=np.int16)
    got = fq.mat_mul(A, B)
    assert got.dtype == np.int16
    want = (A.astype(object) @ B.astype(object)) % p
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p,d,deg", [(3, 2, 1), (3, 2, 2), (3, 4, 2), (3, 6, 2), (3, 6, 3),
                                     (5, 2, 1), (5, 4, 2), (7, 2, 2), (3, 8, 4)])
def test_subfield_root_is_the_lex_smallest_root(p, d, deg):
    from orthosig.fields import _gf, subfield_root

    big = _gf(p, d)
    modulus = smallest_irreducible(p, deg)

    def value(c):  # Horner's rule over every code of the field
        acc = 0
        for co in reversed(modulus):
            acc = big.add(big.mul(acc, c), co)
        return acc

    roots = [c for c in range(big.order) if value(c) == 0]
    assert len(roots) == deg
    assert subfield_root(big, modulus, deg) == min(roots, key=big.coeffs)


# q = 9, 25, 27, 49, 81, 121, 125: chunks of p + 1 terms, so n > p + 1
# combines chunks for p = 3, 5, 7
PACKED_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3)]


def _gf_mat_mul(gf, A, B):
    """A @ B of two matrices, entry by entry in the scalar arithmetic of gf."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int16)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for k in range(A.shape[1]):
                acc = gf.add(acc, gf.mul(int(A[i, k]), int(B[k, j])))
            out[i, j] = acc
    return out


@given(st.sampled_from(PACKED_FIELDS), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_packed_mat_mul_matches_the_gf_reference(pe, n, k, seed):
    fq = fq_context(*pe)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, fq.q, (k, n, n)).astype(np.int16)
    B = rng.integers(0, fq.q, (k, n, n)).astype(np.int16)
    A[0, 0] = B[0, :, 0] = fq.q - 1  # the largest codes meet in entry (0, 0)
    # one matrix, (k, 1, n) @ (n, n) and (k, n, n) @ (k, n, n)
    assert fq.mat_mul(A[0], B[0]).tolist() == _gf_mat_mul(fq.gf, A[0], B[0]).tolist()
    rows = fq.mat_mul(A[:, :1], B[0])
    assert rows.shape == (k, 1, n) and rows.dtype == np.int16
    assert rows.tolist() == [_gf_mat_mul(fq.gf, a[:1], B[0]).tolist() for a in A]
    assert fq.mat_mul(A, B).tolist() == [_gf_mat_mul(fq.gf, a, b).tolist() for a, b in zip(A, B)]
    assert fq.mat_vec(A[0], B[0, :, 0]).tolist() == _gf_mat_mul(fq.gf, A[0], B[0, :, :1])[:, 0].tolist()


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_mat_vec_of_a_stack_is_a_stack_of_vectors(p, e):
    # prime fields and packed tables alike give (k, n) for a (k, n, n) stack
    fq = fq_context(p, e)
    rng = np.random.default_rng(p * 10 + e)
    A = rng.integers(0, fq.q, (4, 3, 3)).astype(np.int16)
    v = rng.integers(0, fq.q, 3).astype(np.int16)
    got = fq.mat_vec(A, v)
    assert got.shape == (4, 3) and got.dtype == np.int16
    assert got.tolist() == [_gf_mat_mul(fq.gf, a, v[:, None])[:, 0].tolist() for a in A]
    assert fq.mat_vec(A[1], v).tolist() == got[1].tolist()


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_packed_tables_have_q_squared_entries_and_only_for_e_above_1(p, e):
    fq = fq_context(p, e)
    if e == 1:
        assert not hasattr(fq, "PM") and not hasattr(fq, "UN")
        return
    assert fq.PM.size == fq.UN.size == fq.q ** 2
    assert fq.PM.dtype == np.int32 and fq.UN.dtype == np.int16
    digits = fq.gf.digits[fq.MUL].astype(np.int64)
    assert (fq.PM == digits @ (p ** (2 * np.arange(e)))).all()


def test_the_table_budget_bounds_q_before_any_table_is_built():
    import tracemalloc

    from orthosig.fields import TABLE_BUDGET, FieldTower, FqContext, check_field_size, table_bytes_per_entry

    # 2 B each for ADD and MUL, and 4 B for PM and 2 B for UN when e > 1
    assert (table_bytes_per_entry(1), table_bytes_per_entry(2), TABLE_BUDGET) == (4, 10, 2 ** 26)
    assert check_field_size(4093) == (4093, 1)  # the largest prime inside it
    assert check_field_size(2401) == (7, 4)     # 7^4 <= 2590
    assert check_field_size(2197) == (13, 3)
    tracemalloc.start()
    try:
        for q, build in [(4099, lambda: FqContext(4099, 1)), (2809, lambda: FqContext(53, 2)),
                         (4099, lambda: FieldTower(4099, 1, 1)), (2809, lambda: FieldTower(53, 2, 1))]:
            for attempt in (lambda: check_field_size(q), build):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with pytest.raises(FieldError, match="64 MiB"):
                    attempt()
                assert tracemalloc.get_traced_memory()[1] - before < 2 ** 20
    finally:
        tracemalloc.stop()


def test_the_table_budget_bounds_the_top_field_before_any_table_is_built():
    import tracemalloc

    from orthosig.fields import FieldTower, check_tower_size, top_bytes_per_element

    # d int16 digits and the int64 exp, log and negation entries of F_(p^d)
    assert [top_bytes_per_element(d) for d in (1, 2, 4)] == [26, 28, 32]
    # the last groups inside the budget for m = 1 and m = 2
    assert check_tower_size(1543, 1) == (1543, 1)
    assert check_tower_size(37 ** 2, 1) == (37, 2)
    assert check_tower_size(37, 2) == (37, 1)
    assert check_tower_size(5 ** 2, 2) == (5, 2)
    tracemalloc.start()
    try:
        # 1549 and 41^2 are the first prime and e > 1 values of q past it
        # for m = 1, 41 and 7^2 for m = 2; each passes the q x q bound
        for p, e, m in [(1549, 1, 1), (41, 2, 1), (41, 1, 2), (7, 2, 2)]:
            for attempt in (lambda: check_tower_size(p ** e, m), lambda: FieldTower(p, e, m)):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with pytest.raises(FieldError, match=f"q = {p ** e}, m = {m} is past .* 64 MiB"):
                    attempt()
                assert tracemalloc.get_traced_memory()[1] - before < 2 ** 20
    finally:
        tracemalloc.stop()
