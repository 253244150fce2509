import hashlib
import itertools
import random
from functools import reduce

import numpy as np
import pytest
from fieldpins import GF_PINS, MODULI
from hypothesis import given, strategies as st
from leibniz import det_by_permutations, rref_by_rows
from singerfield import elements

from orthosig.fields import (
    FieldError,
    factorint,
    fq_context,
    keys,
    lookup,
    row_index,
    smallest_irreducible,
    split_prime_power,
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
    # alpha of every pinned field through the scan `singer_generator` runs
    # for F_(q^k); the exp table of every field `fq_context` builds
    from orthosig.fields import check_field_size, companion_powers, first_primitive

    for (p, d), pin in GF_PINS.items():
        alpha = first_primitive(p, companion_powers(smallest_irreducible(p, d), p))
        assert int(alpha @ p ** np.arange(d)) == pin[0], (p, d)
        try:
            check_field_size(p ** d)
        except FieldError:
            continue
        fq = fq_context(p, d)
        assert (fq.generator, hashlib.sha256(fq.exp.tobytes()).hexdigest()) == pin, (p, d)


def test_smallest_irreducible_does_not_depend_on_the_root_test_stack(monkeypatch):
    # stacks from one candidate up, cut anywhere across the candidates the
    # root test rejects, give the result of a single stack
    from orthosig import fields

    for p, d in [(3, 4), (3, 8), (5, 3), (7, 2)]:
        want = smallest_irreducible(p, d)
        for chunk in (1, 7, 50):
            monkeypatch.setattr(fields, "CHUNK", chunk)
            assert smallest_irreducible.__wrapped__(p, d) == want


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 4), (3, 6)])
def test_exp_table_matches_repeated_multiplication(p, d):
    fq = fq_context(p, d)
    rng = random.Random(p * 100 + d)
    alpha = list(fq.coeffs(fq.generator))
    for k in [0, 1, 2, fq.q - 2] + [rng.randrange(fq.q - 1) for _ in range(20)]:
        x, base, e = [1] + [0] * (d - 1), alpha, k
        while e:  # alpha^k by square-and-multiply in coefficient arithmetic
            if e & 1:
                x = _coeff_mul(p, fq.modulus, x, base)
            base = _coeff_mul(p, fq.modulus, base, base)
            e >>= 1
        code = fq.from_coeffs(x)
        assert fq.exp[k] == code
        assert fq.log[code] == k
    assert sorted(fq.exp.tolist()) == list(range(1, fq.q))


# F_{q^k} is F_q[A], A = singer_generator(k, fq): an element x is the
# matrix X of y -> x y (`singerfield`)


def _singer(p, e, k):
    from orthosig.matgroups import Mat, singer_generator

    fq = fq_context(p, e)
    return fq, Mat(fq, singer_generator(k, fq))


def _conj(fq, X, m):
    """x -> x^(q^m) on a stack of matrices of F_q[A]."""
    return fq.mat_pow(X, fq.q ** m)


def _trace(fq, X):
    """The matrix trace of each matrix of a stack, in F_q."""
    return reduce(fq.v_add, np.moveaxis(np.diagonal(X, axis1=-2, axis2=-1), -1, 0))


def test_tower_deterministic_constants():
    # F_9 = F_3[x]/(x^2 + 1) with alpha = x + 1: alpha^2 = 2 x = 1 + 2 alpha
    from orthosig.fields import companion_powers, first_primitive
    from orthosig.matgroups import element_order

    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert first_primitive(3, companion_powers((1, 0, 1), 3)).tolist() == [1, 1]
    fq, A = _singer(3, 1, 2)
    assert A.a.tolist() == [[0, 1], [1, 2]]
    assert element_order(fq, A.a, 8) == 8


def test_tower_f81_alpha_order():
    from orthosig.matgroups import element_order

    fq, A = _singer(3, 1, 4)
    assert element_order(fq, A.a, 80) == 80


def test_tower_rejects_bad_parameters():
    from orthosig.forms import build_space
    from orthosig.matgroups import descriptor, singer_generator

    with pytest.raises(ValueError, match="odd"):
        descriptor("O-", 2, m=1)
    with pytest.raises(FieldError):
        descriptor("O-", 12, m=1)
    with pytest.raises(FieldError):
        fq_context(9, 1)
    with pytest.raises(ValueError):
        singer_generator(0, fq_context(3, 1))
    with pytest.raises(ValueError):
        build_space("minus", fq_context(3, 1), 0)


def test_field_arith_examples():
    fq, A = _singer(3, 1, 4)
    I = fq.identity(4)
    assert (fq.mat_mul(A.a, A.inv().a) == I).all()
    # in F_81 the element of order 4 squares to -1 = 2
    i = A.pow(20).a
    assert (fq.mat_mul(i, i) == 2 * I).all()
    # Lagrange: x^(q-1) = 1 for x in F_q*, here the scalars 1 and 2
    assert (fq.mat_pow(np.array([I, 2 * I]), 2) == I).all()


def test_field_arith_errors():
    from orthosig.matgroups import element_order

    fq, A = _singer(3, 1, 4)
    zero = elements(fq, A.a, [[0, 0, 0, 0]])[0]
    with pytest.raises(FieldError):
        fq.mat_inv(zero)
    with pytest.raises(FieldError):
        element_order(fq, zero, 80)


def test_trace_examples():
    # the trace of F_9 down to F_3 is the matrix trace on F_3[A]
    fq, A = _singer(3, 1, 2)
    X = np.array([fq.identity(2), fq.identity(2) * 0, A.a, A.pow(2).a])
    # tr(0) = 0, tr(1) = 1 + 1^3 = 2, tr(alpha) = 2, tr(i) = i + i^3 = 0
    assert _trace(fq, X).tolist() == [2, 0, 2, 0]
    # and it is the sum of the Galois conjugates x, x^3
    assert (fq.v_add(X, _conj(fq, X, 1)) == _trace(fq, X)[:, None, None] * fq.identity(2) % 3).all()


def test_bar_examples():
    # xbar = x^(q^m) on F_81 = F_3[A], q = 3, m = 2
    fq, A = _singer(3, 1, 4)
    a = A.a[None]
    assert (_conj(fq, _conj(fq, a, 2), 2) == a).all()
    # the elements of F_9, the powers of A^(q^m + 1), are fixed
    c = fq.mat_pow(a, 10 * 3)
    assert (_conj(fq, c, 2) == c).all()
    # the norm alpha alphabar lands in F_9
    norm = fq.mat_mul(a, _conj(fq, a, 2))
    assert (norm == fq.mat_pow(a, 10)).all() and (_conj(fq, norm, 2) == norm).all()


def test_bulk_ring_axioms_seeded():
    # F_q[A] is a field: commutative, every nonzero element invertible
    fq, A = _singer(3, 1, 4)
    rng = np.random.default_rng(99)
    X, Y, Z = (elements(fq, A.a, rng.integers(0, 3, (1100, 4))) for _ in range(3))
    XY = fq.mat_mul(X, Y)
    assert (XY == fq.mat_mul(Y, X)).all()
    assert (fq.mat_mul(X, fq.v_add(Y, Z)) == fq.v_add(XY, fq.mat_mul(X, Z))).all()
    assert (fq.mat_mul(XY, Z) == fq.mat_mul(X, fq.mat_mul(Y, Z))).all()
    assert ((fq.det(X) != 0) == X.any(axis=(1, 2))).all()


def test_trace_linearity_and_bar_automorphism():
    # X -> X^(q^m) is a ring automorphism of F_q[A] of order 2 fixing F_q,
    # and the trace is F_q-linear, on F_81 over F_3 and F_625 over F_25
    for p, e, m in [(3, 1, 2), (5, 2, 1)]:
        fq, A = _singer(p, e, 2 * m)
        rng = np.random.default_rng(5)
        X, Y = (elements(fq, A.a, rng.integers(0, fq.q, (200, 2 * m))) for _ in range(2))
        Xb, Yb = _conj(fq, X, m), _conj(fq, Y, m)
        assert (fq.v_add(Xb, Yb) == _conj(fq, fq.v_add(X, Y), m)).all()
        assert (fq.mat_mul(Xb, Yb) == _conj(fq, fq.mat_mul(X, Y), m)).all()
        assert (_conj(fq, Xb, m) == X).all() and not (Xb == X).all()
        lam = rng.integers(0, fq.q, 200).astype(np.int16)
        scalars = lam[:, None, None] * np.eye(2 * m, dtype=np.int16)
        assert (_conj(fq, scalars, m) == scalars).all()
        lhs = _trace(fq, fq.v_add(fq.v_scale(lam[:, None, None], X), Y))
        assert (lhs == fq.v_add(fq.v_scale(lam, _trace(fq, X)), _trace(fq, Y))).all()


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=80))
def test_hypothesis_add_mul_closed_in_levels(a, b):
    # sums and products of A^a and A^b (A^80 standing for 0) stay in
    # F_3[A]: each is the polynomial in A given by its first column
    fq, A = _singer(3, 1, 4)
    x, y = (A.pow(t).a if t < 80 else 0 * A.a for t in (a, b))
    for z in (fq.v_add(x, y), fq.mat_mul(x, y)):
        assert (elements(fq, A.a, [z[:, 0]])[0] == z).all()
    if b < 80:
        assert (fq.mat_mul(fq.mat_mul(x, y), fq.mat_inv(y)) == x).all()


def test_serialization_roundtrip():
    from orthosig.matgroups import Mat

    fq, A = _singer(5, 2, 2)
    d = A.to_json()
    assert d["n"] == 2 and all(len(c) == 2 for row in d["entries"] for c in row)
    assert Mat.from_json(fq, d) == A


def test_e2_tower():
    from orthosig.matgroups import element_order

    fq, A = _singer(3, 2, 2)
    assert fq.q == 9
    assert element_order(fq, A.a, 80) == 80
    assert A.a[:, 0].tolist() == [0, 1]  # alpha in the basis 1, alpha


@pytest.mark.parametrize("p,e,m", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 1),
                                   (5, 2, 1), (3, 3, 1)])
def test_top_to_vec_inverts_vec_to_top_on_every_code(p, e, m):
    # x -> its first column is a bijection from F_q[A] onto F_q^2m,
    # inverted by the sum of the coordinates times the powers of A: the
    # powers of A reach every nonzero vector once
    from orthosig.matgroups import powers

    fq, A = _singer(p, e, 2 * m)
    P = powers(fq, A.a, fq.q ** (2 * m) - 1)
    vecs = P[:, :, 0]
    assert vecs.dtype == np.int16 and vecs.any(axis=1).all()
    assert len({v.tobytes() for v in vecs}) == len(vecs)
    step = max(1, len(P) // 200)
    assert (elements(fq, A.a, vecs[::step]) == P[::step]).all()


@pytest.mark.parametrize("p,e,m", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2), (5, 2, 1),
                                   (7, 1, 2)])
def test_embedding_is_the_sum_of_coefficients_times_powers_of_the_root(p, e, m):
    # F_q is the scalars and F_q^m the span of the powers g^t, t < m, of
    # g = A^(q^m + 1): those are exactly the elements xbar = x fixes, and
    # every twentieth element of the top is the sum of its coordinates
    # times the powers of A
    import itertools

    from orthosig.matgroups import powers

    fq, A = _singer(p, e, 2 * m)
    g = A.pow(fq.q ** m + 1).a
    sub = np.array(list(itertools.product(range(fq.q), repeat=m)), dtype=np.int16)
    G = powers(fq, g, m)
    Fqm = fq.mat_mul(sub, G.reshape(m, -1)).reshape(-1, 2 * m, 2 * m)
    assert len({x.tobytes() for x in Fqm}) == fq.q ** m
    assert (_conj(fq, Fqm, m) == Fqm).all()
    scalars = np.arange(fq.q, dtype=np.int16)[:, None, None] * np.eye(2 * m, dtype=np.int16)
    assert (_conj(fq, scalars, 1) == scalars).all()
    top = np.array(list(itertools.product(range(fq.q), repeat=2 * m))[::20], dtype=np.int16)
    X = elements(fq, A.a, top)
    assert (X[:, :, 0] == top).all()
    moved = ~(_conj(fq, X, m) == X).all(axis=(1, 2))
    keys = {y.tobytes() for y in Fqm}
    inside = np.array([x.tobytes() in keys for x in X])
    assert (moved == ~inside).all()


def test_fq_context_tables():
    fq = fq_context(3, 1)
    assert fq.mul(2, 2) == 1
    assert fq.inv(2) == 2
    fq9 = fq_context(3, 2)
    for a in range(1, 9):
        assert fq9.mul(a, fq9.inv(a)) == 1


def _assert_tables_match_coeffs(fq, rows):
    # against schoolbook arithmetic on coefficient lists (`_coeff_add`,
    # `_coeff_mul`), which reads none of the tables
    p, q = fq.p, fq.q
    for t in (fq.ADD, fq.MUL, fq.NEG, fq.INV):
        assert t.dtype.name == "int16"
    coeffs = [list(fq.coeffs(a)) for a in range(q)]
    code = {tuple(c): a for a, c in enumerate(coeffs)}
    assert fq.NEG.tolist() == [code[tuple((-c) % p for c in x)] for x in coeffs]
    for a in rows:
        assert fq.ADD[a].tolist() == [code[tuple(_coeff_add(p, coeffs[a], y))] for y in coeffs]
        assert fq.MUL[a].tolist() == [code[tuple(_coeff_mul(p, fq.modulus, coeffs[a], y))] for y in coeffs]
    one = [1] + [0] * (fq.e - 1)
    assert fq.INV[0] == 0
    assert all(_coeff_mul(p, fq.modulus, x, coeffs[fq.INV[a]]) == one for a, x in enumerate(coeffs) if a)


# q = 9, 25, 27, 49, 81, 121, 125: chunks of p + 1 terms, so n > p + 1
# combines chunks for p = 3, 5, 7
PACKED_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3)]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)] + PACKED_FIELDS)
def test_fq_context_tables_match_scalar_gf_on_every_pair(p, e):
    fq = fq_context(p, e)
    _assert_tables_match_coeffs(fq, range(fq.q))


def test_fq_context_tables_match_scalar_gf_on_sampled_rows_at_191():
    rng = random.Random(191)
    _assert_tables_match_coeffs(fq_context(191, 1), [0, 1, 190] + rng.sample(range(2, 190), 12))


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


@given(st.sampled_from([(3, 2), (3, 4), (3, 6), (5, 4), (7, 2), (3, 5)]),
       st.integers(min_value=0), st.integers(min_value=0))
def test_gf_scalar_ops_match_coefficient_arithmetic(pd, a, b):
    p, d = pd
    fq = fq_context(p, d)
    a, b = a % fq.q, b % fq.q
    x, y = list(fq.coeffs(a)), list(fq.coeffs(b))
    assert list(fq.coeffs(fq.add(a, b))) == _coeff_add(p, x, y)
    assert list(fq.coeffs(fq.neg(a))) == [(-c) % p for c in x]
    assert list(fq.coeffs(fq.add(a, fq.neg(b)))) == _coeff_add(p, x, [(-c) % p for c in y])
    assert list(fq.coeffs(fq.mul(a, b))) == _coeff_mul(p, fq.modulus, x, y)


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
    # singer_generator(d / deg, F_(p^deg)) reads F_q codes through theta,
    # the lex-smallest root in F_(p^d) of the modulus of F_q: rebuilt here
    # by a scan of every element of F_(p^d), its last column holds the
    # coordinates of alpha^k in the F_p-basis alpha^j theta^i.  F_(p^d) is
    # F_p[C], C the companion matrix of its modulus, so that no table of
    # it is built: the element with coefficients c acts as M_c = sum c_i C^i,
    # and c is the first column of M_c
    from orthosig.fields import companion_powers, first_primitive
    from orthosig.matgroups import singer_generator

    powers = companion_powers(smallest_irreducible(p, d), p)
    every = np.array(list(itertools.product(range(p), repeat=d)))
    M = np.tensordot(every, powers, 1) % p
    value = np.zeros_like(M)
    for co in reversed(smallest_irreducible(p, deg)):  # Horner's rule on every element
        value = (value @ M + co * powers[0]) % p
    roots = every[~value.any(axis=(1, 2))].tolist()
    assert len(roots) == deg
    fq, k = fq_context(p, deg), d // deg
    A = singer_generator(k, fq)
    if k == 1:
        assert A.tolist() == [[fq.generator]]
        return
    theta = np.tensordot(min(roots), powers, 1) % p
    alpha = np.tensordot(first_primitive(p, powers), powers, 1) % p

    def power(X, j):
        out = powers[0]
        for _ in range(j):
            out = out @ X % p
        return out

    basis = np.array([(power(alpha, j) @ power(theta, i))[:, 0] % p
                      for j in range(k) for i in range(deg)], dtype=np.int16).T
    y = fq_context(p, 1).solve(basis, power(alpha, k)[:, 0].astype(np.int16))
    assert A[:, -1].tolist() == (y.reshape(k, deg) @ (p ** np.arange(deg))).tolist()
    assert (A[:, :-1] == np.eye(k, k - 1, -1)).all()


def _coeff_mat_mul(fq, A, B):
    """A @ B of two matrices, entry by entry in schoolbook arithmetic on the
    coefficient lists of the codes (`_coeff_add`, `_coeff_mul`)."""
    p = fq.p
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int16)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = [0] * fq.e
            for k in range(A.shape[1]):
                acc = _coeff_add(p, acc, _coeff_mul(p, fq.modulus, fq.coeffs(A[i, k]), fq.coeffs(B[k, j])))
            out[i, j] = fq.from_coeffs(acc)
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
    assert fq.mat_mul(A[0], B[0]).tolist() == _coeff_mat_mul(fq, A[0], B[0]).tolist()
    rows = fq.mat_mul(A[:, :1], B[0])
    assert rows.shape == (k, 1, n) and rows.dtype == np.int16
    assert rows.tolist() == [_coeff_mat_mul(fq, a[:1], B[0]).tolist() for a in A]
    assert fq.mat_mul(A, B).tolist() == [_coeff_mat_mul(fq, a, b).tolist() for a, b in zip(A, B)]
    assert fq.mat_vec(A[0], B[0, :, 0]).tolist() == _coeff_mat_mul(fq, A[0], B[0, :, :1])[:, 0].tolist()


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_mat_vec_of_a_stack_is_a_stack_of_vectors(p, e):
    # prime fields and packed tables alike give (k, n) for a (k, n, n) stack
    fq = fq_context(p, e)
    rng = np.random.default_rng(p * 10 + e)
    A = rng.integers(0, fq.q, (4, 3, 3)).astype(np.int16)
    v = rng.integers(0, fq.q, 3).astype(np.int16)
    got = fq.mat_vec(A, v)
    assert got.shape == (4, 3) and got.dtype == np.int16
    assert got.tolist() == [_coeff_mat_mul(fq, a, v[:, None])[:, 0].tolist() for a in A]
    assert fq.mat_vec(A[1], v).tolist() == got[1].tolist()


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_packed_tables_have_q_squared_entries_and_only_for_e_above_1(p, e):
    fq = fq_context(p, e)
    if e == 1:
        assert not hasattr(fq, "PM") and not hasattr(fq, "UN")
        return
    assert fq.PM.size == fq.UN.size == fq.q ** 2
    assert fq.PM.dtype == np.int32 and fq.UN.dtype == np.int16
    digits = fq.digits[fq.MUL].astype(np.int64)
    assert (fq.PM == digits @ (p ** (2 * np.arange(e)))).all()


def test_the_table_budget_bounds_q_before_any_table_is_built():
    import tracemalloc

    from orthosig.fields import TABLE_BUDGET, FqContext, check_field_size, table_bytes_per_entry
    from orthosig.lscore import space_for
    from orthosig.matgroups import descriptor

    # 2 B each for ADD and MUL, and 4 B for PM and 2 B for UN when e > 1
    assert (table_bytes_per_entry(1), table_bytes_per_entry(2), TABLE_BUDGET) == (4, 10, 2 ** 26)
    assert check_field_size(4093) == (4093, 1)  # the largest prime inside it
    assert check_field_size(2401) == (7, 4)     # 7^4 <= 2590
    assert check_field_size(2197) == (13, 3)
    tracemalloc.start()
    try:
        for q, build in [(4099, lambda: FqContext(4099, 1)), (2809, lambda: FqContext(53, 2)),
                         (4099, lambda: space_for(descriptor("O-", 4099, m=1))),
                         (2809, lambda: space_for(descriptor("O-", 2809, m=1)))]:
            for attempt in (lambda: check_field_size(q), build):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with pytest.raises(FieldError, match="64 MiB"):
                    attempt()
                assert tracemalloc.get_traced_memory()[1] - before < 2 ** 20
    finally:
        tracemalloc.stop()


def test_the_table_budget_bounds_the_top_field_before_any_table_is_built():
    # V = F_q^2m is bounded by q^2m (4em + 24) <= 64 MiB, the bound the
    # tables of F_(q^2m) once set; no such table is built any more
    import tracemalloc

    from orthosig.fields import check_tower_size
    from orthosig.forms import build_space
    from orthosig.lscore import space_for
    from orthosig.matgroups import GroupDescriptor

    # the last groups inside the budget for m = 1 and m = 2
    assert check_tower_size(1543, 1) == (1543, 1)
    assert check_tower_size(37 ** 2, 1) == (37, 2)
    assert check_tower_size(37, 2) == (37, 1)
    assert check_tower_size(5 ** 2, 2) == (5, 2)
    assert build_space("plus", fq_context(37, 1), 2).n == 4
    tracemalloc.start()
    try:
        # 1549 and 41^2 are the first prime and e > 1 values of q past it
        # for m = 1, 41 and 7^2 for m = 2; each passes the q x q bound
        for p, e, m in [(1549, 1, 1), (41, 2, 1), (41, 1, 2), (7, 2, 2)]:
            for kind in ("O-", "O+", "Oodd"):
                desc = GroupDescriptor(kind, p ** e, 2 * m + (kind == "Oodd"))
                for attempt in (lambda: check_tower_size(p ** e, m), lambda: space_for(desc)):
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    with pytest.raises(FieldError, match=f"q = {p ** e}, m = {m} is past .* 64 MiB"):
                        attempt()
                    assert tracemalloc.get_traced_memory()[1] - before < 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p,e", [(3, 1), (181, 1), (3, 2)])
def test_shared_field_tables_are_read_only(p, e):
    # fq_context hands one context to every caller in the process, so a
    # write into one of its tables would corrupt every later product
    fq = fq_context(p, e)
    names = ["ADD", "MUL", "NEG", "INV"] + (["RES"] if e == 1 else ["PM", "UN"])
    for name in names:
        table = getattr(fq, name)
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
    assert hasattr(fq, "RES") == (e == 1)


EXACT_PRIMES = [3, 5, 7, 73, 79, 181, 191, 4093]


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_every_prime_field_product_path_is_exact(p):
    # one (n, n) pair, (k, n, n) stacks, a broadcast pair and an empty
    # stack, at the width where int16 sums stop and one past it (the int64
    # path), at the largest codes and at seeded ones: every product reads
    # back to the same codes as object arithmetic
    from orthosig.fields import FqContext

    fq = FqContext(p, 1)  # not cached: the q x q tables at 4093 take 64 MiB
    rng = np.random.default_rng(p)
    width = fq.int16_width
    for n in sorted({n for n in (min(8, width), width + 1) if 1 <= n <= 8}):
        for top in (True, False):
            def codes(*shape):
                if top:
                    return np.full(shape, p - 1, dtype=np.int16)
                return rng.integers(0, p, shape).astype(np.int16)

            B = codes(n, n)
            pairs = [(codes(n, n), B), (codes(0, n, n), B), (codes(5, n, n)[:, None], codes(7, n, n)[None])]
            pairs += [(codes(k, n, n), X) for k in (1, 25, 4096) for X in (B, codes(k, n, n))]
            for A, X in pairs:
                got = fq.mat_mul(A, X)
                want = (A.astype(object) @ X.astype(object)) % p
                assert got.dtype == np.int16 and got.shape == want.shape
                assert got.tolist() == want.tolist(), (n, top, A.shape, X.shape)


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_prime_field_vector_ops_are_exact_on_int16_and_int64(p):
    from orthosig.fields import FqContext

    fq = FqContext(p, 1)
    rng = np.random.default_rng(p)
    u16 = np.concatenate([[0, 1, p - 1, p - 1], rng.integers(0, p, 60)]).astype(np.int16)
    v16 = np.concatenate([[p - 1, p - 1, 1, p - 1], rng.integers(0, p, 60)]).astype(np.int16)
    U, V = u16.astype(object), v16.astype(object)
    for u, v in ((u16, v16), (u16.astype(np.int64), v16.astype(np.int64))):
        assert fq.v_add(u, v).tolist() == ((U + V) % p).tolist()
        assert fq.v_neg(u).tolist() == ((-U) % p).tolist()
        assert fq.v_scale(u, v).tolist() == ((U * V) % p).tolist()
        for s in (0, 1, p - 1, np.int16(p - 1)):
            assert fq.v_scale(s, u).tolist() == ((int(s) * U) % p).tolist()
    assert fq.v_add(u16, v16).dtype == fq.v_neg(u16).dtype == fq.v_scale(u16, v16).dtype == np.int16


def _rref_object(A, p):
    """Gauss-Jordan elimination of one matrix in Python ints mod p: its
    reduced row echelon form, rank and, for a square matrix, determinant."""
    R = [[int(x) % p for x in row] for row in A]
    rows, cols = len(R), len(R[0])
    det, r = 1, 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            R[r], R[pivot] = R[pivot], R[r]
            det = -det
        det *= R[r][c]
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        r += 1
    return R, r, det % p if r == rows else 0


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_rref_and_det_of_stacks_with_zero_rows_are_exact(p):
    # zero and repeated rows make a - f x negative before it is reduced
    from orthosig.fields import FqContext

    fq = FqContext(p, 1)
    rng = np.random.default_rng(p)
    for n, cols in ((4, 4), (5, 5), (4, 7)):
        A = rng.integers(0, p, (40, n, cols)).astype(np.int16)
        A[::4, 1] = 0
        A[1::4, -1] = A[1::4, 0]
        A[2::4] = p - 1
        A[3::8, 0] = 0
        R, rank, d = fq.rref(A)
        for a, r, k, dk in zip(A, R, rank.tolist(), d.tolist()):
            want_R, want_rank, want_det = _rref_object(a, p)
            assert (r.tolist(), k) == (want_R, want_rank)
            if n == cols:
                assert dk == want_det
        if n == cols:
            assert fq.det(A).tolist() == [_rref_object(a, p)[2] for a in A]
            assert fq.det(A[0]) == _rref_object(A[0], p)[2]


def test_keys_are_the_bytes_of_each_row_as_one_c_order_int16_array():
    # the one key of the package: whatever the layout or the integer type
    # of a stack, the key of row i is the bytes of A[i] as C-order int16
    rng = np.random.default_rng(5)
    A = rng.integers(0, 9, (6, 3, 4)).astype(np.int16)
    stacks = [A, np.asfortranarray(A), A[::2], A[:, ::-1, 1:3], A.astype(np.int64),
              A[:0], A.reshape(6, 12), A.reshape(6, 12).T]
    for S in stacks:
        want = [a.tobytes() for a in np.ascontiguousarray(S, np.int16)]
        assert keys(S).tolist() == want
    # sorted keys order the rows by those bytes
    rows = A.reshape(6, 12)
    assert [rows[i].tobytes() for i in np.argsort(keys(rows), kind="stable")] == \
        sorted(r.tobytes() for r in rows)


def test_row_index_keeps_the_last_repeated_row_and_lookup_misses_with_minus_1():
    A = np.array([[1, 2], [3, 4], [1, 2], [5, 6]], dtype=np.int16)
    assert row_index(A) == {A[0].tobytes(): 2, A[1].tobytes(): 1, A[3].tobytes(): 3}
    assert row_index(A, "abcd") == {A[0].tobytes(): "c", A[1].tobytes(): "b", A[3].tobytes(): "d"}
    B = np.array([[3, 4], [0, 0], [1, 2], [2, 1]], dtype=np.int64)
    got = lookup(row_index(A), B)
    assert got.dtype == np.intp and got.tolist() == [1, -1, 2, -1]
    assert lookup(row_index(A), B[:0]).tolist() == []
    assert lookup({}, A).tolist() == [-1] * 4


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (131, 1), (251, 1), (257, 1), (17, 2)])
def test_holds_codes_reads_the_bytes_as_the_stack_check_reads_the_entries(p, e):
    # below q = 256 two byte deletions, above it the entries read unsigned:
    # either way what `_codes` tests, every entry in 0..q-1, at any position
    fq = fq_context(p, e)
    rng = np.random.default_rng(fq.q)
    assert fq.holds_codes(b"")
    for n in (1, 2, 4, 6):
        A = rng.integers(0, fq.q, (n, n)).astype(np.int16)
        assert fq.holds_codes(A.tobytes())
        for code in (fq.q, fq.q - 1, 255, 256, 0x100 + fq.q - 1, 0x7FFF, -1, -fq.q, -256):
            for pos in range(n * n):
                B = A.copy()
                B.flat[pos] = code
                assert fq.holds_codes(B.tobytes()) == (0 <= code < fq.q), (code, pos)
