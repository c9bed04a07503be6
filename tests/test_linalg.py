"""Exact linear algebra: canonical forms, solvers, subspace calculus.

Expected values marked as derived were computed with the brute-force
oracles in oracle_utils (minor ranks, exhaustive span enumeration) and
are frozen here.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfkit import linalg as la
from hopfkit.errors import DimensionError, FieldMismatchError
from hopfkit.fields import QQ, PrimeField, parse_field

from axiom_reference import identical
from lane_reference import reference_rref_object
from oracle_utils import (
    all_vectors,
    full_subspace,
    loop_reduce,
    matvec_mod,
    minor_rank,
    span_set,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_rref_identity_is_fixed_point():
    a = QQ.eye(2)
    r, piv = la.rref(QQ, a)
    assert np.array_equal(r, a)
    assert piv == (0, 1)


def test_rref_rank_one():
    a = QQ.array([[1, 2], [2, 4]])
    r, piv = la.rref(QQ, a)
    assert piv == (0,)
    assert np.array_equal(r[0], QQ.array([1, 2]))
    assert la.rank(QQ, a) == 1


def test_rref_rank_matches_minor_oracle_gf5():
    rng = random.Random(501)
    for _ in range(12):
        rows = [[rng.randrange(5) for _ in range(5)] for _ in range(5)]
        a = F5.array(rows)
        assert la.rank(F5, a) == minor_rank(rows, 5)


def test_rref_idempotent_both_fields():
    rng = random.Random(7)
    for field in (QQ, F3):
        for _ in range(8):
            rows = [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)]
            a = field.array(rows)
            r1, piv1 = la.rref(field, a)
            r2, piv2 = la.rref(field, r1)
            assert np.array_equal(r1, r2) and piv1 == piv2


def test_kernel_identity_and_zero():
    assert la.kernel(QQ, QQ.eye(3)).dim == 0
    assert la.kernel(QQ, QQ.zeros((3, 3))) == full_subspace(QQ, 3)


def test_kernel_hand_solved():
    # solving x + y = 0, z = 0 by hand gives span{(1, -1, 0)}
    k = la.kernel(QQ, QQ.array([[1, 1, 0], [0, 0, 1]]))
    assert k.dim == 1
    assert np.array_equal(k.basis[0], QQ.array([1, -1, 0]))


def test_image_identity_zero_and_rref_oracle():
    assert la.image(QQ, QQ.eye(4)) == full_subspace(QQ, 4)
    assert la.image(QQ, QQ.zeros((3, 2))).dim == 0
    rng = random.Random(11)
    for _ in range(6):
        rows = [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(4)]
        a = QQ.array(rows)
        assert la.image(QQ, a).dim == len(la.rref(QQ, a)[1])


def test_rank_nullity():
    rng = random.Random(23)
    for field in (QQ, F2, F5):
        for _ in range(10):
            m, n = rng.randrange(1, 5), rng.randrange(1, 6)
            a = field.array([[rng.randrange(0, 7) for _ in range(n)] for _ in range(m)])
            assert la.rank(field, a) + la.kernel(field, a).dim == n


def test_solve_identity_and_free_variable_rule():
    b = QQ.array([3, -1])
    assert np.array_equal(la.solve(QQ, QQ.eye(2), b), b)
    x = la.solve(QQ, QQ.array([[1, 1]]), QQ.array([2]))
    assert np.array_equal(x, QQ.array([2, 0]))


def test_solve_inconsistent_returns_none():
    # column space of a is span{(1,1)}; (1,0) sits outside it
    a = QQ.array([[1, 2], [1, 2]])
    assert la.solve(QQ, a, QQ.array([1, 0])) is None
    assert la.solve_matrix(QQ, a, QQ.array([[1], [0]])) is None


def test_kron_identity_and_defining_property():
    assert np.array_equal(la.kron(QQ, QQ.eye(2), QQ.eye(3)), QQ.eye(6))
    a = QQ.array([[1, 2], [0, 1]])
    b = QQ.array([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    ab = la.kron(QQ, a, b)
    for i in range(2):
        for j in range(3):
            e = QQ.zeros(6)
            e[i * 3 + j] = QQ.one
            lhs = la.matmul(QQ, ab, e.reshape(6, 1))[:, 0]
            rhs = la.kron(QQ, a[:, i], b[:, j])
            assert np.array_equal(lhs, rhs)


def test_kron_mixed_shapes():
    a = QQ.zeros((2, 3))
    b = QQ.zeros((3, 2))
    assert la.kron(QQ, a, b).shape == (6, 6)


def test_subspace_idempotence_and_canonical_equality():
    u = la.subspace_from_rows(QQ, 3, [QQ.array([1, 1, 0]), QQ.array([0, 0, 1])])
    assert la.subspace_sum(u, u) == u
    assert la.subspace_intersection(u, u) == u
    # a different spanning set of the same subspace canonicalizes identically
    v = la.subspace_from_rows(QQ, 3, [QQ.array([2, 2, 2]), QQ.array([1, 1, 3])])
    assert v == u


def test_span_of_axes_intersect_to_zero():
    e1 = la.subspace_from_rows(QQ, 2, [QQ.array([1, 0])])
    e2 = la.subspace_from_rows(QQ, 2, [QQ.array([0, 1])])
    assert la.subspace_intersection(e1, e2).dim == 0
    assert la.subspace_sum(e1, e2) == full_subspace(QQ, 2)


def test_dimension_formula_random_gf3_vs_enumeration():
    rng = random.Random(31)
    d = 4
    for _ in range(8):
        rows_u = [[rng.randrange(3) for _ in range(d)] for _ in range(2)]
        rows_v = [[rng.randrange(3) for _ in range(d)] for _ in range(2)]
        u = la.subspace_from_rows(F3, d, [F3.array(r) for r in rows_u])
        v = la.subspace_from_rows(F3, d, [F3.array(r) for r in rows_v])
        s = la.subspace_sum(u, v)
        i = la.subspace_intersection(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        # oracle: enumerate both spans exhaustively
        su = span_set(rows_u, 3, d)
        sv = span_set(rows_v, 3, d)
        assert 3 ** i.dim == len(su & sv)
        assert 3 ** s.dim == len(span_set(rows_u + rows_v, 3, d))


def test_kernel_image_vs_enumeration_small_fields():
    rng = random.Random(47)
    for p, field in ((2, F2), (3, F3)):
        for _ in range(6):
            m, d = rng.randrange(1, 4), rng.randrange(1, 5)
            rows = [[rng.randrange(p) for _ in range(d)] for _ in range(m)]
            a = field.array(rows)
            ker = la.kernel(field, a)
            zero = tuple([0] * m)
            true_kernel = {v for v in all_vectors(p, d) if matvec_mod(rows, v, p) == zero}
            assert p ** ker.dim == len(true_kernel)
            for t in range(ker.dim):
                assert tuple(int(x) for x in ker.basis[t]) in true_kernel
            img = la.image(field, a)
            cols = [[rows[i][j] for i in range(m)] for j in range(d)]
            assert p ** img.dim == len(span_set(cols, p, m))


def test_membership_and_complement_representatives():
    u = la.subspace_from_rows(QQ, 4, [QQ.array([1, 0, 2, 0]), QQ.array([0, 1, 3, 0])])
    assert u.contains(QQ.array([2, 1, 7, 0]))
    assert not u.contains(QQ.array([0, 0, 0, 1]))
    assert u.complement_indices() == (2, 3)
    assert np.array_equal(u.coordinates(QQ.array([2, 1, 7, 0])), QQ.array([2, 1]))


def test_field_and_dimension_errors():
    with pytest.raises(FieldMismatchError):
        QQ.require_same(F2)
    u = la.subspace_from_rows(QQ, 2, [QQ.array([1, 0])])
    v = la.subspace_from_rows(QQ, 3, [QQ.array([1, 0, 0])])
    with pytest.raises(DimensionError):
        la.subspace_sum(u, v)


def test_parse_field_round_trip():
    assert parse_field("Q") is QQ
    assert parse_field("F7").p == 7
    with pytest.raises(Exception):
        parse_field("F6")


@st.composite
def small_rational_matrix(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return QQ.array(rows)


@settings(max_examples=40, deadline=None)
@given(small_rational_matrix())
def test_rref_canonicity_properties(a):
    r, piv = la.rref(QQ, a)
    r2, piv2 = la.rref(QQ, r)
    assert np.array_equal(r, r2) and piv == piv2
    for t, c in enumerate(piv):
        assert r[t, c] == QQ.one
        col = [r[i, c] for i in range(r.shape[0]) if i != t]
        assert all(x == 0 for x in col)
    assert len(piv) + la.kernel(QQ, a).dim == a.shape[1]


@settings(max_examples=30, deadline=None)
@given(small_rational_matrix())
def test_solver_agrees_with_image_membership(a):
    rng = np.arange(a.shape[1])
    x = QQ.array([int(i % 3 - 1) for i in rng])
    b = la.matmul(QQ, a, x)
    got = la.solve(QQ, a, b)
    assert got is not None
    assert np.array_equal(la.matmul(QQ, a, got), b)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_quotient_maps_match_the_residual_definition(data):
    # proj sends e_c to the complement coordinates of reduce(e_c)
    field = data.draw(st.sampled_from([QQ, PrimeField(3), PrimeField((1 << 31) - 1),
                                       PrimeField((1 << 61) - 1)]))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                              max_size=n + 1))
    u = la.subspace_from_rows(field, n, [field.array(r) for r in rows])
    proj, reps, comp = u.quotient_maps()
    assert comp == u.complement_indices()
    expected = field.zeros((len(comp), n))
    for c, e in enumerate(field.eye(n)):
        expected[:, c] = u.reduce(e)[list(comp)]
    assert proj.dtype == expected.dtype and np.array_equal(proj, expected)
    assert all(type(x) is type(y) for x, y in zip(proj.ravel(), expected.ravel()))
    assert np.array_equal(reps, field.eye(n)[:, list(comp)])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_first_outside_is_the_first_column_contains_rejects(data):
    field = data.draw(st.sampled_from([QQ, F3, PrimeField((1 << 61) - 1)]), label="field")
    n = data.draw(st.integers(1, 6))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    kind = data.draw(st.sampled_from(["random", "zero", "full"]))
    if kind == "zero":
        u = la.zero_subspace(field, n)
    elif kind == "full":
        u = full_subspace(field, n)
    else:
        rows = data.draw(st.lists(entries, max_size=n + 1))
        u = la.subspace_from_rows(field, n, [field.array(r) for r in rows])
    # members (combinations of the basis) mixed with arbitrary columns
    cols = []
    for _ in range(data.draw(st.integers(0, 5))):
        if u.dim and data.draw(st.booleans()):
            coef = field.array(data.draw(st.lists(st.integers(-3, 3), min_size=u.dim,
                                                  max_size=u.dim)))
            cols.append(la.matmul(field, coef, u.basis))
        else:
            cols.append(field.array(data.draw(entries)))
    m = field.zeros((n, len(cols)))
    for c, v in enumerate(cols):
        m[:, c] = v
    outside = [c for c in range(len(cols)) if not u.contains(m[:, c])]
    assert u.first_outside(m) == (outside[0] if outside else None)
    for c in range(len(cols)):
        if c not in outside:
            assert np.array_equal(m[list(u.pivots), c], u.coordinates(m[:, c]))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_reduce_matches_the_per_pivot_loop(data):
    # v - basis^T v[pivots] on a vector and on each column of a matrix
    field = data.draw(st.sampled_from([QQ, F3, PrimeField((1 << 61) - 1)]), label="field")
    n = data.draw(st.integers(1, 6))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    if data.draw(st.booleans(), label="zero subspace"):
        u = la.zero_subspace(field, n)
    else:
        rows = data.draw(st.lists(entries, max_size=n + 1))
        u = la.subspace_from_rows(field, n, [field.array(r) for r in rows])
    v = field.array(data.draw(entries))
    got = u.reduce(v)
    assert identical(got, loop_reduce(u, v))
    assert u.contains(v) == (u.first_outside(v.reshape(n, 1)) is None)
    m = field.array(data.draw(st.lists(entries, min_size=1, max_size=4))).T.copy()
    got = u.reduce(m)
    assert got.shape == m.shape and got.dtype == m.dtype
    for c in range(m.shape[1]):
        assert identical(got[:, c].copy(), loop_reduce(u, m[:, c]))


def test_all_pairs_is_the_loop_order():
    x = F5.array([[1, 2], [3, 4]])
    y = F5.array([[0, 1, 2], [3, 4, 0]])
    xs, ys = la.all_pairs(x, y)
    for s in range(2):
        for t in range(3):
            assert np.array_equal(xs[:, s * 3 + t], x[:, s])
            assert np.array_equal(ys[:, s * 3 + t], y[:, t])
    assert [a.shape for a in la.all_pairs(x, y[:, :0])] == [(2, 0), (2, 0)]


F61 = PrimeField((1 << 61) - 1)
F31 = PrimeField((1 << 31) - 1)


@st.composite
def rref_lane_matrix(draw):
    """A wide, tall or square matrix over Q (numerators and denominators up
    to io.MAX_ENTRY), F2, F3, F_(2^31-1) or F_(2^61-1), with zero entries,
    all-zero rows, repeated rows and rows that are combinations of earlier
    ones."""
    f = draw(st.sampled_from([QQ, F2, F3, F31, F61]))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    big = (1 << 63) if f == QQ else f.p
    entry = st.one_of(
        st.just(0), st.just(0), st.integers(-3, 3), st.integers(-big + 1, big - 1),
    )
    if f == QQ:
        entry = st.one_of(entry, st.builds(
            lambda num, den: f.from_pair(num, den), st.integers(-big + 1, big - 1),
            st.integers(1, big - 1)))
    out = f.zeros((m, n))
    for i in range(m):
        kind = draw(st.sampled_from(["entries", "zero", "repeat", "combination"]))
        if kind == "entries" or (kind in ("repeat", "combination") and i == 0):
            for j in range(n):
                out[i, j] = f.scalar(draw(entry))
        elif kind == "repeat":
            out[i] = out[draw(st.integers(0, i - 1))]
        elif kind == "combination":
            c = [f.scalar(draw(st.integers(-2, 2))) for _ in range(i)]
            for t in range(i):
                out[i] = f.addmul(out[i], c[t], out[t])
    return f, out


@settings(max_examples=300, deadline=None)
@given(rref_lane_matrix())
@example((QQ, QQ.zeros((0, 4))))
@example((F61, F61.zeros((3, 0))))
@example((F3, F3.array([[0, 1, 2], [0, 1, 2], [0, 0, 0], [1, 0, 0]])))
def test_rref_object_matches_the_whole_row_elimination(case):
    # every lane of linalg.rref (the int64 kernel for F2, F3 and F_(2^31-1),
    # object arrays for Q and F_(2^61-1)) against the whole-row elimination,
    # on a read-only input that must come back unchanged
    f, a = case
    before = a.copy()
    a.flags.writeable = False
    r, piv = la.rref(f, a)
    ref, ref_piv = reference_rref_object(f, a)
    assert piv == ref_piv
    assert identical(r, ref)
    assert identical(a, before)
