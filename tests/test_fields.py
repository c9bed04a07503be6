"""Elementwise field operations: reduced results, checked against Python
int arithmetic mod p and against Fraction arithmetic over Q.  The Q
matrix product, one integer product of cleared-denominator matrices, is
checked against ``np.dot`` over ``Fraction``."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.fields import QQ, PrimeField
from hopfkit.io import MAX_ENTRY

from axiom_reference import identical

# 2**31 - 1 is the last prime of the int64 lane; 2**61 - 1 the last of the
# object lane.
PRIMES = [2, 3, (1 << 31) - 1, (1 << 61) - 1]


def residues(p):
    """Residues mod p, with the extremes that stress overflow drawn often."""
    return st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 2, p - 1]))


@st.composite
def prime_operands(draw, p):
    n = draw(st.integers(1, 6))
    vec = st.lists(residues(p), min_size=n, max_size=n)
    return draw(vec), draw(vec), draw(vec), draw(residues(p))


def _ints(a):
    return [int(x) for x in np.asarray(a).reshape(-1)]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prime_field_ops_match_int_arithmetic(p, data):
    f = PrimeField(p)
    xs, ys, zs, c = data.draw(prime_operands(p))
    x, y, z, cs = f.array(xs), f.array(ys), f.array(zs), f.scalar(c)
    expected = {
        "add": (f.add(x, y), [(a + b) % p for a, b in zip(xs, ys)]),
        "sub": (f.sub(x, y), [(a - b) % p for a, b in zip(xs, ys)]),
        "neg": (f.neg(x), [-a % p for a in xs]),
        "mul": (f.mul(x, y), [a * b % p for a, b in zip(xs, ys)]),
        "mul_scalar": (f.mul(cs, y), [c * b % p for b in ys]),
        "addmul": (f.addmul(z, cs, x), [(s + c * a) % p for s, a in zip(zs, xs)]),
        "submul": (f.submul(z, cs, x), [(s - c * a) % p for s, a in zip(zs, xs)]),
        "kron": (f.kron(x, y[:-1]), [a * b % p for a in xs for b in ys[:-1]]),
    }
    for name, (got, want) in expected.items():
        assert np.asarray(got).dtype == f.dtype, name
        assert _ints(got) == want, name
        assert all(0 <= v < p for v in _ints(got)), name
    # the vector kron is the same array as numpy's, dtype included
    got, want = expected["kron"][0], np.kron(x, y[:-1]) % p
    assert got.dtype == want.dtype and f.equal(got, want)
    scalar = f.addmul(f.scalar(xs[0]), cs, f.scalar(ys[0]))
    assert int(scalar) == (xs[0] + c * ys[0]) % p
    assert f.equal(x, f.array(xs))
    assert f.equal(x, y) == (xs == ys)


fractions = st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**9)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_field_ops_match_fraction_arithmetic(data):
    n = data.draw(st.integers(1, 6))
    vec = st.lists(fractions, min_size=n, max_size=n)
    xs, ys, zs, c = data.draw(vec), data.draw(vec), data.draw(vec), data.draw(fractions)
    f = QQ
    x, y, z, cs = f.array(xs), f.array(ys), f.array(zs), f.scalar(c)
    expected = {
        "add": (f.add(x, y), [a + b for a, b in zip(xs, ys)]),
        "sub": (f.sub(x, y), [a - b for a, b in zip(xs, ys)]),
        "neg": (f.neg(x), [-a for a in xs]),
        "mul": (f.mul(x, y), [a * b for a, b in zip(xs, ys)]),
        "mul_scalar": (f.mul(cs, y), [c * b for b in ys]),
        "addmul": (f.addmul(z, cs, x), [s + c * a for s, a in zip(zs, xs)]),
        "submul": (f.submul(z, cs, x), [s - c * a for s, a in zip(zs, xs)]),
    }
    for name, (got, want) in expected.items():
        assert [Fraction(*f.scalar_pair(v)) for v in got] == want, name
    assert f.equal(x, f.array(xs))
    assert f.equal(x, y) == (xs == ys)


def test_equal_compares_shapes():
    f = PrimeField(5)
    assert not f.equal(f.zeros((2, 2)), f.zeros((2, 1)))
    assert f.equal(f.zeros((0, 3)), f.zeros((0, 3)))


@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1])
def test_scatter_sum_reduces_colliding_indices(p):
    # 2**20 copies of p-1 on one index sum to 2**20 (p-1): about 2**51 in
    # the int64 lane, below 2**63, and reduced to -2**20 mod p
    f = PrimeField(p)
    count = 1 << 20
    index = np.zeros(count, dtype=np.int64)
    index[::2] = 3
    values = f.zeros(count)
    values[...] = f.scalar(p - 1)
    got = f.scatter_sum(index, values, 5)
    assert got.dtype == f.dtype
    assert _ints(got) == [(-count // 2) % p, 0, 0, (-count // 2) % p, 0]
    assert all(type(v) is type(f.zero) for v in got)


def test_scatter_sum_over_q_is_exact():
    index = np.array([2, 0, 2, 2, 0])
    third, half = Fraction(1, 3), Fraction(1, 2)
    values = QQ.array([third, half, third, third, -half])
    got = QQ.scatter_sum(index, values, 4)
    assert list(got) == [0, 0, 1, 0]
    assert all(type(v) is Fraction for v in got)
    assert QQ.scatter_sum(np.array([], dtype=np.int64), QQ.zeros(0), 2).tolist() == [0, 0]


#: numerators and denominators near io.MAX_ENTRY: one such entry per row
#: or column already puts max|a| max|b| n past 2**63, the Python-int product
_huge = st.integers(MAX_ENTRY - (1 << 20), MAX_ENTRY - 1)
q_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=6).filter(lambda q: abs(q) < 50),
    st.builds(lambda s, n, d: Fraction(s * n, d), st.sampled_from([1, -1]), _huge, _huge),
    st.builds(lambda s, n: Fraction(s * n), st.sampled_from([1, -1]), _huge),
)


def _q_matrix(draw, shape):
    out = QQ.zeros(shape)
    for index in np.ndindex(*shape):
        out[index] = draw(q_entries)
    return out


def _same_product(a, b):
    got, want = QQ.matmul(a, b), np.dot(a, b)
    if np.ndim(want) == 0:
        return got == want and type(got) is type(want)
    return identical(got, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rational_matmul_is_np_dot(data):
    # 0-row, 0-column and 0-inner shapes included; np.dot's zeros over an
    # empty inner dimension are ints, and the product must keep them
    m, k, n = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = _q_matrix(data.draw, (m, k))
    b = _q_matrix(data.draw, (k, n))
    assert _same_product(a, b)
    assert _same_product(a, b[:, 0] if n else QQ.zeros(k))  # matrix times vector
    assert _same_product(a[0] if m else QQ.zeros(k), b)     # vector times matrix


@pytest.mark.parametrize("x, y", [
    ((1 << 31) - 1, 1 << 31),  # 2 x y = 2**63 - 2**32: the int64 product
    (1 << 31, 1 << 31),        # 2 x y = 2**63 exactly: Python ints
    (1 << 31, (1 << 31) + 1),  # just above: Python ints
])
def test_rational_matmul_checks_the_int64_bound_first(x, y):
    # max|a| max|b| n just below, at and just above 2**63: an int64
    # product of the last two wraps silently to a negative number
    a, b = QQ.array([[x, x]]), QQ.array([[y], [y]])
    got = QQ.matmul(a, b)
    assert got[0, 0] == 2 * x * y and type(got[0, 0]) is Fraction
    assert identical(got, np.dot(a, b))
    # the same bound after clearing denominators: each row and column scale
    assert identical(QQ.matmul(a / 3, b / 5), np.dot(a / 3, b / 5))


def test_rational_matmul_scales_by_the_lcm_of_each_row_and_column():
    # denominators 2, 3, 4 in a row and 5, 7, 10 in a column: the scales
    # are 12 and 70, which no single entry's denominator divides into
    a = QQ.array([[(1, 2), (-1, 3), (1, 4)], [(3, 4), 0, (5, 6)]])
    b = QQ.array([[(1, 5), 1], [(2, 7), (-1, 2)], [(3, 10), 0]])
    assert identical(QQ.matmul(a, b), np.dot(a, b))
    assert QQ.matmul(a, b)[0, 0] == Fraction(1, 10) - Fraction(2, 21) + Fraction(3, 40)


def _per_entry(f, data):
    """``Field.array`` by ``scalar`` on each entry, the path every input
    other than an array already in the field's representation takes."""
    a = np.asarray(data, dtype=object)
    out = np.empty(a.shape, dtype=f.dtype)
    for index in np.ndindex(*a.shape):
        out[index] = f.scalar(a[index])
    return out


def _object_array(values, shape):
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = values
    return out


BIG = (1 << 61) - 1


@pytest.mark.parametrize("f, data", [
    # int64 arrays with negative entries and entries >= p
    (PrimeField(3), np.array([[-7, -1, 0], [2, 3, 11]], dtype=np.int64)),
    (PrimeField((1 << 31) - 1), np.array([-(1 << 62), (1 << 31) + 5, 1 << 62])),
    (PrimeField(3), np.array(-4, dtype=np.int64)),
    # Python ints in object arrays at 2**61 - 1, beyond int64 included
    (PrimeField(BIG), _object_array([-1, 0, BIG, BIG + 2, 1 << 80, -(1 << 70)], (2, 3))),
    (PrimeField(BIG), _object_array([BIG + 1], ())),
    # fall back: np.int64 entries in an object array, bools, other dtypes
    (PrimeField(BIG), _object_array([np.int64(-1), 2, np.int64(5)], (3,))),
    (PrimeField(BIG), _object_array([True, 2], (2,))),
    (PrimeField(3), np.array([True, False])),
    (PrimeField(3), np.array([-1, 4], dtype=np.int32)),
    (PrimeField(3), _object_array([-1, 4], (2,))),
    (PrimeField(BIG), np.array([-1, 4], dtype=np.int64)),
    # Fractions over Q are kept; mixed int/Fraction arrays fall back
    (QQ, _object_array([Fraction(1, 2), Fraction(-3), Fraction(0)], (3, 1))),
    (QQ, _object_array([Fraction(1, 2), 3], (2,))),
    (QQ, _object_array([Fraction(1, 2), 3, np.int64(-2)], (3,))),
    (QQ, np.array([1, -2], dtype=np.int64)),
    # 0-size shapes
    (PrimeField(3), np.zeros((0, 4), dtype=np.int64)),
    (PrimeField(BIG), np.empty((3, 0), dtype=object)),
    (QQ, np.empty((0,), dtype=object)),
])
def test_array_is_the_per_entry_path(f, data):
    before = data.copy()
    got = f.array(data)
    assert identical(got, _per_entry(f, data))
    assert identical(data, before) and not np.shares_memory(got, data)
