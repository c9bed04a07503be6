"""Elementwise field operations: reduced results, checked against Python
int arithmetic mod p and against Fraction arithmetic over Q."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.fields import QQ, PrimeField

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
