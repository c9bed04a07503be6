"""The mod-p kernels must agree entry for entry with the whole-row
elimination over the same field, and stay exact near the int64 overflow
boundary."""

import random
import tracemalloc

import numpy as np
import pytest

from hopfkit import _kernels as kn
from hopfkit import linalg as la
from hopfkit.fields import QQ, PrimeField, is_prime

from axiom_reference import identical
from lane_reference import reference_rref_object


def _random_matrix(rng, m, n, p):
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64)


def _sparse_matrix(rng, m, n, p, density):
    return np.array(
        [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
         for _ in range(m)],
        dtype=np.int64,
    )


RREF_PRIMES = (2, 3, 97, (1 << 31) - 1)


def _rref_cases(rng, p):
    """Random, tall mostly-zero, wide, zero-column and empty matrices."""
    for _ in range(6):
        yield _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
    for density in (0.05, 0.15, 0.4):
        yield _sparse_matrix(rng, 60, 12, p, density)
        yield _sparse_matrix(rng, 8, 30, p, density)
    with_zero_columns = _random_matrix(rng, 7, 9, p)
    with_zero_columns[:, [0, 3, 4, 8]] = 0
    yield with_zero_columns
    yield np.zeros((5, 4), dtype=np.int64)
    for shape in ((0, 5), (5, 0), (0, 0)):
        yield np.zeros(shape, dtype=np.int64)


def test_rref_lanes_agree():
    # the reference is the whole-row elimination over the same PrimeField
    rng = random.Random(5)
    for p in RREF_PRIMES:
        f = PrimeField(p)
        for a in _rref_cases(rng, p):
            want, want_piv = reference_rref_object(f, a)
            r, piv = kn.rref_mod(a, p)
            assert r.dtype == np.int64 and r.shape == a.shape
            assert identical(r, want), (p, a)
            assert tuple(int(c) for c in piv) == want_piv, (p, a)


def test_kron_defining_property():
    rng = random.Random(9)
    for p in (7, (1 << 61) - 1):  # the int64 lane and the object lane
        f = PrimeField(p)
        a = f.array([[rng.randrange(p) for _ in range(4)] for _ in range(3)])
        b = f.array([[rng.randrange(p) for _ in range(5)] for _ in range(2)])
        k = f.kron(a, b)
        assert k.shape == (6, 20) and k.dtype == f.dtype
        for i in range(3):
            for j in range(4):
                block = k[2 * i : 2 * i + 2, 5 * j : 5 * j + 5]
                assert f.equal(block, f.mul(a[i, j], b)), p


def test_rref_mod_properties():
    p = 5
    a = np.array([[2, 4, 1], [1, 2, 3], [3, 1, 0]], dtype=np.int64)
    r, piv = kn.rref_mod(a, p)
    # reduced: pivot entries 1, pivot columns otherwise 0
    for t, c in enumerate(piv):
        assert r[t, c] == 1
        assert all(r[i, c] == 0 for i in range(r.shape[0]) if i != t)
    r2, piv2 = kn.rref_mod(r, p)
    assert np.array_equal(r, r2) and np.array_equal(piv, piv2)


def _reference_product(a, b, p):
    """(a @ b) % p in Python ints."""
    return np.array(
        [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a],
        dtype=np.int64,
    )


# 2**31 - 1 is the last prime of the int64 lane, 2147483629 the one below it
LARGE_PRIMES = ((1 << 31) - 1, 2147483629)


def test_blocked_matmul_path_for_large_prime():
    # primes large enough that the direct numpy product would overflow int64
    rng = random.Random(11)
    for p in LARGE_PRIMES:
        assert is_prime(p) and p < kn.SMALL_PRIME_BOUND
        cases = [(_random_matrix(rng, 3, 40, p), _random_matrix(rng, 40, 3, p))]
        # all entries p - 1 across the limb chunk boundary at 2**15 inner
        # indices, and at 2**17, where one unchunked limb product would
        # overflow int64; row x column vectors keep long contractions cheap
        for n in (1, 40, 1 << 15, (1 << 15) + 1, 1 << 17):
            cases.append((np.full((1, n), p - 1), np.full((n, 1), p - 1)))
            cases.append((np.full((2, n), p - 1), _random_matrix(rng, n, 2, p)))
        for a, b in cases:
            expected = _reference_product(a, b, p)
            assert np.array_equal(kn.matmul_mod(a, b, p), expected), (p, a.shape)


@pytest.mark.parametrize("p", [3, (1 << 31) - 1])
def test_empty_inner_dimension_gives_zeros(p):
    a = np.zeros((3, 0), dtype=np.int64)
    b = np.zeros((0, 4), dtype=np.int64)
    out = kn.matmul_mod(a, b, p)
    assert out.dtype == np.int64 and np.array_equal(out, np.zeros((3, 4)))


def _largest_relation_matrix(monkeypatch, f):
    """The oslash relation matrix of monogenic(6, 6) over f, 1584 x 144."""
    from hopfkit.canonical import oslash_relations
    from hopfkit.monoid import monogenic, monoid_bialgebra

    seen = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda f, a: seen.append(a) or rref(f, a))
    oslash_relations(monoid_bialgebra(monogenic(6, 6), f))
    monkeypatch.undo()
    rows = max(seen, key=lambda a: a.size)
    assert rows.shape == (1584, 144)
    return rows


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rref_mod_holds_one_copy_of_its_input(monkeypatch):
    rows = _largest_relation_matrix(monkeypatch, PrimeField(3))
    assert _peak_bytes(lambda: kn.rref_mod(rows, 3)) <= 1.5 * rows.nbytes


@pytest.mark.parametrize("f", [QQ, PrimeField((1 << 61) - 1)], ids=str)
def test_object_lane_rref_holds_one_copy_of_its_input(monkeypatch, f):
    # nbytes counts the pointers; the zeros share one object
    rows = _largest_relation_matrix(monkeypatch, f)
    assert rows.dtype == object
    assert _peak_bytes(lambda: la.rref(f, rows)) <= 1.5 * rows.nbytes
