"""Dense mod-p kernels: the hot loops of the prime-field lane.

Each kernel does only the work its output needs, after the
delayed-reduction and limb-splitting model of FFLAS-FFPACK (Dumas,
Giorgi & Pernet, ACM TOMS 35(3), 2008):

* ``np_matmul_mod`` reduces once per product while n (p-1)**2 < 2**62,
  the int64 bound.  Above it (p near 2**31) it splits ``b`` into 16-bit
  limbs, ``b = hi * 2**16 + lo``, and contracts at most 2**15 inner
  indices per chunk, so ``a @ lo`` stays below 2**62 and ``a @ hi``
  below 2**61: two int64 products and a reduction per chunk, exact for
  any shape.
* ``np_rref_mod`` eliminates only the rows with a nonzero entry in the
  pivot column, and only the columns from the pivot on: the pivot row is
  zero to its left.

Row reduction is sequential with data-dependent pivoting, so
``rref_mod`` also has a numba ``@njit`` version.  The numpy lane is
selected by setting ``HOPFKIT_NO_NUMBA=1`` in the environment (or
automatically when numba is unavailable).  Matrix and Kronecker
products stay on numpy in both lanes (``benchmarks/bench_kernels.py``
keeps the njit product as the measured-and-rejected alternative).

All kernels are exact for primes below 2**31; larger primes are handled
by the object-dtype lane in :mod:`hopfkit.fields` and never reach this
module.
"""

from __future__ import annotations

import os

import numpy as np

#: primes below this bound fit the int64 lane without overflow
SMALL_PRIME_BOUND = 1 << 31

#: inner indices per chunk of the limb-split product at large p
_LIMB_CHUNK = 1 << 15

_DISABLED = os.environ.get("HOPFKIT_NO_NUMBA", "").strip().lower() in ("1", "true", "yes")

try:
    if _DISABLED:
        raise ImportError("numba disabled by HOPFKIT_NO_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

BACKEND = "numba" if HAS_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# products: numpy in both lanes


def np_matmul_mod(a, b, p):
    """Exact (a @ b) % p on int64 arrays with entries in [0, p), p < 2**31."""
    n = a.shape[1]
    if n == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if n * (p - 1) * (p - 1) < (1 << 62):
        return (a @ b) % p
    # 16-bit limbs of b: over at most 2**15 inner indices a @ lo < 2**62
    # and a @ hi < 2**61, so each chunk costs two int64 products
    lo, hi = b & 0xFFFF, b >> 16
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(0, n, _LIMB_CHUNK):
        ak = a[:, k : k + _LIMB_CHUNK]
        high = (ak @ hi[k : k + _LIMB_CHUNK]) % p
        out = (out + (high << 16) + ak @ lo[k : k + _LIMB_CHUNK]) % p
    return out


def np_kron_mod(a, b, p):
    # kron never accumulates: entry products stay below p**2
    return np.kron(a, b) % p


matmul_mod = np_matmul_mod
kron_mod = np_kron_mod


# ---------------------------------------------------------------------------
# row reduction: the flag-selected kernel pair


def np_rref_mod(a, p):
    """Reduced row echelon form mod p.

    Returns ``(r, pivots)`` where ``r`` is fully reduced (pivot entries 1,
    pivot columns otherwise 0) and ``pivots`` lists pivot column indices.
    Pivot choice is the first nonzero entry in column order, so the output
    is deterministic.
    """
    r = (np.asarray(a, dtype=np.int64) % p).copy()
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        piv = row + int(hits[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        # rows at and below ``row`` are zero left of ``col``
        r[row, col:] = (r[row, col:] * pow(int(r[row, col]), p - 2, p)) % p
        rows = np.flatnonzero(r[:, col])
        rows = rows[rows != row]
        if rows.size:
            r[rows, col:] = (r[rows, col:] - np.outer(r[rows, col], r[row, col:])) % p
        pivots.append(col)
        row += 1
    return r, np.array(pivots, dtype=np.int64)


if HAS_NUMBA:

    @njit(cache=True)
    def _nb_powmod(x, e, p):
        acc = 1
        base = x % p
        while e > 0:
            if e & 1:
                acc = (acc * base) % p
            base = (base * base) % p
            e >>= 1
        return acc

    @njit(cache=True)
    def _nb_rref_mod(a, p):
        r = a % p
        m, n = r.shape
        pivots = np.empty(min(m, n), dtype=np.int64)
        row = 0
        for col in range(n):
            if row >= m:
                break
            piv = -1
            for i in range(row, m):
                if r[i, col] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != row:
                for j in range(n):
                    tmp = r[row, j]
                    r[row, j] = r[piv, j]
                    r[piv, j] = tmp
            inv = _nb_powmod(r[row, col], p - 2, p)
            for j in range(n):
                r[row, j] = (r[row, j] * inv) % p
            for i in range(m):
                if i == row:
                    continue
                f = r[i, col]
                if f == 0:
                    continue
                for j in range(n):
                    r[i, j] = (r[i, j] - f * r[row, j]) % p
            pivots[row] = col
            row += 1
        return r, pivots[:row].copy()

    @njit(cache=True)
    def _nb_matmul_mod(a, b, p):
        """Reference loop kept for the benchmark: numpy wins in practice."""
        m, n = a.shape
        k = b.shape[1]
        out = np.zeros((m, k), dtype=np.int64)
        for i in range(m):
            for j in range(k):
                acc = 0
                for t in range(n):
                    acc = (acc + a[i, t] * b[t, j]) % p
                out[i, j] = acc
        return out

    def rref_mod(a, p):
        r, piv = _nb_rref_mod(np.ascontiguousarray(np.asarray(a, dtype=np.int64)), p)
        return r, piv

else:
    rref_mod = np_rref_mod
