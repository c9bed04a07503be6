"""Dense mod-p kernels: the hot loops of the prime-field lane.

Each kernel does only the work its output needs, after the
delayed-reduction and limb-splitting model of FFLAS-FFPACK (Dumas,
Giorgi & Pernet, ACM TOMS 35(3), 2008):

* ``matmul_mod`` reduces once per product while n (p-1)**2 < 2**62,
  the int64 bound.  Above it (p near 2**31) it splits ``b`` into 16-bit
  limbs, ``b = hi * 2**16 + lo``, and contracts at most 2**15 inner
  indices per chunk, so ``a @ lo`` stays below 2**62 and ``a @ hi``
  below 2**61: two int64 products and a reduction per chunk, exact for
  any shape.
* ``rref_mod`` eliminates only the rows with a nonzero entry in the
  pivot column, and only the columns from the pivot on: the pivot row is
  zero to its left.

All kernels are exact for primes below 2**31; larger primes are handled
by the object-dtype lane in :mod:`hopfkit.fields` and never reach this
module.
"""

from __future__ import annotations

import numpy as np

#: primes below this bound fit the int64 lane without overflow
SMALL_PRIME_BOUND = 1 << 31

#: inner indices per chunk of the limb-split product at large p
_LIMB_CHUNK = 1 << 15

#: the kernel lane; kept because ``perfbench/run.py::run_record`` reports it
BACKEND = "numpy"


def matmul_mod(a, b, p):
    """Exact (a @ b) % p on 2-D int64 arrays with entries in [0, p), p < 2**31."""
    n = a.shape[1]
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


def rref_mod(a, p):
    """Reduced row echelon form mod p.

    Returns ``(r, pivots)`` where ``r`` is fully reduced (pivot entries 1,
    pivot columns otherwise 0) and ``pivots`` lists pivot column indices.
    Pivot choice is the first nonzero entry in column order, so the output
    is deterministic.
    """
    r = np.asarray(a, dtype=np.int64) % p  # a new array, so ``a`` is left as it was
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
