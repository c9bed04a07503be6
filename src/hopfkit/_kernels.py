"""Mod-p kernels of the prime-field lane, exact for primes below 2**31;
larger primes use the object-dtype lane of :mod:`hopfkit.fields`.

* ``matmul_mod`` follows the delayed-reduction and limb-splitting model of
  FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008): it reduces
  once per product while n (p-1)**2 < 2**62, the int64 bound.  Above it
  (p near 2**31) it splits ``b`` into 16-bit limbs, ``b = hi * 2**16 +
  lo``, and contracts at most 2**15 inner indices per chunk, so ``a @ lo``
  stays below 2**62 and ``a @ hi`` below 2**61: two int64 products and a
  reduction per chunk, exact for any shape.
* ``rref_mod`` is this lane's entry to ``linalg.echelon``, the one row
  reduction of every lane.
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
    """``linalg.echelon(a, p)``: the reduced row echelon form mod p as
    ``(r, pivots)``, r an int64 array, for the int64 lane."""
    from .linalg import echelon  # linalg imports this module

    return echelon(a, p)
