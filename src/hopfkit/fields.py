"""Exact scalar fields: arbitrary-precision rationals and GF(p).

Matrices over the rationals are numpy object arrays holding
``fractions.Fraction`` values; matrices over GF(p) with p < 2**31 are
int64 arrays with entries in [0, p) routed through the kernels in
:mod:`hopfkit._kernels`.  Larger primes fall back to object arrays of
Python ints, still exact.

All arithmetic is exact; there is no tolerance anywhere in the package.

Reduction invariant: every GF(p) scalar or array the package builds is
reduced into [0, p).  The field alone keeps it: ``scalar``/``array``
reduce external data, and the elementwise operations (``add``, ``sub``,
``neg``, ``mul``, the fused accumulates ``addmul``/``submul``) as well as
``matmul`` and ``kron`` return reduced values from reduced operands, so
no caller ever reduces by hand and ``equal`` can compare entrywise.
Over Q the same operations are plain arithmetic.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import FieldMismatchError, HopfkitError


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**61 bound we allow."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two scalar fields."""

    name: str
    characteristic: int

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name

    def require_same(self, other):
        if self != other:
            raise FieldMismatchError(f"mixed scalar fields: {self} vs {other}")

    # -- array constructors ------------------------------------------------

    def array(self, data):
        """Build a matrix/vector from nested ints, pairs or scalars."""
        a = np.asarray(data, dtype=object)
        out = np.empty(a.shape, dtype=self.dtype)
        flat_in = a.reshape(-1)
        flat_out = out.reshape(-1)
        for t in range(flat_in.size):
            flat_out[t] = self.scalar(flat_in[t])
        return out

    def zeros(self, shape):
        if self.dtype is object:
            out = np.empty(shape, dtype=object)
            out[...] = self.zero
            return out
        return np.zeros(shape, dtype=self.dtype)

    def eye(self, n):
        out = self.zeros((n, n))
        for i in range(n):
            out[i, i] = self.one
        return out

    # -- elementwise arithmetic --------------------------------------------
    #
    # Operands are scalars or arrays combined with numpy broadcasting.

    def equal(self, a, b) -> bool:
        """Exact equality of two reduced arrays (or scalars)."""
        return bool(np.array_equal(a, b))


class RationalField(Field):
    dtype = object
    name = "Q"
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def scalar(self, x):
        if isinstance(x, (tuple, list)):
            num, den = x
            return Fraction(int(num), int(den))
        return Fraction(x)

    def from_pair(self, num, den):
        if den == 0:
            raise HopfkitError("zero denominator")
        return Fraction(int(num), int(den))

    def inv(self, x):
        return self.one / x

    def scalar_pair(self, x):
        q = Fraction(x)
        return int(q.numerator), int(q.denominator)

    def format_scalar(self, x):
        num, den = self.scalar_pair(x)
        return str(num) if den == 1 else f"{num}/{den}"

    def matmul(self, a, b):
        return np.dot(a, b)

    def kron(self, a, b):
        return np.kron(a, b)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def addmul(self, acc, c, x):
        """acc + c*x."""
        return acc + c * x

    def submul(self, acc, c, x):
        """acc - c*x."""
        return acc - c * x


class PrimeField(Field):
    characteristic: int

    def __init__(self, p: int):
        p = int(p)
        # the bound first: Miller-Rabin on a huge number takes seconds, and
        # str() refuses integers of more than 4300 digits
        if p >= (1 << 61):
            raise HopfkitError("prime field characteristic out of supported range (< 2**61)")
        if not is_prime(p):
            raise HopfkitError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p
        self.small = p < _kernels.SMALL_PRIME_BOUND
        self.dtype = np.int64 if self.small else object
        self.zero = np.int64(0) if self.small else 0
        self.one = np.int64(1) if self.small else 1

    def scalar(self, x):
        if isinstance(x, (tuple, list)):
            num, den = x
            return self.from_pair(num, den)
        v = int(x) % self.p
        return np.int64(v) if self.small else v

    def from_pair(self, num, den):
        if den == 0:
            raise HopfkitError("zero denominator")
        d = int(den) % self.p
        if d == 0:
            raise HopfkitError(f"denominator {den} is zero in F{self.p}")
        v = (int(num) * pow(d, self.p - 2, self.p)) % self.p
        return np.int64(v) if self.small else v

    def inv(self, x):
        v = int(x) % self.p
        if v == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        r = pow(v, self.p - 2, self.p)
        return np.int64(r) if self.small else r

    def scalar_pair(self, x):
        return int(x) % self.p, 1

    def format_scalar(self, x):
        return str(int(x) % self.p)

    def matmul(self, a, b):
        if not self.small:
            return np.dot(a, b) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim == 2 and b.ndim == 2:
            return _kernels.matmul_mod(a, b, self.p)
        if a.ndim == 2 and b.ndim == 1:
            return _kernels.matmul_mod(a, b.reshape(-1, 1), self.p).reshape(-1)
        if a.ndim == 1 and b.ndim == 2:
            return _kernels.matmul_mod(a.reshape(1, -1), b, self.p).reshape(-1)
        return _kernels.matmul_mod(a.reshape(1, -1), b.reshape(-1, 1), self.p)[0, 0]

    def kron(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim == 1 and b.ndim == 1:
            # the vector kron is the flattened outer product
            return np.multiply.outer(a, b).reshape(-1) % self.p
        # kron never accumulates: entry products stay below p**2
        return np.kron(a, b) % self.p

    # Reduced operands are below 2**31 in the int64 lane, so c*x < 2**62 and
    # acc +- c*x stays inside int64; the object lane holds Python ints.

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def addmul(self, acc, c, x):
        """(acc + c*x) mod p with one reduction."""
        return (acc + c * x) % self.p

    def submul(self, acc, c, x):
        """(acc - c*x) mod p with one reduction."""
        return (acc - c * x) % self.p


QQ = RationalField()


#: ``F`` and the decimal digits of p; p < 2**61 has at most 19 of them
_PRIME_TAG = re.compile(r"F([0-9]{1,19})")


def parse_field(tag: str) -> Field:
    """Parse a field tag: ``"Q"`` or ``"F<p>"`` with p prime."""
    if isinstance(tag, str):
        tag = tag.strip()
        if tag == "Q":
            return QQ
        match = _PRIME_TAG.fullmatch(tag)
        if match:
            return PrimeField(int(match[1]))
    raise HopfkitError(f"unknown field tag {reprlib.repr(tag)} (expected Q or F<p>)")
