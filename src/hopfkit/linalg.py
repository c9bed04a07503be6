"""Dense exact linear algebra over a :class:`hopfkit.fields.Field`.

Conventions, fixed once and used everywhere:

* matrices act on coordinate columns; the matrix of a linear map has one
  column per source basis vector;
* ``rref`` returns the unique reduced row echelon form (pivot entries 1,
  pivot columns otherwise 0), so every canonical form is reproducible
  bit for bit, whatever the order of elimination;
* :class:`Subspace` stores its basis as the reduced row echelon form of
  any spanning set, hence two subspaces are equal as sets iff their
  stored bases are identical entrywise;
* ``solve`` returns the representative with all free variables set to 0,
  and ``None`` when the system is inconsistent;
* the basis of a tensor product V (x) W is ordered (i, j) -> i*dim(W)+j,
  matching ``numpy.kron``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import DimensionError
from .fields import Field, PrimeField


def matmul(f: Field, a, b):
    return f.matmul(a, b)


def kron(f: Field, a, b):
    return f.kron(a, b)


def all_pairs(x, y):
    """``(xs, ys)`` with column s*n + t holding column s of ``x`` and
    column t of ``y``, where ``y`` has n columns: every pair, in loop order."""
    return np.repeat(x, y.shape[1], axis=1), np.tile(y, (1, x.shape[1]))


def tensordot(f: Field, a, b, axes):
    """``np.tensordot`` over ``f``: contract ``axes`` by one ``f.matmul``.

    Both operands are transposed and reshaped to matrices, so every field
    lane (the int64 kernels, Fraction and Python-int objects) applies.
    ``axes`` is a pair of axis lists, summed over pairwise; the result has
    the free axes of ``a`` followed by those of ``b``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a_axes = [k % a.ndim for k in axes[0]]
    b_axes = [k % b.ndim for k in axes[1]]
    if [a.shape[k] for k in a_axes] != [b.shape[k] for k in b_axes]:
        raise DimensionError(f"tensordot: {a.shape} and {b.shape} over {axes}")
    free_a = [k for k in range(a.ndim) if k not in a_axes]
    free_b = [k for k in range(b.ndim) if k not in b_axes]
    n = math.prod(a.shape[k] for k in a_axes)
    shape_a = [a.shape[k] for k in free_a]
    shape_b = [b.shape[k] for k in free_b]
    a2 = a.transpose(free_a + a_axes).reshape(math.prod(shape_a), n)
    b2 = b.transpose(b_axes + free_b).reshape(n, math.prod(shape_b))
    return f.matmul(a2, b2).reshape(shape_a + shape_b)


def rref(f: Field, a):
    """Reduced row echelon form. Returns ``(r, pivots)`` with sorted pivots."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"rref expects a matrix, got shape {a.shape}")
    if isinstance(f, PrimeField) and f.small:
        return _kernels.rref_mod(a, f.p)
    return echelon(a, f.characteristic)


def echelon(a, p: int):
    """``(r, pivots)``: the reduced row echelon form of the matrix ``a`` over
    GF(p), or over Q when p is 0, built by inserting rows one at a time.

    Only nonzeros are read and updated.  Each basis row is a dict
    ``{column: value}`` with 1 at its pivot, and no basis row holds another
    pivot column, so an incoming row is reduced once per pivot column it
    holds.  A nonzero residual is scaled to 1 at its first column, the new
    pivot, which is then cleared from the basis rows holding it.  The dense
    result is int64 for p below ``_kernels.SMALL_PRIME_BOUND``, else an
    object array; ``a`` is only read.
    """
    m, n = a.shape
    dtype = np.int64 if 0 < p < _kernels.SMALL_PRIME_BOUND else object
    rows, cols = np.nonzero(a)
    values, cols = a[rows, cols].tolist(), cols.tolist()
    edges = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(values)]
    basis = {}  # pivot column -> its row
    for s, e in zip(edges, edges[1:]):
        if len(basis) == n:
            break
        v = dict(zip(cols[s:e], values[s:e]))
        for c in [c for c in v if c in basis]:
            x = v[c]  # the other basis rows are 0 at column c
            for k, y in basis[c].items():
                v[k] = v.get(k, 0) - x * y
        v = _nonzero(v, p)
        if not v:
            continue
        q = min(v)
        if v[q] != 1:
            inv = pow(v[q], -1, p) if p else 1 / v[q]
            v = _nonzero({k: x * inv for k, x in v.items()}, p)
        for c, row in basis.items():
            x = row.get(q)
            if x:
                for k, y in v.items():
                    row[k] = row.get(k, 0) - x * y
                basis[c] = _nonzero(row, p)
        basis[q] = v
    pivots = tuple(sorted(basis))
    r = np.zeros((m, n), dtype=dtype)  # pages of int64 zeros left unwritten take no memory
    if p == 0:
        r[...] = Fraction(0)
    index = [t * n + k for t, c in enumerate(pivots) for k in basis[c]]
    r.reshape(-1)[index] = np.array([x for c in pivots for x in basis[c].values()], dtype=dtype)
    return r, pivots


def _nonzero(v: dict, p: int) -> dict:
    """The nonzero entries of ``v``, reduced into [0, p) when p > 0."""
    if p:
        return {k: r for k, x in v.items() if (r := x % p)}
    return {k: x for k, x in v.items() if x}


def rank(f: Field, a) -> int:
    return len(rref(f, a)[1])


def is_zero_matrix(a) -> bool:
    a = np.asarray(a)
    if a.size == 0:
        return True
    return bool(np.all(a == 0))


@dataclass(eq=False)
class Subspace:
    """A subspace of F^ambient in canonical (rref-basis) form."""

    field: Field
    ambient: int
    basis: np.ndarray  # dim x ambient, reduced row echelon form
    pivots: tuple = dc_field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and np.array_equal(self.basis, other.basis)
        )

    def reduce(self, v):
        """Residual v - basis^T v[pivots] of a vector or of each column of a
        matrix: the basis is in rref, so it clears the pivot coordinates,
        and it is 0 iff v is a member."""
        f = self.field
        v = np.asarray(v)
        return f.sub(v, matmul(f, self.basis.T, v[list(self.pivots)]))

    def contains(self, v) -> bool:
        return is_zero_matrix(self.reduce(v))

    def first_outside(self, m):
        """Index of the first column of the matrix ``m`` outside the subspace, or None."""
        bad = np.flatnonzero(np.any(self.reduce(m) != 0, axis=0))
        return int(bad[0]) if bad.size else None

    def coordinates(self, v):
        """Coordinates in the canonical basis; None if v is not a member."""
        if not self.contains(v):
            return None
        return np.asarray(v)[list(self.pivots)].copy()

    def complement_indices(self) -> tuple:
        """Non-pivot coordinates: representatives of the quotient basis."""
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ambient) if c not in pivset)

    def quotient_maps(self):
        """``(proj, reps, comp)`` for F^ambient modulo this subspace.

        ``comp`` are the complement coordinates, ``proj`` (len(comp) x
        ambient) sends each standard vector to the complement coordinates
        of its residual, and ``reps`` is the section picking standard
        representatives.
        """
        f = self.field
        comp = list(self.complement_indices())
        proj = f.zeros((len(comp), self.ambient))
        # e_c is its own residual off the pivots; e_{pivots[t]} leaves -basis[t]
        proj[:, comp] = f.eye(len(comp))
        proj[:, list(self.pivots)] = f.neg(self.basis[:, comp].T)
        return proj, f.eye(self.ambient)[:, comp], tuple(comp)


def subspace_from_rows(f: Field, ambient: int, rows) -> Subspace:
    """Canonicalize a spanning set given as rows (any iterable of vectors)."""
    rows = [np.asarray(r) for r in rows]
    m = f.zeros((len(rows), ambient))
    for t, r in enumerate(rows):
        if r.shape != (ambient,):
            raise DimensionError(f"row of shape {r.shape} in ambient {ambient}")
        m[t] = r
    return row_space(f, m)


def row_space(f: Field, m) -> Subspace:
    """The span of the rows of the matrix ``m``, canonicalized."""
    ambient = m.shape[1]
    if m.shape[0] == 0:
        return Subspace(f, ambient, f.zeros((0, ambient)), ())
    r, piv = rref(f, m)
    basis = r[: len(piv)].copy()
    basis.flags.writeable = False
    return Subspace(f, ambient, basis, piv)


def zero_subspace(f: Field, ambient: int) -> Subspace:
    return Subspace(f, ambient, f.zeros((0, ambient)), ())


def kernel(f: Field, a) -> Subspace:
    """Right null space {v | a v = 0} in canonical form."""
    a = np.asarray(a)
    m, n = a.shape
    r, piv = rref(f, a)
    free = [c for c in range(n) if c not in set(piv)]
    rows = []
    for c in free:
        v = f.zeros(n)
        v[c] = f.one
        v[list(piv)] = f.neg(r[: len(piv), c])
        rows.append(v)
    return subspace_from_rows(f, n, rows)


def image(f: Field, a) -> Subspace:
    """Column span in canonical form."""
    a = np.asarray(a)
    return subspace_from_rows(f, a.shape[0], [a[:, j] for j in range(a.shape[1])])


def solve(f: Field, a, b):
    """One solution of a x = b with free variables 0, or None."""
    x = solve_matrix(f, a, np.asarray(b).reshape(-1, 1))
    return None if x is None else x[:, 0]


def solve_matrix(f: Field, a, b):
    """Solve a X = b columnwise; None if any column is inconsistent."""
    a = np.asarray(a)
    b = np.asarray(b)
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionError(f"solve: {a.shape} vs {b.shape}")
    aug = f.zeros((m, n + b.shape[1]))
    aug[:, :n] = a
    aug[:, n:] = b
    r, piv = rref(f, aug)
    if any(c >= n for c in piv):
        return None
    x = f.zeros((n, b.shape[1]))
    for t, c in enumerate(piv):
        x[c] = r[t, n:]
    return x


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_pair(u, v)
    rows = [u.basis[t] for t in range(u.dim)] + [v.basis[t] for t in range(v.dim)]
    return subspace_from_rows(u.field, u.ambient, rows)


def subspace_intersection(u: Subspace, v: Subspace) -> Subspace:
    """U cap V via the kernel of the stacked system [U^T | -V^T]."""
    _check_pair(u, v)
    f = u.field
    if u.dim == 0 or v.dim == 0:
        return zero_subspace(f, u.ambient)
    stacked = f.zeros((u.ambient, u.dim + v.dim))
    stacked[:, : u.dim] = u.basis.T
    stacked[:, u.dim :] = f.neg(v.basis.T)
    ker = kernel(f, stacked)
    rows = [matmul(f, u.basis.T, ker.basis[t, : u.dim]) for t in range(ker.dim)]
    return subspace_from_rows(f, u.ambient, rows)


def _check_pair(u: Subspace, v: Subspace):
    u.field.require_same(v.field)
    if u.ambient != v.ambient:
        raise DimensionError(f"ambient mismatch: {u.ambient} vs {v.ambient}")


# ---------------------------------------------------------------------------
# permutation helpers for tensor legs
#
# A permutation matrix P with P e_src = e_{dst[src]} composes by indexing:
# columns of M o P are M[:, dst];  rows of P o M are M at inverse positions.


def swap_permutation(d: int, e: int) -> np.ndarray:
    """dst indices of the flip V (x) W -> W (x) V, (i,j) |-> (j,i)."""
    dst = np.empty(d * e, dtype=np.int64)
    for i in range(d):
        for j in range(e):
            dst[i * e + j] = j * d + i
    return dst
