"""Bialgebras given by structure constants, axiom checks, derived bialgebras.

A bialgebra of dimension d over an exact field stores

* ``mult[i, j, :]``   coordinates of e_i e_j,
* ``comult[k, i, j]`` coefficient of e_i (x) e_j in Delta(e_k),
* ``unit``            coordinates of 1,
* ``counit``          the covector (eps(e_0), ..., eps(e_{d-1})).

Derived matrices follow the column convention of :mod:`hopfkit.linalg`:
``mult_mat`` is d x d^2 (column i*d+j holds e_i e_j) and ``comult_mat``
is d^2 x d.  Every check in this module is an exact structure-constant
identity; a failed check always comes with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    InvariantViolation,
    PreconditionError,
    VerificationError,
)
from .fields import Field
from .linalg import (
    Subspace,
    all_pairs,
    is_zero_matrix,
    kernel,
    kron,
    matmul,
    row_space,
    tensordot,
)


@dataclass(eq=False)
class Bialgebra:
    field: Field
    dim: int
    mult: np.ndarray
    comult: np.ndarray
    unit: np.ndarray
    counit: np.ndarray
    labels: tuple

    @cached_property
    def mult_mat(self):
        d = self.dim
        return self.mult.reshape(d * d, d).T.copy()

    @cached_property
    def comult_mat(self):
        d = self.dim
        return self.comult.reshape(d, d * d).T.copy()

    @cached_property
    def unit_col(self):
        return self.unit.reshape(self.dim, 1).copy()

    @cached_property
    def counit_row(self):
        return self.counit.reshape(1, self.dim).copy()

    @cached_property
    def conv_unit(self):
        """Matrix of u o eps, the unit of the convolution algebra."""
        return matmul(self.field, self.unit_col, self.counit_row)

    def basis_vector(self, k):
        v = self.field.zeros(self.dim)
        v[k] = self.field.one
        return v

    @cached_property
    def mult_nonzeros(self):
        """``(start, count, a, value)``: the nonzeros mult[i, k, a] of key
        i*d+k are a[start[key] : start[key] + count[key]], with their values."""
        d = self.dim
        i, k, a = np.nonzero(self.mult != 0)
        count = np.bincount(i * d + k, minlength=d * d)
        return count.cumsum() - count, count, a, self.mult[i, k, a]

    def mult_terms(self, keys):
        """Join ``keys`` (i*d+k each) with the nonzeros of mult[i, k].

        Returns ``(owner, a, value)``, one entry per nonzero mult[i, k, a]
        of every key, where ``owner`` is the position of its key.
        """
        start, count, a, value = self.mult_nonzeros
        owner, offset = _runs(count[keys])
        pos = start[keys][owner] + offset
        return owner, a[pos], value[pos]

    def prod(self, u, v):
        """Product on B of two vectors of length d, or of two d x n matrices
        multiplied column by column."""
        return self._tensor_prod(u, v, legs=1)

    def prod2(self, u, v):
        """Componentwise product on B (x) B: (a(x)b)(c(x)e) = ac (x) be.

        ``u`` and ``v`` are vectors of length d^2, or d^2 x n matrices
        multiplied column by column.
        """
        return self._tensor_prod(u, v, legs=2)

    def prod2op(self, u, v):
        """Product on B (x) B^op: (a(x)b)(c(x)e) = ac (x) eb, batched like prod2."""
        return self._tensor_prod(u, v, legs=2, op=True)

    def _tensor_prod(self, u, v, legs, op=False):
        """Componentwise product on B^(x legs), over the nonzeros only; the
        last leg multiplies in B^op when ``op``.

        A nonzero u[s] meets each nonzero v[t] of its column.  On each leg,
        most significant first, the base-d digits i of s and k of t meet
        the nonzeros mult[i, k, a] (mult[k, i, a] on the op leg:
        mult^op[i, k] = mult[k, i]), and the term lands in the row whose
        digits are the a's.
        """
        f = self.field
        d = self.dim
        u, v = np.asarray(u), np.asarray(v)
        if u.ndim == 1:
            return self._tensor_prod(u[:, None], v[:, None], legs, op)[:, 0]
        n = u.shape[1]
        rows = d ** legs
        out = f.zeros((rows, n))
        cu, su = (u.T != 0).nonzero()  # column by column, rows ascending
        cv, tv = (v.T != 0).nonzero()
        nu, nv = np.bincount(cu, minlength=n), np.bincount(cv, minlength=n)
        pairs = nu * nv
        if not pairs.any():
            return out
        v_start = nv.cumsum() - nv
        fan = int(self.mult_nonzeros[1].max()) ** legs  # terms per pair, at most
        for c0, c1 in column_blocks(pairs * fan + rows):
            # every pair of nonzeros sharing a column of the block
            lo, hi = cu.searchsorted((c0, c1))
            pair, offset = _runs(nv[cu[lo:hi]])
            col, s = cu[lo:hi][pair], su[lo:hi][pair]
            t = tv[v_start[col] + offset]
            values = f.mul(u[s, col], v[t, col])
            m = c1 - c0
            index = col - c0
            i, k = np.unravel_index(s, (d,) * legs), np.unravel_index(t, (d,) * legs)
            keys = [i[leg] * d + k[leg] for leg in range(legs)]
            if op:
                keys[-1] = k[-1] * d + i[-1]
            for leg in range(legs):
                owner, a, x = self.mult_terms(keys[leg])
                values = f.mul(values[owner], x)
                index = index[owner] + a * (d ** (legs - 1 - leg) * m)
                keys[leg + 1:] = [key[owner] for key in keys[leg + 1:]]
            out[:, c0:c1] = f.scatter_sum(index, values, rows * m).reshape(rows, m)
        return out

    def delta(self, v):
        return matmul(self.field, self.comult_mat, v)

    def eps(self, v):
        return matmul(self.field, self.counit_row, v.reshape(-1, 1))[0, 0]

    def is_cocommutative(self) -> bool:
        return bool(np.all(self.comult == self.comult.transpose(0, 2, 1)))


#: terms plus output cells per block of a batched product on B or B (x) B:
#: bounds the temporaries of one block, and keeps the int64 scatter-sums
#: of a block far below 2**63 / (p-1)
_TERM_BLOCK = 1 << 16


def _runs(counts):
    """``(owner, offset)``: item t repeated counts[t] times, numbered 0, 1, ... in its run."""
    ends = counts.cumsum()
    owner = np.arange(len(counts)).repeat(counts)
    return owner, np.arange(len(owner)) - (ends - counts)[owner]


def column_blocks(weight):
    """``(start, stop)`` runs of columns, each of total weight below
    ``_TERM_BLOCK`` plus the weight of its last column."""
    if weight.sum() < _TERM_BLOCK:
        return ((0, len(weight)),)
    block = (weight.cumsum() - weight) // _TERM_BLOCK
    edges = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1), len(weight)]
    return zip(edges, edges[1:])


def make_bialgebra(field, mult, comult, unit, counit, labels=None) -> Bialgebra:
    """Coerce raw structure constants into an (unverified) Bialgebra."""
    mult = field.array(mult)
    comult = field.array(comult)
    unit = field.array(unit)
    counit = field.array(counit)
    d = unit.shape[0]
    if mult.shape != (d, d, d) or comult.shape != (d, d, d):
        raise DimensionError(
            f"structure tensors have shapes {mult.shape}, {comult.shape}; expected ({d},{d},{d})"
        )
    if counit.shape != (d,):
        raise DimensionError("counit length does not match dimension")
    if labels is None:
        labels = tuple(f"e{i}" for i in range(d))
    if len(labels) != d:
        raise DimensionError("label count does not match dimension")
    for a in (mult, comult, unit, counit):
        a.flags.writeable = False
    return Bialgebra(field, d, mult, comult, unit, counit, tuple(labels))


def trivial_bialgebra(field) -> Bialgebra:
    """The ground field as a one-dimensional bialgebra."""
    return make_bialgebra(field, [[[1]]], [[[1]]], [1], [1], labels=("1",))


# ---------------------------------------------------------------------------
# axiom verification


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    witness: tuple | None  # (index tuple, residual vector)


@dataclass
class AxiomReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def first_failure(self):
        bad = self.failures()
        return bad[0] if bad else None


def _diff_witness(diff, d, legs):
    """First nonzero column of a difference matrix as (indices, residual)."""
    diff = np.asarray(diff)
    bad = np.flatnonzero(np.any(diff != 0, axis=0))
    if bad.size == 0:
        return None
    col = c = int(bad[0])
    idx = []
    for _ in range(legs - 1):
        idx.append(c % d)
        c //= d
    idx.append(c)
    return tuple(reversed(idx)), diff[:, col].copy()


def _difference(f: Field, left, right):
    """``f.sub(left, right)`` of two arrays of one shape.  In the object
    lanes it subtracts only where the entries differ: most entries of an
    axiom's two sides are equal, and comparing them costs far less than a
    ``Fraction`` subtraction."""
    if f.dtype is not object:
        return f.sub(left, right)
    out = f.zeros(left.shape)
    differ = left != right
    out[differ] = f.sub(left[differ], right[differ])
    return out


def algebra_residuals(f: Field, mult, unit):
    """``(name, difference, legs)`` of associativity and the unit laws.

    Associativity is the d x d^3 matrix of (e_i e_j) e_k - e_i (e_j e_k)
    over columns (i, j, k), each side one contraction of the (d, d, d)
    tensor ``mult`` with itself: no intermediate exceeds d^4 entries.
    """
    d = len(unit)
    left = tensordot(f, mult, mult, ([2], [0]))  # (i, j, k, c)
    right = tensordot(f, mult, mult, ([1], [2])).transpose(0, 2, 3, 1)
    return [
        ("associativity", _difference(f, left, right).reshape(d ** 3, d).T, 3),
        ("left_unit", f.sub(tensordot(f, unit, mult, ([0], [0])).T, f.eye(d)), 1),
        ("right_unit", f.sub(tensordot(f, mult, unit, ([1], [0])).T, f.eye(d)), 1),
    ]


def coalgebra_residuals(f: Field, comult, counit):
    """``(name, difference, legs)`` of coassociativity and the counit laws.

    Coassociativity is the d^3 x d matrix of (Delta (x) id - id (x) Delta)
    Delta(e_k) over columns k, from the (d, d, d) tensor ``comult``.
    """
    d = len(counit)
    left = tensordot(f, comult, comult, ([1], [0])).transpose(0, 2, 3, 1)  # (k, a, b, c)
    right = tensordot(f, comult, comult, ([2], [0]))
    return [
        ("coassociativity", _difference(f, left, right).reshape(d, d ** 3).T, 1),
        ("left_counit", f.sub(tensordot(f, counit, comult, ([0], [1])).T, f.eye(d)), 1),
        ("right_counit", f.sub(tensordot(f, comult, counit, ([2], [0])).T, f.eye(d)), 1),
    ]


def verify_axioms(b: Bialgebra) -> AxiomReport:
    """Exhaustively check the five bialgebra axiom families."""
    f = b.field
    d = b.dim
    m, cm = b.mult_mat, b.comult_mat
    u, e = b.unit_col, b.counit_row
    # Delta(p) Delta(q) in B (x) B at column p*d+q
    prods = b.prod2(*all_pairs(cm, cm))
    residuals = algebra_residuals(f, b.mult, b.unit) + coalgebra_residuals(f, b.comult, b.counit)
    residuals += [
        ("comult_is_algebra_map", _difference(f, matmul(f, cm, m), prods), 2),
        ("counit_is_algebra_map", f.sub(matmul(f, e, m), kron(f, e, e)), 2),
        ("comult_of_unit", f.sub(matmul(f, cm, u), kron(f, u, u)), 1),
        ("counit_of_unit", f.sub(matmul(f, e, u), f.eye(1)), 1),
    ]
    checks = []
    for name, diff, legs in residuals:
        w = _diff_witness(diff, d, legs)
        checks.append(AxiomCheck(name, w is None, w))
    return AxiomReport(checks)


def assert_valid(b: Bialgebra) -> Bialgebra:
    report = verify_axioms(b)
    if not report.ok:
        bad = report.first_failure()
        raise VerificationError(
            f"bialgebra axiom {bad.name!r} fails at index {bad.witness[0]}",
            witness=bad,
        )
    return b


# ---------------------------------------------------------------------------
# derived bialgebras


def op_bialgebra(b: Bialgebra) -> Bialgebra:
    """Opposite multiplication, same comultiplication."""
    return make_bialgebra(
        b.field, b.mult.transpose(1, 0, 2).copy(), b.comult.copy(), b.unit.copy(),
        b.counit.copy(), b.labels,
    )


def cop_bialgebra(b: Bialgebra) -> Bialgebra:
    """Same multiplication, swapped comultiplication legs."""
    return make_bialgebra(
        b.field, b.mult.copy(), b.comult.transpose(0, 2, 1).copy(), b.unit.copy(),
        b.counit.copy(), b.labels,
    )


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """Dual in the dual basis: multiplication and comultiplication transpose."""
    return make_bialgebra(
        b.field,
        b.comult.transpose(1, 2, 0).copy(),
        b.mult.transpose(2, 0, 1).copy(),
        b.counit.copy(),
        b.unit.copy(),
        tuple(f"{l}'" for l in b.labels),
    )


def tensor_bialgebra(a: Bialgebra, b: Bialgebra) -> Bialgebra:
    """Componentwise structure on A (x) B with the middle-swap comultiplication."""
    a.field.require_same(b.field)
    f = a.field
    D = a.dim * b.dim

    def interleave(x, y):
        # entry ((i,j), (k,l), (r,s)) is x[i,k,r] * y[j,l,s]
        return f.mul(x[:, None, :, None, :, None], y[None, :, None, :, None, :]).reshape(D, D, D)

    labels = tuple(f"{la}*{lb}" for la in a.labels for lb in b.labels)
    return make_bialgebra(
        f, interleave(a.mult, b.mult), interleave(a.comult, b.comult),
        f.kron(a.unit, b.unit), f.kron(a.counit, b.counit), labels,
    )


# ---------------------------------------------------------------------------
# ideals, coideals, quotients, substructures


def augmentation_ideal(b: Bialgebra) -> Subspace:
    """ker(counit); requires a nonzero counit.

    With c the last coordinate where eps is nonzero, its canonical basis
    is e_k - eps(e_k)/eps(e_c) e_c for k != c: row k has its pivot at k,
    as eps(e_k) = 0 for k > c, and column c is the one free column.
    """
    f = b.field
    support = np.flatnonzero(b.counit)
    if not support.size:
        raise PreconditionError("zero counit: not a bialgebra")
    c = int(support[-1])
    rest = [k for k in range(b.dim) if k != c]
    basis = f.eye(b.dim)[rest]
    basis[:, c] = f.neg(f.mul(b.counit[rest], f.inv(b.counit[c])))
    basis.flags.writeable = False
    return Subspace(f, b.dim, basis, tuple(rest))


def ideal_closure(b: Bialgebra, v: Subspace, sidedness: str = "two_sided") -> Subspace:
    """Least ideal of the requested sidedness containing v.

    Each step spans the basis w_t and the products e_i w_t (left) and
    w_t e_i (right), in rows t*d+i.
    """
    if v.ambient != b.dim:
        raise DimensionError("subspace does not live inside the bialgebra")
    cur = v
    while True:
        w, e = all_pairs(cur.basis.T, b.field.eye(b.dim))
        rows = [cur.basis]
        if sidedness in ("left", "two_sided"):
            rows.append(b.prod(e, w).T)
        if sidedness in ("right", "two_sided"):
            rows.append(b.prod(w, e).T)
        nxt = row_space(b.field, np.concatenate(rows))
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt


def is_ideal(b: Bialgebra, v: Subspace, sidedness: str = "two_sided") -> bool:
    return ideal_closure(b, v, sidedness) == v


def is_coideal(b: Bialgebra, v: Subspace) -> bool:
    """eps(V) = 0 and Delta(V) inside V (x) B + B (x) V."""
    if v.ambient != b.dim:
        raise DimensionError("subspace does not live inside the bialgebra")
    if v.dim == 0:
        return True
    f = b.field
    if not is_zero_matrix(matmul(f, b.counit_row, v.basis.T)):
        return False
    eye = f.eye(b.dim)
    mixed = row_space(f, np.concatenate([kron(f, v.basis, eye), kron(f, eye, v.basis)]))
    return mixed.first_outside(b.delta(v.basis.T)) is None


@dataclass
class BialgebraMorphism:
    source: Bialgebra
    target: Bialgebra
    matrix: np.ndarray
    algebra_map: bool
    coalgebra_map: bool

    @property
    def is_bialgebra_map(self) -> bool:
        return self.algebra_map and self.coalgebra_map


def morphism_check(f_mat, a: Bialgebra, b: Bialgebra) -> BialgebraMorphism:
    """Exact commuting-square checks for a candidate morphism a -> b."""
    a.field.require_same(b.field)
    fld = a.field
    f_mat = np.asarray(f_mat)
    if f_mat.shape != (b.dim, a.dim):
        raise DimensionError(f"morphism matrix {f_mat.shape}, expected {(b.dim, a.dim)}")
    ff = kron(fld, f_mat, f_mat)
    alg = fld.equal(
        matmul(fld, f_mat, a.mult_mat), matmul(fld, b.mult_mat, ff)
    ) and fld.equal(matmul(fld, f_mat, a.unit_col), b.unit_col)
    coalg = fld.equal(
        matmul(fld, b.comult_mat, f_mat), matmul(fld, ff, a.comult_mat)
    ) and fld.equal(matmul(fld, b.counit_row, f_mat), a.counit_row)
    return BialgebraMorphism(a, b, f_mat, alg, coalg)


def quotient_by_biideal(b: Bialgebra, ideal: Subspace):
    """Quotient bialgebra and its verified projection.

    The subspace must be a two-sided ideal and a coideal; both properties
    are verified here rather than trusted.
    """
    if not is_ideal(b, ideal, "two_sided"):
        raise PreconditionError("quotient_by_biideal: subspace is not a two-sided ideal")
    if not is_coideal(b, ideal):
        raise PreconditionError("quotient_by_biideal: subspace is not a coideal")
    f = b.field
    proj, _, comp = ideal.quotient_maps()
    q = len(comp)
    products = b.mult[np.ix_(comp, comp)].reshape(q * q, b.dim)
    mult = matmul(f, proj, products.T).T.reshape(q, q, q)
    # proj on each leg of Delta(e_c), c in comp: (t, j, x), then (t, x, y)
    left = tensordot(f, b.comult[list(comp)], proj, ([1], [1]))
    comult = tensordot(f, left, proj, ([1], [1]))
    unit = matmul(f, proj, b.unit)
    counit = b.counit[list(comp)].copy()
    labels = tuple(b.labels[c] for c in comp)
    quo = make_bialgebra(f, mult, comult, unit, counit, labels)
    report = verify_axioms(quo)
    if not report.ok:
        raise InvariantViolation(
            f"quotient by a verified bi-ideal failed axiom {report.first_failure().name}"
        )
    mor = morphism_check(proj, b, quo)
    if not mor.is_bialgebra_map:
        raise InvariantViolation("quotient projection is not a bialgebra map")
    return quo, mor


def sub_bialgebra(b: Bialgebra, w: Subspace):
    """Sub-bialgebra on a subspace, with its verified inclusion.

    Requires: unit inside w, w closed under multiplication, and
    Delta(w) inside w (x) w.  Each failure names a witness.
    """
    if w.ambient != b.dim:
        raise DimensionError("subspace does not live inside the bialgebra")
    f = b.field
    if not w.contains(b.unit):
        raise PreconditionError("sub_bialgebra: unit not contained in subspace")
    k = w.dim
    pivots = list(w.pivots)
    basis = w.basis.T
    products = b.prod(*all_pairs(basis, basis))  # w_s w_t at column s*k+t
    bad = w.first_outside(products)
    if bad is not None:
        s, t = divmod(bad, k)
        raise PreconditionError(
            f"sub_bialgebra: product of basis vectors {s},{t} leaves the subspace"
        )
    deltas = b.delta(basis)
    bad = row_space(f, kron(f, w.basis, w.basis)).first_outside(deltas)
    if bad is not None:
        raise PreconditionError(
            f"sub_bialgebra: comultiplication of basis vector {bad} leaves w (x) w"
        )
    mult = products[pivots].T.reshape(k, k, k)
    comult = deltas.reshape(b.dim, b.dim, k)[np.ix_(pivots, pivots)].transpose(2, 0, 1)
    unit = b.unit[pivots].copy()
    counit = matmul(f, b.counit_row, basis)[0]
    labels = []
    for t in range(k):
        row = w.basis[t]
        nz = np.nonzero(row != 0)[0]
        if len(nz) == 1 and row[nz[0]] == f.one:
            labels.append(b.labels[nz[0]])
        else:
            labels.append(f"v{t}")
    sub = make_bialgebra(f, mult, comult, unit, counit, tuple(labels))
    report = verify_axioms(sub)
    if not report.ok:
        raise InvariantViolation(
            f"sub-bialgebra on a closed subspace failed axiom {report.first_failure().name}"
        )
    mor = morphism_check(w.basis.T.copy(), sub, b)
    if not mor.is_bialgebra_map:
        raise InvariantViolation("sub-bialgebra inclusion is not a bialgebra map")
    return sub, mor


# ---------------------------------------------------------------------------
# distinguished elements


def primitives(b: Bialgebra) -> Subspace:
    """Solution space of Delta(z) = z (x) 1 + 1 (x) z."""
    f = b.field
    eye = f.eye(b.dim)
    op = f.sub(f.sub(b.comult_mat, kron(f, eye, b.unit_col)), kron(f, b.unit_col, eye))
    return kernel(f, op)


def is_grouplike(b: Bialgebra, v) -> bool:
    """Delta(v) = v (x) v and eps(v) = 1, exactly."""
    v = np.asarray(v)
    if not b.field.equal(b.delta(v), kron(b.field, v, v)):
        return False
    return b.eps(v) == b.field.one
