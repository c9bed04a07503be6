"""Per-pair loops for the products on B and B (x) B.

References for the batched kernel behind ``Bialgebra.prod``/``prod2``/
``prod2op`` and for ``gamma_matrix``, ``can_matrix`` and
``can_prime_matrix``: each visits one pair of nonzeros at a time and adds
a dense term, the way the identities are written.  The ideal closure,
quotient, sub-bialgebra and B (#) B product are rebuilt here from one
product and one membership test per pair of vectors.  Only for small
dimensions.
"""

import numpy as np

from hopfkit.bialgebra import make_bialgebra, morphism_check, verify_axioms
from hopfkit.errors import ConstructionError, PreconditionError
from hopfkit.linalg import kron, matmul, subspace_from_rows


def _nonzero_pairs(row_matrix):
    """Nonzero (i, j, value) triples of a d x d coefficient matrix."""
    idx = np.argwhere(row_matrix != 0)
    return [(int(i), int(j), row_matrix[i, j]) for i, j in idx]


def _basis(f, d, k):
    v = f.zeros(d)
    v[k] = f.one
    return v


def reference_tensor_prod(b, u, v, op=False):
    """Product of two vectors of B (x) B, or of B (x) B^op when ``op``."""
    f = b.field
    d = b.dim
    second = b.mult.transpose(1, 0, 2) if op else b.mult
    out = f.zeros(d * d)
    for s in np.nonzero(u != 0)[0]:
        i, j = divmod(int(s), d)
        for t in np.nonzero(v != 0)[0]:
            k, l = divmod(int(t), d)
            term = f.kron(b.mult[i, k], second[j, l])
            out = f.addmul(out, f.mul(u[s], v[t]), term)
    return out


def reference_tensor_prod_columns(b, u, v, op=False):
    """``reference_tensor_prod`` column by column of two d^2 x n matrices."""
    out = b.field.zeros(u.shape)
    for c in range(u.shape[1]):
        out[:, c] = reference_tensor_prod(b, u[:, c], v[:, c], op)
    return out


def reference_gamma_matrix(b):
    """Matrix of gamma(x (x) y) = x1 (x) y1 (x) x2 y2 - x (x) y (x) 1."""
    f = b.field
    d = b.dim
    g = f.zeros((d ** 3, d * d))
    for i in range(d):
        di = _nonzero_pairs(b.comult[i])
        for j in range(d):
            dj = _nonzero_pairs(b.comult[j])
            col = f.zeros(d ** 3)
            for a, bb, ci in di:
                for c, e, cj in dj:
                    base = (a * d + c) * d
                    col[base : base + d] = f.addmul(
                        col[base : base + d], f.mul(ci, cj), b.mult[bb, e]
                    )
            base = (i * d + j) * d
            col[base : base + d] = f.sub(col[base : base + d], b.unit)
            g[:, i * d + j] = col
    return g


def reference_can_matrix(b):
    """Matrix of can(x (x) y) = x y1 (x) y2."""
    f = b.field
    d = b.dim
    out = f.zeros((d * d, d * d))
    for j in range(d):
        dj = _nonzero_pairs(b.comult[j])
        for i in range(d):
            col = f.zeros(d * d)
            for a, bb, cj in dj:
                col = f.addmul(col, cj, kron(f, b.mult[i, a], _basis(f, d, bb)))
            out[:, i * d + j] = col
    return out


def reference_can_prime_matrix(b):
    """Matrix of can'(x (x) y) = x1 (x) x2 y."""
    f = b.field
    d = b.dim
    out = f.zeros((d * d, d * d))
    for i in range(d):
        di = _nonzero_pairs(b.comult[i])
        for j in range(d):
            col = f.zeros(d * d)
            for a, bb, ci in di:
                col = f.addmul(col, ci, kron(f, _basis(f, d, a), b.mult[bb, j]))
            out[:, i * d + j] = col
    return out


def reference_prod(b, u, v):
    """Product of two vectors of B."""
    f = b.field
    out = f.zeros(b.dim)
    for i in np.nonzero(u != 0)[0]:
        for j in np.nonzero(v != 0)[0]:
            out = f.addmul(out, f.mul(u[i], v[j]), b.mult[i, j])
    return out


def reference_prod_columns(b, u, v):
    """``reference_prod`` column by column of two d x n matrices."""
    out = b.field.zeros(u.shape)
    for c in range(u.shape[1]):
        out[:, c] = reference_prod(b, u[:, c], v[:, c])
    return out


def reference_left_multiples(b, v):
    """Spanning vectors of B . V."""
    rows = []
    for t in range(v.dim):
        for i in range(b.dim):
            rows.append(reference_prod(b, b.basis_vector(i), v.basis[t]))
    return rows


def reference_right_multiples(b, v):
    """Spanning vectors of V . B."""
    rows = []
    for t in range(v.dim):
        for i in range(b.dim):
            rows.append(reference_prod(b, v.basis[t], b.basis_vector(i)))
    return rows


def reference_ideal_closure(b, v, sidedness="two_sided"):
    cur = v
    while True:
        rows = [cur.basis[t] for t in range(cur.dim)]
        if sidedness in ("left", "two_sided"):
            rows += reference_left_multiples(b, cur)
        if sidedness in ("right", "two_sided"):
            rows += reference_right_multiples(b, cur)
        nxt = subspace_from_rows(b.field, b.dim, rows)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt


def reference_is_coideal(b, v):
    f = b.field
    if v.dim == 0:
        return True
    if any(b.eps(v.basis[t]) != 0 for t in range(v.dim)):
        return False
    eye = f.eye(b.dim)
    mixed = subspace_from_rows(
        f, b.dim * b.dim, list(kron(f, v.basis, eye)) + list(kron(f, eye, v.basis))
    )
    return all(mixed.contains(b.delta(v.basis[t])) for t in range(v.dim))


def reference_quotient_comult(b, ideal):
    """Comultiplication of B / ideal: proj (x) proj applied to Delta(e_c) for
    each complement coordinate c, one nonzero of Delta(e_c) at a time."""
    f = b.field
    proj, _, comp = ideal.quotient_maps()
    q = len(comp)
    comult = f.zeros((q, q, q))
    for t in range(q):
        dk = b.comult[comp[t]]
        acc = f.zeros((q, q))
        for i, j in zip(*np.nonzero(dk != 0)):
            acc = f.addmul(acc, dk[i, j], f.mul(proj[:, i, None], proj[None, :, j]))
        comult[t] = acc
    return comult


def reference_quotient_by_biideal(b, ideal):
    """The quotient bialgebra and projection, one product per basis pair."""
    if reference_ideal_closure(b, ideal) != ideal:
        raise PreconditionError("quotient_by_biideal: subspace is not a two-sided ideal")
    if not reference_is_coideal(b, ideal):
        raise PreconditionError("quotient_by_biideal: subspace is not a coideal")
    f = b.field
    proj, _, comp = ideal.quotient_maps()
    q = len(comp)
    mult = f.zeros((q, q, q))
    for s in range(q):
        for t in range(q):
            mult[s, t] = matmul(f, proj, b.mult[comp[s], comp[t]])
    comult = reference_quotient_comult(b, ideal)
    unit = matmul(f, proj, b.unit)
    counit = b.counit[list(comp)].copy()
    labels = tuple(b.labels[c] for c in comp)
    quo = make_bialgebra(f, mult, comult, unit, counit, labels)
    assert verify_axioms(quo).ok
    return quo, morphism_check(proj, b, quo)


def reference_sub_bialgebra(b, w):
    """The sub-bialgebra and inclusion, one product and membership test per pair."""
    f = b.field
    if not w.contains(b.unit):
        raise PreconditionError("sub_bialgebra: unit not contained in subspace")
    k = w.dim
    pivots = list(w.pivots)
    mult = f.zeros((k, k, k))
    for s in range(k):
        for t in range(k):
            p = reference_prod(b, w.basis[s], w.basis[t])
            if not w.contains(p):
                raise PreconditionError(
                    f"sub_bialgebra: product of basis vectors {s},{t} leaves the subspace"
                )
            mult[s, t] = p[pivots]
    ww = subspace_from_rows(
        f, b.dim * b.dim, [kron(f, w.basis[s], w.basis[t]) for s in range(k) for t in range(k)]
    )
    comult = f.zeros((k, k, k))
    for t in range(k):
        dv = b.delta(w.basis[t])
        if not ww.contains(dv):
            raise PreconditionError(
                f"sub_bialgebra: comultiplication of basis vector {t} leaves w (x) w"
            )
        comult[t] = dv.reshape(b.dim, b.dim)[np.ix_(pivots, pivots)]
    unit = b.unit[pivots].copy()
    counit = f.zeros(k)
    for t in range(k):
        counit[t] = b.eps(w.basis[t])
    labels = []
    for t in range(k):
        nz = np.nonzero(w.basis[t] != 0)[0]
        one = len(nz) == 1 and w.basis[t, nz[0]] == f.one
        labels.append(b.labels[nz[0]] if one else f"v{t}")
    sub = make_bialgebra(f, mult, comult, unit, counit, tuple(labels))
    assert verify_axioms(sub).ok
    return sub, morphism_check(w.basis.T.copy(), sub, b)


def reference_boxslash_mult(b, w):
    """Structure constants of B (#) B on its canonical basis ``w``, one
    ``prod2op`` product and one coordinate lookup per pair."""
    f = b.field
    s = w.dim
    mult = f.zeros((s, s, s))
    for s1 in range(s):
        for s2 in range(s):
            coords = w.coordinates(reference_tensor_prod(b, w.basis[s1], w.basis[s2], op=True))
            if coords is None:
                raise ConstructionError(f"product of coinvariants {s1},{s2} leaves the subspace")
            mult[s1, s2] = coords
    return mult
