"""Per-pair loops for the products on B (x) B.

References for the batched kernel behind ``Bialgebra.prod2``/``prod2op``
and for ``gamma_matrix``, ``can_matrix`` and ``can_prime_matrix``: each
visits one pair of nonzeros at a time and adds a dense ``kron`` term, the
way the identities are written.  Only for small dimensions.
"""

import numpy as np

from hopfkit.linalg import kron


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
