"""Whole-row elimination and the Kronecker convolution.

References for ``linalg.rref`` (on every lane: the int64 kernel and the
object arrays alike) and ``convolution.conv_hom``.  The row reduction
works on the dense matrix, in the textbook order: pick the first nonzero
at or below the current row in each column, scale its row, and subtract
a multiple of the whole pivot row, zeros included, from each other row
with a nonzero in the pivot column.  The library instead inserts rows
one at a time into a sparse echelon basis; the reduced row echelon form
is unique, so both must agree entry for entry.  The convolution builds
the d**2 x d**2 matrix f (x) g between two products, the way
m o (f (x) g) o Delta is written.
"""

from hopfkit.linalg import kron, matmul


def reference_rref_object(f, a):
    """``(r, pivots)``: the reduced row echelon form of ``a`` over ``f``."""
    r = f.zeros(a.shape)
    r[...] = a
    m, n = r.shape
    pivots = []
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
            r[[row, piv]] = r[[piv, row]]
        r[row] = f.mul(r[row], f.inv(r[row, col]))
        for i in range(m):
            if i != row and r[i, col] != 0:
                r[i] = f.submul(r[i], r[i, col], r[row])
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def reference_conv_hom(source, target, f, g):
    """m_target o (f (x) g) o Delta_source by one Kronecker product."""
    fld = source.field
    return matmul(fld, target.mult_mat, matmul(fld, kron(fld, f, g), source.comult_mat))
