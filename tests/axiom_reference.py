"""The bialgebra axiom checks written with kron embeddings.

A reference for :func:`hopfkit.bialgebra.verify_axioms`: every identity is
the composite of the structure matrices with an identity-padded copy of
another, and Delta(pq) = Delta(p) Delta(q) is the composite
(m (x) m) o (id (x) tau (x) id) o (Delta (x) Delta) with a leg
permutation for tau, so no product on B (x) B of the library is used.
Each difference matrix is built exactly as the identity is written, with
d^5 and d^6 intermediates: only for small dimensions.
``identical`` is the array comparison the reference tests share.
"""

import numpy as np

from hopfkit.bialgebra import AxiomCheck, AxiomReport, _diff_witness
from hopfkit.linalg import kron, matmul


def reference_verify_axioms(b) -> AxiomReport:
    f = b.field
    d = b.dim
    eye = f.eye(d)
    checks = []

    def record(name, diff, legs):
        w = _diff_witness(diff, d, legs)
        checks.append(AxiomCheck(name, w is None, w))

    m, cm = b.mult_mat, b.comult_mat
    assoc = f.sub(matmul(f, m, kron(f, m, eye)), matmul(f, m, kron(f, eye, m)))
    record("associativity", assoc, 3)

    record("left_unit", f.sub(matmul(f, m, kron(f, b.unit_col, eye)), eye), 1)
    record("right_unit", f.sub(matmul(f, m, kron(f, eye, b.unit_col)), eye), 1)

    coassoc = f.sub(matmul(f, kron(f, cm, eye), cm), matmul(f, kron(f, eye, cm), cm))
    record("coassociativity", coassoc, 1)

    record("left_counit", f.sub(matmul(f, kron(f, b.counit_row, eye), cm), eye), 1)
    record("right_counit", f.sub(matmul(f, kron(f, eye, b.counit_row), cm), eye), 1)

    # (m (x) m) o (id (x) tau (x) id) o (Delta (x) Delta): the flip of the
    # middle legs reorders the rows (a, b, c, e) of Delta (x) Delta as (a, c, b, e)
    dd = kron(f, cm, cm).reshape(d, d, d, d, d * d).transpose(0, 2, 1, 3, 4)
    prods = matmul(f, kron(f, m, m), dd.reshape(d ** 4, d * d))
    record("comult_is_algebra_map", f.sub(matmul(f, cm, m), prods), 2)

    ceps = f.sub(matmul(f, b.counit_row, m), kron(f, b.counit_row, b.counit_row))
    record("counit_is_algebra_map", ceps, 2)

    d1 = f.sub(matmul(f, cm, b.unit_col), kron(f, b.unit_col, b.unit_col))
    record("comult_of_unit", d1, 1)
    e1 = f.sub(matmul(f, b.counit_row, b.unit_col), f.eye(1))
    record("counit_of_unit", e1, 1)

    return AxiomReport(checks)


def identical(x, y):
    """Same shape, dtype, entries and, in object arrays, entry types."""
    return (
        x.shape == y.shape
        and x.dtype == y.dtype
        and np.array_equal(x, y)
        and all(type(u) is type(v) for u, v in zip(x.ravel(), y.ravel()))
    )


def same_report(got: AxiomReport, ref: AxiomReport) -> bool:
    """Names, ok flags, witness indices and residuals all agree."""
    if [c.name for c in got.checks] != [c.name for c in ref.checks]:
        return False
    for g, r in zip(got.checks, ref.checks):
        if g.ok != r.ok or (g.witness is None) != (r.witness is None):
            return False
        if g.witness is not None and not (
            g.witness[0] == r.witness[0] and identical(g.witness[1], r.witness[1])
        ):
            return False
    return True
