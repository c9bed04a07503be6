"""Constructors for the non-monoid example families used as golden fixtures.

Each constructor returns a verified bialgebra; a failed axiom here is a
construction bug, so verification is unconditional.
"""

from __future__ import annotations

from .bialgebra import Bialgebra, assert_valid, coalgebra_residuals, make_bialgebra
from .errors import PreconditionError
from .fields import Field, QQ
from .linalg import is_zero_matrix


def quotient_quantum_plane(field: Field = QQ) -> Bialgebra:
    """Six-dimensional bialgebra on {1, x, x^2, y, xy, x^2y}.

    Relations yx = -xy, x^3 = x, y^2 = 0; comultiplication is the algebra
    map with Delta(x) = x (x) x and Delta(y) = x (x) y + y (x) 1.  The sign
    degenerates in characteristic 2, which is therefore rejected.
    """
    if field.characteristic == 2:
        raise PreconditionError("quotient quantum plane needs characteristic != 2")
    d = 6

    def idx(a, b):  # x^a y^b with a in 0..2, b in 0..1
        return 3 * b + a

    def red(a):  # reduce x-exponent via x^3 = x
        while a > 2:
            a -= 2
        return a

    mult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(3):
        for b in range(2):
            for c in range(3):
                for e in range(2):
                    if b + e >= 2:
                        continue  # y^2 = 0
                    sign = -1 if (b * c) % 2 else 1
                    mult[idx(a, b)][idx(c, e)][idx(red(a + c), b + e)] = sign

    # Delta(x^a y^b) = (x^a (x) x^a) * Delta(y)^b with Delta(y) = x(x)y + y(x)1
    comult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(3):
        comult[idx(a, 0)][idx(a, 0)][idx(a, 0)] = 1
        comult[idx(a, 1)][idx(red(a + 1), 0)][idx(a, 1)] = 1
        comult[idx(a, 1)][idx(a, 1)][idx(a, 0)] = 1

    unit = [0] * d
    unit[idx(0, 0)] = 1
    counit = [0] * d
    for a in range(3):
        counit[idx(a, 0)] = 1  # eps(x) = 1, eps(y) = 0

    labels = ("1", "x", "x^2", "y", "xy", "x^2y")
    return assert_valid(make_bialgebra(field, mult, comult, unit, counit, labels))


def sweedler_h4(field: Field = QQ) -> Bialgebra:
    """Sweedler's four-dimensional Hopf algebra on {1, x, y, xy}."""
    if field.characteristic == 2:
        raise PreconditionError("Sweedler algebra needs characteristic != 2")
    d = 4

    def idx(a, b):
        return 2 * b + a

    def red(a):
        return a % 2

    mult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for e in range(2):
                    if b + e >= 2:
                        continue
                    sign = -1 if (b * c) % 2 else 1
                    mult[idx(a, b)][idx(c, e)][idx(red(a + c), b + e)] = sign
    comult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(2):
        comult[idx(a, 0)][idx(a, 0)][idx(a, 0)] = 1
        comult[idx(a, 1)][idx(red(a + 1), 0)][idx(a, 1)] = 1
        comult[idx(a, 1)][idx(a, 1)][idx(a, 0)] = 1
    unit = [0] * d
    unit[0] = 1
    counit = [0] * d
    counit[idx(0, 0)] = 1
    counit[idx(1, 0)] = 1
    return assert_valid(
        make_bialgebra(field, mult, comult, unit, counit, ("1", "x", "y", "xy"))
    )


def matrix_coalgebra(n: int, field: Field = QQ):
    """Structure constants of the n x n matrix coalgebra.

    Basis e_{ij} ordered row-major; Delta(e_ij) = sum_k e_ik (x) e_kj and
    eps(e_ij) = delta_ij.  Returned as (comult, counit) raw data.
    """
    d = n * n
    comult = [[[0] * d for _ in range(d)] for _ in range(d)]
    counit = [0] * d
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comult[i * n + j][i * n + k][k * n + j] = 1
            if i == j:
                counit[i * n + j] = 1
    return comult, counit


def radford_adjoin_unit(comult, counit, field: Field = QQ, labels=None) -> Bialgebra:
    """Adjoin a unit to a coalgebra, multiplying by c c' = eps(c) c'.

    The input is coalgebra data (comultiplication tensor and counit) over
    the given field; coassociativity and counitality are checked before
    the bialgebra is assembled.
    """
    cm = field.array(comult)
    cu = field.array(counit)
    n = cu.shape[0]
    if cm.shape != (n, n, n):
        raise PreconditionError("coalgebra data has inconsistent shapes")
    if not all(is_zero_matrix(diff) for _, diff, _ in coalgebra_residuals(field, cm, cu)):
        raise PreconditionError("input is not a coassociative counital coalgebra")

    d = n + 1  # index 0 is the adjoined unit
    mult = field.zeros((d, d, d))
    for j in range(d):
        mult[0, j, j] = field.one
        mult[j, 0, j] = field.one
    for i in range(1, d):
        for j in range(1, d):
            mult[i, j, j] = cu[i - 1]
    comult_b = field.zeros((d, d, d))
    comult_b[0, 0, 0] = field.one
    comult_b[1:, 1:, 1:] = cm
    unit = field.zeros(d)
    unit[0] = field.one
    counit_b = field.zeros(d)
    counit_b[0] = field.one
    counit_b[1:] = cu
    if labels is None:
        labels = ("1",) + tuple(f"c{i}" for i in range(n))
    return assert_valid(make_bialgebra(field, mult, comult_b, unit, counit_b, labels))


def radford_dual(n: int, field: Field = QQ) -> Bialgebra:
    """Dimension n+1 bialgebra on {1, x, ..., x^n} with x^(n+1) = x.

    Comultiplication: Delta(x^t) = 1 (x) x^t + x^t (x) (1 - x^n) for t > 0,
    counit eps(x^t) = 0.  The grouplike elements are 1 and 1 - x^n.
    """
    if n < 1:
        raise PreconditionError("order must be at least 1")
    d = n + 1

    def red(e):
        return e if e <= n else e - n  # x^(n+1) = x, exponents stay <= n

    mult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(d):
            mult[a][b][red(a + b)] = 1
    comult = field.zeros((d, d, d))
    comult[0, 0, 0] = field.one
    one = field.one
    for t in range(1, d):
        comult[t, 0, t] = field.add(comult[t, 0, t], one)
        comult[t, t, 0] = field.add(comult[t, t, 0], one)
        comult[t, t, n] = field.sub(comult[t, t, n], one)
    unit = [0] * d
    unit[0] = 1
    counit = [0] * d
    counit[0] = 1
    labels = ("1",) + tuple("x" if k == 1 else f"x^{k}" for k in range(1, d))
    return assert_valid(make_bialgebra(field, field.array(mult), comult, unit, counit, labels))
