"""The golden example families and their stated properties."""

import numpy as np
import pytest

from hopfkit.bialgebra import is_grouplike, verify_axioms
from hopfkit.convolution import conv, conv_power, conv_unit, conv_inverse, minimal_left_n_antipode
from hopfkit.errors import PreconditionError
from hopfkit.families import (
    matrix_coalgebra,
    quotient_quantum_plane,
    radford_adjoin_unit,
    radford_dual,
    sweedler_h4,
)
from hopfkit.fields import QQ, PrimeField
from hopfkit.monoid import monogenic, monoid_bialgebra


def test_quantum_plane_basics(qqp):
    assert qqp.dim == 6
    assert verify_axioms(qqp).ok
    assert qqp.labels == ("1", "x", "x^2", "y", "xy", "x^2y")
    p3 = conv_power(qqp, 3)
    assert np.array_equal(p3[:, 3], QQ.array([0, 0, 0, 1, 1, 1]))


def test_quantum_plane_rejects_characteristic_two():
    with pytest.raises(PreconditionError):
        quotient_quantum_plane(PrimeField(2))


def test_quantum_plane_over_f5():
    b = quotient_quantum_plane(PrimeField(5))
    assert verify_axioms(b).ok


def test_radford_adjoin_unit_with_matrix_coalgebra():
    b = radford_adjoin_unit(*matrix_coalgebra(2, QQ), field=QQ)
    assert b.dim == 5
    assert verify_axioms(b).ok
    res = minimal_left_n_antipode(b)
    assert res.n == 1
    # u o eps is a valid witness at index 1
    assert np.array_equal(conv(b, conv_unit(b), conv_power(b, 2)), conv_power(b, 1))


def test_radford_adjoin_single_grouplike_is_idempotent_monoid_algebra():
    # a 1-dimensional coalgebra with a grouplike gives k<x | x^2 = x>
    b = radford_adjoin_unit([[[1]]], [1], field=QQ)
    m = monoid_bialgebra(monogenic(1, 1), QQ)
    assert np.array_equal(b.mult, m.mult)
    assert np.array_equal(b.comult, m.comult)
    assert np.array_equal(b.counit, m.counit)


def test_radford_adjoin_rejects_invalid_coalgebra():
    # broken coassociativity
    with pytest.raises(PreconditionError):
        radford_adjoin_unit([[[0, 1], [0, 0]], [[1, 0], [0, 0]]], [1, 0], field=QQ)
    # coassociative, but eps(e_12) = 1 breaks the counit laws
    comult, counit = matrix_coalgebra(2, QQ)
    counit[1] = 1
    with pytest.raises(PreconditionError):
        radford_adjoin_unit(comult, counit, field=QQ)


def test_radford_dual_properties():
    for n in (1, 2, 3):
        b = radford_dual(n, QQ)
        assert b.dim == n + 1
        assert verify_axioms(b).ok
        assert np.array_equal(conv_power(b, 2), QQ.eye(n + 1))
    b2 = radford_dual(2, QQ)
    one_minus_x2 = QQ.array([1, 0, -1])
    assert is_grouplike(b2, b2.unit.copy())
    assert is_grouplike(b2, one_minus_x2)
    for k in (1, 2):
        assert not is_grouplike(b2, b2.basis_vector(k))
    # the scan over all 0/1 coefficient vectors finds exactly the two
    found = []
    for bits in range(1, 2 ** 3):
        v = QQ.array([(bits >> t) & 1 for t in range(3)])
        if is_grouplike(b2, v):
            found.append(bits)
    assert found == [1]  # the unit; 1 - x^2 has a negative coefficient


def test_sweedler_h4_is_hopf():
    h4 = sweedler_h4(QQ)
    assert verify_axioms(h4).ok
    assert conv_inverse(h4, QQ.eye(4)) is not None
    assert minimal_left_n_antipode(h4).n == 0
