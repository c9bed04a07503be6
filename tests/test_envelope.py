"""Hopf envelope pipeline: quotients, antipodes, the quotient isomorphism,
the universal-property witness, and iteration."""

import numpy as np
import pytest

from hopfkit.bialgebra import ideal_closure, verify_axioms
from hopfkit.canonical import build_oslash
from hopfkit.cofree import cofree_hopf
from hopfkit.convolution import conv, conv_unit
from hopfkit.envelope import (
    Q_of,
    cocommutative_envelope_check,
    hopf_envelope,
    iterate_Q,
    oslash_iso_check,
)
from hopfkit.errors import PreconditionError
from hopfkit.families import radford_dual, sweedler_h4
from hopfkit.fields import QQ, PrimeField
from hopfkit.linalg import kernel, matmul, solve_matrix, subspace_from_rows
from hopfkit.monoid import cyclic_group, monogenic, monoid_bialgebra


def test_q_of_hopf_input_is_isomorphic_copy(kc2):
    quo, mor = Q_of(build_oslash(kc2))
    assert quo.dim == 2
    assert np.array_equal(mor.matrix, QQ.eye(2))
    assert np.array_equal(quo.mult, kc2.mult)


def test_q_of_examples(qqp_oslash, km23):
    assert Q_of(qqp_oslash)[0].dim == 4
    assert Q_of(build_oslash(km23))[0].dim == 3


def test_envelope_of_group_algebra_is_itself():
    b = monoid_bialgebra(cyclic_group(3), QQ)
    env = hopf_envelope(b)
    assert env.hopf.dim == 3
    assert np.array_equal(env.hopf.mult, b.mult)
    # antipode sends each group element to its inverse
    assert np.array_equal(env.antipode[:, 1], b.basis_vector(2))


def test_envelope_of_quantum_plane(qqp, qqp_envelope):
    env = qqp_envelope
    assert env.hopf.dim == 4
    assert verify_axioms(env.hopf).ok
    qx = env.structure_map.matrix[:, 1]
    assert np.array_equal(env.hopf.prod(qx, qx), env.hopf.unit)
    eye = QQ.eye(4)
    cu = conv_unit(env.hopf)
    assert np.array_equal(conv(env.hopf, env.antipode, eye), cu)
    assert np.array_equal(conv(env.hopf, eye, env.antipode), cu)
    assert env.structure_map.is_bialgebra_map


def test_envelope_of_dual_radford_is_ground_field():
    env = hopf_envelope(radford_dual(2, QQ))
    assert env.hopf.dim == 1


def test_oslash_iso(qqp_envelope, kc2):
    assert oslash_iso_check(hopf_envelope(kc2))
    assert oslash_iso_check(qqp_envelope)


def test_cocommutative_envelope_check(kc2, km23, qqp):
    assert cocommutative_envelope_check(kc2)
    assert cocommutative_envelope_check(km23)
    with pytest.raises(PreconditionError):
        cocommutative_envelope_check(qqp)


def test_iterate_q(qqp, kc2):
    hopf, steps = iterate_Q(kc2)
    assert steps == 0 and hopf.dim == 2
    hopf2, steps2 = iterate_Q(qqp)
    assert steps2 == 1 and hopf2.dim == 4


def test_bi_ideal_generated_by_relation_equals_ker_i(qqp, qqp_oslash):
    # the two-sided ideal generated by x^2 - 1 is exactly ker(i_B)
    gen = subspace_from_rows(QQ, 6, [QQ.array([-1, 0, 1, 0, 0, 0])])
    assert ideal_closure(qqp, gen, "two_sided") == qqp_oslash.ker_i


def test_dim_formula(qqp, qqp_oslash, qqp_envelope, km23):
    assert qqp_envelope.hopf.dim == qqp.dim - qqp_oslash.ker_i.dim
    env = hopf_envelope(km23)
    assert env.hopf.dim == km23.dim - env.space.ker_i.dim


def test_universal_property_witness(qqp, qqp_envelope):
    # the projection onto Sweedler's algebra factors uniquely through q_B
    h4 = sweedler_h4(QQ)
    f = QQ.zeros((4, 6))
    for a in range(3):
        for b in range(2):
            f[2 * b + (a % 2), 3 * b + a] = QQ.one
    q = qqp_envelope.structure_map.matrix
    # solve hhat @ q = f  <=>  q^T hhat^T = f^T, then check uniqueness
    hhat_t = solve_matrix(QQ, q.T.copy(), f.T.copy())
    assert hhat_t is not None
    hhat = hhat_t.T.copy()
    assert np.array_equal(matmul(QQ, hhat, q), f)
    # q surjective => zero kernel on the transposed system => unique factoring
    assert kernel(QQ, q.T.copy()).dim == 0
    from hopfkit.bialgebra import morphism_check

    assert morphism_check(hhat, qqp_envelope.hopf, h4).is_bialgebra_map


def test_envelope_antipode_order_four(qqp, qqp_envelope):
    # on the quotient the antipode squares to conjugation-like order 4
    s = qqp_envelope.antipode
    s2 = matmul(QQ, s, s)
    s4 = matmul(QQ, s2, s2)
    assert np.array_equal(s4, QQ.eye(4))


@pytest.mark.parametrize("index, period", [(8, 8), (10, 10)])
def test_monogenic_rungs_of_dim_16_and_20(index, period):
    # H(k<x | x^(i+p) = x^i>) is the group algebra of C_p; C(B) is the ground field
    b = monoid_bialgebra(monogenic(index, period), PrimeField(3))
    assert hopf_envelope(b).hopf.dim == period
    assert cofree_hopf(b).hopf.dim == 1
