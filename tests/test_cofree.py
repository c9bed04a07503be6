"""Cofree pipeline: K(B), antipodes, iteration, the cocommutative variant,
duality, and the maximality property of the cofree sub-bialgebra."""

import numpy as np
import pytest

from hopfkit.bialgebra import dual_bialgebra, sub_bialgebra, verify_axioms
from hopfkit.canonical import build_boxslash
from hopfkit.cofree import (
    K_of,
    cocommutative_cofree,
    cofree_hopf,
    duality_check,
    iterate_K,
)
from hopfkit.convolution import conv_hom, conv_inverse
from hopfkit.corpus import named_fixtures, random_fixtures
from hopfkit.envelope import hopf_envelope
from hopfkit.errors import PreconditionError
from hopfkit.families import matrix_coalgebra, radford_adjoin_unit, radford_dual
from hopfkit.fields import QQ
from hopfkit.linalg import image, matmul, solve, subspace_from_rows
from hopfkit.monoid import (
    cyclic_group,
    direct_product,
    monogenic,
    monoid_bialgebra,
    units_and_left_units,
)

from oracle_utils import (
    basis_aligned_sub_bialgebras,
    basis_aligned_sub_coalgebras,
    contains_subspace,
)


def test_k_of_hopf_input_is_everything(kc2):
    sub, incl = K_of(build_boxslash(kc2))
    assert sub.dim == 2
    assert np.array_equal(incl.matrix, QQ.eye(2))


def test_k_of_periodic_monoid_is_ground_field(km23):
    sub, incl = K_of(build_boxslash(km23))
    assert sub.dim == 1
    assert image(QQ, incl.matrix) == subspace_from_rows(QQ, 5, [km23.unit.copy()])


def test_k_of_quantum_plane(qqp_boxslash):
    sub, _ = K_of(qqp_boxslash)
    assert sub.dim == 1


def test_cofree_hopf_examples(qqp, km23):
    b3 = monoid_bialgebra(cyclic_group(3), QQ)
    cof = cofree_hopf(b3)
    assert cof.hopf.dim == 3
    assert np.array_equal(cof.hopf.mult, b3.mult)
    assert cofree_hopf(qqp).hopf.dim == 1
    assert cofree_hopf(km23).hopf.dim == 1
    r = radford_dual(2, QQ)
    cr = cofree_hopf(r)
    assert cr.hopf.dim == 1
    assert image(QQ, cr.structure_map.matrix) == subspace_from_rows(QQ, 3, [r.unit.copy()])
    ra = radford_adjoin_unit(*matrix_coalgebra(2, QQ), field=QQ)
    cra = cofree_hopf(ra)
    assert cra.hopf.dim == 1
    assert image(QQ, cra.structure_map.matrix) == subspace_from_rows(QQ, 5, [ra.unit.copy()])


def test_iterate_k(kc2, km23):
    _, steps = iterate_K(kc2)
    assert steps == 0
    fixed, steps2 = iterate_K(km23)
    assert steps2 == 1
    info = units_and_left_units(monogenic(2, 3))
    assert fixed.dim == len(info["units"])


def test_cocommutative_cofree(qqp, km23):
    b3 = monoid_bialgebra(cyclic_group(3), QQ)
    cc = cocommutative_cofree(b3)
    assert cc.hopf.dim == 3  # flip-stable: all inverse pairs survive
    assert verify_axioms(cc.hopf).ok
    assert cc.structure_map.is_bialgebra_map
    # commutative monoid with a non-unit: dim C^c = |M^x| matches cofree
    m = monogenic(1, 1)
    b = monoid_bialgebra(m, QQ)
    ccm = cocommutative_cofree(b)
    assert ccm.hopf.dim == len(units_and_left_units(m)["units"])
    assert ccm.hopf.dim == cofree_hopf(b).hopf.dim
    with pytest.raises(PreconditionError):
        cocommutative_cofree(qqp)


def test_cocommutative_cofree_group_product():
    m = direct_product(cyclic_group(2), cyclic_group(2))
    b = monoid_bialgebra(m, QQ)
    cc = cocommutative_cofree(b)
    assert cc.hopf.dim == 4
    assert cc.hopf.dim == build_boxslash(b).dim  # ker gamma is flip-stable here


def test_cocommutative_cofree_flip_stability_dichotomy():
    # dim C^c <= dim (B # B), equality iff ker gamma is flip-stable
    from hopfkit.linalg import subspace_from_rows as sfr
    from hopfkit.linalg import swap_permutation

    cases = [
        monoid_bialgebra(cyclic_group(3), QQ),
        monoid_bialgebra(monogenic(1, 1), QQ),
        dual_bialgebra(radford_dual(2, QQ)),  # cocommutative, not a monoid algebra
    ]
    for b in cases:
        assert b.is_cocommutative()
        box = build_boxslash(b)
        cc = cocommutative_cofree(b)
        assert cc.hopf.dim <= box.dim
        tau = swap_permutation(b.dim, b.dim)
        flipped = sfr(
            b.field, b.dim * b.dim, [box.space.basis[t][tau] for t in range(box.dim)]
        )
        assert (cc.hopf.dim == box.dim) == (flipped == box.space)


def test_duality_examples(qqp, kc2, km23):
    assert duality_check(kc2).ok is True
    assert duality_check(qqp).ok is True
    assert cofree_hopf(dual_bialgebra(qqp)).hopf.dim == 4
    assert duality_check(km23).ok is True
    assert cofree_hopf(dual_bialgebra(km23)).hopf.dim == 3


@pytest.mark.parametrize(
    "fx", named_fixtures() + random_fixtures(20240801, 6), ids=lambda fx: fx.name
)
def test_duality_result_carries_both_sides(fx):
    b = fx.bialgebra
    dual = duality_check(b)
    assert dual.ok is True
    assert dual.envelope.hopf.dim == hopf_envelope(b).hopf.dim
    assert dual.cofree_of_dual.hopf.dim == dual.envelope.hopf.dim


def test_cofree_is_largest_antipode_admitting_sub_bialgebra(qqp, km23):
    # bounded search: every basis-aligned sub-bialgebra strictly containing
    # C(B) admits no convolution inverse of the identity
    for b in (qqp, km23, radford_dual(2, QQ)):
        cof = cofree_hopf(b)
        c_space = image(b.field, cof.structure_map.matrix)
        for span in basis_aligned_sub_bialgebras(b):
            if span.dim <= c_space.dim or not contains_subspace(span, c_space):
                continue
            sub, _ = sub_bialgebra(b, span)
            assert conv_inverse(sub, b.field.eye(sub.dim)) is None


def test_k_contains_every_sub_coalgebra_of_im_p(qqp, km23):
    for b in (qqp, km23):
        box = build_boxslash(b)
        k_space = box.im_p
        for span in basis_aligned_sub_coalgebras(b):
            if all(box.im_p.contains(span.basis[t]) for t in range(span.dim)):
                assert contains_subspace(k_space, span)


def test_inclusion_two_sided_convolution_invertible(km23, qqp):
    # k_B has a left convolution inverse as well (two-sided invertibility)
    for b in (km23, qqp, radford_dual(2, QQ)):
        sub, kmor = K_of(build_boxslash(b))
        f = b.field
        kmat = kmor.matrix
        d, kdim = b.dim, sub.dim
        cols = f.zeros((d * kdim, d * kdim))
        for s in range(d):
            for t in range(kdim):
                e = f.zeros((d, kdim))
                e[s, t] = f.one
                cols[:, s * kdim + t] = conv_hom(sub, b, e, kmat).reshape(-1)
        target = matmul(f, b.unit_col, sub.counit_row).reshape(-1)
        assert solve(f, cols, target) is not None
