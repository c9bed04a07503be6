"""Axiom verification, derived bialgebras, ideals, quotients, subobjects."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.bialgebra import (
    augmentation_ideal,
    cop_bialgebra,
    dual_bialgebra,
    ideal_closure,
    is_coideal,
    is_grouplike,
    make_bialgebra,
    morphism_check,
    op_bialgebra,
    primitives,
    quotient_by_biideal,
    sub_bialgebra,
    tensor_bialgebra,
    trivial_bialgebra,
    verify_axioms,
)
from hopfkit.errors import PreconditionError
from hopfkit.families import radford_dual, sweedler_h4
from hopfkit.fields import QQ, PrimeField
from hopfkit.linalg import kernel, matmul, subspace_from_rows, zero_subspace
from hopfkit.monoid import (
    cyclic_group,
    full_transformation_monoid_2,
    monogenic,
    monoid_bialgebra,
    units_and_left_units,
)

from axiom_reference import identical, reference_verify_axioms, same_report

F3 = PrimeField(3)
F61 = PrimeField((1 << 61) - 1)


def c2_by_hand():
    # group algebra of C2 entered directly from the multiplication table
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    comult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return make_bialgebra(QQ, mult, comult, [1, 0], [1, 1], labels=("1", "g"))


def test_group_algebra_passes_all_axioms():
    assert verify_axioms(c2_by_hand()).ok


def test_quotient_quantum_plane_passes(qqp):
    assert verify_axioms(qqp).ok


def test_corrupted_comultiplication_fails_with_witness(qqp):
    comult = qqp.comult.copy()
    y = 3  # index of y in the basis (1, x, x^2, y, xy, x^2y)
    comult[y] = QQ.zeros((6, 6))
    comult[y, y, y] = QQ.one  # Delta(y) = y (x) y breaks compatibility
    broken = make_bialgebra(QQ, qqp.mult.copy(), comult, qqp.unit.copy(), qqp.counit.copy())
    report = verify_axioms(broken)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "comult_is_algebra_map" in failed or "counit_is_algebra_map" in failed
    assert report.first_failure().witness is not None


def test_witness_is_the_first_failing_column():
    # e_y e_xy := e_x in Sweedler's algebra; the witnesses are the first
    # nonzero columns, none of them column 0
    h4 = sweedler_h4(QQ)
    mult = h4.mult.copy()
    mult[2, 3] = QQ.array([0, 1, 0, 0])
    broken = make_bialgebra(QQ, mult, h4.comult.copy(), h4.unit.copy(), h4.counit.copy())
    report = verify_axioms(broken)
    witnesses = {c.name: c.witness for c in report.failures()}
    assert list(witnesses) == [
        "associativity", "comult_is_algebra_map", "counit_is_algebra_map"
    ]
    idx, residual = witnesses["associativity"]
    assert idx == (1, 2, 3) and list(residual) == [-1, 0, 0, 0]
    idx, residual = witnesses["comult_is_algebra_map"]
    assert idx == (2, 3) and list(residual) == [0] * 5 + [-1] + [0] * 10
    idx, residual = witnesses["counit_is_algebra_map"]
    assert idx == (2, 3) and list(residual) == [1]


def _broken_sweedler(**parts):
    h4 = sweedler_h4(QQ)
    tensors = {"mult": h4.mult, "comult": h4.comult, "unit": h4.unit, "counit": h4.counit}
    tensors.update(parts)
    return verify_axioms(make_bialgebra(QQ, **{k: v.copy() for k, v in tensors.items()}))


def _unit(n, k, c=1):
    v = [0] * n
    v[k] = c
    return v


def test_witnesses_of_a_broken_comultiplication():
    # Delta(y) gains y (x) y; witnesses as the kron(., eye) formulas give them
    comult = sweedler_h4(QQ).comult.copy()
    comult[2, 2, 2] = QQ.one
    report = _broken_sweedler(comult=comult)
    witnesses = {c.name: c.witness for c in report.failures()}
    assert list(witnesses) == ["coassociativity", "comult_is_algebra_map"]
    idx, residual = witnesses["coassociativity"]
    assert idx == (2,) and list(residual) == [0] * 34 + [1, 0, 0, 0, -1] + [0] * 25
    idx, residual = witnesses["comult_is_algebra_map"]
    assert idx == (1, 2) and list(residual) == _unit(16, 15, -1)


def test_witnesses_of_a_broken_unit_and_counit():
    # 1 := 1 + x and eps(y) := 1
    report = _broken_sweedler(unit=QQ.array([1, 1, 0, 0]), counit=QQ.array([1, 1, 1, 0]))
    witnesses = {c.name: c.witness for c in report.failures()}
    assert list(witnesses) == [
        "left_unit", "right_unit", "left_counit", "right_counit",
        "counit_is_algebra_map", "comult_of_unit", "counit_of_unit",
    ]
    assert witnesses["left_unit"][0] == witnesses["right_unit"][0] == (0,)
    assert list(witnesses["left_unit"][1]) == list(witnesses["right_unit"][1]) == _unit(4, 1)
    assert witnesses["left_counit"][0] == witnesses["right_counit"][0] == (2,)
    assert list(witnesses["left_counit"][1]) == _unit(4, 0)
    assert list(witnesses["right_counit"][1]) == _unit(4, 1)
    idx, residual = witnesses["counit_is_algebra_map"]
    assert idx == (1, 2) and list(residual) == [-1]
    idx, residual = witnesses["comult_of_unit"]
    assert idx == (0,) and list(residual) == [0, -1, 0, 0, -1] + [0] * 11
    idx, residual = witnesses["counit_of_unit"]
    assert idx == (0,) and list(residual) == [1]


@st.composite
def possibly_broken_bialgebra(draw):
    """A valid bialgebra of dim <= 4 with up to three entries overwritten,
    or structure tensors drawn at random."""
    field = draw(st.sampled_from([QQ, F3, F61]))
    base = draw(st.sampled_from(SMALL_BIALGEBRAS))
    if base is None:
        d = draw(st.integers(1, 4))
        entries = st.integers(-2, 2)
        parts = {
            "mult": field.array(draw(arrays(entries, (d, d, d)))),
            "comult": field.array(draw(arrays(entries, (d, d, d)))),
            "unit": field.array(draw(arrays(entries, (d,)))),
            "counit": field.array(draw(arrays(entries, (d,)))),
        }
    else:
        b = base(field)
        parts = {k: getattr(b, k).copy() for k in ("mult", "comult", "unit", "counit")}
        for _ in range(draw(st.integers(0, 3))):
            a = parts[draw(st.sampled_from(sorted(parts)))]
            at = tuple(draw(st.integers(0, n - 1)) for n in a.shape)
            a[at] = field.scalar(draw(st.integers(-2, 2)))
    return make_bialgebra(field, **parts)


def arrays(entries, shape):
    if not shape:
        return entries
    return st.lists(arrays(entries, shape[1:]), min_size=shape[0], max_size=shape[0])


SMALL_BIALGEBRAS = (
    None,
    trivial_bialgebra,
    lambda f: monoid_bialgebra(cyclic_group(2), f),
    lambda f: monoid_bialgebra(monogenic(1, 2), f),
    lambda f: monoid_bialgebra(full_transformation_monoid_2(), f),
    lambda f: radford_dual(2, f),
    sweedler_h4,
)


@settings(max_examples=150, deadline=None)
@given(possibly_broken_bialgebra())
def test_verify_axioms_matches_the_kron_formulas(b):
    assert same_report(verify_axioms(b), reference_verify_axioms(b))


def test_verify_axioms_at_the_dimension_cap_stays_small():
    # kron(mult_mat, eye) alone would be 32**5 int64 entries, 268 MB; on the
    # dual, the products Delta(p) Delta(q) meet 2**20 pairs of nonzeros,
    # which the batched product on B (x) B takes in blocks
    b = monoid_bialgebra(monogenic(16, 16), F3)
    for b in (b, dual_bialgebra(b)):
        tracemalloc.start()
        try:
            report = verify_axioms(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 128 * 2 ** 20


def test_op_and_cop_are_involutions(qqp):
    assert np.array_equal(op_bialgebra(op_bialgebra(qqp)).mult, qqp.mult)
    assert np.array_equal(cop_bialgebra(cop_bialgebra(qqp)).comult, qqp.comult)


def test_dual_is_involution_and_valid(qqp):
    dd = dual_bialgebra(dual_bialgebra(qqp))
    assert np.array_equal(dd.mult, qqp.mult)
    assert np.array_equal(dd.comult, qqp.comult)
    assert np.array_equal(dd.unit, qqp.unit)
    assert verify_axioms(dual_bialgebra(qqp)).ok


def test_tensor_bialgebra_valid(kc2):
    t = tensor_bialgebra(kc2, kc2)
    assert t.dim == 4
    assert verify_axioms(t).ok


def test_augmentation_ideal_dims(qqp, kc2):
    assert augmentation_ideal(trivial_bialgebra(QQ)).dim == 0
    aug = augmentation_ideal(qqp)
    assert aug.dim == 5
    x_minus_1 = QQ.array([-1, 1, 0, 0, 0, 0])
    y = QQ.array([0, 0, 0, 1, 0, 0])
    assert aug.contains(x_minus_1) and aug.contains(y)
    aug2 = augmentation_ideal(kc2)
    assert aug2.dim == 1
    assert aug2.contains(QQ.array([-1, 1]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F3, F61]),
       st.lists(st.integers(-2, 2), min_size=1, max_size=6))
def test_augmentation_ideal_is_the_kernel_of_the_counit(f, counit):
    # the closed-form basis is the canonical basis of ker(eps), for any
    # nonzero counit covector (entries in -2..2 are nonzero in every field)
    if not any(counit):
        counit[-1] = 1
    d = len(counit)
    b = make_bialgebra(f, f.zeros((d, d, d)), f.zeros((d, d, d)), f.zeros(d), counit)
    aug, ker = augmentation_ideal(b), kernel(f, b.counit_row)
    assert aug == ker and identical(aug.basis, ker.basis)
    assert [type(c) for c in aug.pivots] == [type(c) for c in ker.pivots]


def test_augmentation_ideal_is_two_sided_ideal_and_coideal(qqp):
    aug = augmentation_ideal(qqp)
    assert ideal_closure(qqp, aug, "two_sided") == aug
    assert is_coideal(qqp, aug)


def test_ideal_closure_examples(qqp):
    zero = zero_subspace(QQ, 6)
    assert ideal_closure(qqp, zero, "left") == zero
    # left closure of span{x^2 - 1}: y(x^2-1) = x^2 y - y joins, x(x^2-1) = 0
    gen = subspace_from_rows(QQ, 6, [QQ.array([-1, 0, 1, 0, 0, 0])])
    left = ideal_closure(qqp, gen, "left")
    assert left.dim == 2
    assert left.contains(QQ.array([0, 0, 0, -1, 0, 1]))  # x^2 y - y
    full = subspace_from_rows(QQ, 6, [qqp.basis_vector(i) for i in range(6)])
    assert ideal_closure(qqp, full, "two_sided") == full


def test_is_coideal_examples(qqp):
    ker_i = subspace_from_rows(
        QQ, 6, [QQ.array([-1, 0, 1, 0, 0, 0]), QQ.array([0, 0, 0, -1, 0, 1])]
    )
    assert is_coideal(qqp, ker_i)
    assert not is_coideal(qqp, subspace_from_rows(QQ, 6, [qqp.unit.copy()]))


def test_quotient_by_zero_is_isomorphic_copy(qqp):
    quo, mor = quotient_by_biideal(qqp, zero_subspace(QQ, 6))
    assert quo.dim == qqp.dim
    assert np.array_equal(quo.mult, qqp.mult)
    assert np.array_equal(mor.matrix, QQ.eye(6))
    assert mor.is_bialgebra_map


def test_quotient_by_relations_gives_sweedler_presentation(qqp):
    ideal = subspace_from_rows(
        QQ, 6, [QQ.array([-1, 0, 1, 0, 0, 0]), QQ.array([0, 0, 0, -1, 0, 1])]
    )
    quo, mor = quotient_by_biideal(qqp, ideal)
    assert quo.dim == 4
    assert verify_axioms(quo).ok
    xbar = quo.field.zeros(4)
    xbar[quo.labels.index("x")] = QQ.one
    ybar = quo.field.zeros(4)
    ybar[quo.labels.index("y" if "y" in quo.labels else "xy")] = QQ.one
    # x^2 = 1, y^2 = 0, yx = -xy
    assert np.array_equal(quo.prod(xbar, xbar), quo.unit)
    y_idx = mor.matrix[:, 3]  # image of y
    assert np.all(quo.prod(y_idx, y_idx) == 0)
    assert np.array_equal(quo.prod(y_idx, xbar), -quo.prod(xbar, y_idx))


def test_quotient_by_augmentation_ideal_is_ground_field(qqp):
    quo, _ = quotient_by_biideal(qqp, augmentation_ideal(qqp))
    assert quo.dim == 1
    assert verify_axioms(quo).ok


def test_quotient_preconditions_named(qqp):
    not_ideal = subspace_from_rows(QQ, 6, [QQ.array([-1, 0, 1, 0, 0, 0])])
    with pytest.raises(PreconditionError, match="two-sided ideal"):
        quotient_by_biideal(qqp, not_ideal)
    # the span of x alone is a coideal test-case failure: eps(x) = 1
    not_coideal = ideal_closure(
        qqp, subspace_from_rows(QQ, 6, [QQ.array([0, 1, 0, 0, 0, 0])]), "two_sided"
    )
    with pytest.raises(PreconditionError, match="coideal"):
        quotient_by_biideal(qqp, not_coideal)


def test_sub_bialgebra_examples(qqp, km23):
    full = subspace_from_rows(QQ, 6, [qqp.basis_vector(i) for i in range(6)])
    sub, mor = sub_bialgebra(qqp, full)
    assert sub.dim == 6 and mor.is_bialgebra_map
    one = subspace_from_rows(QQ, 6, [qqp.unit.copy()])
    sub1, _ = sub_bialgebra(qqp, one)
    assert sub1.dim == 1
    # span of the monoid units of <x | x^5 = x^2> is just the ground field
    m = monogenic(2, 3)
    units = units_and_left_units(m)["units"]
    span = subspace_from_rows(QQ, 5, [km23.basis_vector(u) for u in units])
    subm, _ = sub_bialgebra(km23, span)
    assert subm.dim == 1


def test_sub_bialgebra_precondition_witnesses(qqp):
    bad = subspace_from_rows(QQ, 6, [QQ.array([0, 1, 0, 0, 0, 0])])
    with pytest.raises(PreconditionError, match="unit"):
        sub_bialgebra(qqp, bad)
    with_unit = subspace_from_rows(QQ, 6, [qqp.unit.copy(), QQ.array([0, 0, 0, 1, 0, 0])])
    with pytest.raises(PreconditionError):
        sub_bialgebra(qqp, with_unit)  # Delta(y) leaves w (x) w


def test_sub_bialgebra_witnesses_name_the_first_pair(qqp):
    # basis 1, x, x^2, y, xy, x^2y; the messages were recorded with the
    # per-pair loops, which stop at the first pair (s, t) in loop order
    e = QQ.eye(6)
    no_products = subspace_from_rows(QQ, 6, [e[0], e[2], e[3]])  # x^2 y leaves
    with pytest.raises(PreconditionError) as exc:
        sub_bialgebra(qqp, no_products)
    assert str(exc.value) == "sub_bialgebra: product of basis vectors 1,2 leaves the subspace"
    no_coproducts = subspace_from_rows(QQ, 6, [e[0], e[2], e[3], e[5]])  # Delta(y) leaves
    with pytest.raises(PreconditionError) as exc:
        sub_bialgebra(qqp, no_coproducts)
    assert str(exc.value) == "sub_bialgebra: comultiplication of basis vector 2 leaves w (x) w"


def test_primitives(qqp, kc2):
    assert primitives(qqp).dim == 0
    assert primitives(kc2).dim == 0
    # zero is always primitive: the solution space is a subspace
    assert primitives(trivial_bialgebra(QQ)).dim == 0


def test_primitives_nontrivial_case():
    # F2[t]/(t^2) with Delta(t) = t (x) 1 + 1 (x) t; needs characteristic 2
    # because Delta(t)^2 = 2 t (x) t must vanish
    f2 = PrimeField(2)
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    comult = [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]
    b = make_bialgebra(f2, mult, comult, [1, 0], [1, 0])
    assert verify_axioms(b).ok
    p = primitives(b)
    assert p.dim == 1
    assert p.contains(f2.array([0, 1]))


def test_is_grouplike(kc2, km23):
    assert is_grouplike(kc2, kc2.unit)
    for i in range(km23.dim):
        assert is_grouplike(km23, km23.basis_vector(i))
    assert not is_grouplike(kc2, QQ.array([1, 1]))


def test_morphism_check_identity_and_counit(qqp):
    ident = morphism_check(QQ.eye(6), qqp, qqp)
    assert ident.is_bialgebra_map
    k = trivial_bialgebra(QQ)
    eps = morphism_check(qqp.counit_row.copy(), qqp, k)
    assert eps.is_bialgebra_map
    u = morphism_check(qqp.unit_col.copy(), k, qqp)
    assert u.is_bialgebra_map
    ue = morphism_check(matmul(QQ, qqp.unit_col, qqp.counit_row), qqp, qqp)
    assert ue.algebra_map and ue.coalgebra_map


def test_morphism_check_projection_to_sweedler(qqp):
    # x^a y^b |-> x^(a mod 2) y^b is a bialgebra map onto Sweedler's algebra
    h4 = sweedler_h4(QQ)
    f = QQ.zeros((4, 6))
    for a in range(3):
        for b in range(2):
            f[2 * b + (a % 2), 3 * b + a] = QQ.one
    mor = morphism_check(f, qqp, h4)
    assert mor.is_bialgebra_map
    # a nonexample: collapsing x to 1 breaks the coalgebra square
    g = QQ.zeros((4, 6))
    for a in range(3):
        for b in range(2):
            g[2 * b, 3 * b + a] = QQ.one
    assert not morphism_check(g, qqp, h4).is_bialgebra_map


def test_monoid_bialgebra_over_f3_valid():
    b = monoid_bialgebra(cyclic_group(3), F3)
    assert verify_axioms(b).ok
    assert primitives(b).dim == 0
