"""Convolution products, powers, inverses and minimal n-antipodes.

The n-antipode searches and ``conv_operator`` must agree with the linear
search of ``nantipode_reference`` in index, matrix (entries, dtype and
entry type), side and centrality.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfkit.cli
from hopfkit import convolution
from hopfkit.bialgebra import dual_bialgebra
from hopfkit.canonical import build_boxslash, build_oslash, frobenius_report
from hopfkit.convolution import (
    antipode_shape_check,
    central_n_antipode,
    conv,
    conv_hom,
    conv_inverse,
    conv_operator,
    conv_power,
    conv_unit,
    minimal_left_n_antipode,
    minimal_right_n_antipode,
)
from hopfkit.corpus import named_fixtures, random_monoid
from hopfkit.errors import InvariantViolation
from hopfkit.families import (
    matrix_coalgebra,
    quotient_quantum_plane,
    radford_adjoin_unit,
    radford_dual,
    sweedler_h4,
)
from hopfkit.fields import QQ, PrimeField
from hopfkit.monoid import cyclic_group, monogenic, monoid_bialgebra

from axiom_reference import identical
from lane_reference import reference_conv_hom
from nantipode_reference import (
    reference_central,
    reference_conv_operator,
    reference_conv_powers,
    reference_one_sided,
)

FIELDS = [QQ, PrimeField(3), PrimeField((1 << 31) - 1), PrimeField((1 << 61) - 1)]


def _random_endo(field, d, rng):
    return field.array([[rng.randrange(-3, 4) for _ in range(d)] for _ in range(d)])


def test_convolution_unit_laws(qqp):
    rng = random.Random(2)
    f = _random_endo(QQ, 6, rng)
    cu = conv_unit(qqp)
    assert np.array_equal(conv(qqp, f, cu), f)
    assert np.array_equal(conv(qqp, cu, f), f)


def test_convolution_associativity_random_triples(qqp):
    rng = random.Random(3)
    for _ in range(4):
        f, g, h = (_random_endo(QQ, 6, rng) for _ in range(3))
        assert np.array_equal(
            conv(qqp, conv(qqp, f, g), h), conv(qqp, f, conv(qqp, g, h))
        )


def test_convolution_associativity_prime_field():
    f3 = PrimeField(3)
    b = monoid_bialgebra(monogenic(1, 2), f3)
    rng = random.Random(5)
    for _ in range(4):
        f, g, h = (_random_endo(f3, 3, rng) for _ in range(3))
        assert np.array_equal(conv(b, conv(b, f, g), h), conv(b, f, conv(b, g, h)))


def test_grouplike_squares_in_c2(kc2):
    # Id * Id sends g to g^2 = 1
    sq = conv_power(kc2, 2)
    assert np.array_equal(sq[:, 1], kc2.unit)


def test_id_powers_on_quantum_plane(qqp):
    # Id^{*2}(y) = xy + y and Id^{*3}(y) = x^2 y + xy + y
    y = 3
    p2 = conv_power(qqp, 2)
    p3 = conv_power(qqp, 3)
    assert np.array_equal(p2[:, y], QQ.array([0, 0, 0, 1, 1, 0]))
    assert np.array_equal(p3[:, y], QQ.array([0, 0, 0, 1, 1, 1]))


def test_power_zero_is_unit_and_fast_equals_iterated(qqp):
    assert np.array_equal(conv_power(qqp, 0), conv_unit(qqp))
    iterated = reference_conv_powers(qqp, 8)
    for k in range(9):
        assert np.array_equal(conv_power(qqp, k), iterated[k])


def test_monogenic_power_stabilization():
    # on k<x | x^(n+1) = x^n>: Id^{*(n+1)} = Id^{*n}
    for n in (1, 2, 3):
        b = monoid_bialgebra(monogenic(n, 1), QQ)
        assert np.array_equal(conv_power(b, n + 1), conv_power(b, n))


def test_radford_style_idempotent_identity():
    b = radford_adjoin_unit(*matrix_coalgebra(2, QQ), field=QQ)
    assert np.array_equal(conv_power(b, 2), QQ.eye(5))
    r = radford_dual(2, QQ)
    assert np.array_equal(conv_power(r, 2), QQ.eye(3))


def test_conv_inverse_group_algebra():
    b = monoid_bialgebra(cyclic_group(3), QQ)
    s = conv_inverse(b, QQ.eye(3))
    assert s is not None
    # antipode permutes grouplikes to their inverses: g |-> g^2
    assert np.array_equal(s[:, 1], b.basis_vector(2))
    assert np.array_equal(s[:, 2], b.basis_vector(1))


def test_conv_inverse_absent_for_idempotent_monoid():
    b = monoid_bialgebra(monogenic(1, 1), QQ)
    assert conv_inverse(b, QQ.eye(2)) is None
    assert conv_inverse(b, QQ.eye(2), side="left") is None
    assert conv_inverse(b, QQ.eye(2), side="right") is None


def test_conv_inverse_on_envelope_output(qqp, qqp_envelope):
    h = qqp_envelope.hopf
    s = conv_inverse(h, h.field.eye(4))
    assert s is not None
    assert np.array_equal(conv(h, s, h.field.eye(4)), conv_unit(h))
    # the antipode of a Hopf algebra is unique, so it matches the result
    assert np.array_equal(s, qqp_envelope.antipode)


def test_sweedler_antipode_values():
    h4 = sweedler_h4(QQ)
    s = conv_inverse(h4, QQ.eye(4))
    x, y, xy = 1, 2, 3
    assert np.array_equal(s[:, x], h4.basis_vector(x))       # S(x) = x
    expected = QQ.zeros(4)
    expected[xy] = -QQ.one
    assert np.array_equal(s[:, y], expected)                 # S(y) = -xy


def test_minimal_left_n_antipode_examples(qqp):
    for m in (cyclic_group(2), cyclic_group(3)):
        assert minimal_left_n_antipode(monoid_bialgebra(m, QQ)).n == 0
    for n in (1, 2, 3):
        b = monoid_bialgebra(monogenic(n, 1), QQ)
        res = minimal_left_n_antipode(b)
        assert res.n == n
        assert res.check(b)
    res = minimal_left_n_antipode(qqp)
    assert res.n == 1 and res.check(qqp)


def test_paper_witness_for_quantum_plane(qqp):
    # 2 Id - Id^{*3} is a two-sided 1-antipode with S(x) = x, S(y) = (1-x-x^2)y
    s = 2 * QQ.eye(6) - conv_power(qqp, 3)
    assert np.array_equal(conv(qqp, s, conv_power(qqp, 2)), QQ.eye(6))
    assert np.array_equal(conv(qqp, conv_power(qqp, 2), s), QQ.eye(6))
    assert np.array_equal(s[:, 1], qqp.basis_vector(1))
    assert np.array_equal(s[:, 3], QQ.array([0, 0, 0, 1, -1, -1]))
    shape = antipode_shape_check(qqp, s)
    assert shape["anti_algebra"]


def test_central_n_antipode_examples(qqp):
    b = monoid_bialgebra(monogenic(2, 3), QQ)
    res = central_n_antipode(b)
    assert res.n == 2 and res.central and res.sided == "two_sided"
    # Id^{*2} is a valid witness at the same index
    p2 = conv_power(b, 2)
    assert np.array_equal(conv(b, p2, conv_power(b, 3)), p2)
    r = radford_adjoin_unit(*matrix_coalgebra(2, QQ), field=QQ)
    resr = central_n_antipode(r)
    assert resr.n == 1
    # u o eps is a valid witness at index 1
    assert np.array_equal(conv(r, conv_unit(r), conv_power(r, 2)), conv_power(r, 1))
    g = monoid_bialgebra(cyclic_group(2), QQ)
    resg = central_n_antipode(g)
    assert resg.n == 0
    assert np.array_equal(resg.matrix, conv_inverse(g, QQ.eye(2)))


def test_left_right_central_indices_agree(qqp, km23):
    for b in (qqp, km23, radford_dual(2, QQ)):
        left = minimal_left_n_antipode(b)
        right = minimal_right_n_antipode(b)
        central = central_n_antipode(b)
        assert left.n == right.n == central.n


def test_antipode_shape_checks(kc2, qqp):
    s = conv_inverse(kc2, QQ.eye(2))
    shape = antipode_shape_check(kc2, s)
    assert shape["anti_algebra"] and shape["anti_coalgebra"]
    # u o eps factors through the ground field: both flags hold
    shape2 = antipode_shape_check(qqp, conv_unit(qqp))
    assert shape2["anti_algebra"] and shape2["anti_coalgebra"]
    # the identity on a noncommutative bialgebra is not anti-multiplicative
    shape3 = antipode_shape_check(qqp, QQ.eye(6))
    assert not shape3["anti_algebra"]


def test_invertible_id_matches_frobenius(kc2):
    # conv inverse of Id exists iff n = 0 iff the Frobenius booleans hold
    assert conv_inverse(kc2, QQ.eye(2)) is not None
    assert minimal_left_n_antipode(kc2).n == 0
    rep = frobenius_report(build_oslash(kc2), build_boxslash(kc2))
    assert rep.i_bijective and rep.p_bijective and rep.consistent


def _same_result(got, ref):
    return (
        got.n == ref.n
        and identical(got.matrix, ref.matrix)
        and got.sided == ref.sided
        and got.central == ref.central
    )


def _assert_searches_match_reference(b):
    assert _same_result(minimal_left_n_antipode(b), reference_one_sided(b, "left"))
    assert _same_result(minimal_right_n_antipode(b), reference_one_sided(b, "right"))
    assert _same_result(central_n_antipode(b), reference_central(b))


NAMED = [(fx.name, fx.bialgebra) for fx in named_fixtures()]
NAMED += [(f"dual({name})", dual_bialgebra(b)) for name, b in NAMED]


@pytest.mark.parametrize("name, b", NAMED, ids=[name for name, _ in NAMED])
def test_n_antipodes_match_reference_search(name, b):
    _assert_searches_match_reference(b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from([QQ, PrimeField(3)]),
       dual=st.booleans())
def test_n_antipodes_of_random_monoids_match_reference_search(seed, field, dual):
    b = monoid_bialgebra(random_monoid(random.Random(seed), max_size=4), field)
    _assert_searches_match_reference(dual_bialgebra(b) if dual else b)


def _named_constructions(field):
    """Each construction of the named fixtures once, over ``field``."""
    out = [
        ("quotient_quantum_plane", quotient_quantum_plane(field)),
        ("sweedler_h4", sweedler_h4(field)),
        ("dual_radford_2", radford_dual(2, field)),
        ("dual_radford_3", radford_dual(3, field)),
        ("radford_unit_matrix2", radford_adjoin_unit(*matrix_coalgebra(2, field), field=field)),
    ]
    monoids = {fx.name.split("/")[0]: fx.monoid for fx in named_fixtures() if fx.monoid}
    return out + [(name, monoid_bialgebra(m, field)) for name, m in monoids.items()]


#: the named fixtures and their duals as shipped, and rebuilt over Q, F3
#: and F_(2^61-1)
CONV_HOM_INPUTS = NAMED + [
    (f"{kind}/{field}", b)
    for field in (QQ, PrimeField(3), PrimeField((1 << 61) - 1))
    for name, a in _named_constructions(field)
    for kind, b in ((name, a), (f"dual({name})", dual_bialgebra(a)))
]


@pytest.mark.parametrize("name, b", CONV_HOM_INPUTS, ids=[name for name, _ in CONV_HOM_INPUTS])
def test_conv_hom_matches_the_kronecker_form(name, b):
    # on End(B), and on Hom(B, B*), source and target of one dimension
    # whose structure tensors differ
    rng = random.Random(name)
    f, g = (_random_endo(b.field, b.dim, rng) for _ in range(2))
    assert identical(conv_hom(b, b, f, g), reference_conv_hom(b, b, f, g))
    dual = dual_bialgebra(b)
    assert identical(conv_hom(b, dual, f, g), reference_conv_hom(b, dual, f, g))
    unit = conv_unit(b)
    assert identical(conv_hom(b, b, unit, f), reference_conv_hom(b, b, unit, f))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("side", ["left", "right"])
def test_conv_operator_matches_reference_loop(field, side):
    rng = random.Random(7)
    for b in (quotient_quantum_plane(field), dual_bialgebra(radford_dual(2, field))):
        h = _random_endo(field, b.dim, rng)
        assert identical(conv_operator(b, h, side), reference_conv_operator(b, h, side))


@pytest.fixture
def misplaced_index(monkeypatch):
    """Make ``_id_powers`` report the index of Id shifted by ``by``."""
    def shift(by):
        find = convolution._id_powers

        def shifted(b):
            powers, span, k = find(b)
            return powers, span, k + by

        monkeypatch.setattr(convolution, "_id_powers", shifted)
    return shift


@pytest.mark.parametrize("by, n, verdict", [(-1, 1, "inconsistent"), (1, 2, "consistent")])
@pytest.mark.parametrize("side", ["left", "right"])
def test_misplaced_index_of_id_is_an_invariant_violation(misplaced_index, side, by, n, verdict):
    # Id has index 2 on monogenic(2, 3): the system at 1 is inconsistent, at 2 not
    b = monoid_bialgebra(monogenic(2, 3), QQ)
    misplaced_index(by)
    search = minimal_left_n_antipode if side == "left" else minimal_right_n_antipode
    with pytest.raises(InvariantViolation, match=f"{side} n-antipode solve at n = {n} is {verdict}"):
        search(b)


def test_misplaced_index_of_id_exits_3(misplaced_index, capsys):
    misplaced_index(1)
    path = str(Path(hopfkit.__file__).parent / "fixtures" / "monoid_monogenic_2_3.json")
    assert hopfkit.cli.main(["nantipode", path, "--field", "F3"]) == 3
    err = capsys.readouterr().err
    assert "index 3" in err and "Traceback" not in err
