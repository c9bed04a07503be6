"""The batched products on B and B (x) B against their per-pair loops.

``prod``/``prod2``/``prod2op`` (single vectors, zero vectors, batches of
n columns), ``gamma_matrix``, ``can_matrix``, ``can_prime_matrix`` and
the Delta(pq) = Delta(p) Delta(q) axiom must agree with the loops of
``product_reference`` in entries, dtype and entry type; so must
``ideal_closure``, ``quotient_by_biideal``, ``sub_bialgebra`` and the
product of ``build_boxslash``, which batch one product per pair.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.bialgebra import (
    _TERM_BLOCK,
    augmentation_ideal,
    column_blocks,
    dual_bialgebra,
    ideal_closure,
    make_bialgebra,
    quotient_by_biideal,
    sub_bialgebra,
    tensor_bialgebra,
    verify_axioms,
)
from hopfkit.canonical import (
    build_boxslash,
    build_oslash,
    can_matrix,
    can_prime_matrix,
    gamma_matrix,
)
from hopfkit.corpus import named_fixtures, random_monoid
from hopfkit.errors import PreconditionError
from hopfkit.families import (
    matrix_coalgebra,
    quotient_quantum_plane,
    radford_adjoin_unit,
    radford_dual,
    sweedler_h4,
)
from hopfkit.fields import QQ, PrimeField
from hopfkit.linalg import all_pairs, subspace_from_rows, zero_subspace
from hopfkit.monoid import cyclic_group, monoid_bialgebra

from axiom_reference import identical, reference_verify_axioms, same_report
from product_reference import (
    reference_boxslash_mult,
    reference_can_matrix,
    reference_can_prime_matrix,
    reference_gamma_matrix,
    reference_ideal_closure,
    reference_prod,
    reference_prod_columns,
    reference_quotient_by_biideal,
    reference_quotient_comult,
    reference_sub_bialgebra,
    reference_tensor_prod,
    reference_tensor_prod_columns,
)

FIELDS = [QQ, PrimeField(3), PrimeField((1 << 31) - 1), PrimeField((1 << 61) - 1)]


def _inputs():
    named = [(fx.name, fx.bialgebra) for fx in named_fixtures()]
    rng = random.Random(20251)
    for f in FIELDS:
        named.append((f"random_monoid/{f}", monoid_bialgebra(random_monoid(rng), f)))
        named.append((f"c2_x_sweedler/{f}", tensor_bialgebra(
            monoid_bialgebra(cyclic_group(2), f), sweedler_h4(f))))
        named.append((f"radford2_x_c2/{f}", tensor_bialgebra(
            radford_dual(2, f), monoid_bialgebra(cyclic_group(2), f))))
    return named + [(f"dual({name})", dual_bialgebra(b)) for name, b in named]


INPUTS = _inputs()
IDS = [name for name, _ in INPUTS]
#: the inputs whose B (/) B and B (#) B take well under a second: all but
#: the dimension-8 ones over Q
SMALL = [(name, b) for name, b in INPUTS if b.dim < 8 or b.field != QQ]
SMALL_IDS = [name for name, _ in SMALL]


def _random_columns(f, rows, n, rng):
    """rows x n matrix of sparse random entries; column 0 is zero when n > 1."""
    raw = rng.integers(-3, 4, size=(rows, n)) * (rng.random((rows, n)) < 0.3)
    if n > 1:
        raw[:, 0] = 0
    out = f.zeros((rows, n))
    for (r, c), x in np.ndenumerate(raw):
        out[r, c] = f.scalar(int(x))
    return out


@pytest.mark.parametrize("name, b", INPUTS, ids=IDS)
def test_structure_matrices_match_reference_loops(name, b):
    assert identical(gamma_matrix(b), reference_gamma_matrix(b))
    assert identical(can_matrix(b), reference_can_matrix(b))
    assert identical(can_prime_matrix(b), reference_can_prime_matrix(b))


@pytest.mark.parametrize("name, b", INPUTS, ids=IDS)
@pytest.mark.parametrize("op", [False, True], ids=["prod2", "prod2op"])
def test_tensor_products_match_reference_loops(name, b, op):
    product = b.prod2op if op else b.prod2
    rng = np.random.default_rng(len(name))
    d = b.dim
    for n in (1, 4):
        u, v = (_random_columns(b.field, d * d, n, rng) for _ in range(2))
        assert identical(product(u, v), reference_tensor_prod_columns(b, u, v, op))
        for c in range(n):
            assert identical(product(u[:, c], v[:, c]), reference_tensor_prod(b, u[:, c], v[:, c], op))
    # the batch verify_axioms builds: Delta(e_p) Delta(e_q) at column p*d+q
    cm = b.comult_mat
    u, v = np.repeat(cm, d, axis=1), np.tile(cm, (1, d))
    assert identical(product(u, v), reference_tensor_prod_columns(b, u, v, op))
    zero = b.field.zeros(d * d)
    assert identical(product(zero, cm[:, 0]), b.field.zeros(d * d))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_only_broken_multiplicativity_has_the_reference_witness(field):
    # k[x]/(x^2) with x primitive: Delta(x)^2 = 2 x (x) x but Delta(x^2) = 0,
    # and every other axiom holds away from characteristic 2
    dual_numbers = make_bialgebra(
        field,
        [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        [[[1, 0], [0, 0]], [[0, 1], [1, 0]]],
        [1, 0],
        [1, 0],
        labels=("1", "x"),
    )
    c2 = monoid_bialgebra(cyclic_group(2), field)
    for b in (dual_numbers, tensor_bialgebra(dual_numbers, c2)):
        report = verify_axioms(b)
        assert [c.name for c in report.failures()] == ["comult_is_algebra_map"]
        assert same_report(report, reference_verify_axioms(b))
    witness = verify_axioms(dual_numbers).first_failure().witness
    assert witness[0] == (1, 1)
    assert identical(witness[1], field.array([0, 0, 0, -2]))


@pytest.mark.parametrize("name, b", INPUTS, ids=IDS)
def test_products_on_b_match_reference_loops(name, b):
    f, d = b.field, b.dim
    rng = np.random.default_rng(len(name))
    for n in (0, 1, 5):
        u, v = (_random_columns(f, d, n, rng) for _ in range(2))
        assert identical(b.prod(u, v), reference_prod_columns(b, u, v))
        for c in range(n):
            assert identical(b.prod(u[:, c], v[:, c]), reference_prod(b, u[:, c], v[:, c]))
    # the multiplication table: e_i e_j at column i*d+j
    e, e2 = all_pairs(f.eye(d), f.eye(d))
    assert identical(b.prod(e, e2), reference_prod_columns(b, e, e2))
    zero = f.zeros(d)
    assert identical(b.prod(zero, b.unit), reference_prod(b, zero, b.unit))
    assert identical(b.prod(b.unit, zero), f.zeros(d))


def _random_subspace(b, rng):
    f, d = b.field, b.dim
    return subspace_from_rows(f, d, list(_random_columns(f, d, int(rng.integers(0, 3)), rng).T))


def _same_subspace(x, y):
    return x == y and identical(x.basis, y.basis)


@pytest.mark.parametrize("name, b", INPUTS, ids=IDS)
def test_ideal_closure_matches_reference_loops(name, b):
    rng = np.random.default_rng(len(name) + 1)
    for _ in range(3):
        v = _random_subspace(b, rng)
        for side in ("left", "right", "two_sided"):
            assert _same_subspace(ideal_closure(b, v, side), reference_ideal_closure(b, v, side))


def _same_bialgebra(x, y):
    return (
        all(identical(getattr(x, a), getattr(y, a)) for a in ("mult", "comult", "unit", "counit"))
        and x.labels == y.labels
    )


def _same_result(got, ref):
    """Same bialgebra and structure map, or the same precondition message."""
    if isinstance(got, str) or isinstance(ref, str):
        return got == ref
    return _same_bialgebra(got[0], ref[0]) and identical(got[1].matrix, ref[1].matrix)


def _outcome(build, b, w):
    try:
        return build(b, w)
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("name, b", SMALL, ids=SMALL_IDS)
def test_quotients_match_reference_loops(name, b):
    f = b.field
    ideals = [zero_subspace(f, b.dim), augmentation_ideal(b), build_oslash(b).ker_i]
    rng = np.random.default_rng(len(name) + 2)
    # two-sided ideals that are often not coideals
    ideals += [ideal_closure(b, _random_subspace(b, rng)) for _ in range(2)]
    for ideal in ideals:
        got = _outcome(quotient_by_biideal, b, ideal)
        assert _same_result(got, _outcome(reference_quotient_by_biideal, b, ideal))


def _named_over(f):
    """The constructions of the named corpus fixtures over f, and their duals."""
    out = [
        ("quotient_quantum_plane", quotient_quantum_plane(f)),
        ("sweedler_h4", sweedler_h4(f)),
        ("dual_radford_2", radford_dual(2, f)),
        ("dual_radford_3", radford_dual(3, f)),
        ("radford_unit_matrix2", radford_adjoin_unit(*matrix_coalgebra(2, f), field=f)),
    ]
    monoids = {fx.name.split("/")[0]: fx.monoid for fx in named_fixtures() if fx.monoid}
    out += [(name, monoid_bialgebra(m, f)) for name, m in monoids.items()]
    return out + [(f"dual({name})", dual_bialgebra(b)) for name, b in out]


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField((1 << 61) - 1)], ids=str)
def test_quotient_comult_matches_reference_loop_on_ker_i(field):
    for name, b in _named_over(field):
        ker_i = build_oslash(b).ker_i
        quo, _ = quotient_by_biideal(b, ker_i)
        assert identical(quo.comult, reference_quotient_comult(b, ker_i)), name


@pytest.mark.parametrize("name, b", SMALL, ids=SMALL_IDS)
def test_sub_bialgebras_match_reference_loops(name, b):
    f, d = b.field, b.dim
    box = build_boxslash(b)
    assert identical(box.mult, reference_boxslash_mult(b, box.space))
    spans = [box.im_p, subspace_from_rows(f, d, [b.unit])]
    rng = np.random.default_rng(len(name) + 3)
    for _ in range(3):  # with the unit, most fail one of the closure checks
        extra = _random_columns(f, d, int(rng.integers(1, 3)), rng).T
        spans.append(subspace_from_rows(f, d, [b.unit, *extra]))
    for w in spans:
        assert _same_result(_outcome(sub_bialgebra, b, w), _outcome(reference_sub_bialgebra, b, w))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.integers(0, 40), st.integers(0, _TERM_BLOCK), st.just(_TERM_BLOCK - 1)), max_size=10))
def test_column_blocks_split_at_multiples_of_the_block_weight(weights):
    # a new run starts where the weight before a column first reaches the
    # next multiple of _TERM_BLOCK; a total below it is one run
    weight = np.array(weights, dtype=np.int64)
    before = weight.cumsum() - weight
    starts = [c for c in range(1, len(weight)) if before[c] // _TERM_BLOCK != before[c - 1] // _TERM_BLOCK]
    edges = [0, *starts, len(weight)]
    assert [tuple(map(int, run)) for run in column_blocks(weight)] == list(zip(edges, edges[1:]))
