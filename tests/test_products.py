"""The batched products on B (x) B against their per-pair loops.

``prod2``/``prod2op`` (single vectors, zero vectors, d^2 x n batches),
``gamma_matrix``, ``can_matrix``, ``can_prime_matrix`` and the
Delta(pq) = Delta(p) Delta(q) axiom must agree with the loops of
``product_reference`` in entries, dtype and entry type.
"""

import random

import numpy as np
import pytest

from hopfkit.bialgebra import (
    dual_bialgebra,
    make_bialgebra,
    tensor_bialgebra,
    verify_axioms,
)
from hopfkit.canonical import can_matrix, can_prime_matrix, gamma_matrix
from hopfkit.corpus import named_fixtures, random_monoid
from hopfkit.families import radford_dual, sweedler_h4
from hopfkit.fields import QQ, PrimeField
from hopfkit.monoid import cyclic_group, monoid_bialgebra

from axiom_reference import identical, reference_verify_axioms, same_report
from product_reference import (
    reference_can_matrix,
    reference_can_prime_matrix,
    reference_gamma_matrix,
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


def _random_columns(b, n, rng):
    """d^2 x n matrix of sparse random entries; column 0 is zero when n > 1."""
    f, d2 = b.field, b.dim * b.dim
    raw = rng.integers(-3, 4, size=(d2, n)) * (rng.random((d2, n)) < 0.3)
    if n > 1:
        raw[:, 0] = 0
    out = f.zeros((d2, n))
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
        u, v = _random_columns(b, n, rng), _random_columns(b, n, rng)
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
