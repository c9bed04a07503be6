"""Exact work counts: each construction makes one batched product call,
and each pipeline builds each space it refines once.

A product or membership loop that goes back to one call per vector or
per pair of vectors shows up here as a larger count, without timing
noise.  The counts are of calls of ``Bialgebra.prod``, ``prod2`` and
``prod2op``, of ``conv`` and ``conv_operator`` in the n-antipode
searches, and of ``build_oslash``/``build_boxslash`` in the pipelines,
the CLI and the corpus battery.  The counts of ``conv``, ``solve_matrix``
and ``rref`` pin the work of the searches and of one corpus battery, so
that a faster scalar lane shows as cheaper arithmetic, not as less work;
a convolution is three field products and no Kronecker product.
"""

import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hopfkit
from hopfkit import canonical, cli, cofree, convolution, corpus, envelope, linalg
from hopfkit.bialgebra import Bialgebra, dual_bialgebra, sub_bialgebra, tensor_bialgebra
from hopfkit.canonical import build_boxslash
from hopfkit.cofree import cofree_hopf
from hopfkit.envelope import hopf_envelope
from hopfkit.families import radford_dual, sweedler_h4
from hopfkit.fields import QQ, PrimeField
from hopfkit.linalg import rank
from hopfkit.monoid import monogenic, monoid_bialgebra

from nantipode_reference import reference_conv_powers

F3 = PrimeField(3)


@pytest.fixture
def product_calls(monkeypatch):
    calls = Counter()
    for name in ("prod", "prod2", "prod2op"):
        def counted(self, u, v, _name=name, _product=getattr(Bialgebra, name)):
            calls[_name] += 1
            return _product(self, u, v)
        monkeypatch.setattr(Bialgebra, name, counted)
    return calls


def test_boxslash_and_cofree_make_one_prod2op_call(product_calls):
    b = tensor_bialgebra(sweedler_h4(F3), radford_dual(2, F3))  # 16 coinvariant pairs
    box = build_boxslash(b)
    assert box.dim == 4 and product_calls["prod2op"] == 1
    product_calls.clear()
    cofree_hopf(b)
    assert product_calls["prod2op"] == 1


def test_sub_bialgebra_makes_one_prod_call(product_calls):
    b = tensor_bialgebra(sweedler_h4(F3), radford_dual(2, F3))
    w = build_boxslash(b).im_p
    product_calls.clear()
    sub_bialgebra(b, w)
    assert product_calls["prod"] == 1


def test_envelope_product_calls_do_not_grow_with_dimension(product_calls):
    counts = []
    for m in (monogenic(2, 3), monogenic(6, 6)):  # dimension 5 and 12
        product_calls.clear()
        hopf_envelope(monoid_bialgebra(m, F3))
        counts.append(product_calls["prod"])
    # one call per side per ideal-closure step: left closure, two-sided
    # closure and the bi-ideal check of the quotient
    assert counts == [5, 5]


@pytest.fixture
def convolution_calls(monkeypatch):
    calls = Counter()
    for name in ("conv", "conv_operator"):
        def counted(*args, _name=name, _fn=getattr(convolution, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(convolution, name, counted)
    return calls


@pytest.mark.parametrize("i, p", [(2, 3), (4, 4)])  # index of Id 2 and 4
def test_n_antipode_search_makes_two_operators(convolution_calls, i, p):
    b = monoid_bialgebra(monogenic(i, p), F3)
    powers = reference_conv_powers(b, b.dim * b.dim)
    m = rank(F3, np.stack([q.reshape(-1) for q in powers]))  # dim k[Id]
    convolution_calls.clear()
    # one operator at the index, one just below it to certify minimality,
    # and the Krylov sequence Id^{*0}, ..., Id^{*m}
    assert convolution.minimal_left_n_antipode(b).n == i
    assert convolution_calls["conv_operator"] == 2
    assert convolution_calls["conv"] <= m + 2
    convolution_calls.clear()
    convolution.conv_operator(b, powers[1], "right")
    assert convolution_calls == {"conv_operator": 1}


@pytest.fixture
def space_builds(monkeypatch):
    """Counts B (/) B and B (#) B builds wherever a pipeline binds the builders."""
    calls = Counter()
    for name in ("build_oslash", "build_boxslash"):
        def counted(b, _name=name, _build=getattr(canonical, name)):
            calls[_name] += 1
            return _build(b)
        for module in (canonical, envelope, cofree, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_envelope_and_cofree_build_their_space_once(space_builds):
    b = monoid_bialgebra(monogenic(2, 3), F3)
    env = hopf_envelope(b)
    assert space_builds == {"build_oslash": 1}
    assert env.space.source is b and env.space.ker_i.dim == 2
    space_builds.clear()
    cof = cofree_hopf(b)
    assert space_builds == {"build_boxslash": 1}
    assert cof.space.source is b and cof.space.dim == cof.hopf.dim


@pytest.mark.parametrize("command, builds", [
    ("envelope", {"build_oslash": 1}),
    ("cofree", {"build_boxslash": 1}),
    ("frobenius", {"build_oslash": 1, "build_boxslash": 1}),
])
def test_cli_commands_build_each_space_once(space_builds, capsys, command, builds):
    path = Path(hopfkit.__file__).parent / "fixtures" / "monoid_monogenic_2_3.json"
    assert cli.main([command, str(path), "--field", "F3"]) == 0
    assert space_builds == builds


def test_check_fixture_builds(space_builds):
    # H(B), C(B), iterate_Q and iterate_K (two steps each, as ker(i_B) != 0
    # and im(p_B) != B) and the duality check's H(B) and C(B*)
    m = monogenic(2, 3)
    fx = corpus.CorpusFixture("monogenic_2_3/F3", monoid_bialgebra(m, F3), m)
    assert corpus.check_fixture(fx)["ok"]
    assert space_builds == {"build_oslash": 4, "build_boxslash": 4}


@pytest.fixture
def work_calls(monkeypatch):
    """Counts calls of ``conv``, ``solve_matrix`` and ``rref`` in every
    module that binds them."""
    calls = Counter()
    modules = [
        importlib.import_module(f"hopfkit.{m.name}")
        for m in pkgutil.iter_modules(hopfkit.__path__) if m.name != "__main__"
    ]
    for owner, name in ((convolution, "conv"), (linalg, "solve_matrix"), (linalg, "rref")):
        fn = getattr(owner, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("i, p, counts", [
    (2, 3, {"minimal_left_n_antipode": (5, 3, 3), "minimal_right_n_antipode": (5, 3, 3),
            "central_n_antipode": (18, 2, 2)}),
    (4, 4, {"minimal_left_n_antipode": (8, 3, 3), "minimal_right_n_antipode": (8, 3, 3),
            "central_n_antipode": (25, 2, 2)}),
])
@pytest.mark.parametrize("field", [QQ, F3], ids=str)
def test_n_antipode_search_work(work_calls, field, i, p, counts):
    b = monoid_bialgebra(monogenic(i, p), field)
    for search, (conv, solves, rrefs) in counts.items():
        work_calls.clear()
        assert getattr(convolution, search)(b).n == i
        assert work_calls == {"conv": conv, "solve_matrix": solves, "rref": rrefs}, search


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
def test_check_fixture_work(work_calls, field):
    m = monogenic(2, 3)
    fx = corpus.CorpusFixture(f"monogenic_2_3/{field}", monoid_bialgebra(m, field), m)
    assert corpus.check_fixture(fx)["ok"]
    assert work_calls == {"conv": 47, "solve_matrix": 18, "rref": 74}


@pytest.mark.parametrize("field", [QQ, F3, PrimeField((1 << 61) - 1)], ids=str)
def test_conv_hom_is_three_products(monkeypatch, field):
    b = sweedler_h4(field)
    dual, unit = dual_bialgebra(b), b.conv_unit
    calls = Counter()
    for name in ("matmul", "kron"):
        def counted(self, x, y, _name=name, _op=getattr(type(field), name)):
            calls[_name] += 1
            return _op(self, x, y)
        monkeypatch.setattr(type(field), name, counted)
    convolution.conv_hom(b, dual, field.eye(b.dim), unit)
    assert calls == {"matmul": 3}
