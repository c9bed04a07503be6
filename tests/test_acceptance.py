"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (visible with -v / -s);
a pytest failure is the fail line.  Expected values: dimensions and
witnesses stated by the worked examples, and brute-force enumeration
oracles for the micro-scale criterion.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

import hopfkit
from hopfkit.bialgebra import (
    dual_bialgebra,
    is_grouplike,
    primitives,
    verify_axioms,
)
from hopfkit.canonical import build_boxslash, build_oslash
from hopfkit.cofree import cofree_hopf
from hopfkit.convolution import (
    antipode_shape_check,
    conv,
    conv_power,
    conv_unit,
    minimal_left_n_antipode,
)
from hopfkit.envelope import hopf_envelope
from hopfkit.families import (
    matrix_coalgebra,
    radford_adjoin_unit,
    radford_dual,
)
from hopfkit.fields import QQ, PrimeField
from hopfkit.io import document_to_text, serialize_bialgebra
from hopfkit.linalg import image, subspace_from_rows
from hopfkit.monoid import (
    adjoin_zero,
    cyclic_group,
    direct_product,
    enveloping_group,
    make_monoid,
    monogenic,
    monoid_bialgebra,
)

from oracle_utils import all_vectors, gamma_apply_int, oslash_relation_span_oracle

F2 = PrimeField(2)
FIXTURES = Path(hopfkit.__file__).parent / "fixtures"


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_quotient_quantum_plane(qqp, qqp_oslash, qqp_envelope):
    osl = qqp_oslash
    assert osl.ker_i.dim == 2
    assert osl.ker_i.contains(QQ.array([-1, 0, 1, 0, 0, 0]))  # x^2 - 1
    assert osl.dim == 4
    env = qqp_envelope
    assert env.hopf.dim == 4
    qx = env.structure_map.matrix[:, 1]
    assert np.array_equal(env.hopf.prod(qx, qx), env.hopf.unit)
    eye = QQ.eye(4)
    cu = conv_unit(env.hopf)
    assert np.array_equal(conv(env.hopf, env.antipode, eye), cu)
    assert np.array_equal(conv(env.hopf, eye, env.antipode), cu)
    assert cofree_hopf(qqp).hopf.dim == 1
    assert primitives(qqp).dim == 0
    _report("1 (quotient quantum plane: ker i, dims, antipode, C, primitives)")


def test_criterion_2_minimal_n_antipode_indices(qqp, corpus_results):
    res = minimal_left_n_antipode(qqp)
    assert res.n == 1
    s = 2 * QQ.eye(6) - conv_power(qqp, 3)
    assert np.array_equal(conv(qqp, s, conv_power(qqp, 2)), QQ.eye(6))
    assert np.array_equal(s[:, 1], qqp.basis_vector(1))            # S(x) = x
    assert np.array_equal(s[:, 3], QQ.array([0, 0, 0, 1, -1, -1]))  # S(y) = (1-x-x^2)y
    assert antipode_shape_check(qqp, s)["anti_algebra"]
    for n in (1, 2, 3):
        b = monoid_bialgebra(monogenic(n, 1), QQ)
        assert minimal_left_n_antipode(b).n == n
    results, _ = corpus_results
    assert all(r["checks"]["n_index_agreement"] for r in results)
    _report("2 (minimal n-antipode indices and witness; left = central everywhere)")


def test_criterion_3_monogenic_monoid_and_groups():
    m = monogenic(2, 3)
    b = monoid_bialgebra(m, QQ)
    assert b.dim == 5
    env = hopf_envelope(b)
    assert env.hopf.dim == 3
    group, mapping = enveloping_group(m, QQ)
    assert group.size == 3
    assert np.array_equal(group.table, cyclic_group(3).table)
    assert cofree_hopf(b).hopf.dim == 1
    for g in (cyclic_group(2), cyclic_group(5), direct_product(cyclic_group(2), cyclic_group(2))):
        gg, mapping = enveloping_group(g, QQ)
        assert gg.size == g.size
        assert mapping == list(range(g.size))
        assert np.array_equal(gg.table, g.table)
    _report("3 (monogenic monoid dims; enveloping groups)")


def test_criterion_4_radford_families():
    b = radford_dual(2, QQ)
    assert b.dim == 3
    assert np.array_equal(conv_power(b, 2), QQ.eye(3))
    grouplikes = [v for v in _candidate_vectors(b) if is_grouplike(b, v)]
    expected = [QQ.array([1, 0, 0]), QQ.array([1, 0, -1])]
    assert len(grouplikes) == 2
    assert any(np.array_equal(g, expected[0]) for g in grouplikes)
    assert any(np.array_equal(g, expected[1]) for g in grouplikes)
    assert hopf_envelope(b).hopf.dim == 1
    assert cofree_hopf(b).hopf.dim == 1

    ra = radford_adjoin_unit(*matrix_coalgebra(2, QQ), field=QQ)
    assert ra.dim == 5
    env = hopf_envelope(ra)
    assert env.hopf.dim == 1
    cof = cofree_hopf(ra)
    assert cof.hopf.dim == 1
    assert image(QQ, cof.structure_map.matrix) == subspace_from_rows(
        QQ, 5, [ra.unit.copy()]
    )
    assert minimal_left_n_antipode(ra).n == 1
    _report("4 (dual-Radford and adjoin-unit families)")


def _candidate_vectors(b):
    # basis vectors, the unit, and 1 - x^n for the grouplike scan (deduped)
    cands = [b.basis_vector(k) for k in range(b.dim)]
    cands.append(b.unit.copy())
    cands.append(b.unit - b.basis_vector(b.dim - 1))
    seen, out = set(), []
    for v in cands:
        key = tuple(b.field.format_scalar(x) for x in v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def test_criterion_5_duality(corpus_results, qqp):
    results, _ = corpus_results
    assert all(r["checks"]["duality"] is True for r in results)
    assert cofree_hopf(dual_bialgebra(qqp)).hopf.dim == 4
    km = monoid_bialgebra(monogenic(2, 3), QQ)
    assert cofree_hopf(dual_bialgebra(km)).hopf.dim == 3
    _report("5 (duality: dim C(B*) = dim H(B), transpose image = K(B*))")


def test_criterion_6_property_suite(corpus_results):
    results, ok = corpus_results
    assert len(results) >= 24
    required = [
        "i_surjective",
        "p_injective",
        "frobenius_consistent",
        "envelope_hopf",
        "cofree_hopf",
        "iterate_q_one_step",
        "iterate_k_one_step",
        "s_residuals",
        "t_identities",
    ]
    for r in results:
        for key in required:
            assert r["checks"][key], f"{r['name']}: {key} failed"
        for key in (
            "pM_right_cancellative_iff_i_injective",
            "pM_unique_right_inverses_iff_p_injective",
            "pM_group_iff_p_surjective",
        ):
            if key in r["checks"]:
                assert r["checks"][key], f"{r['name']}: {key} failed"
    assert ok
    _report(f"6 (property suite over {len(results)} corpus fixtures)")


def test_criterion_7_micro_oracles():
    reach = [
        monoid_bialgebra(m, F2)
        for m in (
            make_monoid([[0]]),
            cyclic_group(2),
            cyclic_group(3),
            monogenic(1, 1),
            monogenic(1, 2),
            monogenic(2, 1),
            adjoin_zero(cyclic_group(2)),
            adjoin_zero(monogenic(1, 1)),
        )
    ]
    reach.append(radford_dual(1, F2))
    reach.append(radford_dual(2, F2))
    reach.extend([dual_bialgebra(b) for b in list(reach)])
    assert all(b.dim <= 3 for b in reach)
    for b in reach:
        assert verify_axioms(b).ok
        d = b.dim
        # ker(gamma) against exhaustive enumeration
        box = build_boxslash(b)
        zero = tuple([0] * d ** 3)
        truth = {
            v for v in all_vectors(2, d * d) if gamma_apply_int(b, v, 2) == zero
        }
        assert 2 ** box.dim == len(truth)
        for t in range(box.dim):
            assert tuple(int(x) for x in box.space.basis[t]) in truth
        # quotient dimension against the enumerated relation span
        osl = build_oslash(b)
        span = oslash_relation_span_oracle(b, 2)
        assert len(span) == 2 ** (d * d - osl.dim)
        for t in range(osl.relations.dim):
            assert tuple(int(x) for x in osl.relations.basis[t]) in span
    _report(f"7 (exhaustive oracles agree on {len(reach)} GF(2) bialgebras)")


def test_criterion_8_cli_determinism(tmp_path, qqp):
    fixture = str(FIXTURES / "quotient_quantum_plane.json")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "hopfkit", "envelope", fixture],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    doc = serialize_bialgebra(qqp)
    doc["comult"] = [e for e in doc["comult"] if e[0] != 3] + [[3, 3, 3, 1, 1]]
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(document_to_text(doc))
    bad = subprocess.run(
        [sys.executable, "-m", "hopfkit", "envelope", str(corrupt)],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
    assert "witness" in bad.stderr
    _report("8 (CLI byte-identical reports; corrupt input exits 2 with witness)")
