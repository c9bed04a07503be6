"""The quotient coalgebra, the coinvariant algebra, witnesses, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.bialgebra import augmentation_ideal, dual_bialgebra, trivial_bialgebra
from hopfkit.canonical import (
    S_witness,
    T_witness,
    _action_descends,
    build_boxslash,
    build_oslash,
    can_matrix,
    can_prime_matrix,
    frobenius_report,
)
from hopfkit.convolution import central_n_antipode
from hopfkit.corpus import named_fixtures
from hopfkit.errors import PreconditionError
from hopfkit.families import (
    matrix_coalgebra,
    quotient_quantum_plane,
    radford_adjoin_unit,
    radford_dual,
    sweedler_h4,
)
from hopfkit.fields import QQ, PrimeField
from hopfkit.linalg import (
    is_zero_matrix,
    kron,
    matmul,
    rank,
    subspace_from_rows,
)
from hopfkit.monoid import (
    cyclic_group,
    direct_product,
    full_transformation_monoid_2,
    monogenic,
    monoid_bialgebra,
)

from axiom_reference import identical
from oracle_utils import all_vectors, matvec_mod, oslash_act, reference_right_antipode

F2 = PrimeField(2)
F3 = PrimeField(3)
F61 = PrimeField((1 << 61) - 1)


def test_trivial_bialgebra_oslash_and_boxslash():
    k = trivial_bialgebra(QQ)
    osl = build_oslash(k)
    assert osl.dim == 1 and osl.surjective and osl.injective
    assert np.array_equal(osl.i_matrix, QQ.eye(1))
    box = build_boxslash(k)
    assert box.dim == 1 and box.injective and box.surjective


def test_quantum_plane_oslash(qqp, qqp_oslash):
    osl = qqp_oslash
    assert osl.dim == 4
    assert osl.ker_i.dim == 2
    assert osl.surjective and not osl.injective
    assert osl.ker_i.contains(QQ.array([-1, 0, 1, 0, 0, 0]))  # x^2 - 1
    # rank(i) + dim ker i = dim B and quotient dim = rank(i)
    assert rank(QQ, osl.i_matrix) + osl.ker_i.dim == qqp.dim
    assert osl.dim == rank(QQ, osl.i_matrix)


def test_group_algebra_oslash_bijective(kc2):
    osl = build_oslash(kc2)
    assert osl.dim == 2 and osl.surjective and osl.injective


def test_oslash_action_descends(qqp, qqp_oslash):
    # (a (x) b) . class(x (x) y) = class(ax (x) by); spot-check on a product
    osl = qqp_oslash
    ab = kron(QQ, qqp.basis_vector(1), qqp.basis_vector(0))  # x (x) 1
    cls = matmul(QQ, osl.proj, kron(QQ, qqp.basis_vector(0), qqp.basis_vector(3)))
    acted = oslash_act(osl, ab, cls)
    direct = matmul(QQ, osl.proj, kron(QQ, qqp.basis_vector(1), qqp.basis_vector(3)))
    assert np.array_equal(acted, direct)


def test_boxslash_monoid_basis_is_inverse_pairs():
    # for kM the coinvariants are spanned by g (x) h with gh = 1
    b3 = monoid_bialgebra(cyclic_group(3), QQ)
    box = build_boxslash(b3)
    pairs = [(0, 0), (1, 2), (2, 1)]
    expected = subspace_from_rows(
        QQ, 9, [kron(QQ, b3.basis_vector(g), b3.basis_vector(h)) for g, h in pairs]
    )
    assert box.space == expected
    assert box.dim == 3 and box.injective and box.surjective

    km = monoid_bialgebra(monogenic(2, 3), QQ)
    boxm = build_boxslash(km)
    assert boxm.dim == 1
    assert boxm.space == subspace_from_rows(
        QQ, 25, [kron(QQ, km.basis_vector(0), km.basis_vector(0))]
    )


def test_quantum_plane_boxslash(qqp, qqp_boxslash):
    box = qqp_boxslash
    assert box.dim == rank(QQ, box.p_matrix)  # p injective in finite dimension
    assert box.injective and not box.surjective
    assert box.im_p.dim == 1


def test_boxslash_kernel_vs_enumeration_small_fields():
    # exhaustive-vector oracle for ker(gamma) at dims <= 3 over GF(2), GF(3)
    from hopfkit.canonical import gamma_matrix

    cases = [
        (monoid_bialgebra(monogenic(1, 1), F2), 2, F2),
        (monoid_bialgebra(cyclic_group(3), F3), 3, F3),
        (monoid_bialgebra(monogenic(1, 2), F3), 3, F3),
        (monoid_bialgebra(monogenic(2, 2), F2), 2, F2),  # dim 4, 2^16 vectors
    ]
    for b, p, field in cases:
        g = gamma_matrix(b)
        rows = [[int(x) for x in g[r]] for r in range(g.shape[0])]
        zero = tuple([0] * g.shape[0])
        truth = {
            v for v in all_vectors(p, b.dim * b.dim) if matvec_mod(rows, v, p) == zero
        }
        box = build_boxslash(b)
        assert p ** box.dim == len(truth)
        for t in range(box.dim):
            assert tuple(int(x) for x in box.space.basis[t]) in truth


def test_s_witness_identity(qqp, qqp_oslash, kc2):
    s = S_witness(qqp_oslash)
    emb2 = kron(QQ, qqp.unit_col, QQ.eye(6))
    assert np.array_equal(
        matmul(QQ, qqp_oslash.i_matrix, s), matmul(QQ, qqp_oslash.proj, emb2)
    )
    # on a Hopf algebra the antipode satisfies the same identity
    osl2 = build_oslash(kc2)
    s2 = S_witness(osl2)
    emb = kron(QQ, kc2.unit_col, QQ.eye(2))
    assert np.array_equal(matmul(QQ, osl2.i_matrix, s2), matmul(QQ, osl2.proj, emb))
    assert np.array_equal(matmul(QQ, osl2.i_matrix, QQ.eye(2)), matmul(QQ, osl2.proj, emb))


def test_central_antipode_is_alternative_s_witness(km23):
    # the central 2-antipode satisfies S(y) (x) 1 = 1 (x) y in the quotient
    osl = build_oslash(km23)
    s = central_n_antipode(km23).matrix
    emb2 = kron(QQ, km23.unit_col, QQ.eye(5))
    assert np.array_equal(
        matmul(QQ, osl.i_matrix, s), matmul(QQ, osl.proj, emb2)
    )


def test_t_witness_identity(qqp, qqp_boxslash, kc2):
    t = T_witness(qqp_boxslash)
    pleft = kron(QQ, qqp.counit_row, QQ.eye(6))
    lhs = matmul(QQ, t, qqp_boxslash.p_matrix)
    rhs = matmul(QQ, pleft, qqp_boxslash.include)
    assert np.array_equal(lhs, rhs)
    box2 = build_boxslash(kc2)
    t2 = T_witness(box2)
    # on kC2 the antipode g |-> g works: the identity is satisfied by t2
    lhs2 = matmul(QQ, t2, box2.p_matrix)
    rhs2 = matmul(QQ, kron(QQ, kc2.counit_row, QQ.eye(2)), box2.include)
    assert np.array_equal(lhs2, rhs2)


def test_t_witness_maps_left_units_to_right_inverses():
    b3 = monoid_bialgebra(cyclic_group(3), QQ)
    box = build_boxslash(b3)
    t = T_witness(box)
    # T(g) = g^{-1} on the span of left units (all of kC3 here)
    assert np.array_equal(t[:, 1], b3.basis_vector(2))
    assert np.array_equal(t[:, 2], b3.basis_vector(1))


def test_frobenius_reports(qqp_oslash, qqp_boxslash, kc2):
    rep = frobenius_report(build_oslash(kc2), build_boxslash(kc2))
    assert rep.i_bijective and rep.p_bijective and rep.consistent
    assert np.array_equal(rep.right_antipode, QQ.eye(2))  # g |-> g^{-1} = g
    assert rep.anti_algebra and rep.anti_coalgebra
    rep2 = frobenius_report(qqp_oslash, qqp_boxslash)
    assert not rep2.i_bijective and not rep2.p_bijective
    assert rep2.right_antipode is None and rep2.consistent
    # <x | x^2 = x>: i surjective not injective, p injective not surjective
    b = monoid_bialgebra(monogenic(1, 1), QQ)
    osl, box = build_oslash(b), build_boxslash(b)
    assert osl.surjective and not osl.injective
    assert box.injective and not box.surjective
    assert frobenius_report(osl, box).consistent


NAMED = [(fx.name, fx.bialgebra) for fx in named_fixtures()]
NAMED += [(f"dual({name})", dual_bialgebra(b)) for name, b in NAMED]


@pytest.mark.parametrize("name, b", NAMED, ids=[name for name, _ in NAMED])
def test_right_antipode_is_the_direct_solve(name, b):
    # where i_B is bijective, the section witness is the unique preimage
    osl, box = build_oslash(b), build_boxslash(b)
    rep = frobenius_report(osl, box)
    if rep.i_bijective:
        assert identical(rep.right_antipode, reference_right_antipode(osl))
    else:
        assert rep.right_antipode is None


def test_frobenius_report_needs_spaces_of_one_bialgebra(kc2, qqp_oslash):
    with pytest.raises(PreconditionError):
        frobenius_report(qqp_oslash, build_boxslash(kc2))


def test_can_map_implications(qqp, kc2):
    # i injective => can injective; can surjective => i surjective
    for b in (kc2, qqp, monoid_bialgebra(monogenic(1, 1), QQ)):
        osl = build_oslash(b)
        d2 = b.dim * b.dim
        cm_rank = rank(b.field, can_matrix(b))
        cpm_rank = rank(b.field, can_prime_matrix(b))
        if osl.injective:
            assert cm_rank == d2
        if cm_rank == d2:
            assert osl.surjective
        box = build_boxslash(b)
        if box.surjective:
            assert cpm_rank == d2
        if cpm_rank == d2:
            assert box.injective


def test_functoriality_of_ker_i(qqp, qqp_oslash, qqp_envelope):
    # a bialgebra map sends ker(i_B) into ker(i_C); here ker(i_H) = 0
    q = qqp_envelope.structure_map.matrix
    ker = qqp_oslash.ker_i
    img = matmul(QQ, q, ker.basis.T.copy())
    assert is_zero_matrix(img)


def test_semisided_maps_on_dual(qqp):
    # i surjective and p injective also hold for the dual bialgebra
    bd = dual_bialgebra(qqp)
    osl = build_oslash(bd)
    box = build_boxslash(bd)
    assert osl.surjective and box.injective


def test_oslash_quotient_coalgebra_dims_match_rank(km23):
    osl = build_oslash(km23)
    assert osl.dim == 3
    assert osl.counit.shape == (1, 3)
    assert osl.comult.shape == (9, 3)


# ---------------------------------------------------------------------------
# build_oslash against per-basis-vector prod2/kron loops


def _unit_vector(f, n, s):
    v = f.zeros(n)
    v[s] = f.one
    return v


def _descends_brute_force(b, proj, rows):
    """proj kills (e_s) . w for every basis vector e_s of B (x) B and row w."""
    f, n = b.field, b.dim * b.dim
    return all(
        is_zero_matrix(matmul(f, proj, b.prod2(_unit_vector(f, n, s), w)))
        for w in rows
        for s in range(n)
    )


def _reference_oslash(b):
    """Relations, projection, section and quotient structure, one basis vector at a time."""
    f, d = b.field, b.dim
    bplus = augmentation_ideal(b)
    gens = []
    for t in range(bplus.dim):
        dh = b.delta(bplus.basis[t])
        gens += [b.prod2(_unit_vector(f, d * d, s), dh) for s in range(d * d)]
    relations = subspace_from_rows(f, d * d, gens)
    proj, reps, comp = relations.quotient_maps()
    q = len(comp)
    full = f.zeros((q * q, d * d))
    for i in range(d):
        for j in range(d):
            col = f.zeros(q * q)
            for a, bb in zip(*np.nonzero(b.comult[i])):
                for c, e in zip(*np.nonzero(b.comult[j])):
                    term = kron(f, proj[:, a * d + e], proj[:, bb * d + c])
                    col = f.addmul(col, f.mul(b.comult[i, a, bb], b.comult[j, c, e]), term)
            full[:, i * d + j] = col
    assert _descends_brute_force(b, proj, relations.basis)
    return {
        "relations": relations,
        "proj": proj,
        "reps": reps,
        "comult": matmul(f, full, reps),
        "counit": matmul(f, kron(f, b.counit_row, b.counit_row), reps),
        "i_matrix": matmul(f, proj, kron(f, f.eye(d), b.unit_col)),
    }


NAMED_FAMILIES = {
    "quotient_quantum_plane": quotient_quantum_plane,
    "sweedler_h4": sweedler_h4,
    "dual_radford_2": lambda f: radford_dual(2, f),
    "dual_radford_3": lambda f: radford_dual(3, f),
    "radford_unit_matrix2": lambda f: radford_adjoin_unit(*matrix_coalgebra(2, f), field=f),
    "monoid_cyclic_2": lambda f: monoid_bialgebra(cyclic_group(2), f),
    "monoid_cyclic_3": lambda f: monoid_bialgebra(cyclic_group(3), f),
    "monoid_monogenic_1_1": lambda f: monoid_bialgebra(monogenic(1, 1), f),
    "monoid_monogenic_2_3": lambda f: monoid_bialgebra(monogenic(2, 3), f),
    "monoid_transform_2": lambda f: monoid_bialgebra(full_transformation_monoid_2(), f),
    "monoid_c2_x_c2": lambda f: monoid_bialgebra(
        direct_product(cyclic_group(2), cyclic_group(2)), f),
}


@pytest.mark.parametrize("field", [QQ, F3, F61], ids=str)
@pytest.mark.parametrize("family", sorted(NAMED_FAMILIES))
def test_build_oslash_matches_reference_loops(family, field):
    b = NAMED_FAMILIES[family](field)
    osl = build_oslash(b)
    ref = _reference_oslash(b)
    assert osl.relations == ref["relations"]
    assert identical(osl.relations.basis, ref["relations"].basis)
    for name in ("proj", "reps", "comult", "counit", "i_matrix"):
        assert identical(getattr(osl, name), ref[name]), name
    assert osl.dim == ref["proj"].shape[0]


DESCENDS_FAMILIES = (
    sweedler_h4,
    lambda f: radford_dual(2, f),
    lambda f: monoid_bialgebra(full_transformation_monoid_2(), f),
)


def test_descends_check_matches_brute_force():
    bialgebras = [make(f) for f in (QQ, F3) for make in DESCENDS_FAMILIES]
    outcomes = set()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def agree(data):
        b = data.draw(st.sampled_from(bialgebras))
        f, n = b.field, b.dim * b.dim
        coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        vectors = [f.array(data.draw(coords)) for _ in range(data.draw(st.integers(1, 3)))]
        # close the span under all of B (x) B (a left ideal), under B (x) 1
        # or 1 (x) B only (one generator family passes), or not at all
        factors = {
            "both": [_unit_vector(f, n, s) for s in range(n)],
            "first": [kron(f, e, b.unit) for e in f.eye(b.dim)],
            "second": [kron(f, b.unit, e) for e in f.eye(b.dim)],
            "none": [],
        }[data.draw(st.sampled_from(["both", "first", "second", "none"]))]
        vectors += [b.prod2(u, v) for v in vectors for u in factors]
        v = subspace_from_rows(f, n, vectors)
        proj = v.quotient_maps()[0]
        fast = _action_descends(b, proj, v.basis)
        assert fast == _descends_brute_force(b, proj, v.basis)
        outcomes.add(fast)

    agree()
    assert outcomes == {True, False}
