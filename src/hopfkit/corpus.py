"""Built-in fixture corpus and the invariant suite that sweeps it.

The suite realizes the property checks the finite-dimensional theory
promises on every verified bialgebra: surjectivity of i_B, injectivity
of p_B, agreement of the equivalence diagnostics, Hopf outputs of both
pipelines, one-step stabilization, witness residuals, duality, and the
monoid cross-checks.  It is run both by ``hopfkit corpus`` and by the
acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .bialgebra import Bialgebra, verify_axioms
from .canonical import S_witness, T_witness, frobenius_report
# not called here: perfbench's tracer test reads ``corpus.build_oslash`` to
# check that wrappers on from-imported names are removed again
from .canonical import build_oslash  # noqa: F401
from .cofree import cofree_hopf, duality_check, iterate_K
from .convolution import (
    central_n_antipode,
    conv,
    conv_unit,
    minimal_left_n_antipode,
    minimal_right_n_antipode,
)
from .envelope import hopf_envelope, iterate_Q, oslash_iso_check
from .families import (
    matrix_coalgebra,
    quotient_quantum_plane,
    radford_adjoin_unit,
    radford_dual,
    sweedler_h4,
)
from .fields import QQ, PrimeField
from .linalg import (
    all_pairs,
    image,
    is_zero_matrix,
    kron,
    matmul,
    subspace_from_rows,
    swap_permutation,
)
from .monoid import (
    FiniteMonoid,
    adjoin_zero,
    cancellativity_report,
    cyclic_group,
    direct_product,
    full_transformation_monoid_2,
    make_monoid,
    monogenic,
    monoid_bialgebra,
    units_and_left_units,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


@dataclass
class CorpusFixture:
    name: str
    bialgebra: Bialgebra
    monoid: FiniteMonoid | None = None


def named_fixtures() -> list:
    """The shipped corpus: example families plus small monoid bialgebras."""
    out = [
        CorpusFixture("quotient_quantum_plane/Q", quotient_quantum_plane(QQ)),
        CorpusFixture("quotient_quantum_plane/F5", quotient_quantum_plane(F5)),
        CorpusFixture("sweedler_h4/Q", sweedler_h4(QQ)),
        CorpusFixture("dual_radford_2/Q", radford_dual(2, QQ)),
        CorpusFixture("dual_radford_3/Q", radford_dual(3, QQ)),
        CorpusFixture(
            "radford_unit_matrix2/Q",
            radford_adjoin_unit(*matrix_coalgebra(2, QQ), field=QQ),
        ),
    ]
    monoids = [
        ("cyclic_2", cyclic_group(2)),
        ("cyclic_3", cyclic_group(3)),
        ("monogenic_1_1", monogenic(1, 1)),
        ("monogenic_2_3", monogenic(2, 3)),
        ("transform_2", full_transformation_monoid_2()),
        ("c2_x_c2", direct_product(cyclic_group(2), cyclic_group(2))),
    ]
    for mname, m in monoids:
        for field in (QQ, F2, F3):
            out.append(
                CorpusFixture(
                    f"monoid_{mname}/{field.name}", monoid_bialgebra(m, field), m
                )
            )
    return out


# ---------------------------------------------------------------------------
# random monoids of size <= 6 built from validated constructions


def random_monoid(rng: random.Random, max_size: int = 6) -> FiniteMonoid:
    choices = []
    for i in range(0, max_size):
        for p in range(1, max_size + 1):
            if 1 <= i + p <= max_size:
                choices.append(("monogenic", i, p))
    builders = [
        lambda: monogenic(*rng.choice(choices)[1:]),
        lambda: full_transformation_monoid_2(),
        lambda: direct_product(cyclic_group(2), rng.choice([cyclic_group(2), cyclic_group(3), monogenic(1, 1)])),
        lambda: adjoin_zero(rng.choice([cyclic_group(2), cyclic_group(3), monogenic(1, 1), monogenic(1, 2)])),
    ]
    while True:
        m = rng.choice(builders)()
        if m.size <= max_size:
            break
    return _relabel(m, rng)


def _relabel(m: FiniteMonoid, rng: random.Random) -> FiniteMonoid:
    """Conjugate the table by a random permutation: same monoid, new order."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    table = np.zeros_like(m.table)
    for i in range(m.size):
        for j in range(m.size):
            table[perm[i], perm[j]] = perm[m.table[i, j]]
    labels = [""] * m.size
    for i, l in enumerate(m.labels):
        labels[perm[i]] = l
    return make_monoid(table, identity=perm[m.identity], labels=labels)


def random_fixtures(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m = random_monoid(rng)
        field = rng.choice([QQ, F2, F3])
        out.append(
            CorpusFixture(f"random_monoid_{k}/{field.name}", monoid_bialgebra(m, field), m)
        )
    return out


# ---------------------------------------------------------------------------
# per-fixture invariant checks


def _hopf_output_ok(result) -> bool:
    h = result.hopf
    if not verify_axioms(h).ok:
        return False
    f = h.field
    eye = f.eye(h.dim)
    cu = conv_unit(h)
    return f.equal(conv(h, result.antipode, eye), cu) and f.equal(
        conv(h, eye, result.antipode), cu
    )


def _s_residuals_in_ker_i(b: Bialgebra, osl, s) -> bool:
    """All three residual families of the section witness land in ker(i_B)."""
    f = b.field
    d = b.dim
    i_mat = osl.i_matrix
    tau = swap_permutation(d, d)
    anti = f.sub(matmul(f, s, b.mult_mat), matmul(f, b.mult_mat, kron(f, s, s))[:, tau])
    if not is_zero_matrix(matmul(f, i_mat, anti)):
        return False
    ident = f.sub(conv(b, f.eye(d), s), b.conv_unit)
    if not is_zero_matrix(matmul(f, i_mat, ident)):
        return False
    d1 = matmul(f, kron(f, s, s), b.comult_mat[tau, :])
    d2 = matmul(f, b.comult_mat, s)
    return is_zero_matrix(matmul(f, kron(f, i_mat, i_mat), f.sub(d1, d2)))


def _t_identities_on_im_p(b: Bialgebra, box, t) -> bool:
    """The retraction witness satisfies its three identities on im(p_B)."""
    f = b.field
    d = b.dim
    w = box.im_p
    first = f.sub(conv(b, f.eye(d), t), b.conv_unit)
    if not is_zero_matrix(matmul(f, first, w.basis.T.copy())):
        return False
    tau = swap_permutation(d, d)
    second = f.sub(
        matmul(f, kron(f, t, t), b.comult_mat), matmul(f, b.comult_mat, t)[tau, :]
    )
    if not is_zero_matrix(matmul(f, second, w.basis.T.copy())):
        return False
    # T(w_a w_b) = T(w_b) T(w_a) at column a*k+b
    basis = w.basis.T
    tw = matmul(f, t, basis)
    ta, tb = all_pairs(tw, tw)
    lhs = matmul(f, t, b.prod(*all_pairs(basis, basis)))
    return f.equal(lhs, b.prod(tb, ta))


def check_fixture(fx: CorpusFixture) -> dict:
    """Run the full invariant battery on one fixture."""
    b = fx.bialgebra
    f = b.field
    env = hopf_envelope(b)
    cof = cofree_hopf(b)
    osl, box = env.space, cof.space
    fro = frobenius_report(osl, box)
    left = minimal_left_n_antipode(b)
    right = minimal_right_n_antipode(b)
    central = central_n_antipode(b)
    checks = {
        "axioms": verify_axioms(b).ok,
        "i_surjective": osl.surjective,
        "p_injective": box.injective,
        "frobenius_consistent": fro.consistent,
        "envelope_hopf": _hopf_output_ok(env),
        "cofree_hopf": _hopf_output_ok(cof),
        "iterate_q_one_step": iterate_Q(b)[1] <= 1,
        "iterate_k_one_step": iterate_K(b)[1] <= 1,
        "oslash_iso": oslash_iso_check(env),
        "s_residuals": _s_residuals_in_ker_i(b, osl, S_witness(osl)),
        "t_identities": _t_identities_on_im_p(b, box, T_witness(box)),
        "duality": duality_check(b).ok,
        "n_index_agreement": left.n == right.n == central.n,
        "central_identity": central.check(b),
        "rank_nullity_i": osl.dim == b.dim - osl.ker_i.dim,
        "dim_H": env.hopf.dim == b.dim - osl.ker_i.dim,
        "dim_C_matches_box": cof.hopf.dim == box.dim,
    }
    if fx.monoid is not None:
        m = fx.monoid
        rep = cancellativity_report(m)
        info = units_and_left_units(m)
        units_span = subspace_from_rows(
            f, b.dim, [b.basis_vector(u) for u in info["units"]]
        )
        checks.update(
            {
                "pM_right_cancellative_iff_i_injective": rep["right_cancellative"]
                == osl.injective,
                "pM_unique_right_inverses_iff_p_injective": rep["unique_right_inverses"]
                == box.injective,
                "pM_group_iff_p_surjective": rep["is_group"] == box.surjective,
                "cofree_is_units_span": image(f, cof.structure_map.matrix)
                == units_span,
            }
        )
    out = {
        "name": fx.name,
        "field": f.name,
        "dim": b.dim,
        "dim_ker_i": osl.ker_i.dim,
        "dim_oslash": osl.dim,
        "dim_boxslash": box.dim,
        "dim_hopf_envelope": env.hopf.dim,
        "dim_cofree": cof.hopf.dim,
        "n_antipode_index": central.n,
        "checks": checks,
        "ok": all(checks.values()),
    }
    return out


def run_corpus(seed: int = 20240801, random_count: int = 6):
    """Sweep named plus random fixtures; returns (results, all_ok)."""
    fixtures = named_fixtures() + random_fixtures(seed, random_count)
    results = [check_fixture(fx) for fx in fixtures]
    return results, all(r["ok"] for r in results)
