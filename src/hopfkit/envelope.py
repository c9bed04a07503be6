"""The Hopf envelope of a finite-dimensional bialgebra as a quotient.

The pipeline: ker(i_B) is checked to be a two-sided ideal (it always is
in finite dimension), the quotient Q(B) = B / ker(i_B) B is formed, and
the antipode is obtained as the two-sided convolution inverse of the
identity on the quotient, which the finite-dimensional theory guarantees
to exist.  The alternative antipode route through the section witness is
kept as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import (
    Bialgebra,
    BialgebraMorphism,
    ideal_closure,
    quotient_by_biideal,
)
from .canonical import BoxslashSpace, OslashSpace, S_witness, build_oslash
from .convolution import conv_hom, conv_inverse
from .errors import InvariantViolation, PreconditionError
from .linalg import all_pairs, is_zero_matrix, kron, matmul, rank, swap_permutation


@dataclass
class HopfResult:
    hopf: Bialgebra
    antipode: np.ndarray
    structure_map: BialgebraMorphism
    space: OslashSpace | BoxslashSpace  # B (/) B of an envelope, B (#) B of a cofree


def Q_of(osl: OslashSpace):
    """Quotient of B = osl.source by ker(i_B), which must already be a bi-ideal.

    The left and two-sided ideal closures of ker(i_B) are compared with
    the kernel itself; in finite dimension a mismatch contradicts the
    theory, hence InvariantViolation.
    """
    b = osl.source
    k = osl.ker_i
    if ideal_closure(b, k, "left") != k or ideal_closure(b, k, "two_sided") != k:
        raise InvariantViolation("ker(i_B) is not a two-sided ideal in finite dimension")
    return quotient_by_biideal(b, k)


def hopf_envelope(b: Bialgebra) -> HopfResult:
    """Q(B) with its antipode, the verified projection q_B and B (/) B."""
    f = b.field
    osl = build_oslash(b)
    quo, qmor = Q_of(osl)
    antipode = conv_inverse(quo, f.eye(quo.dim), "two_sided")
    if antipode is None:
        raise InvariantViolation("envelope quotient admits no antipode")
    uq_eps = matmul(f, quo.unit_col, b.counit_row)
    qmat = qmor.matrix
    sw = S_witness(osl)
    right = conv_hom(b, quo, qmat, matmul(f, qmat, sw))
    if not f.equal(right, uq_eps):
        raise InvariantViolation("q_B * (q_B o S) is not the convolution unit")
    # cross-check the two antipode routes: both invert q_B, which is unique
    left = conv_hom(b, quo, matmul(f, antipode, qmat), qmat)
    if not f.equal(left, uq_eps):
        raise InvariantViolation("(S o q_B) * q_B is not the convolution unit")
    return HopfResult(quo, antipode, qmor, osl)


def _oslash_iso(env: HopfResult):
    """The map class(x (x) y) |-> q(x) S(q(y)) and its validity flags."""
    osl = env.space
    f = osl.source.field
    h = env.hopf
    qmat = env.structure_map.matrix
    sq = matmul(f, env.antipode, qmat)
    psi = h.prod(*all_pairs(qmat, sq))  # q(e_i) S(q(e_j)) at column i*d+j
    well_defined = is_zero_matrix(matmul(f, psi, osl.relations.basis.T))
    phi = matmul(f, psi, osl.reps)
    bijective = osl.dim == h.dim and rank(f, phi) == h.dim
    coalg = f.equal(
        matmul(f, h.comult_mat, phi), matmul(f, kron(f, phi, phi), osl.comult)
    ) and f.equal(matmul(f, h.counit_row, phi), osl.counit)
    return phi, well_defined, bijective, coalg


def oslash_iso_check(env: HopfResult) -> bool:
    """True iff x/y |-> q(x) S(q(y)) is a well-defined coalgebra isomorphism
    from env.space = B (/) B onto the envelope."""
    _, well_defined, bijective, coalg = _oslash_iso(env)
    return well_defined and bijective and coalg


def cocommutative_envelope_check(b: Bialgebra) -> bool:
    """For cocommutative B: the antipode of the envelope is the flip x/y |-> y/x."""
    if not b.is_cocommutative():
        raise PreconditionError("cocommutative_envelope_check needs a cocommutative input")
    f = b.field
    env = hopf_envelope(b)
    osl = env.space
    tau = swap_permutation(b.dim, b.dim)
    proj_tau = osl.proj[:, tau]
    if not is_zero_matrix(matmul(f, proj_tau, osl.relations.basis.T)):
        return False  # flip does not descend: contradicts cocommutativity
    flip_q = matmul(f, proj_tau, osl.reps)
    phi, well_defined, bijective, coalg = _oslash_iso(env)
    if not (well_defined and bijective and coalg):
        return False
    lhs = matmul(f, phi, flip_q)
    rhs = matmul(f, env.antipode, phi)
    return f.equal(lhs, rhs)


def iterate_Q(b: Bialgebra):
    """Repeat Q until ker(i) = 0; finite dimension stabilizes in <= 1 step."""
    cur = b
    steps = 0
    while True:
        osl = build_oslash(cur)
        if osl.ker_i.dim == 0:
            break
        cur, _ = Q_of(osl)
        steps += 1
        if steps > b.dim:
            raise InvariantViolation("iterate_Q failed to terminate within dim steps")
    if steps > 1:
        raise InvariantViolation("iterate_Q took more than one step in finite dimension")
    return cur, steps
