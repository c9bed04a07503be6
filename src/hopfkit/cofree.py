"""The cofree Hopf algebra of a finite-dimensional bialgebra as a
sub-bialgebra, its cocommutative variant, and the duality check.

K(B) is defined by the linear condition Delta(b) in im(p_B) (x) B and,
in finite dimension, coincides with im(p_B); both sides are computed and
compared.  The cofree Hopf algebra is K(B) with the antipode obtained by
convolution inversion; its dimension must equal dim B (#) B.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bialgebra import (
    Bialgebra,
    dual_bialgebra,
    morphism_check,
    op_bialgebra,
    sub_bialgebra,
    tensor_bialgebra,
)
from .canonical import BoxslashSpace, T_witness, build_boxslash
from .convolution import conv, conv_hom, conv_inverse, conv_unit
from .envelope import HopfResult, hopf_envelope
from .errors import InvariantViolation, PreconditionError
from .linalg import (
    image,
    kernel,
    matmul,
    rank,
    row_space,
    subspace_intersection,
    swap_permutation,
    tensordot,
)


def K_of(box: BoxslashSpace):
    """The largest sub-bialgebra candidate {b | Delta(b) in im(p_B) (x) B}
    of B = box.source.

    Computed twice: directly as a kernel, and as im(p_B); the two must
    agree in finite dimension.  Returns the sub-bialgebra and inclusion.
    """
    b = box.source
    f = b.field
    w = box.im_p
    d = b.dim
    # Delta(v) lies in w (x) B iff (proj (x) id) Delta(v) = 0
    proj = w.quotient_maps()[0]
    cond = tensordot(f, proj, b.comult, ([1], [1])).transpose(0, 2, 1).reshape(-1, d)
    direct = kernel(f, cond)
    if direct != w:
        raise InvariantViolation(
            "K(B) defined by the comultiplication condition differs from im(p_B)"
        )
    return sub_bialgebra(b, w)


def cofree_hopf(b: Bialgebra) -> HopfResult:
    """K(B) with its antipode, the verified inclusion k_B and B (#) B."""
    f = b.field
    box = build_boxslash(b)
    sub, kmor = K_of(box)
    if sub.dim != box.dim:
        raise InvariantViolation("dim K(B) differs from dim B (#) B")
    antipode = conv_inverse(sub, f.eye(sub.dim), "two_sided")
    if antipode is None:
        raise InvariantViolation("cofree sub-bialgebra admits no antipode")
    tw = T_witness(box)
    kmat = kmor.matrix
    ub_eps = matmul(f, b.unit_col, sub.counit_row)
    right = conv_hom(sub, b, kmat, matmul(f, tw, kmat))
    if not f.equal(right, ub_eps):
        raise InvariantViolation("k_B * (T o k_B) is not the convolution unit")
    return HopfResult(sub, antipode, kmor, box)


def iterate_K(b: Bialgebra):
    """Repeat K until it stabilizes; finite dimension stabilizes in <= 1 step."""
    cur = b
    steps = 0
    while True:
        box = build_boxslash(cur)
        if box.im_p.dim == cur.dim:
            break
        cur, _ = K_of(box)
        steps += 1
        if steps > b.dim:
            raise InvariantViolation("iterate_K failed to terminate within dim steps")
    if steps > 1:
        raise InvariantViolation("iterate_K took more than one step in finite dimension")
    return cur, steps


def cocommutative_cofree(b: Bialgebra) -> HopfResult:
    """For cocommutative B: the flip-stable part of B (#) B as a Hopf algebra.

    The subspace {sum x (x) y in ker(gamma) | sum y (x) x in ker(gamma)}
    inherits the bialgebra structure of B (x) B^op; the restricted flip
    is its antipode and the restriction of p_B its structure map.
    """
    if not b.is_cocommutative():
        raise PreconditionError("cocommutative_cofree needs a cocommutative input")
    f = b.field
    d = b.dim
    box = build_boxslash(b)
    tau = swap_permutation(d, d)
    flipped = row_space(f, box.space.basis[:, tau])
    cc_space = subspace_intersection(box.space, flipped)
    big = tensor_bialgebra(b, op_bialgebra(b))
    try:
        cc, _ = sub_bialgebra(big, cc_space)
    except PreconditionError as exc:
        raise InvariantViolation(
            f"flip-stable coinvariants fail to close for a cocommutative input: {exc}"
        ) from exc
    # restricted flip is the antipode
    flips = cc_space.basis[:, tau].T
    if cc_space.first_outside(flips) is not None:
        raise InvariantViolation("flip does not preserve the flip-stable part")
    s = flips[list(cc_space.pivots)]
    cu = conv_unit(cc)
    eye = f.eye(cc.dim)
    if not (f.equal(conv(cc, s, eye), cu) and f.equal(conv(cc, eye, s), cu)):
        raise InvariantViolation("restricted flip is not an antipode")
    # x (x) y |-> x eps(y) on the flip-stable part
    pmat = tensordot(f, b.counit, cc_space.basis.reshape(-1, d, d), ([0], [2])).T.copy()
    mor = morphism_check(pmat, cc, b)
    if not mor.is_bialgebra_map:
        raise InvariantViolation("restricted p_B is not a bialgebra map")
    return HopfResult(cc, s, mor, box)


@dataclass(frozen=True)
class DualityResult:
    """The duality of H(B) and C(B*): whether it holds, and both sides."""

    ok: bool
    envelope: HopfResult  # H(B), a quotient of B
    cofree_of_dual: HopfResult  # C(B*), a sub-bialgebra of B*


def duality_check(b: Bialgebra) -> DualityResult:
    """dim C(B*) = dim H(B), and transpose(q_B) embeds H(B)* onto K(B*).

    H(B) and C(B*) are built once each and returned with the verdict.
    """
    env = hopf_envelope(b)
    bd = dual_bialgebra(b)
    cof = cofree_hopf(bd)
    return DualityResult(_dual_embeds_onto(env, bd, cof), env, cof)


def _dual_embeds_onto(env: HopfResult, bd: Bialgebra, cof: HopfResult) -> bool:
    f = bd.field
    if cof.hopf.dim != env.hopf.dim:
        return False
    qt = env.structure_map.matrix.T.copy()
    mor = morphism_check(qt, dual_bialgebra(env.hopf), bd)
    if not mor.is_bialgebra_map:
        return False
    if rank(f, qt) != env.hopf.dim:
        return False
    return image(f, qt) == image(f, cof.structure_map.matrix)
