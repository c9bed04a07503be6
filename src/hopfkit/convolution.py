"""The convolution algebra End(B) with f * g = m o (f (x) g) o Delta.

Endomorphisms are plain dim x dim matrices over the bialgebra's field.
S * Id^{*(n+1)} = Id^{*n} is solvable exactly from n = k on, where k is
the index of Id in End(B): the multiplicity of 0 as a root of its
minimal polynomial, the same on both sides.  So minimal n-antipodes cost
no search over n: one solve at k, plus one at k - 1 that must fail.
Witness matrices are solver representatives; tests assert the defining
identities, never a specific matrix, because one-sided n-antipodes are
not unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import Bialgebra
from .errors import DimensionError, InvariantViolation
from .linalg import (
    kron,
    matmul,
    solve,
    subspace_from_rows,
    swap_permutation,
    tensordot,
)


def conv_unit(b: Bialgebra):
    return b.conv_unit.copy()


def conv(b: Bialgebra, f, g):
    """f * g = m o (f (x) g) o Delta."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (b.dim, b.dim) or g.shape != (b.dim, b.dim):
        raise DimensionError("conv expects square matrices matching the bialgebra")
    return conv_hom(b, b, f, g)


def conv_hom(source: Bialgebra, target: Bialgebra, f, g):
    """Convolution on Hom(source, target): m_target o (f (x) g) o Delta_source.

    (f * g)[a, i] = sum comult[i, p, q] f[x, p] g[y, q] mult[x, y, a]:
    Delta contracts with f, then with g, then with mult, O(d**4) in all
    and without the d**2 x d**2 matrix f (x) g.
    """
    source.field.require_same(target.field)
    fld = source.field
    half = tensordot(fld, source.comult, f, ([1], [1]))     # (i, q, x)
    full = tensordot(fld, half, g, ([1], [1]))              # (i, x, y)
    return tensordot(fld, target.mult, full, ([0, 1], [1, 2]))  # (a, i)


def conv_power(b: Bialgebra, k: int):
    """Id^{*k} by square-and-multiply; Id^{*0} = u o eps."""
    if k < 0:
        raise DimensionError("convolution powers need k >= 0")
    acc = conv_unit(b)
    base = b.field.eye(b.dim)
    while k:
        if k & 1:
            acc = conv(b, acc, base)
        base = conv(b, base, base)
        k >>= 1
    return acc


def conv_operator(b: Bialgebra, h, side: str):
    """Matrix of g |-> g * h  (side="right") or g |-> h * g (side="left").

    Acts on row-major vectorizations of d x d matrices.  As
    (g * h)[a, b] = sum mult[i, j, a] g[i, k] h[j, l] comult[b, k, l],
    the entry at ((a, b), (i, k)) contracts mult with h over j, then
    comult over l.  h * g is g * h in B with both tensor legs flipped.
    """
    fld = b.field
    d = b.dim
    mult, comult = b.mult, b.comult
    if side != "right":
        mult, comult = mult.transpose(1, 0, 2), comult.transpose(0, 2, 1)
    half = tensordot(fld, mult, h, ([1], [0]))            # (i, a, l)
    full = tensordot(fld, half, comult, ([2], [2]))       # (i, a, b, k)
    return full.transpose(1, 2, 0, 3).reshape(d * d, d * d)


def conv_inverse(b: Bialgebra, f, side: str = "two_sided"):
    """Convolution inverse of f, or None when no inverse exists.

    For two_sided, the right inverse is computed and the left identity
    verified on it: if any two-sided inverse exists, every right inverse
    equals it, so the check is conclusive.
    """
    fld = b.field
    target = conv_unit(b).reshape(-1)
    if side in ("right", "two_sided"):
        x = solve(fld, conv_operator(b, f, "left"), target)
        if x is None:
            return None
        g = x.reshape(b.dim, b.dim)
        if side == "right":
            return g
        if fld.equal(conv(b, g, f), conv_unit(b)):
            return g
        return None
    if side == "left":
        x = solve(fld, conv_operator(b, f, "right"), target)
        return None if x is None else x.reshape(b.dim, b.dim)
    raise DimensionError(f"unknown side {side!r}")


@dataclass
class NAntipodeResult:
    n: int
    matrix: np.ndarray
    sided: str           # "left", "right" or "two_sided"
    central: bool        # matrix lies in the span of convolution powers of Id

    def check(self, b: Bialgebra) -> bool:
        """The defining identity at index n, on the stated side(s)."""
        fld = b.field
        hi = conv_power(b, self.n + 1)
        lo = conv_power(b, self.n)
        ok = True
        if self.sided in ("left", "two_sided"):
            ok = ok and fld.equal(conv(b, self.matrix, hi), lo)
        if self.sided in ("right", "two_sided"):
            ok = ok and fld.equal(conv(b, hi, self.matrix), lo)
        return ok


def _columns(powers):
    return np.stack([p.reshape(-1) for p in powers], axis=1)


def _id_powers(b: Bialgebra):
    """``(powers, span, k)``: Id^{*0}, ..., Id^{*m} for m = dim k[Id], the
    span k[Id] of all but the last, and the index k of Id.

    Id^{*m} = sum_t c_t Id^{*t} gives the minimal polynomial, and k is the
    first t with c_t != 0; all c_t = 0 would contradict eps o Id^{*m} = eps.
    """
    fld = b.field
    eye = fld.eye(b.dim)
    powers = [conv_unit(b)]
    while True:
        span = subspace_from_rows(fld, b.dim**2, [p.reshape(-1) for p in powers])
        powers.append(conv(b, powers[-1], eye))
        if span.contains(powers[-1].reshape(-1)):
            break
    c = solve(fld, _columns(powers[:-1]), powers[-1].reshape(-1))
    return powers, span, int(np.flatnonzero(c != 0)[0])


def minimal_left_n_antipode(b: Bialgebra) -> NAntipodeResult:
    """Smallest n admitting S with S * Id^{*(n+1)} = Id^{*n}.

    n is the index of Id; the solves at n and n - 1 certify it, and a
    solve that contradicts it raises InvariantViolation.
    """
    return _minimal_one_sided(b, "left")


def minimal_right_n_antipode(b: Bialgebra) -> NAntipodeResult:
    return _minimal_one_sided(b, "right")


def _minimal_one_sided(b: Bialgebra, sided: str) -> NAntipodeResult:
    fld = b.field
    powers, span, k = _id_powers(b)
    op_side = "right" if sided == "left" else "left"

    def solve_at(n):
        op = conv_operator(b, powers[n + 1], op_side)
        return solve(fld, op, powers[n].reshape(-1))

    x = solve_at(k)
    if x is None or (k > 0 and solve_at(k - 1) is not None):
        n, verdict = (k, "inconsistent") if x is None else (k - 1, "consistent")
        raise InvariantViolation(
            f"Id has index {k}, but the {sided} n-antipode solve at n = {n} is {verdict}"
        )
    return NAntipodeResult(k, x.reshape(b.dim, b.dim), sided, span.contains(x))


def central_n_antipode(b: Bialgebra) -> NAntipodeResult:
    """Minimal-index two-sided n-antipode inside the commutative span k[Id].

    At the index k of Id, Id^{*k} is a combination of the m powers
    Id^{*(k+1)}, ..., Id^{*(k+m)}, m = dim k[Id]; the same combination of
    Id^{*0}, ..., Id^{*(m-1)} is the n-antipode.
    """
    fld = b.field
    powers, _, k = _id_powers(b)
    m = len(powers) - 1
    eye = fld.eye(b.dim)
    while len(powers) <= k + m:
        powers.append(conv(b, powers[-1], eye))
    c = solve(fld, _columns(powers[k + 1 : k + m + 1]), powers[k].reshape(-1))
    if c is None:
        raise InvariantViolation(
            f"Id has index {k}, but no central n-antipode exists at n = {k}"
        )
    s = fld.zeros((b.dim, b.dim))
    for t in range(m):
        s = fld.addmul(s, c[t], powers[t])
    result = NAntipodeResult(k, s, "two_sided", True)
    if not result.check(b):
        raise InvariantViolation("central antipode candidate fails its identity")
    if not fld.equal(conv(b, s, eye), conv(b, eye, s)):
        raise InvariantViolation("central antipode does not commute with Id")
    return result


def antipode_shape_check(b: Bialgebra, s) -> dict:
    """Anti-multiplicativity and anti-comultiplicativity of a candidate map."""
    fld = b.field
    s = np.asarray(s)
    d = b.dim
    tau = swap_permutation(d, d)
    ss = kron(fld, s, s)
    # S o m == m o (S (x) S) o tau, column (i,j) of the right side taken at (j,i)
    rhs = matmul(fld, b.mult_mat, ss)[:, tau]
    anti_alg = fld.equal(matmul(fld, s, b.mult_mat), rhs)
    # (S (x) S) o Delta == tau o Delta o S
    lhs = matmul(fld, ss, b.comult_mat)
    rhs2 = matmul(fld, b.comult_mat, s)[tau, :]
    anti_coalg = fld.equal(lhs, rhs2)
    return {"anti_algebra": anti_alg, "anti_coalgebra": anti_coalg}
