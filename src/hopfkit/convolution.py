"""The convolution algebra End(B) with f * g = m o (f (x) g) o Delta.

Endomorphisms are plain dim x dim matrices over the bialgebra's field.
Convolution inverses and minimal n-antipodes are found by linear solves:
for fixed h the map S |-> S * h is linear, so each candidate index n
costs one deterministic solve.  Witness matrices are therefore solver
representatives; tests assert the defining identities, never a specific
matrix, because one-sided n-antipodes are not unique.
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
)


def conv_unit(b: Bialgebra):
    return b.conv_unit.copy()


def conv(b: Bialgebra, f, g):
    """f * g = m o (f (x) g) o Delta."""
    fld = b.field
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (b.dim, b.dim) or g.shape != (b.dim, b.dim):
        raise DimensionError("conv expects square matrices matching the bialgebra")
    return matmul(fld, b.mult_mat, matmul(fld, kron(fld, f, g), b.comult_mat))


def conv_hom(source: Bialgebra, target: Bialgebra, f, g):
    """Convolution on Hom(source, target): m_target o (f (x) g) o Delta_source."""
    source.field.require_same(target.field)
    fld = source.field
    return matmul(
        fld, target.mult_mat, matmul(fld, kron(fld, f, g), source.comult_mat)
    )


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


def conv_powers(b: Bialgebra, up_to: int):
    """[Id^{*0}, ..., Id^{*up_to}] by iterated convolution."""
    out = [conv_unit(b)]
    eye = b.field.eye(b.dim)
    for _ in range(up_to):
        out.append(conv(b, out[-1], eye))
    return out


def conv_operator(b: Bialgebra, h, side: str):
    """Matrix of g |-> g * h  (side="right") or g |-> h * g (side="left").

    Acts on row-major vectorizations of d x d matrices.
    """
    fld = b.field
    d = b.dim
    op = fld.zeros((d * d, d * d))
    unit_mat = fld.zeros((d, d))
    for s in range(d):
        for t in range(d):
            e = unit_mat.copy()
            e[s, t] = fld.one
            image = conv(b, e, h) if side == "right" else conv(b, h, e)
            op[:, s * d + t] = image.reshape(-1)
    return op


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


def _id_power_span(b: Bialgebra, powers):
    return subspace_from_rows(
        b.field, b.dim * b.dim, [p.reshape(-1) for p in powers]
    )


def _search_limit(b: Bialgebra) -> int:
    return b.dim * b.dim + 1


def minimal_left_n_antipode(b: Bialgebra) -> NAntipodeResult:
    """Smallest n admitting S with S * Id^{*(n+1)} = Id^{*n}.

    Existence is guaranteed in finite dimension, so exceeding the search
    bound dim^2 + 1 signals a bug.
    """
    return _minimal_one_sided(b, "left")


def minimal_right_n_antipode(b: Bialgebra) -> NAntipodeResult:
    return _minimal_one_sided(b, "right")


def _minimal_one_sided(b: Bialgebra, sided: str) -> NAntipodeResult:
    fld = b.field
    limit = _search_limit(b)
    powers = conv_powers(b, limit + 1)
    for n in range(limit + 1):
        op_side = "right" if sided == "left" else "left"
        op = conv_operator(b, powers[n + 1], op_side)
        x = solve(fld, op, powers[n].reshape(-1))
        if x is not None:
            s = x.reshape(b.dim, b.dim)
            central = _id_power_span(b, powers[: b.dim * b.dim]).contains(s.reshape(-1))
            return NAntipodeResult(n, s, sided, bool(central))
    raise InvariantViolation("no one-sided n-antipode found below the finite bound")


def central_n_antipode(b: Bialgebra) -> NAntipodeResult:
    """Minimal-index two-sided n-antipode inside the commutative span k[Id].

    The span of convolution powers of Id closes once a power depends on
    its predecessors, so solving inside it reduces to expressing Id^{*n}
    through the m consecutive higher powers.
    """
    fld = b.field
    d = b.dim
    powers = [conv_unit(b)]
    eye = fld.eye(d)
    span = _id_power_span(b, powers)
    while True:
        nxt = conv(b, powers[-1], eye)
        if span.contains(nxt.reshape(-1)):
            break
        powers.append(nxt)
        span = _id_power_span(b, powers)
        if len(powers) > d * d + 1:
            raise InvariantViolation("convolution powers of Id do not close")
    m = len(powers)  # dim of k[Id]
    while len(powers) < 2 * m + 2:
        powers.append(conv(b, powers[-1], eye))
    for n in range(m + 1):
        cols = fld.zeros((d * d, m))
        for t in range(m):
            cols[:, t] = powers[n + 1 + t].reshape(-1)
        c = solve(fld, cols, powers[n].reshape(-1))
        if c is None:
            continue
        s = fld.zeros((d, d))
        for t in range(m):
            s = fld.addmul(s, c[t], powers[t])
        result = NAntipodeResult(n, s, "two_sided", True)
        if not result.check(b):
            raise InvariantViolation("central antipode candidate fails its identity")
        if not fld.equal(conv(b, s, eye), conv(b, eye, s)):
            raise InvariantViolation("central antipode does not commute with Id")
        return result
    raise InvariantViolation("no central n-antipode found inside k[Id]")


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
