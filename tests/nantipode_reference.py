"""Minimal n-antipodes by linear search over n.

References for ``minimal_left_n_antipode``, ``minimal_right_n_antipode``,
``central_n_antipode`` and ``conv_operator``: the powers Id^{*0..d^2+2}
are built up front, each candidate n costs one d^2 x d^2 solve, and the
operator of S |-> S * h is filled one basis matrix at a time by d^2
calls of ``conv``.  Only for small dimensions.
"""

from hopfkit.convolution import NAntipodeResult, conv, conv_unit
from hopfkit.errors import InvariantViolation
from hopfkit.linalg import solve, subspace_from_rows


def reference_conv_powers(b, up_to):
    """[Id^{*0}, ..., Id^{*up_to}] by iterated convolution."""
    out = [conv_unit(b)]
    eye = b.field.eye(b.dim)
    for _ in range(up_to):
        out.append(conv(b, out[-1], eye))
    return out


def reference_conv_operator(b, h, side):
    """Matrix of g |-> g * h (side="right") or g |-> h * g (side="left"),
    one column per basis matrix e_st, on row-major vectorizations."""
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


def _id_power_span(b, powers):
    return subspace_from_rows(b.field, b.dim * b.dim, [p.reshape(-1) for p in powers])


def reference_one_sided(b, sided):
    """Smallest n with S * Id^{*(n+1)} = Id^{*n} (left) or the mirror
    identity (right), trying n = 0, 1, ... up to d^2 + 1."""
    fld = b.field
    limit = b.dim * b.dim + 1
    powers = reference_conv_powers(b, limit + 1)
    op_side = "right" if sided == "left" else "left"
    for n in range(limit + 1):
        op = reference_conv_operator(b, powers[n + 1], op_side)
        x = solve(fld, op, powers[n].reshape(-1))
        if x is not None:
            s = x.reshape(b.dim, b.dim)
            central = _id_power_span(b, powers[: b.dim * b.dim]).contains(s.reshape(-1))
            return NAntipodeResult(n, s, sided, bool(central))
    raise InvariantViolation("no one-sided n-antipode found below the finite bound")


def reference_central(b):
    """Smallest n with Id^{*n} in the span of Id^{*(n+1)}, ..., Id^{*(n+m)},
    m = dim k[Id], trying n = 0, 1, ..., m."""
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
    m = len(powers)
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
        return NAntipodeResult(n, s, "two_sided", True)
    raise InvariantViolation("no central n-antipode found inside k[Id]")
