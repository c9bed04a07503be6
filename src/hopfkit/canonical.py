"""The quotient B (/) B, the coinvariant subspace B (#) B, and the maps
i_B: b |-> class(b (x) 1) and p_B: sum x (x) y |-> x eps(y).

B (/) B is the quotient of B (x) B by the subspace spanned by all
(a (x) b) Delta(h) with h in the augmentation ideal; it carries the
coalgebra structure Delta(x/y) = (x1/y2) (x) (x2/y1).  B (#) B is the
kernel of gamma(x (x) y) = x1 (x) y1 (x) x2 y2 - x (x) y (x) 1 and is an
algebra under (u#v)(x#y) = ux # yv.  Every structural claim used later
is verified at construction time; failures raise ConstructionError
because a verified bialgebra cannot trigger them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import (
    Bialgebra,
    _runs,
    algebra_residuals,
    augmentation_ideal,
    coalgebra_residuals,
    column_blocks,
)
from .convolution import antipode_shape_check, conv, conv_unit
from .errors import ConstructionError, InvariantViolation, PreconditionError
from .linalg import (
    Echelon,
    Subspace,
    all_pairs,
    image,
    is_zero_matrix,
    kernel,
    kron,
    matmul,
    rank,
    solve_matrix,
    sparse_rows,
    tensordot,
)


@dataclass(eq=False)
class OslashSpace:
    source: Bialgebra
    dim: int                 # dimension of the quotient
    relations: Subspace      # (B (x) B) Delta(B+), the annihilated subspace
    proj: np.ndarray         # dim x d^2, the projection pi
    reps: np.ndarray         # d^2 x dim, standard-basis representatives
    comult: np.ndarray       # dim^2 x dim quotient comultiplication
    counit: np.ndarray       # 1 x dim
    i_matrix: np.ndarray     # dim x d
    ker_i: Subspace
    surjective: bool
    injective: bool


def oslash_relations(b: Bialgebra) -> Subspace:
    """The subspace (B (x) B) Delta(B+) of B (x) B.

    It is spanned by the rows (e_i (x) e_j) Delta(h_t), h_t running over
    the basis of B+: row (t, i, j) sums x mult[i,k,a] mult[j,l,c] at
    column (a, c) over the nonzeros x = Delta(h_t)[k,l].  The rows are
    made from the nonzeros of Delta(h_t) and of mult, a block of rows at a
    time, and each goes into one echelon as it is made, so neither the
    (d-1) d**2 x d**2 matrix of all rows nor a d**4 temporary is built.
    """
    f = b.field
    d = b.dim
    bplus = augmentation_ideal(b)
    deltas = matmul(f, bplus.basis, b.comult.reshape(d, d * d))  # row t: Delta(h_t)
    t_nz, kl = np.nonzero(deltas)
    x = deltas[t_nz, kl]
    per_t = np.bincount(t_nz, minlength=bplus.dim)
    start = per_t.cumsum() - per_t
    # row (t, i, j) joins the per_t[t] nonzeros (k, l) with count[i, k]
    # nonzeros mult[i, k, a], then each of those with count[j, l] nonzeros
    # mult[j, l, c]: its weight counts all three
    count = b.mult_nonzeros[1].reshape(d, d)
    pattern = np.zeros((bplus.dim, d, d), dtype=np.int64)
    pattern[t_nz, kl // d, kl % d] = 1
    left = count @ pattern
    terms = left @ count.T
    weight = (terms + left.sum(axis=2, keepdims=True) + per_t[:, None, None]).reshape(-1)
    rows = np.flatnonzero(terms)  # the other rows are 0
    echelon = Echelon(f.characteristic)
    for r0, r1 in column_blocks(weight[rows]):
        t, ij = np.divmod(rows[r0:r1], d * d)
        i, j = np.divmod(ij, d)
        pos, offset = _runs(per_t[t])  # pos: the row's place in the block
        s = start[t[pos]] + offset
        own, a, u = b.mult_terms(i[pos] * d + kl[s] // d)
        pos, s = pos[own], s[own]
        own, c, w = b.mult_terms(j[pos] * d + kl[s] % d)
        pos, s, a, u = pos[own], s[own], a[own], u[own]
        values = f.mul(f.mul(x[s], u), w)
        cells, index = np.unique((pos * d + a) * d + c, return_inverse=True)
        sums = f.scatter_sum(index, values, len(cells))
        nonzero = sums != 0
        cells, sums = cells[nonzero], sums[nonzero]
        for row in sparse_rows(cells // (d * d), cells % (d * d), sums):
            echelon.insert(row)
    return echelon.subspace(f, d * d)


def _action_descends(b: Bialgebra, proj, rows) -> bool:
    """Whether proj annihilates (B (x) B) . span(rows), when ker(proj) = span(rows).

    span(rows) is then a left ideal iff it is closed under the algebra
    generators e_i (x) 1 and 1 (x) e_j, because e_i (x) e_j is their
    product.  With P = proj as q x d x d, the two actions are
    sum_a mult[i,k,a] P[x,a,l] and sum_c P[x,k,c] mult[j,l,c] applied to
    the relation w[k,l].
    """
    f = b.field
    d = b.dim
    pq = proj.reshape(len(proj), d, d)
    w = rows.reshape(len(rows), d, d)
    left = tensordot(f, b.mult, pq, ([2], [1]))  # (i, k, x, l)
    if not is_zero_matrix(tensordot(f, left, w, ([1, 3], [1, 2]))):
        return False
    right = tensordot(f, pq, b.mult, ([2], [2]))  # (x, k, j, l)
    return is_zero_matrix(tensordot(f, right, w, ([1, 3], [1, 2])))


def build_oslash(b: Bialgebra) -> OslashSpace:
    f = b.field
    d = b.dim
    relations = oslash_relations(b)
    proj, reps, comp = relations.quotient_maps()
    q = len(comp)
    rel_cols = relations.basis.T

    # pi annihilates exactly the relation subspace
    if relations.dim + q != d * d:
        raise ConstructionError("projection rank does not complement the relations")
    if not is_zero_matrix(matmul(f, proj, rel_cols)):
        raise ConstructionError("projection fails to annihilate a relation")

    # quotient comultiplication Delta(x/y) = (x1/y2) (x) (x2/y1), built on
    # all of B (x) B so well-definedness can be checked against relations:
    # full[(x,y),(i,j)] = sum comult[i,a,b] comult[j,c,e] P[x,a,e] P[y,b,c]
    pq = proj.reshape(q, d, d)
    left = tensordot(f, b.comult, pq, ([1], [1]))  # (i, b, x, e)
    right = tensordot(f, pq, b.comult, ([2], [1]))  # (y, b, j, e)
    both = tensordot(f, left, right, ([1, 3], [1, 3]))  # (i, x, y, j)
    full = both.transpose(1, 2, 0, 3).reshape(q * q, d * d)
    if not is_zero_matrix(matmul(f, full, rel_cols)):
        raise ConstructionError("quotient comultiplication is not well defined")
    comult_q = matmul(f, full, reps)

    counit2 = kron(f, b.counit_row, b.counit_row)
    if not is_zero_matrix(matmul(f, counit2, rel_cols)):
        raise ConstructionError("quotient counit is not well defined")
    counit_q = matmul(f, counit2, reps)

    # coalgebra axioms on the quotient
    for name, diff, _ in coalgebra_residuals(f, comult_q.T.reshape(q, q, q), counit_q[0]):
        if not is_zero_matrix(diff):
            raise ConstructionError(f"quotient coalgebra fails {name}")

    # the left B (x) B action descends: relations absorb left multiplication
    if not _action_descends(b, proj, relations.basis):
        raise ConstructionError("left action does not descend to the quotient")

    i_matrix = tensordot(f, pq, b.unit, ([2], [0]))  # class(b (x) 1)
    ker_i = kernel(f, i_matrix)
    r = rank(f, i_matrix)
    return OslashSpace(
        source=b,
        dim=q,
        relations=relations,
        proj=proj,
        reps=reps,
        comult=comult_q,
        counit=counit_q,
        i_matrix=i_matrix,
        ker_i=ker_i,
        surjective=(r == q),
        injective=(r == b.dim),
    )


@dataclass(eq=False)
class BoxslashSpace:
    source: Bialgebra
    dim: int               # dimension of ker(gamma)
    space: Subspace        # the coinvariant subspace of B (x) B
    include: np.ndarray    # d^2 x dim inclusion
    mult: np.ndarray       # dim x dim x dim structure constants
    unit_coords: np.ndarray
    p_matrix: np.ndarray   # d x dim
    im_p: Subspace
    injective: bool
    surjective: bool


def gamma_matrix(b: Bialgebra):
    """Matrix of gamma(x (x) y) = x1 (x) y1 (x) x2 y2 - x (x) y (x) 1.

    Every pair of nonzeros comult[i,a,bb], comult[j,c,e] meets each
    mult[bb,e,r] and adds to row (a*d+c)*d+r of column i*d+j.
    """
    f = b.field
    d = b.dim
    i, a, bb = np.nonzero(b.comult != 0)
    x = b.comult[i, a, bb]
    nnz = len(i)
    per_i = np.bincount(i, minlength=d)
    start = np.cumsum(per_i) - per_i
    g = f.zeros((d ** 3, d * d))
    for i0, i1 in column_blocks(per_i * nnz * int(b.mult_nonzeros[1].max()) + d ** 4):
        first, second = np.divmod(np.arange(per_i[i0:i1].sum() * nnz), nnz)
        first += start[i0]
        pair, r, y = b.mult_terms(bb[first] * d + bb[second])
        first, second = first[pair], second[pair]
        values = f.mul(f.mul(x[first], x[second]), y)
        m = (i1 - i0) * d
        index = ((a[first] * d + a[second]) * d + r) * m + (i[first] - i0) * d + i[second]
        g[:, i0 * d : i1 * d] = f.scatter_sum(index, values, d ** 3 * m).reshape(d ** 3, m)
    # - x (x) y (x) 1 at rows (i*d+j)*d + r of column i*d+j
    cols = np.arange(d * d)[:, None]
    rows = cols * d + np.arange(d)
    g[rows, cols] = f.sub(g[rows, cols], b.unit)
    return g


def build_boxslash(b: Bialgebra) -> BoxslashSpace:
    f = b.field
    d = b.dim
    w = kernel(f, gamma_matrix(b))
    s = w.dim
    include = w.basis.T.copy()

    unit_coords = w.coordinates(kron(f, b.unit, b.unit))
    if unit_coords is None:
        raise ConstructionError("1 (x) 1 does not lie in the coinvariant subspace")

    # s <= d, as p_B is injective: the s^2 products have at most d^4 entries
    products = b.prod2op(*all_pairs(include, include))
    bad = w.first_outside(products)
    if bad is not None:
        s1, s2 = divmod(bad, s)
        raise ConstructionError(f"product of coinvariants {s1},{s2} leaves the subspace")
    mult = products[list(w.pivots)].T.reshape(s, s, s)

    # associativity and unitality of the induced algebra
    for name, diff, _ in algebra_residuals(f, mult, unit_coords):
        if not is_zero_matrix(diff):
            raise ConstructionError(f"coinvariant algebra fails {name}")

    # every coinvariant multiplies to its counit multiple of 1
    counit2 = kron(f, b.counit_row, b.counit_row)
    mw = matmul(f, b.mult_mat, include)
    ew = matmul(f, counit2, include)
    expected = matmul(f, b.unit_col, ew)
    if not f.equal(mw, expected):
        raise ConstructionError("a coinvariant violates x^i y_i = eps(x^i)eps(y_i) 1")

    # x (x) y |-> x eps(y)
    p_matrix = tensordot(f, include.reshape(d, d, s), b.counit, ([1], [0]))
    im_p = image(f, p_matrix)
    r = rank(f, p_matrix)
    return BoxslashSpace(
        source=b,
        dim=s,
        space=w,
        include=include,
        mult=mult,
        unit_coords=unit_coords,
        p_matrix=p_matrix,
        im_p=im_p,
        injective=(r == s),
        surjective=(r == b.dim),
    )


# ---------------------------------------------------------------------------
# witnesses and diagnostics


def S_witness(osl: OslashSpace):
    """An endomorphism with S(y) (x) 1 = 1 (x) y in the quotient.

    Built from the deterministic section of i_B; requires i_B surjective,
    which holds for every verified finite-dimensional bialgebra.
    """
    b = osl.source
    f = b.field
    if not osl.surjective:
        raise InvariantViolation("i_B not surjective on a finite-dimensional bialgebra")
    section = solve_matrix(f, osl.i_matrix, f.eye(osl.dim))
    emb2 = kron(f, b.unit_col, f.eye(b.dim))  # y |-> 1 (x) y
    one_oslash = matmul(f, osl.proj, emb2)
    s = matmul(f, section, one_oslash)
    if not f.equal(matmul(f, osl.i_matrix, s), one_oslash):
        raise ConstructionError("section witness fails i_B(S(y)) = class(1 (x) y)")
    return s


def T_witness(box: BoxslashSpace):
    """An endomorphism with T(x^i) eps(y_i) = eps(x^i) y_i on coinvariants.

    Built from the deterministic retraction of p_B; requires p_B injective.
    """
    b = box.source
    f = b.field
    if not box.injective:
        raise InvariantViolation("p_B not injective on a finite-dimensional bialgebra")
    retraction_t = solve_matrix(f, box.p_matrix.T.copy(), f.eye(box.dim))
    retraction = retraction_t.T.copy()  # box.dim x d with retraction @ p = id
    pleft = kron(f, b.counit_row, f.eye(b.dim))  # x (x) y |-> eps(x) y
    t = matmul(f, pleft, matmul(f, box.include, retraction))
    lhs = matmul(f, t, box.p_matrix)
    rhs = matmul(f, pleft, box.include)
    if not f.equal(lhs, rhs):
        raise ConstructionError("retraction witness fails T(x^i)eps(y_i) = eps(x^i)y_i")
    return t


def can_matrix(b: Bialgebra):
    """Matrix of can(x (x) y) = x y1 (x) y2: column (i, j) is (e_i (x) 1) Delta(e_j)."""
    f = b.field
    return b.prod2(*all_pairs(kron(f, f.eye(b.dim), b.unit_col), b.comult_mat))


def can_prime_matrix(b: Bialgebra):
    """Matrix of can'(x (x) y) = x1 (x) x2 y: column (i, j) is Delta(e_i) (1 (x) e_j)."""
    f = b.field
    return b.prod2(*all_pairs(b.comult_mat, kron(f, b.unit_col, f.eye(b.dim))))


@dataclass
class FrobeniusReport:
    i_bijective: bool
    p_bijective: bool
    right_antipode: np.ndarray | None
    anti_algebra: bool | None
    anti_coalgebra: bool | None
    consistent: bool
    can_bijective: bool        # square matrix: injective iff surjective
    can_prime_bijective: bool


def frobenius_report(osl: OslashSpace, box: BoxslashSpace) -> FrobeniusReport:
    """Equivalence diagnostics: i_B bijective, p_B bijective, and the
    existence of an anti-bialgebra right antipode must agree.

    When i_B is bijective, S^r(y) = i_B^{-1}(class(1 (x) y)) is the
    section witness and is checked to be a right antipode and an
    anti-bialgebra map; those checks are theorem-backed, so a failure
    raises InvariantViolation.
    """
    b = osl.source
    if box.source is not b:
        raise PreconditionError("frobenius_report: B (/) B and B (#) B of different bialgebras")
    f = b.field
    i_bij = osl.surjective and osl.injective
    p_bij = box.injective and box.surjective
    sr = None
    anti_alg = anti_coalg = None
    if i_bij:
        sr = S_witness(osl)
        if not f.equal(conv(b, f.eye(b.dim), sr), conv_unit(b)):
            raise InvariantViolation("extracted S^r is not a right antipode")
        shape = antipode_shape_check(b, sr)
        anti_alg = shape["anti_algebra"]
        anti_coalg = shape["anti_coalgebra"]
        if not (anti_alg and anti_coalg):
            raise InvariantViolation("extracted S^r is not an anti-bialgebra map")
    has_good_antipode = sr is not None
    d2 = b.dim * b.dim
    return FrobeniusReport(
        i_bijective=i_bij,
        p_bijective=p_bij,
        right_antipode=sr,
        anti_algebra=anti_alg,
        anti_coalgebra=anti_coalg,
        consistent=(i_bij == p_bij == has_good_antipode),
        can_bijective=(rank(f, can_matrix(b)) == d2),
        can_prime_bijective=(rank(f, can_prime_matrix(b)) == d2),
    )
