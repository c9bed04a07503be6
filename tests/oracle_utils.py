"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's linear algebra: ranks come from
exhaustive minor expansion, spans from enumerating every coefficient
combination over a small prime field.  The helpers at the end
are the exception: bounded searches, comparisons and small operations
built on :mod:`hopfkit.linalg`, needed only by tests.
"""

from itertools import combinations, permutations, product

import numpy as np

from hopfkit.linalg import Subspace, kron, matmul, solve_matrix, subspace_from_rows


def all_vectors(p, d):
    """Every vector of F_p^d as a tuple, in lexicographic order."""
    return [tuple(v) for v in product(range(p), repeat=d)]


def det_mod(rows, p):
    """Determinant by permutation expansion, reduced mod p."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the signature
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        if inv % 2:
            sign = -1
        term = sign
        for i in range(n):
            term = (term * rows[i][perm[i]]) % p
        total = (total + term) % p
    return total % p


def minor_rank(matrix, p):
    """Largest k with a nonzero k x k minor."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[i][j] % p for j in cols] for i in rows]
                if det_mod(sub, p) != 0:
                    return k
    return 0


def span_set(rows, p, d):
    """The set of all F_p-linear combinations of the given row vectors."""
    out = set()
    k = len(rows)
    for coeffs in product(range(p), repeat=k):
        v = [0] * d
        for c, r in zip(coeffs, rows):
            for t in range(d):
                v[t] = (v[t] + c * r[t]) % p
        out.add(tuple(v))
    return out


def matvec_mod(matrix, v, p):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) % p for row in matrix)


def brute_span(gens, p, dim):
    """Closure of a generator list under addition and scaling (small p^dim)."""
    span = {tuple([0] * dim)}
    for g in gens:
        g = tuple(int(x) % p for x in g)
        if g in span:
            continue
        new = set()
        for s in span:
            for c in range(1, p):
                new.add(tuple((s[t] + c * g[t]) % p for t in range(dim)))
        span |= new
    return span


def int_structure(b):
    """Structure tensors of a prime-field bialgebra as plain int lists."""
    d = b.dim
    mult = [[[int(b.mult[i, j, k]) for k in range(d)] for j in range(d)] for i in range(d)]
    comult = [[[int(b.comult[k, i, j]) for j in range(d)] for i in range(d)] for k in range(d)]
    unit = [int(x) for x in b.unit]
    counit = [int(x) for x in b.counit]
    return mult, comult, unit, counit


def tensor_square_product_int(mult, u, v, p):
    """Componentwise product on B (x) B from raw structure constants."""
    d = len(mult)
    out = [0] * (d * d)
    for s in range(d * d):
        if u[s] == 0:
            continue
        i, j = divmod(s, d)
        for t in range(d * d):
            if v[t] == 0:
                continue
            k, l = divmod(t, d)
            c = (u[s] * v[t]) % p
            for r in range(d):
                if mult[i][k][r] == 0:
                    continue
                for ss in range(d):
                    out[r * d + ss] = (
                        out[r * d + ss] + c * mult[i][k][r] * mult[j][l][ss]
                    ) % p
    return tuple(out)


def oslash_relation_span_oracle(b, p):
    """All of (B (x) B) Delta(B+) by exhaustive enumeration over F_p."""
    mult, comult, unit, counit = int_structure(b)
    d = len(mult)
    bplus = [
        v
        for v in all_vectors(p, d)
        if sum(counit[k] * v[k] for k in range(d)) % p == 0
    ]
    gens = []
    for h in bplus:
        dh = [0] * (d * d)
        for k in range(d):
            if h[k] == 0:
                continue
            for i in range(d):
                for j in range(d):
                    dh[i * d + j] = (dh[i * d + j] + h[k] * comult[k][i][j]) % p
        for s in range(d * d):
            e = [0] * (d * d)
            e[s] = 1
            gens.append(tensor_square_product_int(mult, e, dh, p))
    return brute_span(gens, p, d * d)


def gamma_apply_int(b, v, p):
    """gamma(x (x) y) = x1 (x) y1 (x) x2 y2 - x (x) y (x) 1, raw arithmetic."""
    mult, comult, unit, counit = int_structure(b)
    d = len(mult)
    out = [0] * (d ** 3)
    for s in range(d * d):
        if v[s] == 0:
            continue
        i, j = divmod(s, d)
        for a in range(d):
            for bb in range(d):
                if comult[i][a][bb] == 0:
                    continue
                for c in range(d):
                    for e in range(d):
                        coef = (v[s] * comult[i][a][bb] * comult[j][c][e]) % p
                        if coef == 0:
                            continue
                        for r in range(d):
                            idx = (a * d + c) * d + r
                            out[idx] = (out[idx] + coef * mult[bb][e][r]) % p
        for r in range(d):
            idx = (i * d + j) * d + r
            out[idx] = (out[idx] - v[s] * unit[r]) % p
    return tuple(out)


# ---------------------------------------------------------------------------
# subspace helpers on the library's linear algebra


def full_subspace(f, ambient):
    return Subspace(f, ambient, f.eye(ambient), tuple(range(ambient)))


def contains_subspace(big, small):
    return all(big.contains(small.basis[t]) for t in range(small.dim))


def basis_aligned_subspace(b, indices):
    return subspace_from_rows(b.field, b.dim, [b.basis_vector(i) for i in indices])


def _spans_sub_coalgebra(b, idx, span):
    ww = subspace_from_rows(
        b.field,
        b.dim * b.dim,
        [kron(b.field, span.basis[s], span.basis[t])
         for s in range(span.dim) for t in range(span.dim)],
    )
    return all(ww.contains(b.delta(b.basis_vector(i))) for i in idx)


def basis_aligned_sub_bialgebras(b):
    """All subsets of the basis spanning a sub-bialgebra (bounded search)."""
    out = []
    d = b.dim
    for size in range(1, d + 1):
        for idx in combinations(range(d), size):
            span = basis_aligned_subspace(b, idx)
            if not span.contains(b.unit):
                continue
            if not all(span.contains(b.mult[i, j]) for i in idx for j in idx):
                continue
            if _spans_sub_coalgebra(b, idx, span):
                out.append(span)
    return out


def basis_aligned_sub_coalgebras(b):
    """All subsets of the basis spanning a sub-coalgebra (bounded search)."""
    out = []
    for size in range(0, b.dim + 1):
        for idx in combinations(range(b.dim), size):
            span = basis_aligned_subspace(b, idx)
            if _spans_sub_coalgebra(b, idx, span):
                out.append(span)
    return out


def loop_reduce(u, v):
    """Residual of the vector v after eliminating u's pivot coordinates one
    pivot at a time: the reference for ``Subspace.reduce``."""
    out = u.field.zeros(u.ambient)
    out[...] = v
    for t, c in enumerate(u.pivots):
        if out[c] != 0:
            out = u.field.submul(out, out[c], u.basis[t])
    return out


def is_commutative(b):
    return bool(np.all(b.mult == b.mult.transpose(1, 0, 2)))


def oslash_act(osl, ab_vec, class_vec):
    """Left action of B (x) B on B (/) B: (a (x) b).(x/y) = ax/by."""
    b = osl.source
    rep = matmul(b.field, osl.reps, class_vec)
    return matmul(b.field, osl.proj, b.prod2(ab_vec, rep))


def reference_right_antipode(osl):
    """S^r(y) = i_B^{-1}(class(1 (x) y)) by one direct solve, for bijective i_B."""
    b = osl.source
    f = b.field
    emb2 = kron(f, b.unit_col, f.eye(b.dim))
    return solve_matrix(f, osl.i_matrix, matmul(f, osl.proj, emb2))
