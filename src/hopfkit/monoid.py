"""Finite monoids as multiplication tables, and their bialgebras.

Tables are n x n integer grids: ``table[i, j]`` is the index of the
product of element i and element j.  Everything here is exhaustive table
scanning; the linear-algebra counterparts live in the other modules and
the two views are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import Bialgebra, make_bialgebra
from .errors import HopfkitError, InvariantViolation
from .fields import Field
from .linalg import all_pairs


@dataclass(eq=False)
class FiniteMonoid:
    size: int
    table: np.ndarray
    identity: int
    labels: tuple

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def __eq__(self, other):
        return (
            isinstance(other, FiniteMonoid)
            and self.size == other.size
            and self.identity == other.identity
            and np.array_equal(self.table, other.table)
        )


def make_monoid(table, identity=None, labels=None) -> FiniteMonoid:
    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    if table.shape != (n, n):
        raise HopfkitError(f"multiplication table must be square, got {table.shape}")
    if table.size and (table.min() < 0 or table.max() >= n):
        raise HopfkitError("table entries out of range")
    if identity is None:
        identity = _find_identity(table)
        if identity is None:
            raise HopfkitError("table has no identity element")
    if labels is None:
        labels = tuple(f"m{i}" for i in range(n))
    m = FiniteMonoid(n, table, int(identity), tuple(labels))
    ok, witness = validate(m)
    if not ok:
        raise HopfkitError(f"not a monoid: witness {witness}")
    return m


def _find_identity(table):
    n = table.shape[0]
    for e in range(n):
        if all(table[e, x] == x == table[x, e] for x in range(n)):
            return e
    return None


def validate(m: FiniteMonoid, return_witness=True):
    """Exhaustive associativity and identity check."""
    t = m.table
    n = m.size
    e = m.identity
    for x in range(n):
        if t[e, x] != x or t[x, e] != x:
            return (False, ("identity", x)) if return_witness else False
    left = t[t, :]     # left[i, j, k] = t[t[i, j], k]
    right = t[:, t]    # right[i, j, k] = t[i, t[j, k]]
    if not np.array_equal(left, right):
        idx = np.argwhere(left != right)[0]
        return (False, ("associativity", tuple(int(v) for v in idx))) if return_witness else False
    return (True, None) if return_witness else True


# ---------------------------------------------------------------------------
# constructors


def monogenic(index: int, period: int, label: str = "x") -> FiniteMonoid:
    """The monoid on one generator x with x^(index+period) = x^index."""
    if index < 0 or period < 1 or index + period < 1:
        raise HopfkitError("need index >= 0, period >= 1, index + period >= 1")
    n = index + period

    def red(e):
        return e if e < n else index + (e - index) % period

    table = [[red(a + b) for b in range(n)] for a in range(n)]
    labels = ["1"] + [label if k == 1 else f"{label}^{k}" for k in range(1, n)]
    return make_monoid(table, identity=0, labels=labels)


def cyclic_group(n: int) -> FiniteMonoid:
    return monogenic(0, n)


def direct_product(a: FiniteMonoid, b: FiniteMonoid) -> FiniteMonoid:
    n = a.size * b.size
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(a.size):
        for j in range(b.size):
            for k in range(a.size):
                for l in range(b.size):
                    table[i * b.size + j, k * b.size + l] = (
                        a.table[i, k] * b.size + b.table[j, l]
                    )
    labels = tuple(f"({la},{lb})" for la in a.labels for lb in b.labels)
    return make_monoid(table, identity=a.identity * b.size + b.identity, labels=labels)


def adjoin_zero(m: FiniteMonoid) -> FiniteMonoid:
    """Add an absorbing element z with zx = xz = z."""
    n = m.size
    table = np.full((n + 1, n + 1), n, dtype=np.int64)
    table[:n, :n] = m.table
    return make_monoid(table, identity=m.identity, labels=m.labels + ("z",))


def full_transformation_monoid_2() -> FiniteMonoid:
    """All four maps {0,1} -> {0,1} under composition."""
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]  # id, swap, const0, const1
    idx = {f: i for i, f in enumerate(maps)}
    table = [
        [idx[(g[f[0]], g[f[1]])] for g in maps]  # (g after f)
        for f in maps
    ]
    return make_monoid(table, identity=0, labels=("id", "swap", "c0", "c1"))


# ---------------------------------------------------------------------------
# scans


def units_and_left_units(m: FiniteMonoid) -> dict:
    """Exhaustive scans for M^x, left units, regulars and pseudoinverses.

    For a finite monoid the left units coincide with the two-sided units;
    this is asserted rather than assumed.
    """
    n, t, e = m.size, m.table, m.identity
    left_units = [g for g in range(n) if any(t[g, h] == e for h in range(n))]
    units = [
        g
        for g in range(n)
        if any(t[g, h] == e and t[h, g] == e for h in range(n))
    ]
    regulars = []
    pseudoinverse = {}
    for x in range(n):
        for a in range(n):
            if t[t[x, a], x] == x:
                regulars.append(x)
                pseudoinverse[x] = a  # smallest index choice
                break
    if left_units != units:
        raise InvariantViolation("finite monoid with left units != units")
    return {
        "units": units,
        "left_units": left_units,
        "regulars": regulars,
        "pseudoinverse": pseudoinverse,
    }


def cancellativity_report(m: FiniteMonoid) -> dict:
    """Table-level booleans mirrored by the i_B / p_B diagnostics."""
    n, t, e = m.size, m.table, m.identity
    right_cancellative = True
    for c in range(n):
        if len({int(t[a, c]) for a in range(n)}) != n:
            right_cancellative = False
            break
    unique_right_inverses = all(
        sum(1 for h in range(n) if t[g, h] == e) <= 1 for g in range(n)
    )
    info = units_and_left_units(m)
    is_group = len(info["units"]) == n
    return {
        "right_cancellative": right_cancellative,
        "unique_right_inverses": unique_right_inverses,
        "is_group": is_group,
    }


def monoid_bialgebra(m: FiniteMonoid, field: Field) -> Bialgebra:
    """The monoid bialgebra: basis M, grouplike comultiplication."""
    n = m.size
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    comult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mult[i][j][m.mul(i, j)] = 1
        comult[i][i][i] = 1
    unit = [0] * n
    unit[m.identity] = 1
    counit = [1] * n
    return make_bialgebra(field, mult, comult, unit, counit, m.labels)


def enveloping_group(m: FiniteMonoid, field: Field):
    """The universal group receiving the monoid, read off the Hopf envelope.

    Returns ``(group, mapping)`` where ``mapping[g]`` is the image index
    of monoid element g.  The basis images of the envelope are grouplike
    and linearly independent, so deduping them yields the group table.
    """
    from .envelope import hopf_envelope  # local import to avoid a cycle

    b = monoid_bialgebra(m, field)
    result = hopf_envelope(b)
    h = result.hopf
    q = result.structure_map.matrix
    index = {}  # image -> its position among the distinct images
    mapping = [index.setdefault(tuple(col), len(index)) for col in q.T]
    size = len(index)
    if size != h.dim:
        raise InvariantViolation(f"distinct envelope images ({size}) != dim H ({h.dim})")
    reps = np.array(list(index), dtype=q.dtype).T
    products = h.prod(*all_pairs(reps, reps))  # image a times image b at column a*size+b
    try:
        table = np.array([index[tuple(col)] for col in products.T], dtype=np.int64)
    except KeyError:
        raise InvariantViolation("product of envelope images is not an image") from None
    table = table.reshape(size, size)
    labels = tuple(m.labels[mapping.index(t)] for t in range(size))
    group = make_monoid(table, identity=mapping[m.identity], labels=labels)
    if not cancellativity_report(group)["is_group"]:
        raise InvariantViolation("enveloping construction produced a non-group")
    return group, mapping
