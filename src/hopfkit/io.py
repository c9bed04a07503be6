"""Document formats: exact, sparse, field-agnostic JSON interchange.

Bialgebra documents carry structure constants as sparse integer tuples
with explicit numerator/denominator, so no floating point ever appears:

* ``mult``:   [i, j, k, num, den]  meaning  (e_i e_j)_k = num/den
* ``comult``: [k, i, j, num, den]  meaning  Delta(e_k)_(i,j) = num/den
* ``unit`` / ``counit``: [i, num, den]

Prime-field documents must use den = 1 and 0 <= num < p.  Every integer
field rejects JSON booleans, each sparse position may appear only once,
and a bialgebra's ``dim`` and a monoid's ``size`` are capped at
:data:`MAX_DIM`.  Optional ``labels`` are strings, distinct in a monoid
document.  Parsing verifies the bialgebra axioms (or the monoid
axioms) and fails with a witness; serialization emits triples in sorted
order so that parse/serialize round-trips are the identity on canonical
documents.
"""

from __future__ import annotations

import json

from .bialgebra import Bialgebra, assert_valid, make_bialgebra
from .errors import HopfkitError, ParseError
from .fields import PrimeField, parse_field
from .monoid import FiniteMonoid, make_monoid

BIALGEBRA_SCHEMA = "hopfkit.bialgebra/1"
MONOID_SCHEMA = "hopfkit.monoid/1"

#: Largest accepted bialgebra dimension, and monoid size: every command may
#: lift a monoid to its monoid bialgebra, of dimension size.  The biggest
#: matrix the axiom check builds is kron(mult_mat, eye), with d**5 entries;
#: over Q one entry costs about 56 bytes (an 8-byte pointer and a 48-byte
#: Fraction), 72 at the peak of numpy's kron.  32**5 = 33,554,432 entries
#: * 72 B = 2.4 GB, a third of a 7 GiB machine; dim 40 would already need
#: 7.4 GB.
MAX_DIM = 32


def _expect(cond, where, msg):
    if not cond:
        raise ParseError(f"{where}: {msg}")


def _is_int(x) -> bool:
    """A JSON integer: ``true``/``false`` decode to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _scalar_from_pair(field, num, den, where):
    _expect(_is_int(num) and _is_int(den), where, "num/den must be integers")
    _expect(den != 0, where, "zero denominator")
    if isinstance(field, PrimeField):
        _expect(den == 1, where, f"prime-field entries need denominator 1, got {den}")
        _expect(0 <= num < field.p, where, f"prime-field value {num} outside [0, {field.p})")
    return field.from_pair(num, den)


def bialgebra_from_document(doc: dict, verify: bool = True) -> Bialgebra:
    where = "bialgebra document"
    _expect(isinstance(doc, dict), where, "not a JSON object")
    _expect(doc.get("schema") == BIALGEBRA_SCHEMA, where, f"schema must be {BIALGEBRA_SCHEMA}")
    try:
        field = parse_field(doc.get("field", ""))
    except HopfkitError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    dim = doc.get("dim")
    _expect(_is_int(dim) and dim >= 1, where, "dim must be a positive integer")
    _expect(dim <= MAX_DIM, where, f"dim {dim} exceeds the supported maximum {MAX_DIM}")
    labels = _labels(doc, dim, where, "basis vector")
    mult = _sparse_tensor(doc, "mult", "ijk", field, dim)
    comult = _sparse_tensor(doc, "comult", "kij", field, dim)
    unit = _sparse_tensor(doc, "unit", "i", field, dim)
    counit = _sparse_tensor(doc, "counit", "i", field, dim)
    b = make_bialgebra(field, mult, comult, unit, counit, labels)
    return assert_valid(b) if verify else b


def _labels(doc, count, where, per):
    """``doc["labels"]`` as a tuple of ``count`` strings, or None if absent."""
    labels = doc.get("labels")
    if labels is None:
        return None
    _expect(isinstance(labels, list) and len(labels) == count, where,
            f"labels must list one string per {per}")
    for t, label in enumerate(labels):
        _expect(isinstance(label, str), f"labels[{t}]", "expected a string")
    return tuple(labels)


def _sparse_tensor(doc, key, axes, field, dim):
    """Dense tensor from ``doc[key]``, a list of [*indices, num, den] entries."""
    out = field.zeros((dim,) * len(axes))
    layout = "[" + ", ".join([*axes, "num", "den"]) + "]"
    entries = doc.get(key, [])
    _expect(isinstance(entries, list), key, "expected a list of entries")
    seen = {}
    for t, entry in enumerate(entries):
        w = f"{key}[{t}]"
        _expect(isinstance(entry, list) and len(entry) == len(axes) + 2, w, f"expected {layout}")
        *idx, num, den = entry
        for name, i in zip(axes, idx):
            _expect(_is_int(i) and 0 <= i < dim, w, f"index {name}={i} out of range")
        idx = tuple(idx)
        _expect(idx not in seen, w, f"duplicate of {key}[{seen.get(idx)}] at position {list(idx)}")
        seen[idx] = t
        out[idx] = _scalar_from_pair(field, num, den, w)
    return out


def monoid_from_document(doc: dict) -> FiniteMonoid:
    where = "monoid document"
    _expect(isinstance(doc, dict), where, "not a JSON object")
    _expect(doc.get("schema") == MONOID_SCHEMA, where, f"schema must be {MONOID_SCHEMA}")
    size = doc.get("size")
    _expect(_is_int(size) and size >= 1, where, "size must be a positive integer")
    _expect(size <= MAX_DIM, where, f"size {size} exceeds the supported maximum {MAX_DIM}")
    table = doc.get("table")
    _expect(
        isinstance(table, list) and len(table) == size
        and all(isinstance(r, list) and len(r) == size for r in table),
        where, "table must be a size x size grid",
    )
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            _expect(_is_int(v) and 0 <= v < size, f"table[{i}][{j}]",
                    f"entry {v} out of range")
    identity = doc.get("identity")
    _expect(_is_int(identity) and 0 <= identity < size, where,
            "identity index out of range")
    labels = _labels(doc, size, where, "element")
    if labels is not None:
        # the units report is keyed by label
        seen = {}
        for t, label in enumerate(labels):
            _expect(label not in seen, f"labels[{t}]", f"duplicate of labels[{seen.get(label)}]")
            seen[label] = t
    try:
        return make_monoid(table, identity=identity, labels=labels)
    except HopfkitError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def serialize_bialgebra(b: Bialgebra) -> dict:
    f = b.field
    mult, comult, unit, counit = [], [], [], []
    d = b.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if b.mult[i, j, k] != 0:
                    num, den = f.scalar_pair(b.mult[i, j, k])
                    mult.append([i, j, k, num, den])
                if b.comult[i, j, k] != 0:
                    num, den = f.scalar_pair(b.comult[i, j, k])
                    comult.append([i, j, k, num, den])
    for i in range(d):
        if b.unit[i] != 0:
            num, den = f.scalar_pair(b.unit[i])
            unit.append([i, num, den])
        if b.counit[i] != 0:
            num, den = f.scalar_pair(b.counit[i])
            counit.append([i, num, den])
    return {
        "schema": BIALGEBRA_SCHEMA,
        "field": f.name,
        "dim": d,
        "labels": list(b.labels),
        "mult": mult,
        "comult": comult,
        "unit": unit,
        "counit": counit,
    }


def serialize_monoid(m: FiniteMonoid) -> dict:
    return {
        "schema": MONOID_SCHEMA,
        "size": m.size,
        "identity": m.identity,
        "table": [[int(v) for v in row] for row in m.table],
        "labels": list(m.labels),
    }


def document_to_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_text(text: str, verify: bool = True):
    """Parse a document from JSON text into a verified value.

    With ``verify=False`` a bialgebra document is only shape-checked, so
    callers can produce their own axiom report for bad inputs.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    schema = doc.get("schema")
    if schema == BIALGEBRA_SCHEMA:
        return bialgebra_from_document(doc, verify=verify)
    if schema == MONOID_SCHEMA:
        return monoid_from_document(doc)
    raise ParseError(f"unknown schema {schema!r}")


def parse_path(path: str, verify: bool = True):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_text(text, verify=verify)

