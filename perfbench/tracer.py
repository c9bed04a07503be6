"""Span tracer for the pipeline benchmark.

The tracer wraps public hopfkit functions from outside the library: each
wrapped call records one span (name, start, end, parent span, operation
id) in memory, plus counts computed from the call's argument shapes or
its result.  The library itself is not modified; wrappers are installed
on the defining module, on every hopfkit module that bound the same name
with ``from .x import f``, and on the classes for methods, and are
removed again on exit.

Self time of a span is its duration minus the time covered by its direct
children.  Total time of a name sums only its outermost spans, so a
function that reaches itself again is not counted twice.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

#: blocked-product threshold of ``_kernels.np_matmul_mod``: n (p-1)^2 >= 2^62
_INT64_SAFE = 1 << 62


def _madds(counts, args, result):
    """m*k*n of one field product, vectors taken as 1-row/1-column matrices."""
    a, b = np.shape(args[1]), np.shape(args[2])
    m, k = (1, a[0]) if len(a) == 1 else a
    n = 1 if len(b) == 1 else b[1]
    counts["fields.matmul.madds"] += m * k * n


def _kernel_cells(counts, args, result):
    counts["kernels.rref_mod.cells"] += int(np.size(args[0]))


def _blocked(counts, args, result):
    n, p = args[0].shape[1], args[2]
    if n and n * (p - 1) * (p - 1) >= _INT64_SAFE:
        counts["kernels.matmul_mod.blocked_calls"] += 1


def _rref_counts(counts, args, result):
    counts["linalg.rref.cells"] += int(np.size(args[1]))
    if args[0].dtype is object:
        counts["linalg.rref.object_calls"] += 1


def _inconsistent(counts, args, result):
    if result is None:
        counts["linalg.solve_matrix.inconsistent"] += 1


def _powers(counts, args, result):
    """A one-sided search builds Id^{*0..d^2+2} and uses Id^{*0..n+1}."""
    counts["convolution.powers_useful"] += result.n + 2
    counts["convolution.powers_built"] += args[0].dim ** 2 + 3
    counts["convolution.searches"] += 1


# (span name, defining module, attribute or Class.method, count hook)
TARGETS = [
    ("fields.matmul", "fields", "RationalField.matmul", _madds),
    ("fields.matmul", "fields", "PrimeField.matmul", _madds),
    ("fields.kron", "fields", "RationalField.kron", None),
    ("fields.kron", "fields", "PrimeField.kron", None),
    ("kernels.rref_mod", "_kernels", "rref_mod", _kernel_cells),
    ("kernels.matmul_mod", "_kernels", "matmul_mod", _blocked),
    ("linalg.rref", "linalg", "rref", _rref_counts),
    ("linalg.kernel", "linalg", "kernel", None),
    ("linalg.solve_matrix", "linalg", "solve_matrix", _inconsistent),
    ("linalg.subspace_from_rows", "linalg", "subspace_from_rows", None),
    ("linalg.Subspace.reduce", "linalg", "Subspace.reduce", None),
    ("bialgebra.Bialgebra.prod", "bialgebra", "Bialgebra.prod", None),
    ("bialgebra.Bialgebra.prod2", "bialgebra", "Bialgebra.prod2", None),
    ("bialgebra.Bialgebra.prod2op", "bialgebra", "Bialgebra.prod2op", None),
    ("bialgebra.verify_axioms", "bialgebra", "verify_axioms", None),
    ("bialgebra.ideal_closure", "bialgebra", "ideal_closure", None),
    ("bialgebra.quotient_by_biideal", "bialgebra", "quotient_by_biideal", None),
    ("bialgebra.sub_bialgebra", "bialgebra", "sub_bialgebra", None),
    ("bialgebra.morphism_check", "bialgebra", "morphism_check", None),
    ("convolution.conv", "convolution", "conv", None),
    ("convolution.conv_operator", "convolution", "conv_operator", None),
    ("convolution.minimal_left_n_antipode", "convolution", "minimal_left_n_antipode", _powers),
    ("convolution.minimal_right_n_antipode", "convolution", "minimal_right_n_antipode", _powers),
    ("convolution.central_n_antipode", "convolution", "central_n_antipode", None),
    ("canonical.build_oslash", "canonical", "build_oslash", None),
    ("canonical.oslash_relations", "canonical", "oslash_relations", None),
    ("canonical.build_boxslash", "canonical", "build_boxslash", None),
    ("canonical.gamma_matrix", "canonical", "gamma_matrix", None),
    ("canonical.can_matrix", "canonical", "can_matrix", None),
    ("canonical.can_prime_matrix", "canonical", "can_prime_matrix", None),
    ("canonical.frobenius_report", "canonical", "frobenius_report", None),
    ("envelope.hopf_envelope", "envelope", "hopf_envelope", None),
    ("envelope.oslash_iso_check", "envelope", "oslash_iso_check", None),
    ("envelope.iterate_Q", "envelope", "iterate_Q", None),
    ("cofree.cofree_hopf", "cofree", "cofree_hopf", None),
    ("cofree.K_of", "cofree", "K_of", None),
    ("cofree.duality_check", "cofree", "duality_check", None),
    ("cofree.iterate_K", "cofree", "iterate_K", None),
    ("corpus.check_fixture", "corpus", "check_fixture", None),
    ("io.parse_path", "io", "parse_path", None),
    ("io.document_to_text", "io", "document_to_text", None),
    ("cli.main", "cli", "main", None),
]

#: spans counted per fixture battery: (metric, span name)
PER_FIXTURE = [
    ("corpus.build_oslash_per_fixture", "canonical.build_oslash"),
    ("corpus.build_boxslash_per_fixture", "canonical.build_boxslash"),
    ("corpus.hopf_envelope_per_fixture", "envelope.hopf_envelope"),
    ("corpus.cofree_hopf_per_fixture", "cofree.cofree_hopf"),
]

#: counts computed from argument shapes rather than observed
COMPUTED = {
    "fields.matmul.madds",
    "kernels.rref_mod.cells",
    "kernels.matmul_mod.blocked_calls",
    "linalg.rref.cells",
}

#: the per-layer metrics of BENCHMARK.json: (name, unit), in order
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        #: (index, name id, parent index, operation id, recursive, start, end),
        #: appended as spans end; the index numbers spans in start order
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._next = itertools.count()
        self._stack = []
        self._depth = Counter()
        self._patches = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, hook=None):
        nid = self.intern(name)
        clock = time.perf_counter
        spans, stack, depth, counter = self.spans, self._stack, self._depth, self._next

        def traced(*args, **kwargs):
            idx = next(counter)
            parent = stack[-1] if stack else -1
            recursive = depth[nid] > 0
            depth[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                spans.append((idx, nid, parent, self.op_id, recursive, t0, t1))
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target where hopfkit code looks it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hopfkit" or n.startswith("hopfkit."))]
        for name, modname, path, hook in targets:
            owner, attr = _resolve(sys.modules[f"hopfkit.{modname}"], path)
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hook)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if m.__dict__.get(attr) is orig]
            for holder in holders:
                self._patches.append((holder, attr, orig))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        rows = sorted(self.spans)
        columns = list(zip(*rows)) if rows else [()] * 7
        return {
            "name_id": np.array(columns[1], dtype=np.int32),
            "parent": np.array(columns[2], dtype=np.int32),
            "op": np.array(columns[3], dtype=np.int32),
            "recursive": np.array(columns[4], dtype=np.uint8),
            "start": np.array(columns[5], dtype=np.float64),
            "end": np.array(columns[6], dtype=np.float64),
        }

    def write(self, path):
        """Write the spans as an .npz archive; names are in ``names``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def stats(self) -> dict:
        """Per name: calls, self_s and total_s, plus the computed counts."""
        return span_stats(self.names, **self.arrays()) | dict(self.counts)


def self_times(start, end, parent):
    """Duration minus the time covered by direct children, per span."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


def _has_ancestor(parent, name_id, idx, target):
    idx = parent[idx]
    while idx >= 0:
        if name_id[idx] == target:
            return True
        idx = parent[idx]
    return False


def span_stats(names, name_id, parent, start, end, recursive, op=None) -> dict:
    """Aggregate spans into ``<name>.calls/self_s/total_s`` and per-fixture counts."""
    dur = np.asarray(end) - np.asarray(start)
    self_t = self_times(start, end, parent)
    name_id = np.asarray(name_id)
    outer = np.asarray(recursive) == 0
    out = {}
    for nid, name in enumerate(names):
        mask = name_id == nid
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.self_s"] = float(self_t[mask].sum())
        out[f"{name}.total_s"] = float(dur[mask & outer].sum())
    if out.get("corpus.check_fixture.calls"):
        battery = names.index("corpus.check_fixture")
        for metric, span in PER_FIXTURE:
            if span in names:
                sid = names.index(span)
                inside = sum(_has_ancestor(parent, name_id, int(i), battery)
                             for i in np.nonzero(name_id == sid)[0])
                out[metric] = inside / out["corpus.check_fixture.calls"]
    return out


def layer_metrics(stats: dict) -> dict:
    """The PER_LAYER values; names never reached read 0."""
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "convolution.powers_useful_ratio":
            built = stats.get("convolution.powers_built", 0)
            value = stats.get("convolution.powers_useful", 0) / built if built else 0.0
        else:
            value = stats.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
