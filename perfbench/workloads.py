"""The benchmark's workloads: seeded inputs, operations and answer checks.

Each workload is a fixed list of operations built from a seed.  The seed
relabels the bases of the generated inputs (``corpus_q``, ``ladder_f3``)
and orders the operations; it never changes which isomorphism classes or sizes are
run, so every seed costs the same work.  The shuffled order spreads
operations of similar cost over the pass, so the per-operation
percentiles do not all sample the same stretch of a noisy machine.

* ``corpus_q``: one ``corpus.check_fixture`` battery per operation, over
  every Q fixture of ``named_fixtures()`` plus monoid bialgebras over Q
  from ``corpus.random_monoid``.  Answer: the battery's ``ok``.
* ``ladder_f3``: ``verify_axioms``, ``hopf_envelope`` and ``cofree_hopf``
  on ``monoid_bialgebra(monogenic(n//2, n-n//2), F3)`` for n = 2..12 and on
  tensor products of the shipped families.  Answer: closed-form
  dimensions (dim H = p, dim C = 1) or dimensions recorded in
  ``expected.json``.
* ``cli_bigprime``: every bialgebra command of ``hopfkit.cli.main`` on
  serialised documents over F_{2^31-1} and F_{2^61-1}.  Answer: exit code
  0, the stdout digest recorded in ``expected.json``, and the same report
  (up to the field name) on both primes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hopfkit import bialgebra, cli, cofree, corpus, envelope, families
from hopfkit import io as hio
from hopfkit.fields import QQ, PrimeField
from hopfkit.monoid import cyclic_group, monogenic, monoid_bialgebra

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def relabel_bialgebra(b, rng):
    """The same bialgebra on a randomly permuted basis, verified."""
    perm = rng.sample(range(b.dim), b.dim)
    mult, comult = b.field.zeros(b.mult.shape), b.field.zeros(b.comult.shape)
    mult[np.ix_(perm, perm, perm)] = b.mult
    comult[np.ix_(perm, perm, perm)] = b.comult
    unit, counit = b.field.zeros(b.dim), b.field.zeros(b.dim)
    unit[perm] = b.unit
    counit[perm] = b.counit
    labels = [""] * b.dim
    for i, label in enumerate(b.labels):
        labels[perm[i]] = label
    return bialgebra.assert_valid(
        bialgebra.make_bialgebra(b.field, mult, comult, unit, counit, labels)
    )


# ---------------------------------------------------------------------------
# corpus_q

#: the random fixtures are the first monoids ``corpus.random_monoid`` draws
#: from ``run_corpus``'s default seed, so every workload seed runs the same
#: monoids.  Sizes stop at 3 because a size-5 or size-6 battery takes 8-33 s,
#: and a traced run makes three passes.
RANDOM_SEED = 20240801
RANDOM_COUNT = 12
RANDOM_MAX_SIZE = 3


def corpus_q(rng, workdir):
    fixtures = [fx for fx in corpus.named_fixtures() if fx.bialgebra.field == QQ]
    draw = random.Random(RANDOM_SEED)
    for k in range(RANDOM_COUNT):
        m = corpus._relabel(corpus.random_monoid(draw, RANDOM_MAX_SIZE), rng)
        b = bialgebra.assert_valid(monoid_bialgebra(m, QQ))
        fixtures.append(corpus.CorpusFixture(f"random_monoid_{k}/Q", b, m))
    ops = [
        Op(fx.name, lambda fx=fx: corpus.check_fixture(fx), lambda r: r["ok"])
        for fx in fixtures
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# ladder_f3

F3 = PrimeField(3)
LADDER = range(2, 13)
TENSORS = {
    "sweedler_h4*radford_dual_2": lambda f: (families.sweedler_h4(f), families.radford_dual(2, f)),
    "quotient_quantum_plane*cyclic_2": lambda f: (
        families.quotient_quantum_plane(f), monoid_bialgebra(cyclic_group(2), f)),
    "radford_dual_2*radford_dual_2": lambda f: (families.radford_dual(2, f), families.radford_dual(2, f)),
    "sweedler_h4*cyclic_2": lambda f: (families.sweedler_h4(f), monoid_bialgebra(cyclic_group(2), f)),
}


def _ladder_ops(label, b, dim_h, dim_c):
    return [
        Op(f"verify {label}", lambda: bialgebra.verify_axioms(b), lambda r: r.ok),
        Op(f"envelope {label}", lambda: envelope.hopf_envelope(b),
           lambda r: r.hopf.dim == dim_h),
        Op(f"cofree {label}", lambda: cofree.cofree_hopf(b),
           lambda r: r.hopf.dim == dim_c),
    ]


def ladder_f3(rng, workdir):
    expected = json.loads(EXPECTED_PATH.read_text())["tensor_dims"]
    ops = []
    for n in LADDER:
        index, period = n // 2, n - n // 2
        m = corpus._relabel(monogenic(index, period), rng)
        b = bialgebra.assert_valid(monoid_bialgebra(m, F3))
        ops += _ladder_ops(f"monogenic({index},{period})/F3", b, period, 1)
    for name, make in TENSORS.items():
        b = relabel_bialgebra(bialgebra.tensor_bialgebra(*make(F3)), rng)
        ops += _ladder_ops(f"{name}/F3", b, *expected[name])
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_bigprime

PRIMES = (PrimeField(2**31 - 1), PrimeField(2**61 - 1))
COMMANDS = ("verify", "oslash", "boxslash", "frobenius", "nantipode",
            "envelope", "cofree", "dualcheck")
CLI_INPUTS = {
    "quotient_quantum_plane": families.quotient_quantum_plane,
    "sweedler_h4": families.sweedler_h4,
    "radford_dual_2": lambda f: families.radford_dual(2, f),
    "radford_dual_3": lambda f: families.radford_dual(3, f),
    "radford_unit_matrix2": lambda f: families.radford_adjoin_unit(
        *families.matrix_coalgebra(2, f), field=f),
    "monogenic_2_3": lambda f: monoid_bialgebra(monogenic(2, 3), f),
}


def run_cli(argv):
    """``hopfkit.cli.main`` in-process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _same_report(seen, key, field, text):
    """Record a report and compare it with the other prime's, field name aside."""
    report = json.loads(text)
    report.pop("field", None)
    seen.setdefault(key, {})[field] = report
    return all(r == report for r in seen[key].values())


def cli_bigprime(rng, workdir):
    digests = json.loads(EXPECTED_PATH.read_text())["cli_sha256"]
    seen = {}
    ops = []
    for name, make in CLI_INPUTS.items():
        for f in PRIMES:
            b = bialgebra.assert_valid(make(f))
            path = os.path.join(workdir, f"{name}.{f.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(hio.document_to_text(hio.serialize_bialgebra(b)))
            for command in COMMANDS:
                key = f"{command} {name}"
                label = f"{key}/{f.name}"

                def check(result, key=key, label=label, field=f.name):
                    code, text = result
                    return (code == 0
                            and hashlib.sha256(text.encode()).hexdigest() == digests[label]
                            and _same_report(seen, key, field, text))

                ops.append(Op(label, lambda argv=[command, path]: run_cli(argv), check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"corpus_q": corpus_q, "ladder_f3": ladder_f3, "cli_bigprime": cli_bigprime}


def build(workload: str, seed: int, workdir: str) -> list:
    """Every input and operation of one workload, from its seed."""
    return WORKLOADS[workload](random.Random(seed), workdir)
