"""Batch command-line interface.

Reports are emitted as canonical JSON on stdout (deterministic byte for
byte for a fixed input and version) with a one-line text summary on
stderr.  Exit codes: 0 success, 1 usage, 2 parse/verification failure or
unmet precondition, 3 violated theorem-backed invariant (a bug, never
bad input).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .bialgebra import Bialgebra, verify_axioms
from .canonical import build_boxslash, build_oslash, frobenius_report
from .cofree import cocommutative_cofree, cofree_hopf, duality_check
from .convolution import central_n_antipode, minimal_left_n_antipode, minimal_right_n_antipode
from .corpus import run_corpus
from .envelope import hopf_envelope, oslash_iso_check
from .errors import (
    HopfkitError,
    InvariantViolation,
    ParseError,
    PreconditionError,
    VerificationError,
)
from .fields import Field, parse_field
from .io import document_to_text, parse_path
from .monoid import FiniteMonoid, enveloping_group, monoid_bialgebra, units_and_left_units

USAGE_EXIT, INPUT_EXIT, BUG_EXIT = 1, 2, 3


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error: {message}\n{self.format_usage()}")
        raise SystemExit(USAGE_EXIT)


def _matrix_json(field, m):
    m = np.atleast_2d(np.asarray(m))
    return [[field.format_scalar(x) for x in row] for row in m]


def _load_bialgebra(path: str, field: Field, verify: bool = True) -> Bialgebra:
    value = parse_path(path, verify=verify)
    if isinstance(value, FiniteMonoid):
        return monoid_bialgebra(value, field)
    return value


def _load_monoid(path: str) -> FiniteMonoid:
    value = parse_path(path)
    if not isinstance(value, FiniteMonoid):
        raise VerificationError("this command needs a monoid document")
    return value


# ---------------------------------------------------------------------------
# command implementations: each returns (report dict, summary line, exit code)


def cmd_verify(b, opts):
    report = verify_axioms(b)
    axioms = []
    for c in report.checks:
        entry = {"name": c.name, "ok": bool(c.ok)}
        if c.witness is not None:
            idx, residual = c.witness
            entry["witness"] = {
                "indices": [int(i) for i in idx],
                "residual": [b.field.format_scalar(x) for x in residual],
            }
        axioms.append(entry)
    doc = {"ok": report.ok, "axioms": axioms, "dim": b.dim, "field": b.field.name}
    line = f"verify: {'all axioms hold' if report.ok else 'axiom failure'} (dim {b.dim})"
    return doc, line, 0 if report.ok else INPUT_EXIT


def cmd_oslash(b, opts):
    osl = build_oslash(b)
    doc = {
        "quotient_dim": osl.dim,
        "ker_i_dim": osl.ker_i.dim,
        "i_surjective": bool(osl.surjective),
        "i_injective": bool(osl.injective),
    }
    if opts.matrices:
        doc["i_matrix"] = _matrix_json(b.field, osl.i_matrix)
        doc["projection"] = _matrix_json(b.field, osl.proj)
        doc["ker_i_basis"] = _matrix_json(b.field, osl.ker_i.basis)
    line = (
        f"oslash: quotient dim {osl.dim}, ker i dim {osl.ker_i.dim}, "
        f"i surjective={osl.surjective} injective={osl.injective}"
    )
    return doc, line, 0


def cmd_boxslash(b, opts):
    box = build_boxslash(b)
    doc = {
        "dim": box.dim,
        "im_p_dim": box.im_p.dim,
        "p_injective": bool(box.injective),
        "p_surjective": bool(box.surjective),
    }
    if opts.matrices:
        doc["p_matrix"] = _matrix_json(b.field, box.p_matrix)
        doc["basis"] = _matrix_json(b.field, box.space.basis)
    line = (
        f"boxslash: dim {box.dim}, im p dim {box.im_p.dim}, "
        f"p injective={box.injective} surjective={box.surjective}"
    )
    return doc, line, 0


def cmd_frobenius(b, opts):
    rep = frobenius_report(build_oslash(b), build_boxslash(b))
    doc = {
        "i_bijective": bool(rep.i_bijective),
        "p_bijective": bool(rep.p_bijective),
        "right_antipode_exists": rep.right_antipode is not None,
        "consistent": bool(rep.consistent),
        "can_bijective": bool(rep.can_bijective),
        "can_prime_bijective": bool(rep.can_prime_bijective),
    }
    if opts.matrices and rep.right_antipode is not None:
        doc["right_antipode"] = _matrix_json(b.field, rep.right_antipode)
    line = (
        f"frobenius: i bijective={rep.i_bijective}, p bijective={rep.p_bijective}, "
        f"right antipode={'yes' if rep.right_antipode is not None else 'no'}, "
        f"consistent={rep.consistent}"
    )
    return doc, line, 0 if rep.consistent else BUG_EXIT


def cmd_nantipode(b, opts):
    left = minimal_left_n_antipode(b)
    right = minimal_right_n_antipode(b)
    # raises InvariantViolation unless S * Id^{*(n+1)} = Id^{*n} on both sides
    central = central_n_antipode(b)
    agree = left.n == right.n == central.n
    doc = {
        "left_n": left.n,
        "right_n": right.n,
        "central_n": central.n,
        "agree": bool(agree),
        "central_identity_holds": True,
        "central_in_id_span": bool(central.central),
    }
    if opts.matrices:
        doc["central_antipode"] = _matrix_json(b.field, central.matrix)
    line = f"nantipode: minimal index {central.n} (left={left.n}, right={right.n})"
    return doc, line, 0 if agree else BUG_EXIT


def cmd_envelope(b, opts):
    env = hopf_envelope(b)
    osl = env.space
    iso = oslash_iso_check(env)
    doc = {
        "hopf_dim": env.hopf.dim,
        "ker_i_dim": osl.ker_i.dim,
        "antipode_present": True,
        "oslash_iso": bool(iso),
        "labels": list(env.hopf.labels),
    }
    if opts.matrices:
        doc["projection"] = _matrix_json(b.field, env.structure_map.matrix)
        doc["antipode"] = _matrix_json(b.field, env.antipode)
    line = (
        f"envelope: H dim {env.hopf.dim}, ker i dim {osl.ker_i.dim}, "
        f"antipode present, oslash iso={'ok' if iso else 'FAIL'}"
    )
    return doc, line, 0 if iso else BUG_EXIT


def cmd_cofree(b, opts):
    cof = cofree_hopf(b)
    box = cof.space
    doc = {
        "cofree_dim": cof.hopf.dim,
        "boxslash_dim": box.dim,
        "antipode_present": True,
        "labels": list(cof.hopf.labels),
    }
    if opts.matrices:
        doc["inclusion"] = _matrix_json(b.field, cof.structure_map.matrix)
        doc["antipode"] = _matrix_json(b.field, cof.antipode)
    line = f"cofree: C dim {cof.hopf.dim} (= dim boxslash {box.dim}), antipode present"
    return doc, line, 0


def cmd_cocofree(b, opts):
    cc = cocommutative_cofree(b)
    doc = {"dim": cc.hopf.dim, "labels": list(cc.hopf.labels)}
    if opts.matrices:
        doc["antipode"] = _matrix_json(b.field, cc.antipode)
        doc["structure_map"] = _matrix_json(b.field, cc.structure_map.matrix)
    line = f"cocofree: flip-stable Hopf part has dim {cc.hopf.dim}"
    return doc, line, 0


def cmd_dualcheck(b, opts):
    dual = duality_check(b)
    env_dim, cof_dim = dual.envelope.hopf.dim, dual.cofree_of_dual.hopf.dim
    doc = {"ok": dual.ok, "dim_hopf_envelope": env_dim, "dim_cofree_of_dual": cof_dim}
    line = f"dualcheck: dim C(B*) = {cof_dim}, dim H(B) = {env_dim}, ok={dual.ok}"
    return doc, line, 0 if dual.ok else BUG_EXIT


def cmd_monoid_units(m):
    info = units_and_left_units(m)
    doc = {
        "units": [m.labels[g] for g in info["units"]],
        "left_units": [m.labels[g] for g in info["left_units"]],
        "regulars": [m.labels[g] for g in info["regulars"]],
        "pseudoinverse": {m.labels[k]: m.labels[v] for k, v in info["pseudoinverse"].items()},
    }
    line = f"monoid units: {len(info['units'])} unit(s), {len(info['regulars'])} regular(s)"
    return doc, line, 0


def cmd_monoid_envgroup(m, field):
    group, mapping = enveloping_group(m, field)
    doc = {
        "size": group.size,
        "identity": group.identity,
        "table": [[int(v) for v in row] for row in group.table],
        "labels": list(group.labels),
        "mapping": [int(v) for v in mapping],
    }
    line = f"monoid envgroup: enveloping group of size {group.size}"
    return doc, line, 0


def cmd_corpus(opts):
    results, ok = run_corpus(seed=opts.seed, random_count=opts.random_count)
    doc = {
        "ok": bool(ok),
        "count": len(results),
        "fixtures": [
            {
                "name": r["name"],
                "field": r["field"],
                "dim": r["dim"],
                "dim_hopf_envelope": r["dim_hopf_envelope"],
                "dim_cofree": r["dim_cofree"],
                "n_antipode_index": r["n_antipode_index"],
                "ok": bool(r["ok"]),
                "failed_checks": sorted(k for k, v in r["checks"].items() if not v),
            }
            for r in results
        ],
    }
    line = f"corpus: {len(results)} fixtures, {'all invariants hold' if ok else 'FAILURES'}"
    return doc, line, 0 if ok else BUG_EXIT


# ---------------------------------------------------------------------------


def count(text: str) -> int:
    """argparse type: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {n}")
    return n


@functools.cache
def build_parser() -> CliParser:
    """The parser, built once per process and shared by every call of main.

    Each parse_args call fills a new namespace, so no option carries over
    from one call to the next; callers must not add to the parser.
    """
    parser = CliParser(prog="hopfkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hopfkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bialgebra_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="bialgebra or monoid document (JSON)")
        p.add_argument("--field", default="Q",
                       help="scalar field used to lift monoid documents (Q, F2, F3, ...)")
        p.add_argument("--matrices", action="store_true",
                       help="emit full matrices instead of dimensions only")
        return p

    add_bialgebra_command("verify", "check the bialgebra axioms")
    add_bialgebra_command("oslash", "build the quotient coalgebra and i_B")
    add_bialgebra_command("boxslash", "build the coinvariant algebra and p_B")
    add_bialgebra_command("frobenius", "equivalence diagnostics for i_B and p_B")
    add_bialgebra_command("nantipode", "minimal n-antipode indices and witness")
    add_bialgebra_command("envelope", "Hopf envelope as a quotient")
    add_bialgebra_command("cofree", "cofree Hopf algebra as a sub-bialgebra")
    add_bialgebra_command("cocofree", "cocommutative cofree Hopf algebra")
    add_bialgebra_command("dualcheck", "duality between envelope and cofree")

    mono = sub.add_parser("monoid", help="monoid-level reports")
    msub = mono.add_subparsers(dest="monoid_command", required=True)
    for name, help_text in (
        ("units", "units, left units, regular elements"),
        ("envgroup", "enveloping group via the Hopf envelope"),
    ):
        p = msub.add_parser(name, help=help_text)
        p.add_argument("input", help="monoid document (JSON)")
        p.add_argument("--field", default="Q",
                       help="scalar field for the monoid bialgebra (envgroup)")

    c = sub.add_parser("corpus", help="run the invariant suite over built-in fixtures")
    c.add_argument("--seed", type=int, default=20240801)
    c.add_argument("--random-count", type=count, default=6)
    return parser


_BIALGEBRA_COMMANDS = {
    "verify": cmd_verify,
    "oslash": cmd_oslash,
    "boxslash": cmd_boxslash,
    "frobenius": cmd_frobenius,
    "nantipode": cmd_nantipode,
    "envelope": cmd_envelope,
    "cofree": cmd_cofree,
    "cocofree": cmd_cocofree,
    "dualcheck": cmd_dualcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        if opts.command == "corpus":
            doc, line, code = cmd_corpus(opts)
        else:
            # checked for every command, also where the document ignores it
            field = parse_field(opts.field)
            if opts.command == "monoid":
                m = _load_monoid(opts.input)
                if opts.monoid_command == "units":
                    doc, line, code = cmd_monoid_units(m)
                else:
                    doc, line, code = cmd_monoid_envgroup(m, field)
            else:
                # verify parses unverified so it can report the axiom witnesses
                b = _load_bialgebra(opts.input, field, verify=opts.command != "verify")
                doc, line, code = _BIALGEBRA_COMMANDS[opts.command](b, opts)
    except (ParseError, VerificationError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, VerificationError) and exc.witness is not None:
            sys.stderr.write(
                f"witness: axiom {exc.witness.name} at index {exc.witness.witness[0]}\n"
            )
        return INPUT_EXIT
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation (bug): {exc}\n")
        return BUG_EXIT
    except HopfkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_EXIT
    doc = {"command": opts.command, "tool": "hopfkit", "version": __version__, **doc}
    sys.stdout.write(document_to_text(doc))
    sys.stderr.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
