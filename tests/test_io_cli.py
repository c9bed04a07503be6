"""Document round-trips, shipped fixtures, CLI reports and exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hopfkit
import hopfkit.cli
from hopfkit import families
from hopfkit.errors import HopfkitError, ParseError, VerificationError
from hopfkit.fields import PrimeField
from hopfkit.io import (
    MAX_DIM,
    document_to_text,
    parse_path,
    parse_text,
    serialize_bialgebra,
    serialize_monoid,
)
from hopfkit.monoid import FiniteMonoid, monogenic, monoid_bialgebra

FIXTURES = Path(hopfkit.__file__).parent / "fixtures"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hopfkit", *args], capture_output=True, text=True
    )


def test_round_trip_bialgebra(qqp):
    doc = serialize_bialgebra(qqp)
    again = serialize_bialgebra(parse_text(document_to_text(doc)))
    assert doc == again
    assert document_to_text(doc) == document_to_text(again)


def test_round_trip_monoid():
    m = monogenic(2, 3)
    doc = serialize_monoid(m)
    again = parse_text(document_to_text(doc))
    assert isinstance(again, FiniteMonoid)
    assert serialize_monoid(again) == doc


def test_shipped_quantum_plane_fixture_matches_constructor(qqp):
    parsed = parse_path(str(FIXTURES / "quotient_quantum_plane.json"))
    assert parsed.dim == 6
    assert np.array_equal(parsed.mult, qqp.mult)
    assert np.array_equal(parsed.comult, qqp.comult)
    assert np.array_equal(parsed.unit, qqp.unit)
    assert np.array_equal(parsed.counit, qqp.counit)
    assert parsed.labels == qqp.labels


def test_shipped_monoid_fixture_parses():
    m = parse_path(str(FIXTURES / "monoid_monogenic_2_3.json"))
    assert isinstance(m, FiniteMonoid)
    assert m.size == 5 and m.mul(4, 1) == 2


def test_malformed_json_reports_location():
    with pytest.raises(ParseError, match="line"):
        parse_text("{not json")


def test_wrong_schema_and_bad_entries():
    with pytest.raises(ParseError, match="schema"):
        parse_text(json.dumps({"schema": "other/1"}))
    doc = {
        "schema": "hopfkit.bialgebra/1",
        "field": "F5",
        "dim": 1,
        "mult": [[0, 0, 0, 1, 2]],  # denominator must be 1 over F5
        "comult": [[0, 0, 0, 1, 1]],
        "unit": [[0, 1, 1]],
        "counit": [[0, 1, 1]],
    }
    with pytest.raises(ParseError, match="denominator"):
        parse_text(json.dumps(doc))
    doc["mult"] = [[0, 0, 5, 1, 1]]
    with pytest.raises(ParseError, match="out of range"):
        parse_text(json.dumps(doc))


def test_axiom_failure_carries_witness(qqp, tmp_path):
    doc = serialize_bialgebra(qqp)
    doc["comult"] = [e for e in doc["comult"] if e[0] != 3] + [[3, 3, 3, 1, 1]]
    with pytest.raises(VerificationError) as err:
        parse_text(json.dumps(doc))
    assert err.value.witness is not None


def corrupt_fixture_path(tmp_path, qqp):
    doc = serialize_bialgebra(qqp)
    doc["comult"] = [e for e in doc["comult"] if e[0] != 3] + [[3, 3, 3, 1, 1]]
    path = tmp_path / "corrupt.json"
    path.write_text(document_to_text(doc))
    return path


def test_cli_envelope_report_and_determinism(qqp):
    fixture = str(FIXTURES / "quotient_quantum_plane.json")
    first = run_cli("envelope", fixture)
    second = run_cli("envelope", fixture)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reports
    doc = json.loads(first.stdout)
    assert doc["hopf_dim"] == 4
    assert doc["ker_i_dim"] == 2
    assert doc["antipode_present"] is True
    assert doc["oslash_iso"] is True


def test_cli_cofree_on_monogenic():
    res = run_cli("cofree", str(FIXTURES / "monoid_monogenic_2_3.json"))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["cofree_dim"] == 1


def test_cli_verify_and_exit_codes(tmp_path, qqp):
    ok = run_cli("verify", str(FIXTURES / "dual_radford_2.json"))
    assert ok.returncode == 0
    corrupt = corrupt_fixture_path(tmp_path, qqp)
    bad = run_cli("verify", str(corrupt))
    assert bad.returncode == 2
    report = json.loads(bad.stdout)
    assert report["ok"] is False
    witnesses = [a for a in report["axioms"] if not a["ok"]]
    assert witnesses and "witness" in witnesses[0]


def test_cli_parse_error_exit_codes(tmp_path, qqp):
    missing = run_cli("verify", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    corrupt = corrupt_fixture_path(tmp_path, qqp)
    env = run_cli("envelope", str(corrupt))
    assert env.returncode == 2
    assert "witness" in env.stderr


def test_cli_usage_errors_exit_one():
    assert run_cli().returncode == 1
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("envelope").returncode == 1  # missing input


@pytest.mark.parametrize("command", ["units", "envgroup"])
def test_monoid_commands_reject_matrices(command, capsys):
    # neither report has matrices to emit, so the option is not accepted
    monoid_doc = str(FIXTURES / "monoid_monogenic_2_3.json")
    with pytest.raises(SystemExit) as exc:
        hopfkit.cli.main(["monoid", command, monoid_doc, "--matrices"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--matrices" in captured.err


def test_cli_cocofree_precondition():
    res = run_cli("cocofree", str(FIXTURES / "quotient_quantum_plane.json"))
    assert res.returncode == 2
    ok = run_cli("cocofree", str(FIXTURES / "monoid_cyclic_2.json"))
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["dim"] == 2


def test_cli_monoid_commands():
    units = run_cli("monoid", "units", str(FIXTURES / "monoid_monogenic_2_3.json"))
    assert units.returncode == 0
    doc = json.loads(units.stdout)
    assert doc["units"] == ["1"] and doc["left_units"] == ["1"]
    env = run_cli("monoid", "envgroup", str(FIXTURES / "monoid_monogenic_2_3.json"))
    assert env.returncode == 0
    gdoc = json.loads(env.stdout)
    assert gdoc["size"] == 3 and gdoc["mapping"] == [0, 1, 2, 0, 1]
    # monoid command on a bialgebra document is an input error
    wrong = run_cli("monoid", "units", str(FIXTURES / "quotient_quantum_plane.json"))
    assert wrong.returncode == 2


def test_cli_monoid_lift_with_field():
    res = run_cli(
        "envelope", str(FIXTURES / "monoid_monogenic_2_3.json"), "--field", "F3"
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["hopf_dim"] == 3


def test_cli_matrices_flag():
    res = run_cli(
        "frobenius", str(FIXTURES / "monoid_cyclic_2.json"), "--matrices"
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["right_antipode"] == [["1", "0"], ["0", "1"]]


def test_cli_dualcheck():
    res = run_cli("dualcheck", str(FIXTURES / "quotient_quantum_plane.json"))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["ok"] is True and doc["dim_cofree_of_dual"] == 4


def test_dualcheck_builds_each_side_once(monkeypatch, capsys):
    from hopfkit.cofree import cofree_hopf
    from hopfkit.envelope import hopf_envelope

    calls = {"hopf_envelope": 0, "cofree_hopf": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every hopfkit module that holds a reference, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name == "hopfkit" or name.startswith("hopfkit."):
            for fn in (hopf_envelope, cofree_hopf):
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted(fn))
    code = hopfkit.cli.main(["dualcheck", str(FIXTURES / "monoid_monogenic_2_3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["ok"] is True
    assert doc["dim_hopf_envelope"] == doc["dim_cofree_of_dual"] == 3
    assert calls == {"hopf_envelope": 1, "cofree_hopf": 1}


def test_nantipode_checks_the_central_identity_once(monkeypatch, capsys):
    # central_n_antipode checks S * Id^{*(n+1)} = Id^{*n} or raises, and the
    # report states that result without checking again
    from hopfkit.convolution import NAntipodeResult

    sides = []
    check = NAntipodeResult.check
    monkeypatch.setattr(NAntipodeResult, "check",
                        lambda self, b: sides.append(self.sided) or check(self, b))
    code = hopfkit.cli.main(["nantipode", str(FIXTURES / "monoid_monogenic_2_3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["agree"] is True
    assert doc["central_identity_holds"] is True
    assert sides == ["two_sided"]


def test_parser_is_built_once():
    assert hopfkit.cli.build_parser() is hopfkit.cli.build_parser()


def _main_in_process(argv, capsys):
    try:
        code = hopfkit.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_in_process_calls_match_fresh_processes(capsys):
    # one shared parser: no option of one call may leak into the next
    cyclic = str(FIXTURES / "monoid_cyclic_2.json")
    monogenic_doc = str(FIXTURES / "monoid_monogenic_2_3.json")
    sequence = [
        ["envelope", cyclic, "--matrices"],
        ["envelope", cyclic],
        ["verify", monogenic_doc, "--field", "F3"],
        ["verify", "--field", "F3"],  # usage error: no input
        ["verify", monogenic_doc],
        ["corpus", "--random-count", "-1"],  # usage error
        ["monoid", "envgroup", monogenic_doc],
    ]
    in_process = [_main_in_process(argv, capsys) for argv in sequence]
    fresh = [(res.returncode, res.stdout) for res in (run_cli(*argv) for argv in sequence)]
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 0, 0, 1, 0, 1, 0]
    assert "antipode" in json.loads(fresh[0][1]) and "antipode" not in json.loads(fresh[1][1])
    assert json.loads(fresh[2][1])["field"] == "F3" and json.loads(fresh[4][1])["field"] == "Q"


def test_field_tag_is_checked_for_every_command(capsys):
    bialgebra_doc = str(FIXTURES / "dual_radford_2.json")
    monoid_doc = str(FIXTURES / "monoid_cyclic_2.json")
    argvs = [[command, bialgebra_doc] for command in hopfkit.cli._BIALGEBRA_COMMANDS]
    argvs += [["monoid", "units", monoid_doc], ["monoid", "envgroup", monoid_doc]]
    for argv in argvs:
        assert hopfkit.cli.main([*argv, "--field", "Fx"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown field tag" in captured.err, argv
    # a valid tag is ignored by a bialgebra document
    assert hopfkit.cli.main(["verify", bialgebra_doc]) == 0
    plain = capsys.readouterr().out
    assert hopfkit.cli.main(["verify", bialgebra_doc, "--field", "F3"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("value", ["-3", "three"])
def test_corpus_random_count_must_be_a_count(value, capsys):
    with pytest.raises(SystemExit) as exc:
        hopfkit.cli.main(["corpus", "--random-count", value])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--random-count" in captured.err


# sha256 of stdout and the exit code of every bialgebra command run with
# --matrices on the cheap shipped fixtures, monoids also lifted over F3.
# nantipode is pinned on every shipped fixture: the noncommutative ones and
# monoid_monogenic_2_3, where Id has index 2, too.  Reports are a stable
# interface, so any change in a report byte shows up here.
GOLDEN_MATRICES = {
    ("boxslash", "dual_radford_2", "Q"): (0, "a5e3174a7b860ccfc62c4786159d2fee7c6194cd07b83b0b8c7938fde8d00223"),
    ("boxslash", "monoid_cyclic_2", "F3"): (0, "0c42a6c878b29fe6636e78e9f5e94dbb9c2319d30353a1b7e0c86fcb94442990"),
    ("boxslash", "monoid_cyclic_2", "Q"): (0, "0c42a6c878b29fe6636e78e9f5e94dbb9c2319d30353a1b7e0c86fcb94442990"),
    ("boxslash", "monoid_transform_2", "F3"): (0, "deb89bfec9abfce590878aa626584c8051f5c40c782a1c29953cd33605576b29"),
    ("boxslash", "monoid_transform_2", "Q"): (0, "deb89bfec9abfce590878aa626584c8051f5c40c782a1c29953cd33605576b29"),
    ("cocofree", "dual_radford_2", "Q"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cocofree", "monoid_cyclic_2", "F3"): (0, "27a5b743bc51f01dca051a7717834df9f53738b46fd7ec67c1ddc696dc977e18"),
    ("cocofree", "monoid_cyclic_2", "Q"): (0, "27a5b743bc51f01dca051a7717834df9f53738b46fd7ec67c1ddc696dc977e18"),
    ("cocofree", "monoid_transform_2", "F3"): (0, "f4205b6453a218859e58b63356218bb97e1ac099e90a4daa7963a77771be7e82"),
    ("cocofree", "monoid_transform_2", "Q"): (0, "f4205b6453a218859e58b63356218bb97e1ac099e90a4daa7963a77771be7e82"),
    ("cofree", "dual_radford_2", "Q"): (0, "367f1584f82158c02e0c3e2aaa8bc130db49463a3a8610a403574020094d8591"),
    ("cofree", "monoid_cyclic_2", "F3"): (0, "ca1e69243a9418820dc19c89646c9834b257d21b7cba62a6434288a715ea774e"),
    ("cofree", "monoid_cyclic_2", "Q"): (0, "ca1e69243a9418820dc19c89646c9834b257d21b7cba62a6434288a715ea774e"),
    ("cofree", "monoid_transform_2", "F3"): (0, "196a0c9b0e6dca790d6a56828b5728ef4fd1ec26addb67ff2d1342927bf163cc"),
    ("cofree", "monoid_transform_2", "Q"): (0, "196a0c9b0e6dca790d6a56828b5728ef4fd1ec26addb67ff2d1342927bf163cc"),
    ("dualcheck", "dual_radford_2", "Q"): (0, "1902c16b2e3d27ce26388650c9019ea7d6037c7a375e547d445b5c2047f4cb1a"),
    ("dualcheck", "monoid_cyclic_2", "F3"): (0, "31b67a0dc6b760430f9dfcd17715875f958bab1e692fcf47c9bacd03f6cbff79"),
    ("dualcheck", "monoid_cyclic_2", "Q"): (0, "31b67a0dc6b760430f9dfcd17715875f958bab1e692fcf47c9bacd03f6cbff79"),
    ("dualcheck", "monoid_transform_2", "F3"): (0, "1902c16b2e3d27ce26388650c9019ea7d6037c7a375e547d445b5c2047f4cb1a"),
    ("dualcheck", "monoid_transform_2", "Q"): (0, "1902c16b2e3d27ce26388650c9019ea7d6037c7a375e547d445b5c2047f4cb1a"),
    ("envelope", "dual_radford_2", "Q"): (0, "99f02b439b73fb1f70c27aede2f474ef2e2166ecf453f81ebb96d354c2122313"),
    ("envelope", "monoid_cyclic_2", "F3"): (0, "ca6e01c04dd055375176cc36a43ce9fb8b5f22ce93a95638c81a65015587b4b1"),
    ("envelope", "monoid_cyclic_2", "Q"): (0, "ca6e01c04dd055375176cc36a43ce9fb8b5f22ce93a95638c81a65015587b4b1"),
    ("envelope", "monoid_transform_2", "F3"): (0, "19d397c0854fa79cca880a2f099d8a6b56605099f6bbda6ba8ba9f2c281cca44"),
    ("envelope", "monoid_transform_2", "Q"): (0, "19d397c0854fa79cca880a2f099d8a6b56605099f6bbda6ba8ba9f2c281cca44"),
    ("frobenius", "dual_radford_2", "Q"): (0, "a902ec26b52032ead5ccc6b85eac5a74c32ee3a479d251ca51b3d16db7c4a160"),
    ("frobenius", "monoid_cyclic_2", "F3"): (0, "ebf030e2a42a796cff9db15a353aa6af508a8d320d17419756364baaf16d9ed8"),
    ("frobenius", "monoid_cyclic_2", "Q"): (0, "ebf030e2a42a796cff9db15a353aa6af508a8d320d17419756364baaf16d9ed8"),
    ("frobenius", "monoid_transform_2", "F3"): (0, "a902ec26b52032ead5ccc6b85eac5a74c32ee3a479d251ca51b3d16db7c4a160"),
    ("frobenius", "monoid_transform_2", "Q"): (0, "a902ec26b52032ead5ccc6b85eac5a74c32ee3a479d251ca51b3d16db7c4a160"),
    ("nantipode", "dual_radford_2", "Q"): (0, "ef5dc94526f63077ce300abb1ed2d6c0f881c198690de8c0fb94018afed1cbab"),
    ("nantipode", "monoid_cyclic_2", "F3"): (0, "0ec9215482a1af41dbc4dbc3c46551dc0ce77860b04802ef435517db6795978d"),
    ("nantipode", "monoid_cyclic_2", "Q"): (0, "0ec9215482a1af41dbc4dbc3c46551dc0ce77860b04802ef435517db6795978d"),
    ("nantipode", "monoid_monogenic_2_3", "F3"): (0, "9d86f5e740e20786fec8530d998e2c57ab8f92c29f636cc75c6438a8f41a46ec"),
    ("nantipode", "monoid_monogenic_2_3", "Q"): (0, "9d86f5e740e20786fec8530d998e2c57ab8f92c29f636cc75c6438a8f41a46ec"),
    ("nantipode", "monoid_transform_2", "F3"): (0, "ceb6799edf29d2046c59ef139dfe27b6586f90efb1dfc92bd877fd3a580a5ae3"),
    ("nantipode", "monoid_transform_2", "Q"): (0, "ceb6799edf29d2046c59ef139dfe27b6586f90efb1dfc92bd877fd3a580a5ae3"),
    ("nantipode", "quotient_quantum_plane", "Q"): (0, "d221b861b7d7fa2b680e1a8162ea556f3dfffe59d20bc9eb187818e611d474ec"),
    ("nantipode", "radford_unit_matrix2", "Q"): (0, "3945e6b26c2c4c1028a0533cd8315b9a09db7df73b0b25f668845a7f56566c4b"),
    ("oslash", "dual_radford_2", "Q"): (0, "fa9e13f6141abfa2cae8c8af7220ee128ded0138606670d4531e539ef5faa8ad"),
    ("oslash", "monoid_cyclic_2", "F3"): (0, "0908ba0d1fe7164dcee6f8e9a4df345194dc6520fe251e60b5d582713bd7ed16"),
    ("oslash", "monoid_cyclic_2", "Q"): (0, "0908ba0d1fe7164dcee6f8e9a4df345194dc6520fe251e60b5d582713bd7ed16"),
    ("oslash", "monoid_transform_2", "F3"): (0, "16a4321ab15f10dee63198dd872ea9c913d4f9a201f475c047f052ae0a516acd"),
    ("oslash", "monoid_transform_2", "Q"): (0, "f4baf905df9811408830a8c9bef86be3e3901fb0db2462fd7f47ec686c61a9a9"),
    ("verify", "dual_radford_2", "Q"): (0, "23a964a5661c898641f030e7472ad21bf92242f14f00dce4d9519c998852f179"),
    ("verify", "monoid_cyclic_2", "F3"): (0, "e363902b8aeb9d721f4dfd0e1b0d54ac4be5704e9cdbaac6d6444c3a642e7db5"),
    ("verify", "monoid_cyclic_2", "Q"): (0, "b6da72d7056394659401908b3cff942b719264574ab8d3c588dd15e8a21af13d"),
    ("verify", "monoid_transform_2", "F3"): (0, "790c82310c537432c8d34a4e08ac2acee214c7c127b184485a257cd0289914f4"),
    ("verify", "monoid_transform_2", "Q"): (0, "5906374b44c9c0a4a47cab9e92010d52f9b32bc70c72ba90942009d929771a5c"),
}


@pytest.mark.parametrize("command, fixture, field", sorted(GOLDEN_MATRICES))
def test_cli_matrices_reports_are_pinned(command, fixture, field, capsys):
    path = str(FIXTURES / f"{fixture}.json")
    code = hopfkit.cli.main([command, path, "--field", field, "--matrices"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_MATRICES[
        command, fixture, field
    ]


# ---------------------------------------------------------------------------
# malformed documents: a located ParseError, exit code 2, never a traceback

C2_DOC = {  # the group algebra of the cyclic group of order 2
    "schema": "hopfkit.bialgebra/1",
    "field": "Q",
    "dim": 2,
    "mult": [[0, 0, 0, 1, 1], [0, 1, 1, 1, 1], [1, 0, 1, 1, 1], [1, 1, 0, 1, 1]],
    "comult": [[0, 0, 0, 1, 1], [1, 1, 1, 1, 1]],
    "unit": [[0, 1, 1]],
    "counit": [[0, 1, 1], [1, 1, 1]],
}
C2_MONOID = {"schema": "hopfkit.monoid/1", "size": 2, "identity": 0, "table": [[0, 1], [1, 0]]}


def _with(doc, path, value):
    """Deep copy of doc with the item at the key/index path replaced."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    node = doc
    for key in outer:
        node = node[key]
    node[last] = value
    return doc


def _cli_verify(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = hopfkit.cli.main(["verify", str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, where",
    [
        (_with(C2_DOC, ["dim"], True), "bialgebra document"),
        (_with(C2_DOC, ["mult", 1, 1], True), r"mult\[1\]"),      # index
        (_with(C2_DOC, ["comult", 1, 0], True), r"comult\[1\]"),  # index
        (_with(C2_DOC, ["unit", 0, 1], True), r"unit\[0\]"),      # num
        (_with(C2_DOC, ["counit", 1, 2], True), r"counit\[1\]"),  # den
        (_with(_with(C2_MONOID, ["size"], True), ["table"], [[0]]), "monoid document"),
        (_with(C2_MONOID, ["identity"], False), "monoid document"),
        (_with(C2_MONOID, ["table", 0, 1], True), r"table\[0\]\[1\]"),
    ],
)
def test_bool_is_not_an_integer(doc, where, tmp_path, capsys):
    with pytest.raises(ParseError, match=where):
        parse_text(json.dumps(doc))
    code, err = _cli_verify(tmp_path, capsys, doc)
    assert code == 2 and "Traceback" not in err


def test_sparse_section_must_be_a_list(tmp_path, capsys):
    doc = _with(C2_DOC, ["comult"], 5)
    with pytest.raises(ParseError, match="comult: expected a list"):
        parse_text(json.dumps(doc))
    code, err = _cli_verify(tmp_path, capsys, doc)
    assert code == 2 and "Traceback" not in err


def test_duplicate_sparse_entry_names_both_positions(tmp_path, capsys):
    doc = _with(C2_DOC, ["mult"], C2_DOC["mult"] + [[0, 1, 1, 2, 1]])
    with pytest.raises(ParseError, match=r"mult\[4\]: duplicate of mult\[1\]"):
        parse_text(json.dumps(doc))
    doc = _with(C2_DOC, ["counit"], C2_DOC["counit"] + [[0, 1, 1]])
    with pytest.raises(ParseError, match=r"counit\[2\]: duplicate of counit\[0\]"):
        parse_text(json.dumps(doc))
    assert _cli_verify(tmp_path, capsys, doc)[0] == 2


def test_dim_above_the_cap_is_rejected_before_allocating(tmp_path, capsys):
    huge = {"schema": "hopfkit.bialgebra/1", "field": "Q", "dim": 3_000_000}
    code, err = _cli_verify(tmp_path, capsys, huge)
    assert code == 2 and "exceeds" in err
    assert MAX_DIM >= 16  # the largest dimension the tests and benchmark use
    assert parse_text(json.dumps({**huge, "dim": MAX_DIM}), verify=False).dim == MAX_DIM
    with pytest.raises(ParseError, match="exceeds"):
        parse_text(json.dumps({**huge, "dim": MAX_DIM + 1}), verify=False)


def _cyclic_group_doc(n):
    return {"schema": "hopfkit.monoid/1", "size": n, "identity": 0,
            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}


def test_monoid_size_above_the_cap_is_rejected(tmp_path, capsys):
    # every command may lift a monoid to a bialgebra of dimension size
    assert parse_text(json.dumps(_cyclic_group_doc(MAX_DIM))).size == MAX_DIM
    with pytest.raises(ParseError, match=f"monoid document: size {MAX_DIM + 1} exceeds"):
        parse_text(json.dumps(_cyclic_group_doc(MAX_DIM + 1)))
    # rejected before the table is read
    with pytest.raises(ParseError, match="size 1000 exceeds"):
        parse_text(json.dumps({**_cyclic_group_doc(1), "size": 1000}))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_cyclic_group_doc(MAX_DIM + 1)))
    for argv in (["verify", str(path)], ["monoid", "units", str(path)]):
        assert hopfkit.cli.main(argv) == 2
        assert "exceeds" in capsys.readouterr().err


# field tags are Q or F and 1-19 ASCII digits: p < 2**61 has at most 19

BAD_FIELD_TAGS = {
    "superscript_digit": "F\u00b2",
    "arabic_indic_digit": "F\u0663",
    "past_the_int_digit_limit": "F" + "7" * 5000,
    "4001_digits": "F" + "1" * 4001,
    "20_digits": "F" + "0" * 19 + "2",
}


@pytest.mark.parametrize("tag", sorted(BAD_FIELD_TAGS))
def test_bad_field_tag_exits_two(tag, tmp_path, capsys):
    tag = BAD_FIELD_TAGS[tag]
    monoid = str(FIXTURES / "monoid_cyclic_2.json")
    for argv in (["monoid", "envgroup", monoid, "--field", tag],
                 ["verify", monoid, "--field", tag]):
        assert hopfkit.cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown field tag" in err and len(err) < 200  # no 4000-digit echo
    doc = _with(C2_DOC, ["field"], tag)
    with pytest.raises(ParseError, match="unknown field tag"):
        parse_text(json.dumps(doc))
    code, err = _cli_verify(tmp_path, capsys, doc)
    assert code == 2 and "unknown field tag" in err and len(err) < 200


@pytest.mark.parametrize("tag", [7, None, ["Q"]])
def test_document_field_must_be_a_string(tag):
    with pytest.raises(ParseError, match="unknown field tag"):
        parse_text(json.dumps(_with(C2_DOC, ["field"], tag)))


def test_prime_range_is_checked_before_primality():
    assert PrimeField((1 << 61) - 1).name == "F2305843009213693951"
    for p in ((1 << 61) + 1, 10**5000):  # divisible by 3; past str()'s digit limit
        with pytest.raises(HopfkitError, match="out of supported range"):
            PrimeField(p)


@pytest.mark.parametrize(
    "doc, where",
    [
        ({**C2_DOC, "labels": [1, "g"]}, r"labels\[0\]: expected a string"),
        ({**C2_DOC, "labels": [["1"], ["g"]]}, r"labels\[0\]: expected a string"),
        ({**C2_MONOID, "labels": [1, "g"]}, r"labels\[0\]: expected a string"),
        ({**C2_MONOID, "labels": [[1], [2]]}, r"labels\[0\]: expected a string"),
        ({**C2_MONOID, "labels": ["1", "1"]}, r"labels\[1\]: duplicate of labels\[0\]"),
    ],
)
def test_labels_are_strings_and_monoid_labels_distinct(doc, where, tmp_path, capsys):
    with pytest.raises(ParseError, match=where):
        parse_text(json.dumps(doc))
    command = ["monoid", "units"] if doc["schema"] == C2_MONOID["schema"] else ["verify"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert hopfkit.cli.main([*command, str(path)]) == 2
    assert "labels[" in capsys.readouterr().err


# hostile documents: a ParseError and exit code 2, never a raw traceback

HOSTILE_TEXTS = {
    "nested_100000_deep": ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    "5000_digit_integer": (
        '{"schema": "hopfkit.bialgebra/1", "dim": ' + "7" * 5000 + "}",
        "integer literal too long",
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_TEXTS))
def test_hostile_json_is_a_parse_error(name, tmp_path, capsys):
    text, message = HOSTILE_TEXTS[name]
    with pytest.raises(ParseError, match=message):
        parse_text(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert hopfkit.cli.main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"schema": "\xff"}')
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_path(str(path))
    assert hopfkit.cli.main(["verify", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, where",
    [
        ([0, 10**2499, 1], r"counit\[0\]"),  # the residual would pass str()'s limit
        ([0, 1, 10**3999], r"counit\[0\]"),
        ([1, 1 << 63, 1], r"counit\[1\]"),
        ([1, 1, -(1 << 63)], r"counit\[1\]"),
    ],
)
def test_rational_entries_are_bounded(entry, where, tmp_path, capsys):
    doc = _with(C2_DOC, ["counit", entry[0]], entry)
    with pytest.raises(ParseError, match=where + r": \|num\| and \|den\| must be below"):
        parse_text(json.dumps(doc))
    code, err = _cli_verify(tmp_path, capsys, doc)
    assert code == 2 and "must be below" in err and len(err) < 200
    # the largest accepted entries parse
    edge = (1 << 63) - 1
    doc = _with(C2_DOC, ["counit", 1], [1, -edge, edge])
    assert parse_text(json.dumps(doc), verify=False).counit[1] == -1


# ---------------------------------------------------------------------------
# the int64 lane at its last prime 2**31 - 1 against the object lane at
# 2**61 - 1: the same reports, field name aside

LANE_EDGE_FAMILIES = {
    "quotient_quantum_plane": families.quotient_quantum_plane,
    "sweedler_h4": families.sweedler_h4,
    "radford_dual_2": lambda f: families.radford_dual(2, f),
    "radford_dual_3": lambda f: families.radford_dual(3, f),
    "radford_unit_matrix2": lambda f: families.radford_adjoin_unit(
        *families.matrix_coalgebra(2, f), field=f),
    "monogenic_2_3": lambda f: monoid_bialgebra(monogenic(2, 3), f),
}
LANE_EDGE_COMMANDS = ("verify", "oslash", "boxslash", "frobenius", "nantipode",
                      "envelope", "cofree", "dualcheck")


# the stdout digests the cli_bigprime benchmark checks, keyed
# "<command> <family>/<field>"; read only
BENCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)["cli_sha256"]


@pytest.mark.parametrize("family", sorted(LANE_EDGE_FAMILIES))
def test_int64_lane_edge_matches_object_lane(family, tmp_path, capsys):
    fields = [PrimeField((1 << 31) - 1), PrimeField((1 << 61) - 1)]
    paths = []
    for f in fields:
        path = tmp_path / f"{family}.{f.name}.json"
        path.write_text(document_to_text(serialize_bialgebra(LANE_EDGE_FAMILIES[family](f))))
        paths.append(str(path))
    for command in LANE_EDGE_COMMANDS:
        reports = []
        for f, path in zip(fields, paths):
            code = hopfkit.cli.main([command, path])
            out = capsys.readouterr().out
            assert code == 0, (command, path)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == BENCH_DIGESTS[f"{command} {family}/{f.name}"], (command, path)
            report = json.loads(out)
            report.pop("field", None)
            reports.append(report)
        assert reports[0] == reports[1], command
