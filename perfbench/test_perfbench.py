"""Tests of the benchmark's own arithmetic, tracer and inputs.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from hopfkit import bialgebra, corpus, envelope  # noqa: E402
from hopfkit.fields import QQ  # noqa: E402
from hopfkit.monoid import monogenic, monoid_bialgebra  # noqa: E402


def test_self_time_subtracts_direct_children():
    # a [0,10] holds b [1,4] and d [5,9]; b holds c [2,3]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert tr.self_times(start, end, parent).tolist() == [3, 2, 1, 4]


def test_total_time_counts_a_name_reached_again_once():
    # f [0,10] > g [1,5] > f [2,4]
    stats = tr.span_stats(["f", "g"], name_id=[0, 1, 0], parent=[-1, 0, 1],
                          start=[0, 1, 2], end=[10, 5, 4], recursive=[0, 0, 1])
    assert stats["f.calls"] == 2 and stats["g.calls"] == 1
    assert stats["f.self_s"] == 6 + 2 and stats["g.self_s"] == 2
    assert stats["f.total_s"] == 10 and stats["g.total_s"] == 4


def test_tracer_reaches_names_bound_by_from_imports():
    m = monogenic(2, 3)
    fx = corpus.CorpusFixture("monogenic_2_3/F3", monoid_bialgebra(m, workloads.F3), m)
    original = corpus.build_oslash
    with tr.Tracer() as t:
        assert corpus.check_fixture(fx)["ok"]
    assert corpus.build_oslash is original
    stats = t.stats()
    assert stats["corpus.check_fixture.calls"] == 1
    assert stats["corpus.build_oslash_per_fixture"] == 4
    assert stats["corpus.build_boxslash_per_fixture"] == 4
    assert stats["corpus.hopf_envelope_per_fixture"] == 2
    assert stats["corpus.cofree_hopf_per_fixture"] == 2
    assert stats["kernels.rref_mod.calls"] == stats["linalg.rref.calls"] > 0
    assert stats["bialgebra.Bialgebra.prod2.calls"] > 0


def test_traced_passes_repeat_their_counts():
    m = monogenic(1, 1)
    fx = corpus.CorpusFixture("monogenic_1_1/Q", monoid_bialgebra(m, QQ), m)
    ops = [workloads.Op(fx.name, lambda: corpus.check_fixture(fx), lambda r: r["ok"])]
    args = run.parse_args(["--workload", "corpus_q", "--seed", "0", "--seconds", "0"])
    runs, plain, metrics, repeat_ok = run.measure_traced(ops, args)
    assert repeat_ok and len(runs) == 3 and runs[0] is plain
    assert metrics["corpus.check_fixture.calls"] == {"value": 1, "unit": "count"}


def test_tail_leaves_ten_samples_above():
    assert run.tail_quantile(30) == 20 / 30


def test_harrell_davis_quantiles():
    assert abs(run.hd_quantile([1.0, 2.0, 3.0], 0.5) - 2.0) < 1e-9
    assert abs(run.hd_quantile([5.0] * 7, 0.8) - 5.0) < 1e-9
    xs = [i / 1000 for i in range(1001)]
    assert abs(run.hd_quantile(xs, 0.5) - 0.5) < 1e-3
    assert abs(run.hd_quantile(xs, 0.9) - 0.9) < 2e-3


def test_relabeled_inputs_keep_their_answers():
    rng = random.Random(5)
    b = bialgebra.assert_valid(
        monoid_bialgebra(corpus._relabel(monogenic(2, 3), rng), workloads.F3))
    assert envelope.hopf_envelope(b).hopf.dim == 3
    r = workloads.relabel_bialgebra(b, rng)
    assert sorted(r.labels) == sorted(b.labels)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "ladder_f3", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
