#!/usr/bin/env python3
"""Pipeline benchmark for hopfkit: three workloads through the public API.

Run from the root of a hopfkit checkout:

    python3 perfbench/run.py --workload corpus_q --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``corpus_q``, ``ladder_f3``,
``cli_bigprime``.  Load shape: batch, closed loop, one caller in one
process; each operation starts after the previous one returns.  A run
repeats the workload's whole operation list until at least ``--seconds``
have passed, so every run measures the same mix.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``
(spawn of a fresh interpreter up to the first timed operation: import,
input construction and its ``assert_valid`` checks; median of three
processes), ``ops_per_s``, ``op_p50_s``, ``op_tail_s`` (at the highest
percentile that leaves ten samples above it) and ``peak_rss_mb``.  Both
percentiles are Harrell-Davis estimates over every operation of the run.  With
``--trace 1`` it runs the same passes untraced, then two traced passes,
and prints the per-layer metrics of the second traced pass with the
tracing overhead.  The exact counts of the two traced passes must be
equal.  Spans go to ``perfbench/_work/spans-<workload>-<seed>-<pass>.npz``.

A pass of ``corpus_q`` takes longer than the usual ``--seconds``
(``quotient_quantum_plane/Q`` alone takes about 20 s), so its runs measure
one whole pass of 23 operations whatever ``--seconds`` says, and its
``op_tail_s`` is the 56.5th percentile.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
WORKLOADS = ("corpus_q", "ladder_f3", "cli_bigprime")
SETUP_SAMPLES = 3
#: seed kept aside for checking later claims on inputs not tuned against
HOLDOUT_SEED = 7919


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes: build the inputs, print "ready", then measure


def run_record(seed):
    from hopfkit import _kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "HOPFKIT_NO_NUMBA": os.environ.get("HOPFKIT_NO_NUMBA"),
        "kernel_backend": _kernels.BACKEND,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def run_passes(ops, seconds, tracer=None):
    """Whole passes over ``ops`` until ``seconds`` have elapsed (one if 0)."""
    times, failed, passes = [], 0, 0
    t0 = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(times)
            start = time.perf_counter()
            try:
                result = op.run()
                ok = op.check(result)
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                ok = False
            times.append(time.perf_counter() - start)
            if not ok:
                failed += 1
                print(f"perfbench: operation failed: {op.label}", file=sys.stderr)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return {"times": times, "failed": failed, "passes": passes, "elapsed": elapsed}


def hd_quantile(samples, q, steps=200):
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982).

    The mean of the order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
    density, integrated over each statistic's 1/n slice by the midpoint
    rule.  Unlike a single order statistic it does not jump between two
    operations of different cost when machine noise reorders them.
    """
    x = np.sort(samples)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(w @ x / w.sum())


def tail_quantile(n):
    """The highest quantile that leaves ten of n samples above it."""
    return max(n - 10, 1) / n


def end_to_end(run):
    times = run["times"]
    q = tail_quantile(len(times))
    return {
        "ops_per_s": {"value": len(times) / run["elapsed"], "unit": "1/s"},
        "op_p50_s": {"value": hd_quantile(times, 0.5), "unit": "s"},
        "op_tail_s": {"value": hd_quantile(times, q), "unit": "s",
                      "percentile": 100 * q, "samples": len(times)},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def traced_pass(ops, path):
    """One traced pass over ``ops``; its spans are written to ``path``."""
    import tracer as tr

    with tr.Tracer() as t:
        run = run_passes(ops, 0, tracer=t)
    t.write(path)
    return run, t.stats() | {"trace.spans": len(t.spans)}


def measure_traced(ops, args):
    """The untraced passes, then two traced passes.

    The per-layer metrics are those of the second traced pass.  The exact
    counts of the two traced passes must agree: both run the same code on
    the same inputs in this process, so no state is carried between runs.
    The untraced passes come first because the first pass over an input
    also fills its cached attributes (``Bialgebra.conv_unit`` and the like),
    which the counts of later passes do not include.
    """
    import tracer as tr

    WORK.mkdir(exist_ok=True)
    stem = WORK / f"spans-{args.workload}-{args.seed}"
    plain = run_passes(ops, args.seconds)
    first, first_stats = traced_pass(ops, f"{stem}-1.npz")
    second, stats = traced_pass(ops, f"{stem}-2.npz")
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")}
              for s in (first_stats, stats)]
    differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                    if counts[0].get(k) != counts[1].get(k))
    if differ:
        print(f"perfbench: counts differ between the two traced passes: {differ}",
              file=sys.stderr)
    stats["trace.traced_s"] = second["elapsed"]
    stats["trace.untraced_s"] = plain["elapsed"] / plain["passes"]
    stats["trace.overhead_s"] = stats["trace.traced_s"] - stats["trace.untraced_s"]
    return [plain, first, second], plain, tr.layer_metrics(stats), not differ


def measure(args):
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir))
        print("ready", flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            runs, plain, metrics, repeat_ok = measure_traced(ops, args)
        else:
            plain = run_passes(ops, args.seconds)
            runs, metrics, repeat_ok = [plain], end_to_end(plain), True
        result = {
            "correct": repeat_ok and not any(r["failed"] for r in runs),
            "attempted": sum(len(r["times"]) for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "passes": plain["passes"],
            "elapsed": plain["elapsed"],
            "record": run_record(args.seed),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the parent: setup samples, one measuring child, the report


def spawn(args, role):
    """Run a child; returns (seconds from spawn to "ready", stdout after it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(Path(__file__)), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"{role} child exited with code {code}")
    return setup, rest


def report(args, setups, result):
    m = result["metrics"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("record: " + json.dumps(result["record"], sort_keys=True))
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f}), "
          f"{result['passes']} untraced pass(es) in {result['elapsed']:.3f} s")
    if args.trace:
        import tracer as tr

        for name, v in m.items():
            note = "  (computed from shapes)" if name in tr.COMPUTED else ""
            print(f"  {name:48s} {v['value']:>16.6g} {v['unit']}{note}")
        print(f"  convolution.powers_useful_ratio is over "
              f"{m['convolution.searches']['value']} one-sided n-antipode searches")
    else:
        m["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        tail_info = m["op_tail_s"]
        print(f"  setup samples: {', '.join(f'{s:.3f}' for s in setups)} s")
        print(f"  op_tail_s is p{tail_info.pop('percentile'):.1f} over "
              f"{tail_info.pop('samples')} samples")
        for name, v in m.items():
            print(f"  {name:14s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None):
    args = parse_args(argv)
    if not Path("src", "hopfkit", "__init__.py").is_file():
        print("perfbench: src/hopfkit not found; run from the root of a hopfkit checkout",
              file=sys.stderr)
        return 2
    if args.role != "main":
        return measure(args)
    try:
        setups = [] if args.trace else [spawn(args, "setup")[0]
                                        for _ in range(SETUP_SAMPLES - 1)]
        setup, out = spawn(args, "measure")
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args, setups + [setup], json.loads(out.strip().splitlines()[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
