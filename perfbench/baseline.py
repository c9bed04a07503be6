#!/usr/bin/env python3
"""Record a trajectory point of the pipeline benchmark.

Run from the root of a hopfkit checkout:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each of ``--sets`` sets it runs every workload untraced once per seed
1..``--seeds``, one set after the other, and records per set the median,
quartiles and spread ((q3 - q1) / median) of every end-to-end metric, plus
the change of each median between the first and the last set, signed so
that a positive value is worse.  Then it makes one traced run per workload
at seed 1 and records its per-layer table.  Each run's wall time
is kept, so the cost of a run can be checked against its time limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACED_SEED = 1
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(x[len("record: "):]) for x in lines if x.startswith("record: "))
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect run\n{out}")
    print(f"{workload} seed={seed} trace={trace} wall={wall:.1f}s", file=sys.stderr, flush=True)
    return result, record, wall


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    ap.add_argument("--commit", default=None, help="commit measured, for the record")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    worse = {m["name"]: 1 if m["better"] == "lower" else -1 for m in SPEC["end_to_end"]}

    sets, walls, record = [], {}, None
    for _ in range(args.sets):
        values = {w: {m: [] for m in worse} for w in workloads}
        for w in workloads:
            for seed in seeds:
                result, record, wall = run(w, seed, 0)
                walls.setdefault(w, []).append(wall)
                for m, v in result["metrics"].items():
                    values[w][m].append(v["value"])
        sets.append({w: {m: summary(v) for m, v in ms.items()} for w, ms in values.items()})

    end_to_end = {}
    for w in workloads:
        end_to_end[w] = {}
        for m in worse:
            first, last = sets[0][w][m]["median"], sets[-1][w][m]["median"]
            end_to_end[w][m] = {
                "sets": [s[w][m] for s in sets],
                "median_change": worse[m] * (last - first) / first,
            }

    per_layer, traced_walls = {}, {}
    if not args.no_trace:
        for w in workloads:
            result, record, wall = run(w, TRACED_SEED, 1)
            traced_walls[w] = wall
            per_layer[w] = {m: v["value"] for m, v in result["metrics"].items()}

    out = {
        "about": "One trajectory point of perfbench, written by perfbench/baseline.py. "
                 "end_to_end: per set of untraced runs (one per seed), the median, "
                 "quartiles and spread (q3 - q1) / median of each metric; median_change "
                 "is the change from the first to the last set's median, positive when "
                 "worse. per_layer: one traced run per workload.",
        "commit": args.commit,
        "command": SPEC["command"] + ["--workload", "<name>", "--seed", "<seed>",
                                      "--seconds", str(SPEC["run_seconds"]),
                                      "--trace", "<0|1>"],
        "seeds": {"end_to_end": seeds, "sets": args.sets, "traced": TRACED_SEED},
        "record": {k: v for k, v in (record or {}).items() if k != "seed"},
        "run_wall_s": {w: {"untraced_max": max(v), "untraced_median": statistics.median(v),
                           "traced": traced_walls.get(w)} for w, v in walls.items()},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for w in workloads:
        for m, e in end_to_end[w].items():
            spreads = " ".join(f"{s['spread']:.3f}" for s in e["sets"])
            print(f"{w:13s} {m:12s} median {e['sets'][0]['median']:.6g}  "
                  f"spread {spreads}  change {e['median_change']:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
