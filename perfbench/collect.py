#!/usr/bin/env python3
"""Run the benchmark over many seeds and record the figures as JSON.

    python3 perfbench/collect.py --seeds 1-10 --label "commit abc123" \\
        --out perfbench/baseline.json

Runs every workload of BENCHMARK.json once per seed for its run_seconds,
one run at a time, then one traced run per workload on the first seed.
For each end-to-end metric it records every run's value, the median, the
quartiles and the spread (interquartile distance over the median, the figure the bounds in
BENCHMARK.json are set against). A run that fails or reports wrong
outputs stops the collection.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def figures(stdout):
    """The ``# name = value unit`` lines of a run, as {name: value}: the
    finer figures, raw times and the reference time behind the metrics."""
    out = {}
    for line in stdout.splitlines():
        name, eq, rest = line[2:].partition(" = ")
        if line.startswith("# ") and eq:
            out[name] = float(rest.split()[0])
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"collect: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"collect: {workload} seed {seed} reported wrong outputs")
    result["figures"] = figures(proc.stdout)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--label", default="", help="what was measured, e.g. the commit")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    record = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            result = run_once(name, seed, seconds, 0)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "figures": result["figures"]})
            print(f"{name} seed {seed}: {runs[-1]['metrics']}", flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"],
            }
            print(f"  {name} {metric['name']}: median {med!r}, spread {(q3 - q1) / med:.4f}", flush=True)
        traced = run_once(name, args.seeds[0], seconds, 1)
        record["workloads"][name] = {
            "end_to_end": summary,
            "runs": runs,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
