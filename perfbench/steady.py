#!/usr/bin/env python3
"""Steadiness mode: run one workload on N seeds and compare spreads with bounds.

    python3 perfbench/steady.py --workload cli_calls --runs 10 --first-seed 1

Each run is ``perfbench/run.py --trace 0`` with its own seed and the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric this prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median against the metric's bound and a third of it.  The
last line is the summary as JSON.
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


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]})
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                         "bound": m["bound"]}
        verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"]
                                                        else "OVER BOUND")
        print(f"{m['name']:>12}: median={med:.6g} {m['unit']} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} bound={m['bound']} -> {verdict}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
