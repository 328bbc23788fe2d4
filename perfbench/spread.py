#!/usr/bin/env python3
"""Run workloads repeatedly and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload fpt_search --runs 10 --first-seed 1

Runs ``run.py`` once per seed, one run at a time, with the ``run_seconds``
of BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  A spread above the bound
fails, except for ``setup_s``, whose spread is shown but not judged; so does
a share of failed calls that differs between runs.  The exit code is 0 only
when every run was correct and nothing failed.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict[str, float]) -> bool:
    ok = True
    shares = {(r["failed"], r["attempted"]) for r in results}
    if len({f / a for f, a in shares}) != 1:
        print(f"{workload}: failed/attempted differs between runs: {sorted(shares)}")
        ok = False
    if not all(r["correct"] for r in results):
        print(f"{workload}: some run reported wrong answers")
        ok = False
    print(f"{workload}: {len(results)} runs, failed/attempted {sorted(shares)}")
    print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        judged = name != "setup_s"
        verdict = "not judged" if not judged else (
            "steady" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE")
        ok &= not judged or spread <= bound
        unit = results[0]["metrics"][name]["unit"]
        print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bound:6.0%}  {unit} {verdict}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        ok &= summarize(workload, results, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
