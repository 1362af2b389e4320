#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steady.py --workloads suite,fuzz_crosscheck --seeds 10

Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median and the interquartile distance over the
median of its values (statistics.quantiles, n=4), against the metric's
bound in BENCHMARK.json.  It also makes two traced runs of the first seed
on each workload and asserts that every count metric (calls, terms, slots,
entries) repeats exactly: the seed determines them.

Exits 1 when a run fails, a spread exceeds its bound, or a count differs
between the two runs of one seed.
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
sys.path.insert(0, str(HERE))

from measure import relative_spread  # noqa: E402


def run(config, workload, seed, trace) -> dict:
    command = [*config["command"], "--workload", workload, "--seed",
               str(seed), "--seconds", str(config["run_seconds"]),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:"
                           f"\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(command)} reported failures")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write every value here")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    count_units = {m["name"] for m in config["per_layer"]
                   if m["unit"] == "count"}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    ok = True
    values = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(config, workload, seed, 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
        values[workload] = runs
        for name, bound in bounds.items():
            series = [r[name] for r in runs]
            spread = relative_spread(series)
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            if verdict == "TOO WIDE":
                ok = False
            median = statistics.median(series)
            print(f"  {workload} {name}: median {median:.5g} spread "
                  f"{spread:.3f} bound {bound} -> {verdict}", flush=True)
        first, second = (run(config, workload, seeds[0], 1) for _ in "ab")
        differing = sorted(name for name in count_units
                           if first[name] != second[name])
        if differing:
            ok = False
        print(f"  {workload} seed {seeds[0]} counts: "
              + (f"DIFFER in {differing}" if differing else
                 f"{len(count_units)} identical over two traced runs"),
              flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
