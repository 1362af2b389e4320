#!/usr/bin/env python3
"""Benchmark of the tracediagrams engine on the pure-Python kernels.

    python3 perfbench/run.py --workload suite --seed 7 --seconds 20 --trace 0

Runs from a plain checkout: no install and no PYTHONPATH.  Each workload
runs alone, in one single-threaded worker process at a time, with a wall
time cap and an address-space limit, so a blow-up counts as a failed
operation instead of hanging or swapping.  The worker is started a few
extra times just to set up, and setup_s is the median.  Times are adjusted
for the host's speed by a reference loop timed between operations (see
reference.py); the unadjusted values are printed beside them.

Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  --workload all runs the four workloads in turn.  --json PATH
also writes the full record: backend, Python version, nproc, seed, sample
counts.  Exits 1 when any operation failed or a result was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 10                   # set-ups measured per workload, median taken
SETUP_TIMEOUT_S = 30
RUN_BUDGET_S = 170            # everything for one workload ends by then
ADDRESS_SPACE_BYTES = 2 << 30
LOCAL_READINGS = 2            # host-speed readings after an operation used


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def start_worker(args, extra=()):
    env = dict(os.environ, TRACEDIAGRAMS_KERNELS="pure", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload_name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               *extra]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT,
                            preexec_fn=limit_address_space)


def run_worker(args, timeout, extra=()):
    """Start a worker and wait for it.  Returns (spawn time, stdout, died):
    died is true when it timed out, was killed or exited non-zero."""
    spawned = time.monotonic()
    proc = start_worker(args, extra)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"{args.workload_name}: worker exceeded {timeout:.0f} s",
              file=sys.stderr)
        return spawned, out, True
    if proc.returncode != 0:
        print(f"{args.workload_name}: worker exited with code "
              f"{proc.returncode}", file=sys.stderr)
    return spawned, out, proc.returncode != 0


def parse(out: str) -> dict:
    """Worker output as: ready time, every operation's ok flag, the
    untraced passes as (pass factor, pass seconds, [(operation seconds,
    operation factor)]), the traced pass count, the readings after the last
    pass and the result.  A pass's factor comes from the readings during
    it, an operation's from the reading just before it ended and the
    LOCAL_READINGS after."""
    parsed = {"ready": None, "flags": [], "passes": [], "traced": 0,
              "refs": [], "result": None}
    readings, ops, untraced = [], [], []
    lines = out.splitlines()
    if lines and not out.endswith("\n"):
        lines.pop()                 # cut short by a kill
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "ready":
            parsed["ready"] = float(rest)
        elif kind == "ref":
            parsed["refs"].append(float(rest))
            readings.append(float(rest))
        elif kind == "op":
            ok, latency, before = rest.split()
            parsed["flags"].append(ok == "1")
            ops.append((float(latency), int(before)))
        elif kind == "pass":
            traced, seconds, _ = rest.split()
            if traced == "1":
                parsed["traced"] += 1
            else:
                untraced.append((measure.host_factor(parsed["refs"]),
                                 float(seconds), ops))
            parsed["refs"], ops = [], []
        elif kind == "result":
            parsed["result"] = json.loads(rest)

    def local(before):
        return measure.host_factor(
            readings[max(0, before - 1):before + LOCAL_READINGS])
    parsed["passes"] = [
        (factor, seconds, [(latency, local(before))
                           for latency, before in ops])
        for factor, seconds, ops in untraced]
    return parsed


def measure_workload(args) -> dict:
    """Run one workload; returns its record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []

    def set_up(count):
        """Start count set-up-only workers; False if one failed."""
        for _ in range(count):
            before = reference.reading_seconds()
            spawned, out, setup_died = run_worker(
                args, min(SETUP_TIMEOUT_S, deadline - time.monotonic()),
                ["--setup-only"])
            parsed = parse(out)
            if setup_died or parsed["ready"] is None or not parsed["refs"]:
                return False
            # readings on both sides of the set-up: the parent's just
            # before the start, the worker's just after inputs are ready
            setups.append((parsed["ready"] - spawned,
                           measure.host_factor([before, *parsed["refs"]])))
        return True

    died = False
    if not args.trace:
        # the first start compiles bytecode and is not counted; the rest
        # are split around the measuring worker, so that the median samples
        # the host over the whole run
        died = not set_up(1)
        setups.clear()
        died = not set_up(SETUPS // 2) or died
    _, out, worker_died = run_worker(
        args, deadline - time.monotonic(),
        ["--spans", args.spans] if args.spans else [])
    parsed = parse(out)
    result = parsed["result"]
    died = died or worker_died or result is None
    if not args.trace:
        died = not set_up(SETUPS - len(setups)) or died

    attempted, failed = measure.tally(parsed["flags"], died)
    workload = WORKLOADS[args.workload_name]
    record = {
        "workload": workload.name, "size": workload.size,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "backend": result and result["backend"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(parsed["passes"]) + parsed["traced"],
        "attempted": attempted, "failed": failed,
        "fail_frac": measure.fail_frac(attempted, failed),
    }
    correct = (not died and failed == 0 and record["backend"] == "pure"
               and "error" not in result)
    if result and "error" in result:
        record["error"] = result["error"]
    metrics = {}
    if correct and args.trace:
        metrics = result["per_layer"]
        record["traced_wall_s"] = result["traced_wall_s"]
        record["untraced_wall_s"] = result["untraced_wall_s"]
    elif correct:
        wall, ops = measure.pass_medians(parsed["passes"])
        latency = measure.latency_summary(ops)
        raw_wall, raw_ops = measure.pass_medians(parsed["passes"],
                                                 adjust=False)
        raw_latency = measure.latency_summary(raw_ops)
        record["latency"] = latency
        record["host_factors"] = [f for f, _, _ in parsed["passes"]]
        record["setup_samples"] = setups
        record["unadjusted"] = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": raw_wall,
            "latency_p50_ms": raw_latency["p50_ms"],
            "latency_tail_ms": raw_latency["tail_ms"],
        }
        metrics = {
            "setup_s": statistics.median(s / f for s, f in setups),
            "wall_s": wall,
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
    record["correct"] = correct
    record["metrics"] = metrics
    return record


def describe(record: dict) -> list[str]:
    lines = [f"{record['workload']}: {record['size']}",
             f"  backend={record['backend']} python={record['python']} "
             f"nproc={record['nproc']} seed={record['seed']} "
             f"passes={record['passes']}"]
    units = dict(measure.END_TO_END) if not record["trace"] else \
        measure.per_layer_units()
    notes = {}
    if "latency" in record:
        lat = record["latency"]
        raw = record["unadjusted"]
        notes["setup_s"] = f"median of {len(record['setup_samples'])} " \
                           "set-ups"
        notes["wall_s"] = f"median of {record['passes']} passes"
        notes["latency_p50_ms"] = f"over {lat['samples']} operations"
        notes["latency_tail_ms"] = (
            f"p{lat['tail_percentile']:g} of {lat['samples']} operations, "
            f"{lat['beyond']} beyond it")
        for name in raw:
            notes[name] += f"; {raw[name]:.6g} unadjusted"
        lines.append("  times adjusted to the host-speed reference; host "
                     "factor per pass: " + " ".join(
                         f"{f:.3f}" for f in record["host_factors"]))
    if record["trace"] and record["metrics"]:
        notes[measure.TRACE_OVERHEAD] = (
            f"traced pass {record['traced_wall_s']:.4f} s, untraced "
            f"{record['untraced_wall_s']:.4f} s")
    for name, value in record["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = f"{value:d}" if units[name] == "count" else f"{value:.6g}"
        lines.append(f"  {name} = {shown} {units[name]}{note}")
    lines.append(f"  fail_frac = {record['fail_frac']:.6g} "
                 f"({record['failed']}/{record['attempted']} operations "
                 "failed)")
    if not record["correct"]:
        lines.append("  INCORRECT: " + record.get("error",
                                                  "see the messages above"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the full record here")
    parser.add_argument("--spans", help="with --trace 1, write the last "
                                        "traced pass's spans here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tracediagrams" / "__init__.py").is_file():
        print(f"error: no tracediagrams source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        args.workload_name = name
        record = measure_workload(args)
        records.append(record)
        print("\n".join(describe(record)), flush=True)

    units = measure.per_layer_units() if args.trace else measure.END_TO_END
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if args.workload == "all" else ""
        for name, value in record["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "workloads": records}, handle,
                      indent=2)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
