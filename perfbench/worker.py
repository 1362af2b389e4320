"""One workload in one process: set up, then timed passes until the time is
up.  Started by run.py, which reads the lines it prints:

    ready <monotonic clock at inputs ready>
    ref <seconds>                  one host-speed reading (reference.py)
    op <1|0> <seconds> <readings>  one per operation, ok or failed, with
                                   the count of ref lines printed before
                                   it ended
    pass <traced 1|0> <seconds> <operations>
    result <json>

Every pass starts from empty package caches and a collected heap, as a CLI
invocation does, so all passes do identical work.  Untraced passes take
host-speed readings between operations; pass seconds exclude them.  With
--trace 1 passes alternate untraced and traced, at least MIN_TRACED of
each; the traced ones give the per-layer totals.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3          # untraced passes every plain run makes
MIN_TRACED = 2          # traced passes every traced run makes
SETUP_READINGS = 3      # host-speed readings after a set-up-only start


class OpTimer:
    """Times each outermost call of one package function and judges it."""

    def __init__(self, function, judge):
        self.records: list[tuple[float, bool, int]] = []
        self.function = function
        self.host = None          # HostSpeed, read after each operation
        self._judge = judge
        self._depth = 0

    def wrapper(self):
        records, fn, judge = self.records, self.function, self._judge
        clock = time.perf_counter

        def timed(*args, **kwargs):
            self._depth += 1
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = bool(judge(result))
                return result
            finally:
                elapsed = clock() - start
                self._depth -= 1
                if self._depth == 0:
                    host = self.host
                    records.append((elapsed, ok, host.count if host else 0))
                    if host is not None:
                        host.maybe_reading()
        return timed


def clear_caches():
    """Empty every module-level cache of the package."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("tracediagrams"):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict) and attr.endswith("_cache"):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_pass(tasks, timer: OpTimer, host, out) -> tuple[float, int]:
    """Run every task once; returns (seconds inside the tasks, operations).
    host, if given, takes host-speed readings between operations."""
    clear_caches()
    gc.collect()
    timer.host = host
    if host is not None:
        host.reading()
    busy = 0.0
    operations = 0
    for task in tasks:
        timer.records.clear()
        spent = host.spent if host is not None else 0.0
        start = time.perf_counter()
        try:
            result = task.run()
            failure = None
        except Exception as exc:   # any failure is one failed operation
            result, failure = None, exc
        elapsed = time.perf_counter() - start
        if host is not None:
            elapsed -= host.spent - spent
            host.maybe_reading()
        busy += elapsed
        if failure is None:
            try:
                if not task.check(result):
                    failure = "result differs from the expected value"
            except Exception as exc:
                failure = exc
        if failure is not None:
            print(f"{task.label}: {failure!r}", file=sys.stderr)
        records = timer.records or [
            (elapsed, False, host.count if host is not None else 0)]
        for latency, ok, readings in records:
            out.write(f"op {int(ok and failure is None)} {latency!r} "
                      f"{readings}\n")
        out.flush()
        operations += len(records)
    return busy, operations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the last traced pass's "
                                        "spans here as JSON lines")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracediagrams
    import workloads

    if Path(tracediagrams.__file__).resolve().parent != SRC / "tracediagrams":
        print(f"imported {tracediagrams.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tasks = workload.build(args.seed)
    out = sys.stdout
    out.write(f"ready {time.monotonic()!r}\n")
    import reference
    import spans as spanlib

    host = reference.HostSpeed(out)
    if args.setup_only:
        for _ in range(SETUP_READINGS):
            host.reading()
        return 0

    module, attr = workload.op
    timer = OpTimer(getattr(spanlib.package_module(module), attr),
                    workload.op_ok)
    ops_patch = spanlib.Patch()
    ops_patch.rebind(timer.function, timer.wrapper())
    tracer = spanlib.Tracer() if args.trace else None

    layers = []
    walls = {False: [], True: []}
    start = time.perf_counter()
    try:
        while True:
            traced = bool(tracer) and len(walls[False]) > len(walls[True])
            if traced:
                tracer.install()
            try:
                busy, operations = run_pass(tasks, timer,
                                            None if traced else host, out)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(busy)
            out.write(f"pass {int(traced)} {busy!r} {operations}\n")
            if traced:
                layers.append(spanlib.layer_totals(tracer.spans))
                if args.spans:
                    write_spans(args.spans, tracer.spans)
                tracer.reset()
            done = (len(walls[True]) >= MIN_TRACED if tracer
                    else len(walls[False]) >= MIN_PASSES)
            if done and time.perf_counter() - start >= args.seconds:
                break
    finally:
        ops_patch.restore()

    result = {
        "backend": tracediagrams.KERNEL_BACKEND,
        "python": platform.python_version(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        traced_wall = min(walls[True])
        untraced_wall = min(walls[False])
        try:
            result["per_layer"] = fold_layers(layers)
        except ValueError as err:
            result["error"] = str(err)
        else:
            result["per_layer"]["trace.overhead_s"] = (traced_wall
                                                       - untraced_wall)
        result["traced_wall_s"] = traced_wall
        result["untraced_wall_s"] = untraced_wall
    out.write("result " + json.dumps(result) + "\n")
    out.flush()
    return 0


def fold_layers(passes) -> dict[str, float]:
    """Per-pass layer totals as flat metrics: counts must repeat exactly
    from pass to pass, times are medians over the traced passes."""
    from measure import COUNT_FIELDS, PER_LAYER_FIELDS

    flat = {}
    for span, fields in PER_LAYER_FIELDS.items():
        rows = [totals.get(span, {}) for totals in passes]
        for field in fields:
            if field == "useful_ratio":
                continue
            values = [row.get(field, 0.0) for row in rows]
            if field in COUNT_FIELDS:
                if len(set(values)) != 1:
                    raise ValueError(
                        f"{span}.{field} differs between identical passes: "
                        f"{values}")
                flat[f"{span}.{field}"] = int(values[0])
            else:
                flat[f"{span}.{field}"] = statistics.median(values)
        if "useful_ratio" in fields:
            terms = flat[f"{span}.terms"]
            slots = flat[f"{span}.slots"]
            flat[f"{span}.useful_ratio"] = terms / slots if slots else 0.0
    return flat


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, nested, counts in spans:
            handle.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "counts": counts or {}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
