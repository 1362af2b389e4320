"""Statistics the benchmark reports: host-adjusted medians, nearest-rank
percentiles, the tail percentile, failure counting, and the names and units
of every metric.

Nothing here imports tracediagrams, so the parent process and the tests use
it without the package on the path.
"""

from __future__ import annotations

import statistics

from reference import REFERENCE_S

# Tail candidates in tenths of a percent, highest first.  Integer per-mille
# keeps the rank arithmetic exact (99.9 * 1000 / 100 is not 999 in floats).
LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10

END_TO_END = {                      # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

COUNT_FIELDS = ("calls", "terms", "slots", "entries")

# Per-layer metrics of the traced run: span name -> fields reported for it.
PER_LAYER_FIELDS = {
    "kernels.epsilon_network": ("calls", "busy_s", "self_s", "terms"),
    "kernels.permute_axes": ("calls", "busy_s", "entries"),
    "kernels.pair_contract": ("calls", "busy_s", "terms", "slots",
                              "useful_ratio"),
    "tensor.identity": ("calls", "entries"),
    "tensor.arith": ("busy_s",),
    "evaluate.eval_layered": ("calls", "busy_s", "self_s", "terms"),
    "evaluate.eval_contraction": ("calls", "busy_s", "self_s", "terms"),
    "evaluate.eval_checked": ("calls", "busy_s"),
    "diagrams.to_graph": ("calls", "busy_s"),
    "diagrams.validate": ("busy_s",),
    "linalg.matmul": ("calls", "busy_s"),
    "linalg.oracles": ("busy_s",),
    "identities.run_check": ("calls", "busy_s", "self_s"),
    "identities.check.matrix_invariance": ("busy_s",),
    "identities.check.asym_special_cases": ("busy_s",),
    "identities.check.asym_compare": ("busy_s",),
    "identities.check.crossout_lemma": ("busy_s",),
    "identities.check.adjugate_formula": ("busy_s",),
    "identities.check.asym_sum_decomposition": ("busy_s",),
    "identities.check.cayley_hamilton": ("busy_s",),
    "builders": ("self_s",),
    "cli.main": ("self_s",),
}

# Wall time of a traced pass minus that of an untraced pass of the same run.
TRACE_OVERHEAD = "trace.overhead_s"


def field_unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    if field == "useful_ratio":
        return "ratio"
    return "count"


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{field}": field_unit(field)
             for span, fields in PER_LAYER_FIELDS.items()
             for field in fields}
    units[TRACE_OVERHEAD] = "s"
    return units


def nearest_rank(permille: int, count: int) -> int:
    """1-based rank of the permille-th percentile among count samples."""
    return -(-permille * count // 1000)


def percentile(ordered, permille: int):
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[nearest_rank(permille, len(ordered)) - 1]


def tail_rung(count: int) -> int | None:
    """Highest ladder percentile (per mille) with at least MIN_BEYOND of
    count samples strictly beyond its rank, or None below 2*MIN_BEYOND."""
    for permille in LADDER_PERMILLE:
        if count - nearest_rank(permille, count) >= MIN_BEYOND:
            return permille
    return None


def host_factor(readings) -> float:
    """Host slowness: mean reference time over its nominal."""
    return statistics.fmean(readings) / REFERENCE_S


def pass_medians(passes, adjust: bool = True) -> tuple[float, list[float]]:
    """Median pass time and each operation's median time.

    passes: per pass, (pass factor, pass seconds, [(operation seconds,
    operation factor)]), operations in the same order every pass.  With
    adjust, each operation's time is divided by its own host factor and
    the rest of the pass's time by the pass's.
    """
    if len({len(ops) for _, _, ops in passes}) != 1:
        raise ValueError("passes made different operations")
    walls, per_pass = [], []
    for pass_factor, seconds, ops in passes:
        if adjust:
            rest = seconds - sum(latency for latency, _ in ops)
            times = [latency / factor for latency, factor in ops]
            walls.append(sum(times) + rest / pass_factor)
        else:
            times = [latency for latency, _ in ops]
            walls.append(seconds)
        per_pass.append(times)
    return (statistics.median(walls),
            [statistics.median(column) for column in zip(*per_pass)])


def latency_summary(latencies_s) -> dict:
    """p50 and tail of per-operation latencies, in milliseconds."""
    ordered = sorted(latencies_s)
    rung = tail_rung(len(ordered))
    if rung is None:
        raise ValueError(
            f"{len(ordered)} operations leave no percentile with "
            f"{MIN_BEYOND} samples beyond it")
    return {
        "p50_ms": percentile(ordered, 500) * 1e3,
        "tail_ms": percentile(ordered, rung) * 1e3,
        "tail_percentile": rung / 10,
        "samples": len(ordered),
        "beyond": len(ordered) - nearest_rank(rung, len(ordered)),
    }


def tally(op_flags, died: bool) -> tuple[int, int]:
    """(attempted, failed) operations of one worker process.

    op_flags holds one truth value per finished operation.  A worker that
    was killed, timed out or exited without its result line adds one
    failed operation: the one in flight.
    """
    attempted = len(op_flags)
    failed = sum(1 for ok in op_flags if not ok)
    if died:
        attempted += 1
        failed += 1
    return attempted, failed


def fail_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def relative_spread(values) -> float:
    """Interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
