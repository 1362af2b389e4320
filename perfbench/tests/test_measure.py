"""Tail percentile selection, host-adjusted pass medians, failure counting
and parsing the worker's output."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import measure  # noqa: E402
from run import parse  # noqa: E402


@pytest.mark.parametrize("count, permille", [
    (19, None),          # p50 has rank 10: only 9 beyond
    (20, 500),           # p50 rank 10, 10 beyond
    (39, 500),           # p75 rank 30: 9 beyond
    (40, 750),
    (69, 750),           # p90 rank 63: 6 beyond
    (100, 900),          # p90 rank 90, 10 beyond; p95 only 5
    (200, 950),
    (1000, 990),         # p99 rank 990, 10 beyond; p99.9 only 1
    (1500, 990),
    (10000, 999),        # p99.9 rank 9990, 10 beyond
])
def test_tail_rung_is_highest_with_ten_beyond(count, permille):
    assert measure.tail_rung(count) == permille


def test_nearest_rank_is_exact_for_tenths():
    # 99.9% of 1000 in floats rounds up past 999
    assert measure.nearest_rank(999, 1000) == 999
    assert measure.nearest_rank(500, 25) == 13


def test_latency_summary_reports_rung_and_counts():
    samples = [i / 1000 for i in range(1, 101)]     # 1..100 ms, shuffled
    samples.reverse()
    summary = measure.latency_summary(samples)
    assert summary["tail_percentile"] == 90
    assert summary["tail_ms"] == pytest.approx(90)
    assert summary["p50_ms"] == pytest.approx(50)
    assert summary["samples"] == 100
    assert summary["beyond"] == 10


def test_latency_summary_refuses_too_few_samples():
    with pytest.raises(ValueError):
        measure.latency_summary([0.001] * 19)


def test_pass_medians_divide_by_each_operation_host_factor():
    passes = [
        (1.0, 1.3, [(0.4, 1.0), (0.5, 1.0), (0.3, 1.0)]),
        # host twice as slow; the rest outside operations uses the pass's
        (2.0, 2.8, [(1.2, 2.0), (0.8, 2.0), (0.2, 2.0)]),
        (1.0, 1.3, [(0.5, 1.0), (0.4, 1.0), (0.1, 1.0)]),
    ]
    wall, ops = measure.pass_medians(passes)
    assert wall == pytest.approx(1.3)            # of 1.3, 1.4 and 1.3
    assert ops == pytest.approx([0.5, 0.4, 0.1])
    raw_wall, raw_ops = measure.pass_medians(passes, adjust=False)
    assert raw_wall == pytest.approx(1.3)        # of 1.3, 2.8 and 1.3
    assert raw_ops == pytest.approx([0.5, 0.5, 0.2])


def test_pass_medians_rejects_mismatched_passes():
    with pytest.raises(ValueError):
        measure.pass_medians([(1.0, 0.5, [(0.5, 1.0)]),
                              (1.0, 1.0, [(0.5, 1.0), (0.5, 1.0)])])


def test_host_factor_is_mean_reading_over_the_nominal():
    nominal = measure.REFERENCE_S
    assert measure.host_factor([nominal, 2 * nominal]) == pytest.approx(1.5)


def test_tally_counts_failed_operations():
    assert measure.tally([True, True, False, True], died=False) == (4, 1)
    assert measure.fail_frac(4, 1) == 0.25


def test_tally_counts_a_killed_worker_as_one_failed_operation():
    assert measure.tally([True, True], died=True) == (3, 1)
    assert measure.tally([], died=True) == (1, 1)
    assert measure.fail_frac(1, 1) == 1.0


def test_parse_reads_flags_passes_and_result():
    nominal = measure.REFERENCE_S
    out = "\n".join([
        "ready 12.5",
        f"ref {nominal!r}", f"ref {3 * nominal!r}",
        "op 1 0.25 2", "op 0 0.5 2",
        "pass 0 0.8 2",
        "op 1 0.1 2",
        "pass 1 0.2 1",
        "result " + json.dumps({"backend": "pure"}),
    ]) + "\n"
    parsed = parse(out)
    assert parsed["ready"] == 12.5
    assert parsed["flags"] == [True, False, True]
    # both operations ended after both readings: each uses the last one
    assert parsed["passes"] == [(pytest.approx(2.0), 0.8, [
        (0.25, pytest.approx(3.0)), (0.5, pytest.approx(3.0))])]
    assert parsed["traced"] == 1
    assert parsed["result"] == {"backend": "pure"}
    assert measure.tally(parsed["flags"], died=False) == (3, 1)


def test_parse_takes_each_operation_factor_from_the_readings_around_it():
    r = [f"ref {k * measure.REFERENCE_S!r}" for k in (1, 2, 3, 4, 5)]
    out = "\n".join([
        "ready 1.0",
        r[0], "op 1 0.1 1", r[1], "op 1 0.1 2", r[2], r[3],
        "pass 0 0.3 2",
        # the first reading of the next pass still counts as after the op
        r[4], "op 1 0.1 5",
        "pass 0 0.2 1",
    ]) + "\n"
    first, second = parse(out)["passes"]
    # before it and the two after: 1, 2, 3 and 2, 3, 4; then 5 alone
    assert first[0] == pytest.approx(2.5)
    assert [f for _, f in first[2]] == pytest.approx([2.0, 3.0])
    assert [f for _, f in second[2]] == pytest.approx([5.0])


def test_parse_of_a_killed_worker_keeps_the_finished_operations():
    parsed = parse("ready 1.0\nop 1 0.25 0\nop 1 0.5 0\nop")
    assert parsed["result"] is None
    assert measure.tally(parsed["flags"], died=True) == (3, 1)


def test_metric_tables_match_benchmark_json():
    config = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == \
        measure.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == \
        measure.per_layer_units()
