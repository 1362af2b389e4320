"""Span self time, per-layer folding, and patching the package."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import spans  # noqa: E402


def span(name, start, end, parent=-1, nested=False, counts=None):
    return [name, start, end, parent, nested, counts]


def test_covered_merges_overlapping_intervals():
    assert spans.covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert spans.covered([(0, 2), (9, 12)], 1, 10) == 2   # clipped
    assert spans.covered([], 0, 1) == 0


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        span("outer", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 5.0, parent=0),      # overlaps a: union is 1..5
        span("c", 7.0, 8.0, parent=0),
        span("grandchild", 1.5, 2.0, parent=1),
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [10 - 5, 3 - 0.5, 2, 1, 0.5])


def test_layer_totals_count_busy_once_for_nested_spans():
    recorded = [
        span("linalg.oracles", 0.0, 4.0),
        span("linalg.oracles", 1.0, 2.0, parent=0, nested=True),
        span("kernels.pair_contract", 5.0, 6.0,
             counts={"terms": 3, "slots": 8}),
        span("kernels.pair_contract", 6.0, 6.5,
             counts={"terms": 1, "slots": 8}),
    ]
    totals = spans.layer_totals(recorded)
    oracles = totals["linalg.oracles"]
    assert oracles["calls"] == 2
    assert oracles["busy_s"] == pytest.approx(4.0)
    assert oracles["self_s"] == pytest.approx(3.0 + 1.0)
    kernel = totals["kernels.pair_contract"]
    assert (kernel["calls"], kernel["terms"], kernel["slots"]) == (2, 4, 16)


def test_fold_layers_demands_identical_counts_across_passes():
    from worker import fold_layers

    def totals(terms, busy):
        return {"kernels.epsilon_network": {"calls": 2, "terms": terms,
                                            "busy_s": busy, "self_s": busy}}

    flat = fold_layers([totals(10, 1.0), totals(10, 3.0), totals(10, 2.0)])
    assert flat["kernels.epsilon_network.terms"] == 10
    assert flat["kernels.epsilon_network.busy_s"] == 2.0      # median
    assert flat["kernels.pair_contract.useful_ratio"] == 0.0  # never called
    with pytest.raises(ValueError, match="epsilon_network.terms"):
        fold_layers([totals(10, 1.0), totals(11, 1.0)])


def test_tracer_patches_every_binding_and_restores_them():
    from tracediagrams import builders, evaluate, identities
    from tracediagrams.builders import vertex_pair
    from tracediagrams.identities import random_matrix

    originals = (evaluate.eval_layered, builders.eval_layered,
                 identities.eval_layered)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert builders.eval_layered is evaluate.eval_layered
        assert builders.eval_layered is not originals[0]
        a = random_matrix(3, 1)
        identities.eval_layered(vertex_pair(3, [["A"]] * 3), {"A": a})
    finally:
        tracer.uninstall()
    assert (evaluate.eval_layered, builders.eval_layered,
            identities.eval_layered) == originals
    totals = spans.layer_totals(tracer.spans)
    assert totals["evaluate.eval_layered"]["calls"] == 1
    assert totals["evaluate.eval_layered"]["terms"] > 0
    assert totals["kernels.pair_contract"]["calls"] > 0
    assert totals["tensor.identity"]["entries"] == 1    # 3^0 wires squared
