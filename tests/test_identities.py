"""The identity-check registry: framework behavior and spot checks."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from tracediagrams import builders, identities
from tracediagrams.identities import (REGISTRY, CheckFailure, IdentityReport,
                                      derive_seed, random_matrix,
                                      random_vector, report_lines,
                                      report_records, run_all, run_check)
from tracediagrams.linalg import Matrix, Permutation, det_oracle


def test_registry_contents():
    expected = {
        "trace_loop", "loop_dim", "det_permsum_vs_oracle", "kink_identity",
        "cup_swap", "triple_isotopy", "cap_transpose_regression",
        "vertex_order_sign", "node_antisymmetry", "matrix_invariance",
        "complemental_node_formula", "asym_compare", "asym_zero_beyond_n",
        "asym_special_cases", "worked_example_minus2v", "adjugate_formula",
        "adjugate_elements", "cramer", "crossout_lemma", "cayley_hamilton",
        "char_coefficients", "det_sum", "asym_sum_decomposition",
        "binet_cauchy", "generalized_cross_product", "jacobi", "dodgson",
    }
    assert set(REGISTRY) == expected
    assert REGISTRY["jacobi"].stretch and REGISTRY["dodgson"].stretch


def test_run_check_single():
    report = run_check("cayley_hamilton", n=2, trials=3, seed=1)
    assert report.outcome == "pass"
    assert report.params == {"n": 2, "trials": 3, "seed": 1}


def test_asym_special_cases_value():
    report = run_check("asym_special_cases", n=3, trials=2, seed=0)
    assert report.outcome == "pass"   # includes the -6 closed-circle value


@pytest.mark.parametrize("n", [2, 3, 4])
def test_asym_zero_full_walk(n):
    """The check walks one input per multiset of digits; the full walk over
    all n^(n+1) basis inputs confirms that no image survives either."""
    k = n + 1
    perms = list(Permutation.all_permutations(k))
    for ins in product(range(1, n + 1), repeat=k):
        image = Counter()
        for p in perms:
            image[tuple(ins[i - 1] for i in p.images)] += p.sign
        assert not any(image.values()), ins


@pytest.mark.parametrize("n", [2, 3, 4])
def test_asym_zero_fails_without_one_permutation(monkeypatch, n):
    """With one signed permutation missing, the reduced walk must catch the
    surviving image: the constant input already gives +-1."""
    every = Permutation.all_permutations
    monkeypatch.setattr(identities.Permutation, "all_permutations",
                        staticmethod(lambda m: list(every(m))[1:]))
    report = run_check("asym_zero_beyond_n", n)
    assert report.outcome == "fail"
    assert report.counterexample["inputs"] == [1] * (n + 1)


def test_asym_zero_reaches_n_6():
    assert REGISTRY["asym_zero_beyond_n"].n_range == (2, 6)
    assert run_check("asym_zero_beyond_n", 6).outcome == "pass"


@pytest.mark.parametrize("check_id", ["asym_compare", "asym_special_cases"])
def test_asym_checks_fail_without_one_permutation(monkeypatch, check_id):
    """antisym_tensor evaluates only the distinct-digit columns; with one
    signed permutation diagram missing, the sum must still disagree with
    the node pair."""
    every = builders.antisym_permsum
    monkeypatch.setattr(builders, "antisym_permsum",
                        lambda k, n: every(k, n)[1:])
    assert run_check(check_id, 3).outcome == "fail"


def test_is_multiple_compares_every_entry():
    from tracediagrams.tensor import Tensor

    u = Tensor(2, 1, 1, [1, 0, Fraction(1, 2), -3])
    assert identities._is_multiple(u.scale(-6), -6, u)
    assert not identities._is_multiple(u.scale(6), -6, u)
    off_by_one = u.scale(2)
    off_by_one.nonzeros[3] += 1                    # same keys, one value off
    assert not identities._is_multiple(off_by_one, 2, u)
    assert not identities._is_multiple(u.scale(2) + Tensor(2, 1, 1, [
        0, 5, 0, 0]), 2, u)                        # one key more
    assert not identities._is_multiple(Tensor(2, 1, 1, [2, -6, 1, 0]), 2,
                                       u)          # one key moved
    assert not identities._is_multiple(Tensor(2, 0, 2, [2, 0, 1, -6]), 2, u)


def test_asym_checks_reach_n_6():
    for check_id in ("asym_compare", "asym_special_cases"):
        assert REGISTRY[check_id].n_range == (2, 6)
        assert run_check(check_id, 6, trials=1, seed=7).outcome == "pass"


def test_vertex_checks_reach_n_7():
    for check_id in ("node_antisymmetry", "complemental_node_formula"):
        assert REGISTRY[check_id].n_range == (2, 7)
        assert run_check(check_id, 7, seed=7).outcome == "pass"
    assert REGISTRY["generalized_cross_product"].n_range == (2, 8)
    assert run_check("generalized_cross_product", 8, trials=1,
                     seed=7).outcome == "pass"


def _edited(evaluate, edit):
    """evaluate, with edit(d, bindings, nonzeros) applied to a copy of the
    nonzeros of each tensor it returns."""
    from tracediagrams.evaluate import EvalResult
    from tracediagrams.tensor import Tensor

    def edited(d, bindings):
        result = evaluate(d, bindings)
        t = result if isinstance(result, Tensor) else result.tensor
        nonzeros = dict(t.nonzeros)
        edit(d, bindings, nonzeros)
        t = Tensor._owning(t.n, t.out_arity, t.in_arity, nonzeros)
        return t if isinstance(result, Tensor) else EvalResult(
            t, result.term_count)
    return edited


@pytest.mark.parametrize("n", [3, 4])
def test_node_antisymmetry_catches_a_repeated_input(monkeypatch, n):
    """+5 at inputs (1, 1) of the canonical k = 2 vertex and -5 on each
    swapped ciliation: every swap still negates, so only the repeated-input
    statement can see it."""
    from tracediagrams.diagrams import canonical_ciliation

    def plant(d, bindings, nonzeros):
        if len(d.inputs) == 2:
            vertex, = d.layers[0]
            canonical = vertex.ciliation == canonical_ciliation(n, 2)
            nonzeros[0] = 5 if canonical else -5   # outputs all 1: flat 0
    monkeypatch.setattr(identities, "eval_layered",
                        _edited(identities.eval_layered, plant))
    report = run_check("node_antisymmetry", n)
    assert report.outcome == "fail"
    assert report.counterexample == {
        "seed": 0, "n": n, "k": 2, "inputs": [1, 1],
        "message": "repeated basis inputs gave a nonzero value"}


@pytest.mark.parametrize("n", [3, 4])
def test_complemental_formula_catches_one_flipped_sign(monkeypatch, n):
    """The k = 1 vertex with the sign of its first nonzero, at outputs
    (1, ..., n-1) and input n, flipped."""
    def flip(d, bindings, nonzeros):
        if len(d.inputs) == 1:
            first = min(nonzeros)
            nonzeros[first] = -nonzeros[first]
    monkeypatch.setattr(identities, "eval_layered",
                        _edited(identities.eval_layered, flip))
    report = run_check("complemental_node_formula", n)
    assert report.outcome == "fail"
    assert report.counterexample == {
        "seed": 0, "n": n, "k": 1, "inputs": [n],
        "message": "closed form mismatch on a basis input"}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crossout_catches_an_entry_beside_the_pinned_input(monkeypatch, n):
    """The vertex nullified for j = 2 gains the entry 1 at inputs
    (2, ..., 2), where the bare vertex is zero."""
    def plant(d, bindings, nonzeros):
        if set(bindings) == {"P"} and bindings["P"].entry(2, 2) == 0:
            nonzeros[sum(n ** i for i in range(n))] = 1
    monkeypatch.setattr(identities, "eval_graph",
                        _edited(identities.eval_graph, plant))
    report = run_check("crossout_lemma", n, trials=2)
    assert report.outcome == "fail"
    assert {key: report.counterexample[key]
            for key in ("seed", "n", "j", "inputs", "message")} == {
        "seed": 0, "n": n, "j": 2, "inputs": [2] * n,
        "message": "nullifier visible beside the pinned input"}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_traced_classes_match_the_permutation_sum(n):
    """The class-weighted traced terms give the same groups and closed
    scalars as the signed sum over every permutation."""
    from tracediagrams.builders import antisym_traced
    from tracediagrams.diagrams import to_graph
    from tracediagrams.evaluate import eval_contraction

    a = random_matrix(n, 900 + n)

    def walked(term):
        return eval_contraction(to_graph(term.diagram), {"A": a}).tensor

    for k in range(n + 1):
        groups = {}
        for term in antisym_traced(k + 1, 0, "A", n):
            t = walked(term).scale(term.sign)
            power = term.open_power
            groups[power] = groups[power] + t if power in groups else t
        assert identities.traced_groups(
            identities.traced_terms(n, k + 1), a) == groups, k
        closed = sum(term.sign * walked(term).as_scalar()
                     for term in antisym_traced(k, None, "A", n))
        assert identities.closed_traced_scalar(
            identities.traced_terms(n, k, closed=True), a) == closed, k


@pytest.mark.parametrize("dropped", [0, -1])
def test_cayley_hamilton_fails_without_one_permutation(monkeypatch,
                                                       dropped):
    """Dropping the first permutation removes a whole class (the identity's);
    dropping the last, (4 3 2 1), only lowers its class's signed count."""
    every = Permutation.all_permutations

    def all_but_one(m):
        perms = list(every(m))
        del perms[dropped]
        return perms

    monkeypatch.setattr(identities.Permutation, "all_permutations",
                        staticmethod(all_but_one))
    assert run_check("cayley_hamilton", 3).outcome == "fail"


def test_traced_checks_reach_n_8():
    for check_id in ("cayley_hamilton", "asym_sum_decomposition"):
        assert REGISTRY[check_id].n_range == (2, 8)
        assert run_check(check_id, 8, trials=1, seed=7).outcome == "pass"


def test_det_permsum_many_trials():
    report = run_check("det_permsum_vs_oracle", n=4, trials=50, seed=7)
    assert report.outcome == "pass"


def test_unknown_id():
    with pytest.raises(KeyError, match="unknown identity"):
        run_check("nonsense", n=2)


def test_unsupported_n():
    with pytest.raises(ValueError, match="supports n"):
        run_check("triple_isotopy", n=2)


def test_trials_below_one_rejected():
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_check("cayley_hamilton", n=3, trials=trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_all(max_n=2, trials=trials)


def test_run_all_passes_and_excludes_stretch():
    reports = run_all(max_n=2, trials=2, seed=3)
    assert all(r.outcome == "pass" for r in reports)
    assert not any(r.id in ("jacobi", "dodgson") for r in reports)
    with_stretch = run_all(max_n=2, trials=2, seed=3, include_stretch=True)
    assert any(r.id == "jacobi" for r in with_stretch)


def test_seeded_reruns_are_byte_identical():
    first = list(report_lines(run_all(max_n=2, trials=3, seed=9)))
    second = list(report_lines(run_all(max_n=2, trials=3, seed=9)))
    assert first == second
    rec1 = list(report_records(run_all(max_n=2, trials=2, seed=5)))
    rec2 = list(report_records(run_all(max_n=2, trials=2, seed=5)))
    assert rec1 == rec2


def test_seeded_reruns_survive_hash_randomization():
    """Report bytes must not depend on the interpreter's string hashing."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tracediagrams

    # the child imports the package from where this process found it
    root = str(Path(tracediagrams.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)

    def run(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "tracediagrams", "check", "--all",
             "--max-n", "2", "--trials", "2", "--seed", "11"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run("1") == run("2")


def test_failure_carries_counterexample():
    # corrupt a check on purpose by querying a stretch identity with a
    # deliberately inconsistent procedure: use the CheckFailure machinery
    from tracediagrams.identities import CheckContext
    ctx = CheckContext("demo", 2, 1, 7)
    with pytest.raises(CheckFailure) as info:
        ctx.fail("boom", A=Matrix([[1, 2], [3, 4]]))
    failure = info.value
    assert failure.counterexample["A"] == [["1", "2"], ["3", "4"]]
    assert failure.counterexample["seed"] == 7


def test_run_check_records_unexpected_exception_as_error():
    @identities._register("raises_demo", "always raises", uses_trials=False)
    def raises_demo(ctx):
        raise ZeroDivisionError("no inverse")

    try:
        report = run_check("raises_demo", n=3, seed=9)
    finally:
        del REGISTRY["raises_demo"]
    assert report.outcome == "error"
    assert report.counterexample == {
        "seed": 9, "n": 3, "message": "ZeroDivisionError: no inverse"}
    assert report.line().startswith("ERROR raises_demo n=3")
    assert report.record()["outcome"] == "error"


def test_report_line_format():
    report = IdentityReport("demo", {"n": 2, "trials": 1, "seed": 0}, 1,
                            "fail", {"x": 1}, 0.5)
    line = report.line()
    assert line.startswith("FAIL demo n=2")
    assert "counterexample=" in line
    assert "elapsed" not in line
    assert "elapsed" in report.line(timings=True)


def test_random_matrix_determinism_and_ranges():
    m1 = random_matrix(3, seed=5)
    m2 = random_matrix(3, seed=5)
    assert m1 == m2
    assert all(-9 <= x <= 9 for row in m1.rows for x in row)
    inv = random_matrix(3, seed=6, invertible=True)
    assert det_oracle(inv) != 0
    v1 = random_vector(4, seed=8)
    assert v1 == random_vector(4, seed=8)
    assert len(v1) == 4


def test_derive_seed_stability():
    assert derive_seed(42, "x", 1) == derive_seed(42, "x", 1)
    assert derive_seed(42, "x", 1) != derive_seed(42, "x", 2)
    # must not depend on Python's per-process string hashing
    assert derive_seed(0, "trace_loop", 2, 0, "M") == \
        derive_seed(0, "trace_loop", 2, 0, "M")


def test_deliberate_convention_break_is_caught():
    """Negative control: a wrong sign convention must produce a failing
    report with a counterexample, not a silent pass."""
    from tracediagrams import builders
    from tracediagrams.identities import CheckContext
    import tracediagrams.identities as identities

    original = builders.trace_loop

    def broken(n, name):
        d = original(n, name)
        # graft a sign error by doubling the label
        from tracediagrams.diagrams import Cup, Cap, Id, Mat, LayeredDiagram
        return LayeredDiagram(n, (), [
            (Cup(),), (Id(), Mat(name)), (Id(), Mat(name)), (Cap(),)])

    try:
        identities.trace_loop = broken
        report = run_check("trace_loop", n=2, trials=2, seed=0)
    finally:
        identities.trace_loop = original
    assert report.outcome == "fail"
    assert report.counterexample and "A" in report.counterexample


def test_every_registry_diagram_cross_checks(monkeypatch):
    """Each layered diagram the registry evaluates at n <= 4, directly or
    through a builder, goes through both evaluators, which must agree
    entry for entry: a mismatch raises inside its check and turns that
    report into an error."""
    from tracediagrams.evaluate import EvalResult, eval_checked
    from tracediagrams.tensor import Tensor

    checked = []

    def through_both(d, bindings):
        checked.append(d)
        return eval_checked(d, bindings)

    def layered(d, bindings, *, columns=None):
        """The full diagram through both evaluators, then, if columns are
        given, its nonzeros on those input columns, as eval_layered's."""
        t = through_both(d, bindings)
        if columns is not None:
            size = d.n ** len(d.inputs)
            keep = set(columns)
            t = Tensor._owning(t.n, t.out_arity, t.in_arity,
                               {i: x for i, x in t.nonzeros.items()
                                if i % size in keep})
        return EvalResult(t, 0)

    monkeypatch.setattr(identities, "eval_graph", through_both)
    for module in (identities, builders):
        monkeypatch.setattr(module, "eval_layered", layered)
    reports = run_all(max_n=4, trials=1, seed=7)
    assert [r.line() for r in reports if r.outcome != "pass"] == []
    assert len(reports) == 69 and len(checked) == 357
