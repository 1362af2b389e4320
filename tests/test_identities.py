"""The identity-check registry: framework behavior and spot checks."""

import pytest

from tracediagrams.identities import (REGISTRY, CheckFailure, IdentityReport,
                                      derive_seed, random_matrix,
                                      random_vector, report_lines,
                                      report_records, run_all, run_check)
from tracediagrams.linalg import Matrix, det_oracle


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
    from tracediagrams import identities

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
    m1 = random_matrix(3, seed=5, bound=9)
    m2 = random_matrix(3, seed=5, bound=9)
    assert m1 == m2
    assert all(-9 <= x <= 9 for row in m1.rows for x in row)
    inv = random_matrix(3, seed=6, invertible=True)
    assert det_oracle(inv) != 0
    v1 = random_vector(4, seed=8)
    assert v1 == random_vector(4, seed=8)
    assert len(v1) == 4
    with pytest.raises(ValueError):
        random_matrix(2, seed=0, bound=0)


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
