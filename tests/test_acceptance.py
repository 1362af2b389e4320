"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Every comparison is exact; the only tolerances anywhere are
the wall-clock budgets stated in criterion 1 and in the two runs of
criterion 12.
"""

import random
import time
from fractions import Fraction
from math import factorial

from tracediagrams.builders import (adjugate_diagram, adjugate_value,
                                    antisym_nodepair, antisym_permsum,
                                    antisym_tensor, antisym_traced,
                                    binet_cauchy_pair, codeterminant,
                                    complemental_node, cramer_solve,
                                    det_permsum, det_permsum_value,
                                    jacobi_diagrams, loop_diagram,
                                    power_strand, trace_loop, vertex_pair)
from tracediagrams.cli import main
from tracediagrams.diagrams import (VECTOR, LayeredDiagram, Mat,
                                    compose_vertical, to_graph)
from tracediagrams.evaluate import eval_checked, eval_contraction, eval_layered
from tracediagrams.fuzz import random_bindings, random_layered_diagram
from tracediagrams.identities import (random_matrix, random_vector,
                                      run_check, traced_groups,
                                      traced_terms)
from tracediagrams.linalg import (Matrix, adjugate_oracle, charpoly_oracle,
                                  det_oracle, levi_civita, reversal_sign,
                                  solve_oracle)
from tracediagrams.tensor import Tensor

A_FIXTURE = Matrix([[2, 3], [4, 5]])
SEED = 20240 + 6


def report(number, text):
    print(f"ACCEPT-{number:02d} pass: {text}")


def test_criterion_01_fixture_matrix_story():
    start = time.perf_counter()
    a = A_FIXTURE
    assert eval_checked(trace_loop(2, "A"), {"A": a}).as_scalar() == 7
    assert det_permsum_value(2, a) == -2
    circle = eval_checked(vertex_pair(2, [["A"], ["A"]]), {"A": a})
    assert circle.as_scalar() == reversal_sign(2) * factorial(2) * (-2)

    # characteristic polynomial from the half-labeled circles
    coeffs = []
    for i in range(3):
        labels = [["A"]] * (2 - i) + [[]] * i
        value = eval_checked(vertex_pair(2, labels), {"A": a}).as_scalar()
        sign = -1 if (i + 1) & 1 else 1
        coeffs.append(Fraction(sign, factorial(i) * factorial(2 - i)) * value)
    assert tuple(coeffs) == (-2, -7, 1)
    assert tuple(coeffs) == charpoly_oracle(a)

    # Cayley-Hamilton expansion reproduces 2! (A^2 - 7A - 2I) = 0
    groups = traced_groups(traced_terms(2, 3), a)
    total = Tensor.zeros(2, 1, 1)
    for tensor in groups.values():
        total = total + tensor
    assert total.is_zero()
    assert groups[0] == Tensor.from_matrix(Matrix.identity(2).scale(-4))
    assert groups[1] == Tensor.from_matrix(a.scale(-14))
    assert groups[2] == Tensor.from_matrix((a ** 2).scale(2))
    assert (a ** 2 - a.scale(7) - Matrix.identity(2).scale(2)).is_zero()

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture story took {elapsed:.2f}s"
    report(1, f"trace 7, det -2, char poly, Cayley-Hamilton "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_loop_equals_dimension():
    for n in range(2, 6):
        assert eval_checked(loop_diagram(n), {}).as_scalar() == n
    report(2, "closed loop = n for n = 2..5")


def test_criterion_03_worked_example():
    t = eval_checked(antisym_nodepair(1, 3), {})
    m = t.to_matrix()
    assert m == Matrix.identity(3).scale(-2)
    for c in (1, 2, 3):
        basis = tuple(1 if r == c else 0 for r in (1, 2, 3))
        assert m.apply(basis) == tuple(-2 * x for x in basis)
    for trial in range(10):
        v = random_vector(3, SEED + trial)
        assert m.apply(v) == tuple(-2 * x for x in v)
    report(3, "double-vertex diagram is v -> -2v on basis and 10 "
              "random vectors")


def test_criterion_04_antisymmetrizer_comparison():
    closed_values = {}
    for n in (2, 3, 4):
        for k in range(0, n + 1):
            perm_sum = antisym_tensor(k, n)
            pair = eval_layered(antisym_nodepair(k, n), {}).tensor
            scale = Fraction(reversal_sign(n), factorial(n - k))
            assert perm_sum == pair.scale(scale), (n, k)
        assert run_check("asym_zero_beyond_n", n, seed=SEED).outcome == "pass"
        closed_values[n] = eval_checked(vertex_pair(n, [[]] * n),
                                        {}).as_scalar()
    assert closed_values == {2: -2, 3: -6, 4: 24}
    report(4, "perm-sum = node-pair/(n-k)! for k <= n <= 4; zero beyond n; "
              "closed scalars -2, -6, +24")


def test_criterion_05_adjugate():
    for n in (2, 3, 4):
        composed = compose_vertical(
            adjugate_diagram(n, "A"),
            LayeredDiagram(n, (VECTOR,), [(Mat("A"),)]))
        graph = to_graph(composed)
        ident = Tensor.identity(n, 1)
        for trial in range(20):
            a = random_matrix(n, SEED + 100 * n + trial)
            got = eval_contraction(graph, {"A": a}).tensor
            want = reversal_sign(n) * factorial(n - 1) * det_oracle(a)
            assert got == ident.scale(want)
            assert adjugate_value(n, a) == adjugate_oracle(a)
    report(5, "adjugate constant and entrywise extraction, 20 random "
              "matrices per n <= 4")


def test_criterion_06_cramer():
    for n in (2, 3, 4):
        for trial in range(20):
            a = random_matrix(n, SEED + 200 * n + trial, invertible=True)
            b = random_vector(n, SEED + 300 * n + trial)
            got = cramer_solve(a, b)
            assert not got.singular
            assert tuple(Fraction(x) for x in got.xs) == solve_oracle(a, b)
    report(6, "diagram-side solutions equal the exact solver, 20 random "
              "systems per n <= 4")


def test_criterion_07_det_sum():
    from math import comb
    for n in (2, 3, 4):
        for trial in range(20):
            a = random_matrix(n, SEED + 400 * n + trial)
            b = random_matrix(n, SEED + 500 * n + trial)
            total = 0
            for i in range(n + 1):
                labels = [["A"]] * (n - i) + [["B"]] * i
                circle = eval_layered(vertex_pair(n, labels),
                                      {"A": a, "B": b}).tensor.as_scalar()
                total += comb(n, i) * circle
            got = Fraction(reversal_sign(n), factorial(n)) * total
            assert got == det_oracle(a + b)
    report(7, "det(A+B) expansion over labeled circles, 20 random pairs "
              "per n <= 4")


def test_criterion_08_cycle_decomposition():
    for n in (2, 3, 4):
        a = random_matrix(n, SEED + 600 + n)
        for k in range(0, n + 1):
            groups = traced_groups(traced_terms(n, k + 1), a)
            for i in range(k + 1):
                closed = 0
                for term in antisym_traced(k - i, None, "A", n):
                    value = eval_contraction(
                        to_graph(term.diagram), {"A": a}).tensor.as_scalar()
                    closed += term.sign * value
                coeff = Fraction((-1) ** i * factorial(k), factorial(k - i))
                strand = eval_contraction(
                    to_graph(power_strand(n, "A", i)), {"A": a}).tensor
                want = strand.scale(coeff * closed)
                assert groups.get(i, Tensor.zeros(n, 1, 1)) == want, (n, k, i)
    report(8, "traced antisymmetrizer decomposes with coefficients "
              "(-1)^i k!/(k-i)!, all k <= n <= 4")


def _builder_catalog(n):
    """Every builder family instantiated at dimension n with bindings."""
    a = random_matrix(n, SEED + n)
    b = {"A": a}
    catalog = [
        (loop_diagram(n), {}),
        (trace_loop(n, "A"), b),
        (power_strand(n, "A", 2), b),
        (vertex_pair(n, [["A"]] * n), b),
        (vertex_pair(n, [[]] * n), {}),
        (codeterminant(n), {}),
        (adjugate_diagram(n, "A"), b),
        (compose_vertical(adjugate_diagram(n, "A"), power_strand(n, "A", 1)),
         b),
    ]
    catalog += [(antisym_nodepair(k, n), {}) for k in range(0, n + 1)]
    catalog += [(complemental_node(k, n), {}) for k in range(0, n + 1)]
    catalog += [(d, b) for _, d in det_permsum(n, "A")]
    catalog += [(d, {}) for _, d in antisym_permsum(min(n, 3), n)]
    catalog += [(t.diagram, b) for t in antisym_traced(3, 0, "A", n)]
    catalog += [(t.diagram, b) for t in antisym_traced(3, None, "A", n)]
    for k in range(0, n + 1):
        lhs, rhs = jacobi_diagrams(k, n, "A")
        catalog += [(lhs, b), (rhs, b)]
    if n == 3:
        lhs, rhs = binet_cauchy_pair()
        catalog.append((lhs, {}))
        catalog += [(d, {}) for _, d in rhs]
    return catalog


def test_criterion_09_cross_evaluator_equivalence():
    count = 0
    for n in (2, 3, 4):
        for diagram, bindings in _builder_catalog(n):
            eval_checked(diagram, bindings)    # raises on any mismatch
            count += 1
    rng = random.Random(SEED)
    for _ in range(200):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        eval_checked(d, random_bindings(d, rng))
    for _ in range(200):
        d = random_layered_diagram(rng.choice((4, 5)), rng, max_width=3)
        eval_checked(d, random_bindings(d, rng))
    report(9, f"layered = contraction on {count} builder diagrams at "
              "n <= 4, 200 fuzzed diagrams at n <= 3 and 200 at n in "
              "{4, 5} of width <= 3")


def test_criterion_10_isotopy_regressions():
    for check_id in ("kink_identity", "cup_swap", "cap_transpose_regression",
                     "vertex_order_sign"):
        for n in (2, 3):
            assert run_check(check_id, n, trials=10,
                             seed=SEED).outcome == "pass", check_id
    assert run_check("triple_isotopy", 3, seed=SEED).outcome == "pass"
    report(10, "kink, cup-swap, triple-vertex, cap-transpose and "
               "vertex-order regressions")


def test_criterion_11_complemental_node_formula():
    from itertools import product
    for n in (2, 3, 4):
        for k in range(0, n + 1):
            t = eval_layered(complemental_node(k, n), {}).tensor
            for ins in product(range(1, n + 1), repeat=k):
                for outs in product(range(1, n + 1), repeat=n - k):
                    got = t.get(outs, ins)
                    want = 0
                    if len(set(ins)) == len(ins) and \
                            set(outs) == set(range(1, n + 1)) - set(ins):
                        want = levi_civita(ins + tuple(reversed(outs)))
                    assert got == want, (n, k, ins, outs)
    report(11, "mixed vertex equals its closed form on every basis input, "
               "k <= n <= 4")


def test_criterion_12_full_check_run(capsys):
    start = time.perf_counter()
    code = main(["check", "--all", "--max-n", "4", "--trials", "10",
                 "--seed", str(SEED)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert elapsed < 60.0, f"check --all took {elapsed:.1f}s"
    with capsys.disabled():
        report(12, f"check --all --max-n 4 --trials 10 exits 0 in "
                   f"{elapsed:.1f}s")


def test_criterion_12_full_check_run_max_n_5(capsys):
    start = time.perf_counter()
    code = main(["check", "--all", "--max-n", "5", "--trials", "1",
                 "--seed", str(SEED)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    lines = out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 91
    assert lines[-1] == "91/91 checks passed"
    assert elapsed < 60.0, f"check --all --max-n 5 took {elapsed:.1f}s"
    with capsys.disabled():
        report(12, f"check --all --max-n 5 --trials 1 exits 0 in "
                   f"{elapsed:.1f}s")


def test_criterion_13_stretch_jacobi_dodgson():
    for n in (2, 3, 4):
        assert run_check("jacobi", n, trials=5, seed=SEED).outcome == "pass"
    assert run_check("dodgson", 3, trials=10, seed=SEED).outcome == "pass"
    report(13, "stretch: Jacobi wiring W0 at n <= 4 and the adjugate's "
               "2x2 minors at n = 3")
