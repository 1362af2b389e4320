"""The four workloads: seeded inputs, the tasks of one timed pass, and an
exact check of every task's result.

An operation is one call of the workload's op function, counted by a timer
bound in its place (see worker.py): one identity check in suite, one
evaluator call in graph_eval and layered_eval, one cross-checked diagram in
fuzz_crosscheck.  tracediagrams is imported inside build(), so the parent
process can read the names and sizes without the package.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Callable

SUITE_MAX_N = 4
SUITE_TRIALS = 1
GRAPH_CIRCLE_N = 5
GRAPH_ADJUGATE_N = 4
GRAPH_ADJUGATES = 19
LAYERED_ASYM_K, LAYERED_ASYM_N = 4, 4
LAYERED_CIRCLE_N = 6
FUZZ_DIAGRAMS = 3000
FUZZ_NS = (2, 3)
# fuzz.random_layered_diagram defaults to width 5, where a few diagrams with
# 3^10-entry states take most of the time; at width 3 the per-call overhead
# this workload is for stays the bulk of it.
FUZZ_MAX_WIDTH = 3
FUZZ_SHAPES_SEED = 7
MATRIX_BOUND = 9


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    op: tuple[str, str]                  # (module, function) timed per call
    op_ok: Callable[[object], bool]
    build: Callable[[int], list]


def dense_matrix(n: int, seed: int):
    """Seeded integer matrix with entries in [-9, 9] and none zero.  Both
    evaluators skip zero factors, so a zero entry would make the work, and
    the time, depend on the seed."""
    from tracediagrams.linalg import Matrix

    rng = random.Random(seed)
    return Matrix([[rng.choice((-1, 1)) * rng.randint(1, MATRIX_BOUND)
                    for _ in range(n)] for _ in range(n)])


def _suite_argv(seed: int) -> list[str]:
    return ["check", "--all", "--max-n", str(SUITE_MAX_N),
            "--trials", str(SUITE_TRIALS), "--seed", str(seed)]


def build_suite(seed: int) -> list[Task]:
    from tracediagrams import cli
    from tracediagrams.identities import REGISTRY

    argv = _suite_argv(seed)
    expected = sum(
        max(0, min(hi, SUITE_MAX_N) - lo + 1)
        for check in REGISTRY.values() if not check.stretch
        for lo, hi in [check.n_range])

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        lines = text.splitlines()
        reports = lines[:-1]
        return (code == 0 and len(reports) == expected
                and all(line.startswith("PASS ") for line in reports)
                and lines[-1] == f"{expected}/{expected} checks passed")

    return [Task("tracediag " + " ".join(argv), run, check)]


def build_graph_eval(seed: int) -> list[Task]:
    from tracediagrams import evaluate
    from tracediagrams.builders import adjugate_diagram, vertex_pair
    from tracediagrams.diagrams import (VECTOR, LayeredDiagram, Mat,
                                        compose_vertical, to_graph)
    from tracediagrams.identities import derive_seed
    from tracediagrams.linalg import det_oracle, reversal_sign

    def circle_task(n, a):
        graph = to_graph(vertex_pair(n, [["A"]] * n))
        return Task(
            f"det circle n={n}",
            lambda: evaluate.eval_contraction(graph, {"A": a}).tensor,
            lambda t: t.as_scalar()
            == reversal_sign(n) * factorial(n) * det_oracle(a))

    def adjugate_task(n, a):
        graph = to_graph(compose_vertical(
            adjugate_diagram(n, "A"),
            LayeredDiagram(n, (VECTOR,), [(Mat("A"),)])))

        def check(t):
            c = reversal_sign(n) * factorial(n - 1) * det_oracle(a)
            return (t.n, t.out_arity, t.in_arity) == (n, 1, 1) and \
                t.entries == [c if i == j else 0
                              for i in range(n) for j in range(n)]
        return Task(f"adjugate n={n} composed with A",
                    lambda: evaluate.eval_contraction(graph, {"A": a}).tensor,
                    check)

    n = GRAPH_CIRCLE_N
    tasks = [circle_task(n, dense_matrix(
        n, derive_seed(seed, "graph_eval", "circle")))]
    n = GRAPH_ADJUGATE_N
    tasks += [adjugate_task(n, dense_matrix(
        n, derive_seed(seed, "graph_eval", "adjugate", i)))
        for i in range(GRAPH_ADJUGATES)]
    return tasks


def asym_by_definition(k: int, n: int) -> list[int]:
    """Entries of ASym(k) on V^(tensor k), outputs then inputs, row-major:
    the sign of the rearrangement taking distinct inputs to the outputs."""
    size = n ** k
    entries = [0] * (size * size)
    for ins in product(range(n), repeat=k):
        if len(set(ins)) < k:
            continue
        col = sum(d * n ** (k - 1 - i) for i, d in enumerate(ins))
        for p in permutations(range(k)):
            inversions = sum(p[i] > p[j]
                             for i in range(k) for j in range(i + 1, k))
            row = sum(ins[p[i]] * n ** (k - 1 - i) for i in range(k))
            entries[row * size + col] = -1 if inversions & 1 else 1
    return entries


def build_layered_eval(seed: int) -> list[Task]:
    from tracediagrams import builders, evaluate
    from tracediagrams.identities import derive_seed
    from tracediagrams.linalg import det_oracle, reversal_sign

    k, n = LAYERED_ASYM_K, LAYERED_ASYM_N
    want = []

    def check_asym(t):
        if not want:
            want.extend(asym_by_definition(k, n))
        return (t.n, t.out_arity, t.in_arity) == (n, k, k) and \
            t.entries == want

    circle_n = LAYERED_CIRCLE_N
    a = dense_matrix(circle_n, derive_seed(seed, "layered_eval", "circle"))
    circle = builders.vertex_pair(circle_n, [["A"]] * circle_n)
    return [
        Task(f"antisym_tensor({k}, {n})",
             lambda: builders.antisym_tensor(k, n), check_asym),
        Task(f"det circle n={circle_n}",
             lambda: evaluate.eval_layered(circle, {"A": a}).tensor,
             lambda t: t.as_scalar() == reversal_sign(circle_n)
             * factorial(circle_n) * det_oracle(a)),
    ]


def build_fuzz_crosscheck(seed: int) -> list[Task]:
    from tracediagrams import evaluate
    from tracediagrams.fuzz import random_bindings, random_layered_diagram
    from tracediagrams.identities import derive_seed

    # The shapes come from one fixed corpus, as the diagrams of the other
    # workloads do: the cost of the slowest 1% of random shapes varies by
    # a fifth from one draw of 3000 to the next.  The seed picks the
    # matrices bound to them.
    shapes = random.Random(FUZZ_SHAPES_SEED)
    rng = random.Random(derive_seed(seed, "fuzz_crosscheck"))
    tasks = []
    for i in range(FUZZ_DIAGRAMS):
        n = shapes.choice(FUZZ_NS)
        d = random_layered_diagram(n, shapes, max_width=FUZZ_MAX_WIDTH)
        bindings = random_bindings(d, rng)
        shape = (n, len(d.outputs()), len(d.inputs))
        # eval_checked raises CrossCheckMismatch unless both evaluators
        # agree entry for entry; the check confirms the shape on top
        tasks.append(Task(
            f"fuzz diagram {i} (n={n})",
            lambda d=d, b=bindings: evaluate.eval_checked(d, b),
            lambda t, shape=shape: (t.n, t.out_arity, t.in_arity) == shape))
    return tasks


WORKLOADS = {w.name: w for w in (
    Workload("suite",
             "tracediag " + " ".join(_suite_argv(0)[:-1]) + " <seed>, "
             "in-process through cli.main",
             ("identities", "run_check"),
             lambda report: report.outcome == "pass", build_suite),
    Workload("graph_eval",
             f"eval_contraction of the det circle n={GRAPH_CIRCLE_N} and of "
             f"{GRAPH_ADJUGATES} adjugate(n={GRAPH_ADJUGATE_N}) o A "
             "diagrams", ("evaluate", "eval_contraction"),
             lambda result: True, build_graph_eval),
    Workload("layered_eval",
             f"antisym_tensor({LAYERED_ASYM_K}, {LAYERED_ASYM_N}) and "
             f"eval_layered of the det circle n={LAYERED_CIRCLE_N}",
             ("evaluate", "eval_layered"),
             lambda result: True, build_layered_eval),
    Workload("fuzz_crosscheck",
             f"eval_checked on {FUZZ_DIAGRAMS} random layered diagrams, "
             f"n in {set(FUZZ_NS)}, max width {FUZZ_MAX_WIDTH}",
             ("evaluate", "eval_checked"),
             lambda result: True, build_fuzz_crosscheck),
)}
