#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Three micro-benchmarks exercise the kernel functions directly on
representative workloads (the dense state/piece contraction of the layered
evaluator, an axis permutation, and the pruned enumeration behind the graph
evaluator), then the full identity suite runs end-to-end in a subprocess per
backend.

Usage: python benchmarks/bench_kernels.py [--repeat N]
Runs from a plain checkout: the package is imported from ../src.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from tracediagrams import _kernels_pure as pure  # noqa: E402
from tracediagrams.builders import adjugate_diagram  # noqa: E402
from tracediagrams.diagrams import (  # noqa: E402
    VECTOR, LayeredDiagram, Mat, canonical_ciliation, compose_vertical,
    to_graph)
from tracediagrams.evaluate import (  # noqa: E402
    _vertex_tensor, eval_contraction)
from tracediagrams.identities import random_matrix  # noqa: E402
from tracediagrams.tensor import Tensor  # noqa: E402

try:
    from tracediagrams import _speedups as compiled
except ImportError:
    compiled = None


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_pair_contract(kernels):
    # a 4-wire state against a degree-4 vertex tensor, n = 4
    n = 4
    state = Tensor.identity(n, 4)
    piece = _vertex_tensor(n, 4, canonical_ciliation(n, 4))
    pairs = [(piece.out_arity + i, i) for i in range(4)]

    def run():
        kernels.pair_contract(n, piece.entries, piece.arity,
                              state.entries, state.arity, pairs)
    return run


def bench_permute(kernels):
    n = 3
    vals = list(range(n ** 9))
    perm = [8, 0, 7, 1, 6, 2, 5, 3, 4]

    def run():
        kernels.permute_axes(n, vals, 9, perm)
    return run


def bench_epsilon_network(kernels):
    # the adjugate diagram composed with its matrix at n = 4: the graph
    # evaluator's factor network, evaluated for the full (1,1) tensor
    n = 4
    composed = compose_vertical(
        adjugate_diagram(n, "A"),
        LayeredDiagram(n, (VECTOR,), [(Mat("A"),)]))
    graph = to_graph(composed)
    a = random_matrix(n, 12345)

    import tracediagrams.evaluate as ev
    original = ev.kernels

    def run():
        ev.kernels = kernels
        try:
            eval_contraction(graph, {"A": a})
        finally:
            ev.kernels = original
    return run


def bench_end_to_end(backend):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, TRACEDIAGRAMS_KERNELS=backend, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tracediagrams", "check", "--all",
         "--max-n", "4", "--trials", "5", "--seed", "7"],
        env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"check --all failed under {backend}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return elapsed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if compiled is None:
        print("compiled kernels unavailable; build the extension first")

    rows = []
    for label, factory in (("pair_contract (n=4 vertex apply)",
                            bench_pair_contract),
                           ("permute_axes (3^9 entries)", bench_permute),
                           ("epsilon_network (adjugate n=4)",
                            bench_epsilon_network)):
        t_pure = timed(factory(pure), args.repeat)
        t_fast = timed(factory(compiled), args.repeat) if compiled else None
        rows.append((label, t_pure, t_fast))

    print(f"{'benchmark':42s} {'pure':>10s} {'compiled':>10s} {'speedup':>8s}")
    for label, t_pure, t_fast in rows:
        if t_fast is None:
            print(f"{label:42s} {t_pure * 1e3:9.2f}ms {'-':>10s} {'-':>8s}")
        else:
            print(f"{label:42s} {t_pure * 1e3:9.2f}ms {t_fast * 1e3:9.2f}ms "
                  f"{t_pure / t_fast:7.1f}x")

    print()
    t_pure = bench_end_to_end("pure")
    line = f"{'check --all --max-n 4 --trials 5':42s} {t_pure:9.2f}s "
    if compiled is not None:
        t_fast = bench_end_to_end("compiled")
        line += f"{t_fast:9.2f}s {t_pure / t_fast:7.1f}x"
    print(line)


if __name__ == "__main__":
    main()
