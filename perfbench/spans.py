"""Spans around calls into tracediagrams' layers, recorded from outside it.

Modules import functions by name (evaluate binds to_graph, identities binds
eval_layered), so a call goes through the caller's own binding.  Patch
therefore rebinds a function in every tracediagrams module that holds it;
the kernels are rebound on tracediagrams.kernels, because evaluate and
tensor call through kernels.<fn>.  Spans stay in memory until the pass is
folded into per-layer totals.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict

PACKAGE_MODULES = ("tracediagrams", "tracediagrams.cli",
                   "tracediagrams.identities", "tracediagrams.evaluate",
                   "tracediagrams.kernels", "tracediagrams.tensor",
                   "tracediagrams.diagrams", "tracediagrams.builders",
                   "tracediagrams.linalg", "tracediagrams.fuzz")

# (module, function, span name).  Functions called once per tensor entry
# (levi_civita, rat, piece_arity) are left out: a span would cost more than
# the work it measures.
TRACED_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("identities", "run_check", "identities.run_check"),
    ("evaluate", "eval_layered", "evaluate.eval_layered"),
    ("evaluate", "eval_contraction", "evaluate.eval_contraction"),
    ("evaluate", "eval_checked", "evaluate.eval_checked"),
    ("kernels", "pair_contract", "kernels.pair_contract"),
    ("kernels", "permute_axes", "kernels.permute_axes"),
    ("kernels", "epsilon_network", "kernels.epsilon_network"),
    ("diagrams", "to_graph", "diagrams.to_graph"),
    ("diagrams", "validate_layered", "diagrams.validate"),
    ("diagrams", "validate_graph", "diagrams.validate"),
    ("linalg", "det_oracle", "linalg.oracles"),
    ("linalg", "adjugate_oracle", "linalg.oracles"),
    ("linalg", "charpoly_oracle", "linalg.oracles"),
    ("linalg", "solve_oracle", "linalg.oracles"),
)

# (module, class, attribute, span name)
TRACED_METHODS = (
    ("tensor", "Tensor", "identity", "tensor.identity"),
    ("tensor", "Tensor", "__add__", "tensor.arith"),
    ("tensor", "Tensor", "__sub__", "tensor.arith"),
    ("tensor", "Tensor", "__neg__", "tensor.arith"),
    ("tensor", "Tensor", "scale", "tensor.arith"),
    ("linalg", "Matrix", "__matmul__", "linalg.matmul"),
)


def package_module(short: str):
    return importlib.import_module(f"tracediagrams.{short}")


# Work counters read off a call's arguments and result.
COUNTERS = {
    # pair_contract(n, a_vals, a_naxes, b_vals, b_naxes, pairs): every
    # combination of free and summed digits is one dense multiply slot
    "kernels.pair_contract": lambda a, r: {
        "terms": r[1], "slots": a[0] ** (a[2] + a[4] - len(a[5]))},
    # permute_axes(n, vals, naxes, perm) moves every entry
    "kernels.permute_axes": lambda a, r: {"entries": a[0] ** a[2]},
    "kernels.epsilon_network": lambda a, r: {"terms": r[1]},
    # Tensor.identity(cls, n, wires) allocates n^(2 wires) entries
    "tensor.identity": lambda a, r: {"entries": a[1] ** (2 * a[2])},
    "evaluate.eval_layered": lambda a, r: {"terms": r.term_count},
    "evaluate.eval_contraction": lambda a, r: {"terms": r.term_count},
}


class Patch:
    """Rebinds names in the package and puts the originals back."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement):
        """Replace every module-level binding of original in the package."""
        for name in PACKAGE_MODULES:
            module = importlib.import_module(name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((setattr, module, attr, value))
                    setattr(module, attr, replacement)

    def set_class_attr(self, cls, attr, value):
        self._undo.append((setattr, cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        while self._undo:
            setter, owner, key, value = self._undo.pop()
            setter(owner, key, value)


class Tracer:
    """Records one span per call of each traced function.

    A span is [name, start, end, parent index, nested, counts]; nested is
    true when a span of the same name is already open, so busy time counts
    recursive and grouped calls once.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patch = Patch()

    def wrap(self, name: str, fn, counter=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    open_names[name] > 0, None]
            spans.append(span)
            stack.append(index)
            open_names[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                open_names[name] -= 1
            if counter is not None:
                span[5] = counter(args, result)
            return result
        return traced

    def install(self):
        from tracediagrams import identities

        for short, attr, name in TRACED_FUNCTIONS:
            original = getattr(package_module(short), attr)
            self._patch.rebind(original,
                               self.wrap(name, original, COUNTERS.get(name)))
        builders = package_module("builders")
        for attr, original in list(vars(builders).items()):
            public_function = (
                callable(original) and not attr.startswith("_")
                and not isinstance(original, type)
                and getattr(original, "__module__", None) == builders.__name__)
            if public_function:
                self._patch.rebind(original, self.wrap("builders", original))
        for short, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(package_module(short), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self.wrap(name, raw.__func__, COUNTERS.get(name)))
            else:
                wrapped = self.wrap(name, raw, COUNTERS.get(name))
            self._patch.set_class_attr(cls, attr, wrapped)
        for check_id, check in list(identities.REGISTRY.items()):
            procedure = self.wrap(f"identities.check.{check_id}",
                                  check.procedure)
            self._patch.set_item(identities.REGISTRY, check_id,
                                 dataclasses.replace(check,
                                                     procedure=procedure))

    def uninstall(self):
        self._patch.restore()

    def reset(self):
        self.spans.clear()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [span[2] - span[1] - covered(children.get(i, ()), span[1], span[2])
            for i, span in enumerate(spans)]


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (outermost spans of the name), self_s
    and the summed counters."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, nested, counts = span
        row = totals[name]
        row["calls"] += 1
        row["self_s"] += own
        if not nested:
            row["busy_s"] += end - start
        for key, value in (counts or {}).items():
            row[key] += value
    return totals
