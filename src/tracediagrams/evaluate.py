"""Two independent evaluators from diagrams to exact tensors.

eval_layered folds the slices of a layered diagram bottom to top, applying
each piece's elementary map to a running state tensor.  eval_contraction
works on the graph form: it assigns an index variable to every edge end,
with a matrix factor per labeled edge and a Levi-Civita factor per vertex,
and sums the internal variables out of those factors one at a time.  The
two paths share no semantic code, which is what makes eval_checked a
meaningful cross-check.

Both evaluators return an EvalResult wrapping the tensor together with the
number of multiply-accumulate terms and the wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import lcm

from . import kernels
from .diagrams import (COVECTOR, Cap, Cross, Cup, Diagram, GInput, GNode,
                       GOutput, Id, LayeredDiagram, Mat, NVertex, Perm,
                       piece_arity, piece_polarities, to_graph,
                       validate_graph, validate_layered)
from .linalg import Matrix, Rat, levi_civita
from .tensor import Tensor


@dataclass
class EvalResult:
    tensor: Tensor
    term_count: int
    elapsed: float


class CrossCheckMismatch(Exception):
    """The two evaluators disagreed: an engine bug or a convention
    inconsistency, never a user error."""

    def __init__(self, outs, ins, layered_value, contraction_value):
        self.outs = outs
        self.ins = ins
        self.layered_value = layered_value
        self.contraction_value = contraction_value
        super().__init__(
            f"evaluators disagree at entry outs={outs} ins={ins}: "
            f"layered={layered_value} contraction={contraction_value}")


Bindings = dict  # matrix name -> Matrix


def check_bindings(names, n: int, bindings: Bindings):
    for name in sorted(names):
        if name not in bindings:
            raise ValueError(f"unbound matrix name {name!r}")
        if bindings[name].n != n:
            raise ValueError(
                f"matrix {name!r} has dimension {bindings[name].n}, "
                f"diagram has {n}")


# -- Layered evaluator ------------------------------------------------------

_vertex_tensor_cache: dict[tuple, Tensor] = {}


def _vertex_tensor(n: int, in_count: int, ciliation) -> Tensor:
    key = (n, in_count, tuple(ciliation))
    cached = _vertex_tensor_cache.get(key)
    if cached is not None:
        return cached

    # Only the n! assignments of distinct digits are nonzero.  Slots 1..j
    # are the bottom (inputs), j+1..n the top (outputs); the flat layout is
    # outputs then inputs, so each ciliation position gets its slot's stride.
    layout = list(range(in_count + 1, n + 1)) + list(range(1, in_count + 1))
    stride = {s: n ** (n - 1 - axis) for axis, s in enumerate(layout)}
    weights = [stride[s] for s in ciliation]
    entries = [0] * n ** n
    for digits in permutations(range(1, n + 1)):
        idx = sum((d - 1) * w for d, w in zip(digits, weights))
        entries[idx] = levi_civita(digits)

    t = Tensor(n, n - in_count, in_count, entries)
    _vertex_tensor_cache[key] = t
    return t


def _mat_tensor(piece: Mat, polarity: str, bindings: Bindings,
                n: int) -> Tensor:
    m = bindings[piece.name]
    # Upward action on the wire: a label along a vector wire's (upward)
    # orientation acts as A; along a covector wire's (downward) orientation
    # it acts upward as A^T.  The against flag swaps either case.
    if (polarity == COVECTOR) != bool(piece.against_orientation):
        m = m.transpose()
    return Tensor.from_matrix(m)


def eval_layered(d: LayeredDiagram, bindings: Bindings, *,
                 validated: bool = False) -> EvalResult:
    """validated=True skips validating d, which the caller has done."""
    start = time.perf_counter()
    if not validated:
        errors = validate_layered(d)
        if errors:
            raise ValueError("invalid diagram: " + "; ".join(errors))
    check_bindings(d.matrix_names(), d.n, bindings)

    n = d.n
    k = len(d.inputs)
    state = Tensor.identity(n, k)
    polarities = list(d.inputs)
    terms = 0

    for layer in d.layers:
        pos_old = 0          # position in the pre-slice wire profile
        offset = 0           # position in the partially rebuilt profile
        new_polarities = []
        for piece in layer:
            j_in, j_out = piece_arity(piece, n)
            ins_pol = tuple(polarities[pos_old:pos_old + j_in])
            match piece:
                case Id():
                    pass
                case Cross():
                    state = _permute_out_axes(state, offset, (2, 1))
                case Perm(images=images):
                    state = _permute_out_axes(state, offset, images)
                case Cup():
                    state, t = _apply_piece(state, _cup_tensor(n), offset)
                    terms += t
                case Cap():
                    state, t = _apply_piece(state, _cap_tensor(n), offset)
                    terms += t
                case Mat():
                    piece_t = _mat_tensor(piece, ins_pol[0], bindings, n)
                    state, t = _apply_piece(state, piece_t, offset)
                    terms += t
                case NVertex(in_count=j, ciliation=cil):
                    state, t = _apply_piece(state, _vertex_tensor(n, j, cil),
                                            offset)
                    terms += t
                case _:
                    raise TypeError(f"unknown piece: {piece!r}")
            new_polarities.extend(piece_polarities(piece, n, ins_pol))
            pos_old += j_in
            offset += j_out
        polarities = new_polarities

    return EvalResult(state, terms, time.perf_counter() - start)


def _cup_tensor(n: int) -> Tensor:
    return Tensor.from_function(n, 2, 0,
                                lambda outs, ins: int(outs[0] == outs[1]))


def _cap_tensor(n: int) -> Tensor:
    return Tensor.from_function(n, 0, 2,
                                lambda outs, ins: int(ins[0] == ins[1]))


def _apply_piece(state: Tensor, piece: Tensor, offset: int):
    """Contract piece's inputs with state's output axes [offset, offset+j);
    piece outputs splice in at the same position."""
    n = state.n
    j_in, j_out = piece.in_arity, piece.out_arity
    pairs = [(j_out + i, offset + i) for i in range(j_in)]
    vals, terms = kernels.pair_contract(
        n, piece.entries, piece.arity, state.entries, state.arity, pairs)
    # raw layout: piece outs, state outs before, state outs after, state ins
    new_out = state.out_arity - j_in + j_out
    total = new_out + state.in_arity
    perm = []
    for r in range(total):
        if r < offset:
            perm.append(j_out + r)
        elif r < offset + j_out:
            perm.append(r - offset)
        else:
            perm.append(r)
    if perm != list(range(total)):
        vals = kernels.permute_axes(n, vals, total, perm)
    return Tensor(n, new_out, state.in_arity, vals), terms


def _permute_out_axes(state: Tensor, offset: int, images) -> Tensor:
    perm = list(range(state.arity))
    for s, target in enumerate(images):
        perm[offset + target - 1] = offset + s
    return state.permuted_axes(perm)


# -- Contraction evaluator ---------------------------------------------------

def _cumulative_matrix(labels, bindings: Bindings, n: int) -> Matrix:
    m = Matrix.identity(n)
    for name, transposed in labels:
        lab = bindings[name]
        if transposed:
            lab = lab.transpose()
        m = lab @ m
    return m


def _scaled_int_matrix(m: Matrix) -> tuple[list, int]:
    """Clear denominators: flat integer entries plus the common denominator."""
    denom = reduce(lcm, (x.denominator if isinstance(x, Fraction) else 1
                         for row in m.rows for x in row), 1)
    flat = [int(x * denom) for row in m.rows for x in row]
    return flat, denom


def eval_contraction(d: Diagram, bindings: Bindings,
                     probe: tuple | None = None, *,
                     validated: bool = False) -> EvalResult:
    """Contract the diagram's factors over index variables on edge ends.

    Every boundary position gets a variable; unlabeled edges share one
    variable across both ends, labeled edges couple two variables through
    their cumulative matrix, and each vertex contributes the Levi-Civita
    sign of its ciliation-ordered end variables.  kernels.epsilon_network
    sums the internal variables out by sparse variable elimination.

    probe=(outs, ins) restricts evaluation to a single entry (returned as a
    (0,0)-tensor); both tuples are 1-based.  validated=True skips
    validating d, for a graph that to_graph has just built and checked.
    """
    start = time.perf_counter()
    if not validated:
        problems = validate_graph(d)
        if problems:
            raise ValueError("invalid graph: " + "; ".join(problems))
    check_bindings(d.matrix_names(), d.n, bindings)

    n = d.n
    out_count = d.output_count()
    in_count = d.input_count()

    # boundary variables: outputs by position, then inputs by position
    boundary_var: dict[int, int] = {}
    for vid, v in enumerate(d.vertices):
        if isinstance(v, GOutput):
            boundary_var[vid] = v.position - 1
        elif isinstance(v, GInput):
            boundary_var[vid] = out_count + v.position - 1
    nvars = out_count + in_count

    end_var: dict[tuple[int, str], int] = {}
    for eid, e in d.edges.items():
        for end_name, attach in (("tail", e.tail), ("head", e.head)):
            if attach is not None and attach[0] == "vertex" and \
                    attach[1] in boundary_var:
                end_var[(eid, end_name)] = boundary_var[attach[1]]

    eps_factors: list[tuple[int, ...]] = []
    delta_factors: list[tuple[int, int]] = []
    mat_factors: list[tuple[int, int, list]] = []
    divisor = 1

    def fresh() -> int:
        nonlocal nvars
        nvars += 1
        return nvars - 1

    for eid, e in d.edges.items():
        is_loop = e.tail is not None and e.tail[0] == "loop"
        if is_loop:
            v = fresh()
            if e.labels:
                flat, denom = _scaled_int_matrix(
                    _cumulative_matrix(e.labels, bindings, n))
                mat_factors.append((v, v, flat))
                divisor *= denom
            # unlabeled loop: a free variable contributes the factor n
            continue
        tv = end_var.get((eid, "tail"))
        hv = end_var.get((eid, "head"))
        if e.labels:
            if tv is None:
                tv = end_var[(eid, "tail")] = fresh()
            if hv is None:
                hv = end_var[(eid, "head")] = fresh()
            flat, denom = _scaled_int_matrix(
                _cumulative_matrix(e.labels, bindings, n))
            mat_factors.append((hv, tv, flat))
            divisor *= denom
        else:
            if tv is None and hv is None:
                tv = hv = fresh()
                end_var[(eid, "tail")] = end_var[(eid, "head")] = tv
            elif tv is None:
                end_var[(eid, "tail")] = tv = hv
            elif hv is None:
                end_var[(eid, "head")] = hv = tv
            elif tv != hv:
                delta_factors.append((tv, hv))

    for v in d.vertices:
        if isinstance(v, GNode):
            eps_factors.append(tuple(end_var[ref] for ref in v.ciliation))

    if probe is None:
        out_vars = list(range(out_count + in_count))
        fixed: list[tuple[int, int]] = []
    else:
        outs, ins = probe
        if len(outs) != out_count or len(ins) != in_count:
            raise ValueError("probe arity mismatch")
        out_vars = []
        fixed = [(pos, idx - 1) for pos, idx in enumerate(tuple(outs)
                                                          + tuple(ins))]

    vals, terms = kernels.epsilon_network(
        n, nvars, out_vars, fixed, eps_factors, delta_factors, mat_factors)

    if divisor != 1:
        vals = [_tidy(Fraction(v, divisor)) for v in vals]
    if probe is None:
        tensor = Tensor(n, out_count, in_count, vals)
    else:
        tensor = Tensor(n, 0, 0, vals)
    return EvalResult(tensor, terms, time.perf_counter() - start)


def _tidy(x: Fraction) -> Rat:
    return int(x) if x.denominator == 1 else x


# -- Cross-check and comparison utilities ----------------------------------

def eval_checked(d: LayeredDiagram, bindings: Bindings) -> Tensor:
    """Run both evaluators and insist on exact entrywise equality.

    Each form is validated once: to_graph validates d and checks the graph
    it builds, so neither evaluator validates again."""
    graph = to_graph(d)
    layered = eval_layered(d, bindings, validated=True).tensor
    contraction = eval_contraction(graph, bindings, validated=True).tensor
    diff = layered.first_difference(contraction)
    if diff is not None:
        raise CrossCheckMismatch(*diff)
    return layered


@dataclass
class Proportionality:
    """Outcome of a proportionality test between two same-shape tensors."""
    kind: str                  # proportional | both_zero | left_zero |
    #                            right_zero | not_proportional
    ratio: Fraction | None = None

    def __bool__(self):
        return self.kind in ("proportional", "both_zero")


def tensors_proportional(a: Tensor, b: Tensor) -> Proportionality:
    """Exact ratio lambda with a = lambda * b, if one exists."""
    if (a.n, a.out_arity, a.in_arity) != (b.n, b.out_arity, b.in_arity):
        raise ValueError("tensor shape mismatch")
    a_zero, b_zero = a.is_zero(), b.is_zero()
    if a_zero and b_zero:
        return Proportionality("both_zero")
    if a_zero:
        return Proportionality("left_zero")
    if b_zero:
        return Proportionality("right_zero")
    ratio = None
    for x, y in zip(a.entries, b.entries):
        if y != 0:
            ratio = Fraction(x, 1) / Fraction(y, 1)
            break
    for x, y in zip(a.entries, b.entries):
        if Fraction(x, 1) != ratio * y:
            return Proportionality("not_proportional")
    return Proportionality("proportional", ratio)
