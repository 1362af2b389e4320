"""Two independent evaluators from diagrams to exact sparse tensors.

eval_layered folds the slices of a layered diagram bottom to top over a
sparse state, a dict from flat index to nonzero value that starts as the
identity on the inputs, or on the given input columns only.  A crossing
or permutation moves each key to the key with its digits relabelled,
forming no product.  A matrix label reads the state by context (a key
without the labeled wire's digit): it scatters each nonzero through the
matrix column its digit selects or, on large states whose contexts are
mostly full, forms each output digit as one dot product of a matrix row
with each context's values.  Every other piece is a table from its input
block to its nonzero (output block, coefficient) pairs, applied to the
state's nonzeros only.  The final state is the result's nonzeros.
eval_contraction works on the graph form: it assigns one index variable to
each unlabeled edge and one to each end of a labeled edge, with a
Levi-Civita factor per vertex and an integer matrix factor per labeled
edge, and sums the internal variables out of those
factors one at a time.  Each bound matrix is read
once per call as integers over the lcm of its denominators, and an edge's
factor is the integer product of its labels over the product of their
denominators; the common divisor is applied to the result's nonzeros at
the end.  The two paths share no semantic code, which is what makes
eval_checked a meaningful cross-check.

Both evaluators return an EvalResult wrapping the tensor together with the
number of multiply-accumulate terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations, repeat
from math import lcm
from operator import mul

from . import kernels
from .diagrams import (COVECTOR, Cap, Cross, Cup, Diagram, GInput, GNode,
                       GOutput, Id, LayeredDiagram, Mat, NVertex, Perm,
                       piece_step, to_graph, validate_graph, validate_layered)
from .linalg import Rat
from .tensor import Tensor


@dataclass
class EvalResult:
    tensor: Tensor
    term_count: int


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
#
# The state is sparse: a dict from the flat row-major index of an entry
# (output axes, then input axes) to its nonzero value.  Cross and Perm are
# key maps: _relabel moves every key by the sum of two shift-table lookups,
# one per half of the moved digits, so their tables have n^ceil(m/2)
# entries for m wires whatever the state's size.  _apply_mat applies a Mat
# from the matrix bound to its name.  Every other piece but Id is a table
# from the flat index of its input block to the list of (output block
# index, nonzero coefficient) it maps that block to, and _apply multiplies
# it into the state.

# (n, the piece's table fields) -> table or shift tables, for every piece
# but Id and Mat
_piece_table_cache: dict[tuple, dict | tuple] = {}


def _lexicographic_signs(n: int) -> list:
    """The signs of the permutations of range(n) in the lexicographic order
    of itertools.permutations.  A permutation that starts with the f-th
    smallest digit is f transpositions away from the one that starts with
    the smallest, followed by its rest in the same order, so the signs of
    m digits are those of m - 1 repeated m times, negated for odd f."""
    signs = [1]
    for m in range(2, n + 1):
        signs = [-x if f & 1 else x for f in range(m) for x in signs]
    return signs


def _vertex_table(n: int, in_count: int, ciliation) -> dict:
    """The n! nonzeros of a vertex piece, keyed by input block: the ε sign
    of the slots' digits read in ciliation order.  Slots 1..j are the
    bottom (the input block), j+1..n the top (the output block), so the
    digit of slot s has weight n^(n-s) in the key of both blocks together,
    whose high part is the input block."""
    weights = [n ** (n - s) for s in ciliation]
    out_span = n ** (n - in_count)
    table: dict[int, list] = {}
    for digits, sign in zip(permutations(range(n)),
                            _lexicographic_signs(n)):
        block, out = divmod(sum(map(mul, digits, weights)), out_span)
        table.setdefault(block, []).append((out, sign))
    return table


def _perm_shifts(n: int, images) -> tuple[list, list]:
    """The digit relabelling of a permutation piece as two shift tables:
    the wire at position s moves to images[s-1], and so does its digit,
    which moves the block index by d * (n^(m-images[s-1]) - n^(m-s)).
    The shifts of the first ceil(m/2) positions (the high half of the
    block) and of the rest (the low half) are tabulated apart, each by its
    half's digits in row-major order, so a block moves by one lookup in
    each."""
    m = len(images)
    moves = list(enumerate(images, 1))
    halves = []
    for part in (moves[:(m + 1) // 2], moves[(m + 1) // 2:]):
        shifts = [0]
        for s, t in part:
            w = n ** (m - t) - n ** (m - s)
            shifts = [o + d * w for o in shifts for d in range(n)]
        halves.append(shifts)
    return tuple(halves)


def _piece_table(piece, n: int) -> dict | tuple:
    """The table, or for Cross and Perm the shift tables, of a piece other
    than Id and Mat, cached by n and the fields the table depends on."""
    kind = type(piece)
    if kind is NVertex:
        key = (n, piece.in_count, piece.ciliation)
    elif kind is Perm:
        key = (n, piece.images)
    elif kind is Cross:
        key = (n, (2, 1))
    else:
        key = (n, kind)
    table = _piece_table_cache.get(key)
    if table is None:
        match piece:
            case Cross():
                table = _perm_shifts(n, (2, 1))
            case Perm(images=images):
                table = _perm_shifts(n, images)
            case Cup():
                table = {0: [(d * (n + 1), 1) for d in range(n)]}
            case Cap():
                table = {d * (n + 1): [(0, 1)] for d in range(n)}
            case NVertex(in_count=j, ciliation=cil):
                table = _vertex_table(n, j, cil)
            case _:
                raise TypeError(f"unknown piece: {piece!r}")
        _piece_table_cache[key] = table
    return table


def _apply_mat(state: dict, n: int, arity: int, offset: int, piece: Mat,
               polarity: str, bindings: Bindings) -> tuple[dict, int]:
    """Apply a Mat piece to the state's axis at offset.  Returns the new
    state, zeros dropped, and the number of products: one per pair of a
    state nonzero and a nonzero coefficient in the column its digit
    selects, whichever way the pass takes.

    A label along a vector wire's (upward) orientation acts upward as the
    bound matrix A; along a covector wire's (downward) orientation it acts
    upward as A^T.  The against flag swaps either case."""
    rows = bindings[piece.name].rows
    if (polarity == COVECTOR) != bool(piece.against_orientation):
        rows = tuple(zip(*rows))
    low = n ** (arity - offset - 1)
    if _mostly_full(state, n, low):
        return _dense_mat(state, n, low, rows)
    return _scatter_mat(state, n, low, rows)


def _scatter_mat(state: dict, n: int, low: int, rows) -> tuple[dict, int]:
    """_apply_mat's usual way: each nonzero goes through the column of rows
    its digit (of weight low) selects, one product and one store each."""
    # cols[j]: (key shift, coefficient) of each nonzero in column j; moving
    # digit j to i shifts a key by (i - j) * low
    cols = [[((i - j) * low, x) for i, row in enumerate(rows)
             if (x := row[j])] for j in range(n)]
    out: dict = {}
    get = out.get
    terms = 0
    for key, val in state.items():
        col = cols[key // low % n]
        terms += len(col)
        for shift, c in col:
            k = key + shift
            out[k] = get(k, 0) + val * c
    if len(out) == terms:       # each product has a key of its own
        return out, terms
    return _without_zeros(out), terms


def _dense_mat(state: dict, n: int, low: int, rows) -> tuple[dict, int]:
    """_apply_mat's dense way: output digit i of a context is the dot
    product of row i with the context's n values, zeros included, formed
    for all contexts at once one column of products at a time.  Zero
    values are multiplied but not counted as terms."""
    # each key with its digit of weight low zeroed, once, in first-seen order
    ctxs = list(dict.fromkeys(key - key // low % n * low for key in state))
    # by_digit[j][c]: the value at digit j of context ctxs[c], or 0
    by_digit = [list(map(state.get, [c + j * low for c in ctxs], repeat(0)))
                for j in range(n)]
    terms = sum((len(ctxs) - vals.count(0)) * (n - col.count(0))
                for vals, col in zip(by_digit, zip(*rows)))
    out: dict = {}
    for i, row in enumerate(rows):
        products = [map(mul, vals, repeat(x))
                    for vals, x in zip(by_digit, row) if x]
        if products:
            out.update(zip([c + i * low for c in ctxs],
                           map(sum, zip(*products))))
    return _without_zeros(out), terms


def _mostly_full(state: dict, n: int, low: int) -> bool:
    """The fixed rule that sends a Mat pass the dense way: n >= 5, at least
    n^4 nonzeros, and the contexts of 16 nonzeros taken at even steps
    through the state hold at least three quarters of their n slots on
    average.  The dense way wins only there (BENCH_18.json, mat_passes);
    sampling costs a few lookups, where counting every context would cost
    as much as the gain."""
    if n < 5 or len(state) < n ** 4:
        return False
    shifts = [j * low for j in range(n)]
    sampled = found = 0
    for key in islice(state, 0, None, len(state) // 16):
        ctx = key - key // low % n * low
        sampled += 1
        found += sum(ctx + s in state for s in shifts)
    return 4 * found >= 3 * n * sampled


def _without_zeros(out: dict) -> dict:
    """out, or when sums in it cancelled, a copy without its zeros."""
    if 0 in out.values():
        return {k: v for k, v in out.items() if v}
    return out


def _apply(state: dict, n: int, arity: int, offset: int, j_in: int,
           j_out: int, table: dict) -> tuple[dict, int]:
    """Apply a piece table to the state's axes [offset, offset + j_in); the
    piece's j_out axes take their place.  Returns the new state, zeros
    dropped, and the number of products formed."""
    low_size = n ** (arity - offset - j_in)
    span = n ** j_in * low_size
    out_span = n ** j_out * low_size
    out: dict = {}
    get = out.get
    terms = 0
    for key, val in state.items():
        high, rest = divmod(key, span)
        block, low = divmod(rest, low_size)
        row = table.get(block)
        if row:
            terms += len(row)
            base = high * out_span + low
            for ob, c in row:
                k = base + ob * low_size
                out[k] = get(k, 0) + val * c
    if len(out) == terms:       # each product has a key of its own
        return out, terms
    return _without_zeros(out), terms


def _relabel(state: dict, n: int, arity: int, offset: int, m: int,
             shifts: tuple[list, list]) -> dict:
    """Permute the state's axes [offset, offset + m) by a piece's
    _perm_shifts.  The map is a bijection on keys, so values are copied:
    no product is formed and no zero is made."""
    high, low = shifts
    low_size = n ** (arity - offset - m)
    low_count = len(low)
    high_size = low_size * low_count
    high_count = len(high)
    return {key + (high[key // high_size % high_count]
                   + low[key // low_size % low_count]) * low_size: val
            for key, val in state.items()}


def eval_layered(d: LayeredDiagram, bindings: Bindings, *,
                 columns=None, validated: bool = False) -> EvalResult:
    """Fold the slices of d over a sparse state, starting from the identity
    on its inputs.  terms counts one product per (state nonzero, table
    coefficient) pair; relabelling by Cross and Perm counts none.

    columns, an iterable of flat 0-based input indices (row-major over the
    k inputs, the input half of a nonzeros key), starts the fold from the
    identity on those columns only: the result keeps the full shape, equals
    the full evaluation on those columns and is zero on every other.
    validated=True skips validating d, which the caller has done."""
    if not validated:
        errors = validate_layered(d)
        if errors:
            raise ValueError("invalid diagram: " + "; ".join(errors))
    check_bindings(d.matrix_names(), d.n, bindings)

    n = d.n
    k = len(d.inputs)
    size = n ** k
    if columns is None:
        state = {i * (size + 1): 1 for i in range(size)}
    else:
        state = {}
        for c in columns:
            if not 0 <= c < size:
                raise ValueError(f"input column {c} is outside "
                                 f"range({size})")
            state[c * (size + 1)] = 1
    arity = 2 * k
    polarities = list(d.inputs)
    terms = 0

    for layer in d.layers:
        pos_old = 0          # position in the pre-slice wire profile
        offset = 0           # position in the partially rebuilt profile
        new_polarities = []
        for piece in layer:
            kind = type(piece)
            if kind is Id:
                new_polarities.append(polarities[pos_old])
                pos_old += 1
                offset += 1
                continue
            j_in, j_out, outs, _ = piece_step(piece, n, polarities, pos_old,
                                              check=False)
            if kind is Cross or kind is Perm:
                state = _relabel(state, n, arity, offset, j_in,
                                 _piece_table(piece, n))
            else:
                if kind is Mat:
                    state, t = _apply_mat(state, n, arity, offset, piece,
                                          polarities[pos_old], bindings)
                else:
                    state, t = _apply(state, n, arity, offset, j_in, j_out,
                                      _piece_table(piece, n))
                terms += t
                arity += j_out - j_in
            new_polarities.extend(outs)
            pos_old += j_in
            offset += j_out
        polarities = new_polarities

    return EvalResult(Tensor._owning(n, arity - k, k, state), terms)


# -- Contraction evaluator ---------------------------------------------------

def _int_label(rows, transposed) -> tuple[list, int]:
    """A bound matrix's rows, transposed if the label says so, as flat
    row-major integers over the lcm of their denominators."""
    if transposed:
        rows = zip(*rows)
    flat = [x for row in rows for x in row]
    denom = lcm(*[x.denominator for x in flat])
    if denom == 1:
        return [x.numerator for x in flat], 1
    return [x.numerator * (denom // x.denominator) for x in flat], denom


def _int_matmul(b: list, a: list, n: int) -> list:
    """The flat row-major product b @ a of two flat n x n integer matrices."""
    cols = [a[j::n] for j in range(n)]
    return [sum(map(mul, b[i:i + n], col))
            for i in range(0, n * n, n) for col in cols]


def _edge_factor(labels, bindings: Bindings, n: int,
                 memo: dict) -> tuple[list, int]:
    """The integer factor of a labeled edge: the product of its labels,
    the label nearest the tail applied first, over the product of their
    denominators.  memo holds the factors already built in this call, by
    (name, transposed) label and by whole labels tuple."""
    factor = memo.get(labels)
    if factor is None:
        for label in labels:
            lab = memo.get(label)
            if lab is None:
                name, transposed = label
                lab = memo[label] = _int_label(bindings[name].rows,
                                               transposed)
            factor = lab if factor is None else (
                _int_matmul(lab[0], factor[0], n), lab[1] * factor[1])
        memo[labels] = factor
    return factor


def eval_contraction(d: Diagram, bindings: Bindings,
                     probe: tuple | None = None, *,
                     validated: bool = False) -> EvalResult:
    """Contract the diagram's factors over index variables on edge ends.

    Unlabeled edges share one variable across both ends; labeled edges
    couple two variables, one per end (one for a labeled loop), through
    the integer product of their labels; and each vertex contributes the
    Levi-Civita sign of its ciliation-ordered end variables.  Each
    boundary position reads the variable of its edge's end, so a straight
    wire or a cup's two outputs read one variable twice and form no
    product.  kernels.epsilon_network sums the internal variables out by
    sparse variable elimination.

    probe=(outs, ins) restricts evaluation to a single entry (returned as a
    (0,0)-tensor); both tuples are 1-based.  validated=True skips
    validating d, for a graph that to_graph has just built and checked.
    """
    if not validated:
        problems = validate_graph(d)
        if problems:
            raise ValueError("invalid graph: " + "; ".join(problems))
    check_bindings(d.matrix_names(), d.n, bindings)

    n = d.n
    outputs: dict[int, int] = {}       # position -> boundary vertex id
    inputs: dict[int, int] = {}
    nodes = []
    for vid, v in enumerate(d.vertices):
        kind = type(v)
        if kind is GOutput:
            outputs[v.position] = vid
        elif kind is GInput:
            inputs[v.position] = vid
        elif kind is GNode:
            nodes.append(v)

    # the variable at each end of each edge, by edge id, numbered in one
    # pass (an unlabeled loop's variable is in no factor: a factor n);
    # vertex_var: the variable at each boundary vertex (entries of nodes
    # are overwritten and never read)
    end_var: dict[str, dict[int, int]] = {"tail": {}, "head": {}}
    tail_var, head_var = end_var["tail"], end_var["head"]
    vertex_var: dict[int, int] = {}
    mat_factors: list[tuple[int, int, list]] = []
    chains: dict = {}       # _edge_factor's memo, for this call only
    divisor = 1
    nvars = 0
    for eid, e in d.edges.items():
        tv = hv = nvars
        nvars += 1
        if e.labels:
            if e.tail[0] != "loop":
                hv = nvars
                nvars += 1
            flat, denom = _edge_factor(e.labels, bindings, n, chains)
            mat_factors.append((hv, tv, flat))
            divisor *= denom
        if e.tail[0] != "loop":
            vertex_var[e.tail[1]] = tv
            vertex_var[e.head[1]] = hv
        tail_var[eid] = tv
        head_var[eid] = hv

    eps_factors = [tuple([end_var[end][eid] for eid, end in v.ciliation])
                   for v in nodes]
    # outputs by position, then inputs by position; an unlabeled edge
    # between two boundary vertices puts its variable here twice
    boundary = [vertex_var[outputs[p]] for p in range(1, len(outputs) + 1)]
    boundary += [vertex_var[inputs[p]] for p in range(1, len(inputs) + 1)]
    out_count = len(outputs)
    in_count = len(inputs)

    if probe is None:
        out_vars = boundary
        fixed: list[tuple[int, int]] = []
    else:
        outs, ins = probe
        if len(outs) != out_count or len(ins) != in_count:
            raise ValueError("probe arity mismatch")
        indices = tuple(outs) + tuple(ins)
        if not all(1 <= idx <= n for idx in indices):
            raise ValueError(f"probe index out of range 1..{n}")
        out_vars = []
        fixed = [(v, idx - 1) for v, idx in zip(boundary, indices)]

    nonzeros, terms = kernels.epsilon_network(
        n, nvars, out_vars, fixed, eps_factors, mat_factors)

    if divisor != 1:
        nonzeros = {i: _divided(v, divisor) for i, v in nonzeros.items()}
    if probe is None:
        tensor = Tensor._owning(n, out_count, in_count, nonzeros)
    else:
        tensor = Tensor._owning(n, 0, 0, nonzeros)
    return EvalResult(tensor, terms)


def _divided(v: int, divisor: int) -> Rat:
    """v / divisor, as an int when it divides exactly."""
    q, r = divmod(v, divisor)
    return Fraction(v, divisor) if r else q


# -- Cross-check ------------------------------------------------------------

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

