"""Two independent evaluators from diagrams to exact sparse tensors.

eval_layered folds the slices of a layered diagram bottom to top over a
sparse state, a dict from flat index to nonzero value that starts as the
identity on the inputs, or on the given input columns only.  One walk
over the slices writes the state passes, which the fold then runs.  A
crossing or permutation moves each key to the key with its digits
relabelled, forming no product.  A matrix label leaves the state alone:
the labels met along one wire multiply into that wire's pending matrix,
which moves with the wire through crossings and permutations and is
taken in by the piece that ends the wire.  The state may hold runs:
consecutive wires whose digits it holds in increasing order only, each
entry standing for the block antisymmetric in them.  A vertex absorbs
its inputs up to the last labeled one, a pass each, into one run, their
digits in increasing order, each value carrying the sign of the sort:
the Levi-Civita sign is antisymmetric, so its table then applies to the
sorted block, and the state holds one entry per set of absorbed digits
where it held one per order.  The producing side uses the same
antisymmetry: from n = 4, when one later vertex takes all of a vertex's
outputs, in order and through identity wires and labels only, and they
are at least four if labeled, that taker has them written as one run.
It takes such a run at the front of its inputs, with no label on it, as
its sorted prefix; it opens any other one by moving each wire it absorbs
to the front of the run's rest, with the sign of the move; and a run it
does not open is scaled at the end by the number of its orders.  A
vertex's table holds only the blocks whose digits increase within each
run of its input block and of its output block.  A cap takes its two
wires' matrices P and Q as one table, of P^T Q.  At the top boundary
each pending matrix scatters every nonzero through the matrix column its
digit selects.
Every other piece is a table from its input block to its nonzero (output
block, coefficient) pairs, applied to the state's nonzeros only.  The
final state is the result's nonzeros.
eval_contraction works on the graph form: it assigns one index variable to
each unlabeled edge and one to each end of a labeled edge, with a
Levi-Civita factor per vertex and an integer matrix factor per labeled
edge, and sums the internal variables out of those factors one at a time.
Each bound matrix is read once per call as integers over the lcm of its
denominators, and an edge's factor is the integer product of its labels
over the product of their denominators; the common divisor is applied to
the result's nonzeros at the end.  From n = 4, edges may form bundles,
which the path contracts by matrix minors.  Between two vertices, a
bundle is k >= 2 edges with one label word from the same source U to the
same sink V: summed over the orders of its digits at both ends, a
labeled bundle is one factor sgn(pi) k! det M[Y, X] over its head digits
Y and tail digits X, each increasing in its vertex's slot order, and its
vertices' Levi-Civita factors hold only the entries whose digits
increase on the bundle's slots; an unlabeled bundle restricts U's factor
and scales by k!.  And k >= 2 labeled edges with one word at one vertex
whose far ends are all inputs or outputs form a boundary bundle: summed
over the vertex's digits it is det M[Y, X] with Y and X both in the
vertex's slot order and no k!, so its factor holds the boundary digits
increasing only, and the network writes each entry of its result at
every order of them, with the sign of the order.  The minors are
expanded here, along the first row, bottom up over the minors of the
rows after it, by a plan built once per matrix size and minor size; the
Levi-Civita sign of a sorted block here is a table's entry, never an
insertion pass.  The two paths share no semantic code, which is what
makes eval_checked a meaningful cross-check.

Both evaluators return an EvalResult wrapping the tensor together with the
number of multiply-accumulate terms.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import (chain, combinations, compress, count, cycle,
                       repeat)
from math import factorial, lcm
from operator import add, mul

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
# The fold walks the slices once, in _passes, and writes the state passes
# in order; eval_layered then runs them over the sparse state, a dict
# from the flat row-major index of an entry (output axes, then input
# axes) to its nonzero value.  Cross and Perm are key maps: _relabel moves
# every key by the sum of two shift-table lookups, one per half of the
# moved digits, so their tables have n^ceil(m/2) entries for m wires
# whatever the state's size.  A Mat piece forms no pass: _oriented reads
# the rows it applies upward and _fuse multiplies them into its wire's
# pending matrix, which the piece that ends the wire takes in: a vertex
# by _absorb's passes, a cap by one _cap_table, the top boundary by
# _apply_mat.  A run is consecutive wires whose digits the state holds in
# increasing order only, each entry standing for the block antisymmetric
# in them: the prefix of a vertex's inputs that _absorb sorts, or the
# outputs of a vertex written as one run because a later vertex takes
# all of them, having met only Id and Mat; that taker decides it.  A
# vertex's _vertex_table holds the blocks whose digits increase within
# each run of its input block, and of its output block.  Every other
# piece but Id is a table from the flat index of its input block to the
# list of (output block index, nonzero coefficient) it maps that block
# to, and _apply multiplies it into the state.  The tables are built once
# per shape, by builders cached on n and the piece's fields, never on a
# piece instance: a frozen dataclass hashes and compares in Python.


def _run_signs(runs: tuple) -> list:
    """The sign of the order of each of _run_blocks' deals to runs of the
    given sizes, in its order: the first run's digits, at the positions
    picked, each pass the others before them, sum(picked) - C(r, 2) in
    all.  A deal's sign depends on the positions dealt only."""
    if len(runs) < 2:
        return [1]
    r = runs[0]
    tail = _run_signs(runs[1:])
    negated = [-x for x in tail]
    signs = []
    for picked in combinations(range(sum(runs)), r):
        signs += negated if (sum(picked) - r * (r - 1) // 2) & 1 else tail
    return signs


def _run_blocks(digits: tuple, runs: tuple, n: int, memo: dict) -> list:
    """The row-major block of each way to deal the increasing digits out
    to consecutive runs of the given sizes, each run increasing: each
    combination of digits for the first run in turn, before the deals of
    the rest to the other runs.  Runs of one digit each give every order,
    in the order of itertools.permutations.  memo holds the lists already
    built, by digits and runs; one table's build asks for n - 1 or n
    digits once, so those are not kept."""
    if len(runs) < 2:           # one run: the increasing block itself
        return [_block(digits, n)]
    found = memo.get((digits, runs))
    if found is None:
        w = n ** (len(digits) - runs[0])
        found = []
        # the complements of combinations in lexicographic order come in
        # the reverse of their own
        rests = list(combinations(digits, len(digits) - runs[0]))[::-1]
        for head, rest in zip(combinations(digits, runs[0]), rests):
            block = _block(head, n) * w
            found += [block + b
                      for b in _run_blocks(rest, runs[1:], n, memo)]
        if len(digits) < n - 1:
            memo[digits, runs] = found
    return found


@cache
def _vertex_table(n: int, ciliation: tuple, in_runs: tuple,
                  out_runs: tuple) -> dict:
    """The nonzeros of a vertex piece, keyed by input block: the ε sign of
    the slots' digits read in ciliation order.  Slots 1..j are the bottom
    (the input block), j+1..n the top (the output block).  The table
    holds the input blocks whose digits increase within each of in_runs,
    the lengths of the input block's runs, and each row the output blocks
    that do within each of out_runs; runs of one wire keep every block.
    The ciliation changes only the sign, so the ciliations of one parity
    share _parity_table's table."""
    odd = sum(a > b for a, b in combinations(ciliation, 2)) & 1
    return _parity_table(n, odd, in_runs, out_runs)


@cache
def _parity_table(n: int, odd: int, in_runs: tuple, out_runs: tuple) -> dict:
    """_vertex_table for every ciliation of the given parity.  The ε sign
    is the ciliation's times the sign of the digits in slot order, and
    slots holding a j-set S of digits, then the rest, each part
    increasing, have the sign (-1)^(ΣS - C(j,2)): each digit of S is
    greater than ΣS - C(j,2) digits of the rest in all.  Each block's
    order within its runs multiplies that by its own sign (_run_blocks,
    _run_signs)."""
    j = sum(in_runs)
    cil_sign = -1 if odd else 1
    pairs = j * (j - 1) // 2
    in_signs = _run_signs(in_runs)
    out_signs = _run_signs(out_runs)
    memo: dict[tuple, list] = {}
    table = {}
    # each j-set's complement, as in _run_blocks
    rests = list(combinations(range(n), n - j))[::-1]
    for chosen, rest in zip(combinations(range(n), j), rests):
        sign = -cil_sign if (sum(chosen) - pairs) & 1 else cil_sign
        row = [(out, sign * x) for out, x in
               zip(_run_blocks(rest, out_runs, n, memo), out_signs)]
        negated = [(out, -c) for out, c in row]
        for block, x in zip(_run_blocks(chosen, in_runs, n, memo), in_signs):
            table[block] = row if x > 0 else negated
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


@cache
def _piece_table(n: int, kind: type, images: tuple) -> dict | tuple:
    """The table of a Cup or Cap, or the shift tables of a Cross or of a
    Perm whose wire at position s moves to images[s-1]; images is () for
    the others."""
    if kind is Cup:
        return {0: [(d * (n + 1), 1) for d in range(n)]}
    if kind is Cap:
        return {d * (n + 1): [(0, 1)] for d in range(n)}
    return _perm_shifts(n, (2, 1) if kind is Cross else images)


def _block(digits, n: int) -> int:
    """The row-major flat index of a tuple of digits."""
    block = 0
    for d in digits:
        block = block * n + d
    return block


@cache
def _insertions(n: int, s: int) -> list:
    """How a digit joins each increasing s-digit prefix: one (prefix block,
    inserts) pair per prefix, where inserts holds, for each digit e not in
    the prefix, e, the block of the increasing (s + 1)-digit tuple it
    makes, and the sign of sorting the prefix followed by e: (-1)^g for
    the g prefix digits greater than e."""
    found = []
    for prefix in combinations(range(n), s):
        inserts = []
        for e in range(n):
            if e not in prefix:
                i = bisect(prefix, e)
                digits = prefix[:i] + (e,) + prefix[i:]
                inserts.append((e, _block(digits, n),
                                -1 if (s - i) & 1 else 1))
        found.append((_block(prefix, n), inserts))
    return found


def _absorb_table(n: int, s: int, rows) -> dict:
    """The table that absorbs a vertex's input wire s + 1 into the sorted
    digits of the s before it: the block (prefix, d) maps to the sorted
    prefix with e inserted, for each e not in the prefix that the wire's
    pending rows (the identity when rows is None) take d to, with the
    rows' coefficient times the insertion sign."""
    table = {}
    for block, inserts in _insertions(n, s):
        base = block * n
        if rows is None:
            for e, out, sign in inserts:
                table[base + e] = [(out, sign)]
            continue
        for d in range(n):
            row = [(out, sign * x) for e, out, sign in inserts
                   if (x := rows[e][d])]
            if row:
                table[base + d] = row
    return table


@cache
def _extraction_table(n: int, r: int) -> dict:
    """The table that moves each digit of an increasing r-digit block to
    the front: the block x_1 < ... < x_r maps to (x_j, the rest in
    increasing order) with the sign (-1)^(j-1) of that move, for each j.
    Its keys are the increasing blocks."""
    table = {}
    for digits in combinations(range(n), r):
        table[_block(digits, n)] = [
            (_block((x,) + digits[:j] + digits[j + 1:], n),
             -1 if j & 1 else 1) for j, x in enumerate(digits)]
    return table


def _cap_table(n: int, p, q) -> tuple[dict, int]:
    """The table of a cap whose left wire awaits the rows p and whose
    right wire awaits q, one of them possibly None: the block (a, b) maps
    to the scalar (p^T q)[a][b], the sum over e of p's coefficient taking
    a to e times q's taking b to e.  Returns the table and the terms of
    forming p^T q, n^3 when both wires carry rows."""
    terms = 0
    if p is None:
        m = q
    else:
        m = list(zip(*p))
        if q is not None:
            m, terms = _fuse(m, q), n ** 3
    return {a * n + b: [(0, x)] for a, row in enumerate(m)
            for b, x in enumerate(row) if x}, terms


def _oriented(piece: Mat, polarity: str, bindings: Bindings) -> tuple:
    """The rows a Mat piece applies upward on its wire.  A label along a
    vector wire's (upward) orientation acts upward as the bound matrix A;
    along a covector wire's (downward) orientation it acts upward as A^T.
    The against flag swaps either case."""
    rows = bindings[piece.name].rows
    if (polarity == COVECTOR) != bool(piece.against_orientation):
        return tuple(zip(*rows))
    return rows


def _fuse(later, earlier) -> list:
    """The rows of later @ earlier: a wire's labels in the order they act
    upward, the later one on the left."""
    cols = list(zip(*earlier))
    return [[sum(map(mul, row, col)) for col in cols] for row in later]


def _apply_mat(state: dict, n: int, arity: int, offset: int,
               rows) -> tuple[dict, int]:
    """Apply the matrix rows to the state's axis at offset, acting upward:
    each nonzero goes through the column of rows its digit selects.
    Returns the new state, zeros dropped, and the number of products, one
    per pair of a state nonzero and a nonzero coefficient in its column."""
    low = n ** (arity - offset - 1)
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


def _absorb(state: dict, n: int, arity: int, offset: int, wires: list,
            runs: dict) -> tuple[dict, int, int, tuple]:
    """Absorb the input wires of a vertex at [offset, ...) up to the last
    one with pending rows; wires holds each input's rows, or None, and
    runs maps the first input of each group, the outputs of one earlier
    vertex that the state holds at increasing digits only, to its length.
    Each group is a run, and so is each other wire.  After s wires the
    block's first s axes hold their digits in increasing order and each
    value carries the sign of the sort, which is the ε sign's change, so
    the vertex table still applies.  The first run, when none of its
    wires is labeled, already is that sorted prefix, and absorbing starts
    after it.  A wire of a later group is first moved to the front of the
    group's rest by an _extraction_table pass.  A group's r wires that no
    pass opens hold one entry per digit set where the state they stand
    for holds the r! signed orders, which the absorbed prefix sums: the
    vertex table is antisymmetric in them too, so on the sorted block it
    gives their sum divided by r!.  Returns the new state, the products
    formed, the product of those r!, by which the fold scales its result,
    and the runs of the absorbed input block, the lengths that key the
    vertex table."""
    if not runs and not any(wires):
        return state, 0, 1, (1,) * len(wires)
    ends = list(range(1, len(wires) + 1))
    for g, r in runs.items():
        ends[g:g + r] = [g + r] * r
    labeled = [s for s, rows in enumerate(wires) if rows is not None]
    last = labeled[-1] + 1 if labeled else 0
    front = ends[0] if not any(wires[:ends[0]]) else 0
    terms = 0
    for s in range(front, last):
        left = ends[s] - s
        if left > 1:            # s is the first of a group's left wires
            state, t = _apply(state, n, arity, offset + s, left, left,
                              _extraction_table(n, left))
            terms += t
        rows = wires[s]
        if s or rows is not None:       # one digit is sorted already
            state, t = _apply(state, n, arity, offset, s + 1, s + 1,
                              _absorb_table(n, s, rows))
            terms += t
    s = max(front, last)
    block = (s,) if s else ()
    scale = factorial(front)
    while s < len(wires):
        block += (ends[s] - s,)
        scale *= factorial(ends[s] - s)
        s = ends[s]
    return state, terms, scale, block


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


def _passes(d: LayeredDiagram, bindings: Bindings) -> tuple:
    """The state passes of the fold of d, in order, from one walk over its
    slices: each is (offset, wires in, wires out, table), with wires out
    None for a Cross or Perm, whose table is its shift tables.  A
    vertex's table is the list [ciliation, its inputs' pending rows, the
    groups it takes, its output runs], from which eval_layered absorbs
    its inputs and builds its table: a later vertex may still set the
    output runs.  A vertex takes the outputs of an earlier one as a
    group, and has them written as one run, when it takes all of them, in
    order, and they have met only Id and Mat pieces on the way, and when
    they are at least four if one of them is labeled: the taker extracts
    a labeled group wire, and for fewer than four wires those passes cost
    about what the sorted birth saves.  Returns the passes, the rows
    still pending at the top boundary by position, and the terms of
    fusing labels and forming caps' P^T Q."""
    n = d.n
    polarities = list(d.inputs)
    pending: dict = {}   # wire position -> the rows its labels await
    # wire position -> (its vertex's pass index, output, outputs) of a
    # vertex output that has met only Id and Mat since.  Below n = 4 only
    # unlabeled groups of two or three wires could form: on the fuzz
    # corpora at n = 2 and 3 they saved 1% of the terms, and tracking
    # them cost more time than that, so there no output is tracked
    groups: dict = {}
    passes: list = []
    terms = 0
    for layer in d.layers:
        pos_old = 0          # position in the pre-slice wire profile
        offset = 0           # position in the partially rebuilt profile
        new_polarities = []
        held, pending = pending, {}
        held_groups, groups = groups, {}
        for piece in layer:
            kind = type(piece)
            if kind is Id or kind is Mat:
                polarity = polarities[pos_old]
                if kind is Mat:
                    rows = _oriented(piece, polarity, bindings)
                    if pos_old in held:
                        rows = _fuse(rows, held[pos_old])
                        terms += n ** 3
                    pending[offset] = rows
                elif pos_old in held:
                    pending[offset] = held[pos_old]
                if pos_old in held_groups:
                    groups[offset] = held_groups[pos_old]
                new_polarities.append(polarity)
                pos_old += 1
                offset += 1
                continue
            j_in, j_out, outs, _ = piece_step(piece, n, polarities, pos_old,
                                              check=False)
            wires = [held.get(pos_old + s) for s in range(j_in)] if held \
                else [None] * j_in
            if kind is Cross or kind is Perm:
                table = _piece_table(n, kind, piece.images if kind is Perm
                                     else ())
                passes.append((offset, j_in, None, table))
                if held:
                    images = piece.images if kind is Perm else (2, 1)
                    for s, t in enumerate(images):
                        if wires[s] is not None:
                            pending[offset + t - 1] = wires[s]
            elif kind is NVertex:
                runs = {}   # first input -> length, of each group taken
                for pos, (p, u, m) in held_groups.items():
                    s = pos - pos_old
                    if u == 0 and 0 <= s <= j_in - m and all(
                            held_groups.get(pos + t) == (p, t, m)
                            for t in range(m)) and (
                            m > 3 or not any(wires[s:s + m])):
                        runs[s] = m
                        passes[p][3][3] = (m,)      # vertex p's output runs
                if n > 3:
                    groups.update((offset + u, (len(passes), u, j_out))
                                  for u in range(j_out))
                passes.append((offset, j_in, j_out,
                               [piece.ciliation, wires, runs, (1,) * j_out]))
            else:
                table = _piece_table(n, kind, ())
                if any(wires):          # a cap's pending rows
                    table, t = _cap_table(n, *wires)
                    terms += t
                passes.append((offset, j_in, j_out, table))
            new_polarities.extend(outs)
            pos_old += j_in
            offset += j_out
        polarities = new_polarities
    return passes, pending, terms


def eval_layered(d: LayeredDiagram, bindings: Bindings, *,
                 columns=None, validated: bool = False) -> EvalResult:
    """Fold the slices of d over a sparse state, starting from the identity
    on its inputs.  The Mat labels along one wire are fused into one
    matrix, the later label on the left, which the piece that ends the
    wire takes in: a vertex absorbs its inputs into sorted digits, one
    pass per input up to its last labeled one (an unlabeled input between
    labeled ones by the identity), before its table; a cap applies one
    table of P^T Q; the top boundary makes one pass per wire.  From n = 4,
    a vertex's outputs that one later vertex takes all of, through Id and
    Mat pieces only, are written as one run, at increasing digits only,
    when the taker decides so (see _passes); a run at the front of the
    taker's inputs, none of them labeled, is its sorted prefix, and the
    taker opens any other run one absorbed wire at a time (see _absorb).
    A vertex's table holds only the blocks the fold reads: those whose
    digits increase within each run of its input block and of its output
    block.
    terms counts one product per (state nonzero, table or matrix
    coefficient) pair, an extraction pass's (entry, digit moved to the
    front) pairs included, and n^3 for each product of two matrices, two
    labels fused on a wire or a cap's P^T Q; relabelling by Cross and Perm
    counts none, and so does scaling the result by the r! orders of the
    runs that no pass opened.

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
    passes, pending, terms = _passes(d, bindings)
    arity = 2 * k
    scale = 1            # the orders of the group wires no pass opened
    for offset, j_in, j_out, table in passes:
        if j_out is None:
            state = _relabel(state, n, arity, offset, j_in, table)
            continue
        if type(table) is list:         # a vertex's, its runs now known
            ciliation, wires, runs, out_runs = table
            state, t, orders, block = _absorb(state, n, arity, offset,
                                              wires, runs)
            terms += t
            scale *= orders
            table = _vertex_table(n, ciliation, block, out_runs)
        state, t = _apply(state, n, arity, offset, j_in, j_out, table)
        terms += t
        arity += j_out - j_in
    for pos, rows in pending.items():
        state, t = _apply_mat(state, n, arity, pos, rows)
        terms += t
    if scale != 1:
        state = {key: val * scale for key, val in state.items()}
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


def _inversions(digits) -> int:
    """The number of pairs of digits out of order."""
    return sum(a > b for i, a in enumerate(digits) for b in digits[i + 1:])


@cache
def _minor_columns(n: int, s: int) -> tuple:
    """How the first row's expansion reads each s-set C of columns, the
    sets in combinations order: for C's column c at position j, the
    index c + n^2 (j odd) or c (j even) into a flat matrix followed by
    its negation, which carries the sign (-1)^j of that term, and the
    index of C less c among the (s - 1)-sets.  Returns the number of
    (s - 1)-sets and both kinds of index as two flat lists, s per set:
    sum_s C(n, s) * s <= n * 2^(n-1) pairs over all s, 2,304 at n = 9."""
    index = dict(zip(combinations(range(n), s - 1), count()))
    sets = list(combinations(range(n), s))
    # combinations(c, s - 1) drops c's last column first
    signs = [n * n if j & 1 else 0 for j in reversed(range(s))]
    return (len(index),
            list(map(add, chain.from_iterable(map(reversed, sets)),
                     cycle(signs))),
            list(map(index.__getitem__, chain.from_iterable(
                map(combinations, sets, repeat(s - 1))))))


@cache
def _minor_plan(n: int, k: int) -> tuple:
    """The plan of the k x k minors of an n x n matrix, expanded along the
    first row, bottom up.  Level s = 1..k holds the minors at positions
    (R, C), R over the s-sets of rows whose least row is at least k - s
    (the row suffixes of the k-sets) and C over the s-sets of columns,
    row-major, each in combinations order; and, s per position, the
    reads of its terms by _minor_columns(n, s): the index of an entry of
    R's first row, signed, and the position of the minor of R's rest at
    level s - 1.  Returns the levels as (positions, entry reads, minor
    reads) and each top position's key, Y's digits then X's as one
    mixed-radix integer.  There is one pair of reads per product a word
    with no zero entry forms: sum_s C(n - k + s, s) * C(n, s) * s, which
    is n * 2^(n-1) at k = n and 26,360 at n = 8, k = 4."""
    levels = []
    index = {(): 0}
    for s in range(1, k + 1):
        below, cols, subs = _minor_columns(n, s)
        suffixes = list(combinations(range(k - s, n), s))
        entries, minors = [], []
        for r in suffixes:
            entries += map((r[0] * n).__add__, cols)
            minors += map((index[r[1:]] * below).__add__, subs)
        levels.append((len(entries) // s, entries, minors))
        index = dict(zip(suffixes, count()))
    weights = [n ** (k - 1 - i) for i in range(k)]
    keys = [sum(map(mul, c, weights)) for c in combinations(range(n), k)]
    return levels, [y * n ** k + x for y in keys for x in keys]


def _minor_table(flat: list, n: int, k: int) -> tuple[dict, int]:
    """Every nonzero k x k minor det M[Y, X] of the flat n x n integer
    matrix M, over the k-sets Y of rows and X of columns, each increasing,
    keyed by Y's digits then X's as one mixed-radix integer; and the
    number of products formed.  Each minor is expanded along its first
    row over the minors of the rows after it, bottom up, one level at a
    time, by _minor_plan(n, k): at most n * 2^(n-1) products for one
    n x n determinant.  A product with a zero entry or minor is not
    counted, and a minor that only zero entries lead to is not expanded:
    when M has a zero entry, the positions each level needs are narrowed
    first, top down."""
    levels, keys = _minor_plan(n, k)
    signed = flat + [-x for x in flat]
    # per level, when narrowed: (the positions needed, their reads)
    narrowed = [None] * k
    if 0 in flat:
        for s in range(k, 1, -1):
            _, entries, minors = narrowed[s - 1] or levels[s - 1]
            need = set(compress(minors, map(signed.__getitem__, entries)))
            size, entries, minors = levels[s - 2]
            if len(need) < size:
                need = sorted(need)
                reads = [q for p in need
                         for q in range(p * (s - 1), (p + 1) * (s - 1))]
                narrowed[s - 2] = (need,
                                   list(map(entries.__getitem__, reads)),
                                   list(map(minors.__getitem__, reads)))
    values = [1]
    terms = 0
    for s, (level, narrow) in enumerate(zip(levels, narrowed), 1):
        _, entries, minors = narrow or level
        products = list(map(mul, map(signed.__getitem__, entries),
                            map(values.__getitem__, minors)))
        terms += len(products) - products.count(0)
        sums = map(sum, zip(*[iter(products)] * s))
        if narrow is None:
            values = list(sums)
        else:
            values = [0] * level[0]
            for p, v in zip(narrow[0], sums):
                values[p] = v
    return dict(compress(zip(keys, values), values)), terms


def _bundles(d: Diagram, nodes: list) -> list:
    """The bundles among a diagram's edges, found in one pass over each
    vertex U's ends that groups them by far end and label word.  A
    source's ends are grouped by the vertex each edge goes to, and the
    labeled ends of any vertex whose edges come from or go to an input or
    an output are grouped as ending at the boundary.  Returns (U, whether
    U is a source, its groups) for each U with a group of two ends or
    more; each group maps (far vertex id, None for the boundary; label
    word) to U's (slot, edge id) pairs in slot order."""
    edges = d.edges
    found = []
    for u in nodes:
        ends = u.ciliation
        source = ends[0][1] == "tail"
        groups: dict[tuple, list] = {}
        twice = False
        for i, (eid, _) in enumerate(ends):
            e = edges[eid]
            if source:
                v = e.head[1]
                if e.labels and type(d.vertices[v]) is not GNode:
                    v = None
            elif e.labels and type(d.vertices[e.tail[1]]) is not GNode:
                v = None
            else:
                continue
            key = v, e.labels
            if key in groups:
                groups[key].append((i, eid))
                twice = True
            else:
                groups[key] = [(i, eid)]
        if twice:
            found.append((u, source, groups))
    return found


def _bundle_factors(d: Diagram, nodes: list, scopes: list, n: int,
                    end_var: dict, chains: dict, found: list) -> tuple:
    """The factors of a diagram whose edges form the bundles found by
    _bundles, each k >= 2 edges of one group.
    Between vertices, U is the source and V the sink.  Summed over the
    orders of its digits at both ends, a labeled bundle is sgn(pi) k!
    det M[Y, X], M its edges' integer factor, Y its head digits
    increasing in V's slot order, X its tail digits increasing in U's,
    and pi the order of V's bundle slots read in U's slot order; an
    unlabeled bundle's one variable per edge is summed over its k! orders
    at U.
    To the boundary, summed over U's digits, a bundle is det M[Y, X] with
    Y and X both in U's slot order and no k! factor; the boundary digits
    are one of them, and the factor holds them increasing only, so the
    network writes each of its entries at every order of those digits,
    with the sign of the order.
    So U's Levi-Civita factor holds only the entries whose digits increase
    on each bundle's slots, and so does V's for a labeled bundle, which
    becomes one factor of its minors (_minor_table, by the plan of its
    (n, k), built once and cached); bundles with one word and one k
    share the table.  scopes holds each vertex's end variables, in the
    order of nodes.  Returns the ε factors of the vertices at no bundle,
    the restricted ε and minor factors, the tail variables of the labeled
    bundles (whose matrix factors they replace), the scale sgn(pi) k! of
    the bundles between vertices, the boundary variables of each boundary
    bundle in U's slot order, and the products the minors formed."""
    tail_var, head_var = end_var["tail"], end_var["head"]
    runs: dict[int, list] = {}      # id of a vertex -> its bundles' slots
    labeled = []        # (labels, V's edges, U's edges) of labeled bundles
    orders = []
    scale = 1
    for u, source, groups in found:
        for (v, labels), at_u in groups.items():
            k = len(at_u)
            if k < 2:
                continue
            runs.setdefault(id(u), []).append(tuple([i for i, _ in at_u]))
            by_u = [eid for _, eid in at_u]
            if v is None:
                far_var = head_var if source else tail_var
                orders.append(tuple([far_var[eid] for eid in by_u]))
                labeled.append((labels, by_u, by_u))
                continue
            scale *= factorial(k)
            if not labels:
                continue
            sink = d.vertices[v]
            at_v = [(i, eid) for i, (eid, _) in enumerate(sink.ciliation)
                    if eid in by_u]
            runs.setdefault(id(sink), []).append(tuple([i for i, _ in at_v]))
            by_v = [eid for _, eid in at_v]
            pi = [by_v.index(eid) for eid in by_u]
            if _inversions(pi) & 1:
                scale = -scale
            labeled.append((labels, by_v, by_u))
    sparse_factors = []
    bundled = set()
    minors: dict[tuple, dict] = {}      # (word, k) -> its minors' table
    terms = 0
    for labels, by_v, by_u in labeled:
        k = len(by_u)
        table = minors.get((labels, k))
        if table is None:
            table, t = _minor_table(chains[labels][0], n, k)
            minors[labels, k] = table
            terms += t
        sparse_factors.append((tuple([head_var[eid] for eid in by_v])
                               + tuple([tail_var[eid] for eid in by_u]),
                               table))
        bundled.update(tail_var[eid] for eid in by_u)
    eps_factors = []
    for v, scope in zip(nodes, scopes):
        slots = runs.get(id(v))
        if slots:
            sparse_factors.append(
                (scope, kernels.sign_table(n, n, tuple(sorted(slots)))))
        else:
            eps_factors.append(scope)
    return eps_factors, sparse_factors, bundled, scale, orders, terms


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
    product.  When some edges form bundles (_bundles, _bundle_factors),
    a labeled bundle's matrix factors become one factor of its minors and
    its vertices' Levi-Civita factors hold only the entries whose digits
    increase on its slots; an unlabeled bundle restricts its source's
    factor.  Bundles are searched for from n = 4 only: below it they are
    small, and the search costs more than they save.
    kernels.epsilon_network sums the internal variables out by sparse
    variable elimination, the bundles' signs and k! scaling its result,
    and writes each entry at every order of each boundary bundle's
    digits; the common divisor is applied to the entries written, once
    per distinct value.  The term count adds the minors' products.

    probe=(outs, ins) restricts evaluation to a single entry (returned as a
    (0,0)-tensor); both tuples are 1-based.  A boundary bundle's probed
    digits are pinned sorted, with the sign of the sort, and a repeated
    one makes the entry zero.  validated=True skips validating d, for a
    graph that to_graph has just built and checked.
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
    scale = 1
    terms = 0
    sparse_factors: list = []
    orders: list = []       # each boundary bundle's boundary variables
    found = n > 3 and _bundles(d, nodes)
    if found:
        eps_factors, sparse_factors, bundled, scale, orders, terms = \
            _bundle_factors(d, nodes, eps_factors, n, end_var, chains, found)
        if bundled:
            mat_factors = [f for f in mat_factors if f[1] not in bundled]
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
        if orders:
            # a boundary bundle's factor holds its digits increasing only:
            # pin them sorted, with the sign of the sort
            pins = dict(fixed)
            moved = {}
            for far in orders:
                digits = [pins[v] for v in far]
                if len(set(digits)) < len(digits):
                    return EvalResult(Tensor._owning(n, 0, 0, {}), terms)
                scale *= -1 if _inversions(digits) & 1 else 1
                moved.update(zip(far, sorted(digits)))
            fixed = [(v, moved.get(v, x)) for v, x in fixed]
            orders = []

    nonzeros, network_terms = kernels.epsilon_network(
        n, nvars, out_vars, fixed, eps_factors, mat_factors, sparse_factors,
        scale, orders)
    terms += network_terms

    if divisor != 1:
        # a boundary bundle writes each value at k! places, either sign
        quotients = {v: _divided(v, divisor) for v in set(nonzeros.values())}
        nonzeros = {i: quotients[v] for i, v in nonzeros.items()}
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

