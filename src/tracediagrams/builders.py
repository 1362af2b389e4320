"""Constructors for the diagram families used by the identity suite.

Sign conventions: every vertex uses the canonical ciliation (bottom slots
left to right, then top slots right to left).  With that single rule the
standard constants come out on the nose:

* joined vertex pair, all strands labeled A:  (-1)^floor(n/2) * n! * det(A)
* node-pair antisymmetrizer with k through-strands:
      (-1)^floor(n/2) * (n-k)! * ASym(k)
* adjugate diagram composed with Mat(A):
      (-1)^floor(n/2) * (n-1)! * det(A) * Id

Builders that expand a formal signed sum (determinant as a permutation sum,
the antisymmetrizer, traced antisymmetrizers) return lists of (sign, diagram)
terms; their evaluations are combined by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .diagrams import (COVECTOR, SINK, SOURCE, VECTOR, Cap, Cup, Id,
                       LayeredDiagram, Mat, NVertex, Perm,
                       canonical_ciliation, compose_vertical, to_graph)
from .evaluate import eval_contraction, eval_layered
from .linalg import (Matrix, Permutation, Rat, rat, reversal_sign)
from .tensor import Tensor


def _vertex(direction: str, n: int, in_count: int,
            ciliation=None) -> NVertex:
    if ciliation is None:
        ciliation = canonical_ciliation(n, in_count)
    return NVertex(direction, in_count, tuple(ciliation))


# -- Loops and traces --------------------------------------------------------

def loop_diagram(n: int) -> LayeredDiagram:
    """Closed unlabeled loop; evaluates to the scalar n."""
    return LayeredDiagram(n, (), [(Cup(),), (Cap(),)])


def trace_loop(n: int, name: str) -> LayeredDiagram:
    """Closed loop through one matrix; evaluates to its trace."""
    return LayeredDiagram(n, (), [
        (Cup(),),
        (Id(), Mat(name)),
        (Cap(),),
    ])


def power_strand(n: int, name: str, power: int) -> LayeredDiagram:
    """Single open strand through `power` copies of the matrix."""
    return LayeredDiagram(n, (VECTOR,),
                          [(Mat(name),) for _ in range(power)])


# -- Determinant as a signed permutation sum ---------------------------------

def det_permsum(n: int, name: str) -> list[tuple[int, LayeredDiagram]]:
    """One (sign, diagram) term per permutation: n labeled strands braided
    by the permutation.  Probing every term at basis inputs 1..n and outputs
    1..n and summing with signs gives det."""
    terms = []
    for p in Permutation.all_permutations(n):
        d = LayeredDiagram(n, (VECTOR,) * n, [
            tuple(Mat(name) for _ in range(n)),
            (Perm(p.images),),
        ])
        terms.append((p.sign, d))
    return terms


def det_permsum_value(n: int, matrix: Matrix) -> Rat:
    basis = tuple(range(1, n + 1))
    total = 0
    for sign, d in det_permsum(n, "A"):
        probe = eval_contraction(to_graph(d), {"A": matrix},
                                 probe=(basis, basis))
        total += sign * probe.tensor.as_scalar()
    return total


# -- Vertex pairs -----------------------------------------------------------

def vertex_pair(n: int, labels) -> LayeredDiagram:
    """Source and sink joined by n strands; strand s carries labels[s]
    bottom to top.  All strands unlabeled gives (-1)^floor(n/2) * n!;
    all strands labeled A multiplies det(A) in."""
    labels = [tuple(lab) for lab in labels]
    if len(labels) != n:
        raise ValueError(f"expected {n} strand label lists, got {len(labels)}")
    layers = [(_vertex(SOURCE, n, 0),)]
    depth = max((len(lab) for lab in labels), default=0)
    for level in range(depth):
        layers.append(tuple(
            Mat(lab[level]) if level < len(lab) else Id()
            for lab in labels))
    layers.append((_vertex(SINK, n, n),))
    return LayeredDiagram(n, (), layers)


def det_diagram_value(n: int, matrix: Matrix) -> Rat:
    """det(A) recovered from the all-labeled vertex pair."""
    value = eval_layered(vertex_pair(n, [["A"]] * n),
                         {"A": matrix}).tensor.as_scalar()
    return _exact_div(value, reversal_sign(n) * factorial(n))


def _exact_div(value: Rat, divisor: Rat) -> Rat:
    q = Fraction(value, 1) / Fraction(divisor, 1)
    return int(q) if q.denominator == 1 else q


# -- Antisymmetrizers ---------------------------------------------------------

def antisym_permsum(k: int, n: int) -> list[tuple[int, LayeredDiagram]]:
    """ASym(k) on V^(tensor k) as the signed sum over permutation diagrams."""
    return [(p.sign,
             LayeredDiagram(n, (VECTOR,) * k, [(Perm(p.images),)]))
            for p in Permutation.all_permutations(k)]


def antisym_tensor(k: int, n: int) -> Tensor:
    """The signed sum of antisym_permsum's evaluated terms, each evaluated
    on the n!/(n-k)! input columns whose k digits are distinct.

    The sum is zero on every other column: where two input digits are
    equal, composing a permutation with the swap of those two slots gives
    the term of opposite sign, which reads the same output from that
    column, so the two cancel at every key of it.  On a column of distinct
    digits each permutation reads its own output, so the terms' nonzeros
    are pairwise disjoint and merge without adding.  For k > n there is no
    such column, and the sum is the zero tensor."""
    columns = []
    for digits in permutations(range(n), k):
        c = 0
        for digit in digits:
            c = c * n + digit
        columns.append(c)
    total: dict = {}
    for sign, d in antisym_permsum(k, n):
        nonzeros = eval_layered(d, {}, columns=columns).tensor.nonzeros
        total.update({i: sign * x for i, x in nonzeros.items()})
    return Tensor._owning(n, k, k, total)


def antisym_nodepair(k: int, n: int) -> LayeredDiagram:
    """Sink over source with k through-strands and n-k joining strands;
    evaluates to (-1)^floor(n/2) * (n-k)! * ASym(k)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    return LayeredDiagram(n, (VECTOR,) * k, [
        (_vertex(SINK, n, k),),
        (_vertex(SOURCE, n, n - k),),
    ])


# -- Single vertices ----------------------------------------------------------

def complemental_node(k: int, n: int, ciliation=None) -> LayeredDiagram:
    """One sink with k vector inputs and n-k covector outputs."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    return LayeredDiagram(n, (VECTOR,) * k,
                          [(_vertex(SINK, n, k, ciliation),)])


def codeterminant(n: int) -> LayeredDiagram:
    """The all-output source: 1 -> signed sum of basis n-tuples."""
    return LayeredDiagram(n, (), [(_vertex(SOURCE, n, 0),)])


def cross_product_node(n: int, vectors) -> Tensor:
    """Generalized cross product: n-1 bound vectors in, one slot out.

    Matches the column determinant det[v_1 .. v_{n-1} e_c] componentwise.
    """
    vectors = [tuple(rat(x) for x in v) for v in vectors]
    if len(vectors) != n - 1 or any(len(v) != n for v in vectors):
        raise ValueError(f"need {n - 1} vectors of length {n}")
    node = eval_layered(complemental_node(n - 1, n), {}).tensor
    bound = _bind_inputs(node, vectors)
    return Tensor(n, 1, 0, [bound.get((c,), 0) for c in range(1, n + 1)])


def _bind_inputs(t: Tensor, vectors) -> dict:
    """t with vectors[s] bound to input slot s, as {output index tuple:
    value}: each nonzero entry times its components, summed by its outputs
    in one pass.  Outputs with no nonzero entry are absent."""
    bound = {}
    for flat, coeff in t.nonzeros.items():
        outs, ins = t.index(flat)
        for s, i in enumerate(ins):
            coeff *= vectors[s][i - 1]
        bound[outs] = bound.get(outs, 0) + coeff
    return bound


# -- Adjugate, Cramer, cross-out ---------------------------------------------

def adjugate_diagram(n: int, name: str) -> LayeredDiagram:
    """Vertex pair with n-1 labeled joining strands and one strand open at
    the bottom and top.  Evaluates to (-1)^floor(n/2) * (n-1)! * adj(A);
    composed below with Mat(A) it is (-1)^floor(n/2) * (n-1)! * det(A) * Id."""
    layers = [(_vertex(SINK, n, 1),)]
    if n > 1:
        layers.append(tuple(Mat(name) for _ in range(n - 1)))
    layers.append((_vertex(SOURCE, n, n - 1),))
    return LayeredDiagram(n, (VECTOR,), layers)


def adjugate_value(n: int, matrix: Matrix) -> Matrix:
    """adj(A) from the diagram, rescaled by (-1)^floor(n/2) / (n-1)!."""
    t = eval_layered(adjugate_diagram(n, "A"), {"A": matrix}).tensor
    scale = Fraction(reversal_sign(n), factorial(n - 1))
    return t.to_matrix().scale(scale)


@dataclass(frozen=True)
class CramerSolution:
    xs: tuple[Rat, ...] | None
    singular: bool


def cramer_solve(a: Matrix, b) -> CramerSolution:
    """x_j = det(A_j)/det(A) with both determinants read off diagrams.

    A_j is A with column j replaced by b.  The adjugate diagram composed
    with A_j's strand is (-1)^floor(n/2) * (n-1)! * det(A_j) * Id, so its
    entry (j, j) gives det(A_j); the diagram is built once for every j
    and evaluated on its input column j only."""
    n = a.n
    b = tuple(rat(x) for x in b)
    det_a = det_diagram_value(n, a)
    if det_a == 0:
        return CramerSolution(None, True)
    diagram = compose_vertical(adjugate_diagram(n, "Aj"),
                               power_strand(n, "Aj", 1))
    xs = []
    for j in range(1, n + 1):
        a_j = a.with_column(j, b)
        value = eval_layered(diagram, {"Aj": a_j},
                             columns=[j - 1]).tensor.get((j,), (j,))
        det_aj = _exact_div(value, reversal_sign(n) * factorial(n - 1))
        xs.append(_exact_div(det_aj, det_a))
    return CramerSolution(tuple(xs), False)


def crossout_nullifier(n: int, j: int) -> Matrix:
    """Projection killing e_j and fixing every other basis vector."""
    rows = [[1 if (r == c and r != j - 1) else 0 for c in range(n)]
            for r in range(n)]
    return Matrix(rows)


# -- Traced antisymmetrizers ---------------------------------------------------

@dataclass(frozen=True)
class TracedTerm:
    perm: Permutation
    sign: int                     # sgn(perm), or a class's signed count
    diagram: LayeredDiagram
    open_power: int | None        # A-power along the open strand, if open


def antisym_traced(k_total: int, i_open_power: int | None, name: str,
                   n: int) -> list[TracedTerm]:
    """Antisymmetrizer on k_total strands, expanded as a signed permutation
    sum, with strands traced through single matrix loops.

    i_open_power=None closes every strand (scalar terms).  Otherwise strand 1
    stays open bottom-to-top and additionally carries the matrix i_open_power
    times below the bar; the remaining strands are traced.  A term's
    open_power records the matrix power its open path works out to:
    i_open_power plus the loop steps of the permutation cycle through
    strand 1.
    """
    return [_traced_term(p, p.sign, k_total, i_open_power, name, n)
            for p in Permutation.all_permutations(k_total)]


def antisym_traced_classes(k_total: int, i_open_power: int | None,
                           name: str, n: int) -> list[TracedTerm]:
    """antisym_traced summed within classes: one term per class, whose perm
    is the class's first permutation and whose sign is the class's signed
    count (the sum of its members' signs).

    A class is a cycle type; with strand 1 open, the cycle through strand 1
    is kept apart from the others.  Summing by class is exact: two
    permutations share a class exactly when one is the other conjugated by
    a permutation fixing strand 1, and that conjugation only renames the
    traced loops, so both terms have the same graph up to edge ids; the
    sign is a function of the cycle type.
    """
    open_strand = i_open_power is not None
    classes: dict[tuple, list] = {}
    for p in Permutation.all_permutations(k_total):
        # cycles() starts each cycle at its smallest element, so the cycle
        # through strand 1 comes first
        lengths = [len(c) for c in p.cycles()]
        if open_strand:
            key = (lengths[0],) + tuple(sorted(lengths[1:]))
        else:
            key = tuple(sorted(lengths))
        entry = classes.get(key)
        if entry is None:
            classes[key] = [p, p.sign]
        else:
            entry[1] += p.sign
    return [_traced_term(p, count, k_total, i_open_power, name, n)
            for p, count in classes.values()]


def _traced_term(p: Permutation, weight: int, k_total: int,
                 i_open_power: int | None, name: str, n: int) -> TracedTerm:
    open_strand = i_open_power is not None
    d = _traced_diagram(k_total, p, name, n, open_strand, i_open_power or 0)
    if open_strand:
        cycle = next(c for c in p.cycles() if 1 in c)
        power = (i_open_power or 0) + len(cycle) - 1
    else:
        power = None
    return TracedTerm(p, weight, d, power)


def _traced_diagram(m: int, p: Permutation, name: str, n: int,
                    open_strand: bool, open_power: int) -> LayeredDiagram:
    looped = list(range(2, m + 1)) if open_strand else list(range(1, m + 1))
    n_loops = len(looped)
    head = 1 if open_strand else 0     # leading open wire, if any

    layers = []
    # cups create the loop returns: wires (open?, (cov, vec) per loop)
    layers.append(tuple([Id()] * head + [Cup()] * n_loops))
    # rearrange to (open?, strand block, return block);  cov_s at 2s-1+head,
    # vec_s at 2s+head (1-based) move to head+s and head+n_loops+s
    width = head + 2 * n_loops
    images = [0] * width
    if open_strand:
        images[0] = 1
    for s in range(1, n_loops + 1):
        images[head + 2 * s - 2] = head + n_loops + s   # cov return
        images[head + 2 * s - 1] = head + s             # vec strand
    layers.append((Perm(images),))
    # matrices: one per looped strand; open strand carries its power
    for _ in range(open_power):
        layers.append(tuple([Mat(name)] + [Id()] * (width - 1)))
    layers.append(tuple([Id()] * head + [Mat(name)] * n_loops
                        + [Id()] * n_loops))
    # the bar: permutation over the m strands, identity on the returns
    layers.append((Perm(p.images), *([Id()] * n_loops)))
    # interleave back to (open?, (strand, return) per loop) and cap
    images = [0] * width
    if open_strand:
        images[0] = 1
    for s in range(1, n_loops + 1):
        images[head + s - 1] = head + 2 * s - 1          # strand
        images[head + n_loops + s - 1] = head + 2 * s    # return
    layers.append((Perm(images),))
    layers.append(tuple([Id()] * head + [Cap()] * n_loops))

    inputs = (VECTOR,) * head
    return LayeredDiagram(n, inputs, layers)


# -- Fixed small families -------------------------------------------------------

def binet_cauchy_pair():
    """(u x v).(w x x) at n=3: the joined-vertices diagram and the signed
    pair of cap diagrams it equals.  All four diagrams take inputs
    (u, v: vector, w, x: covector slots) and close to scalars."""
    n = 3
    lhs = LayeredDiagram(n, (VECTOR, VECTOR, COVECTOR, COVECTOR), [
        (Id(), Id(), _vertex(SOURCE, n, 2)),
        (_vertex(SINK, n, 3),),
    ])

    def caps_after(images):
        return LayeredDiagram(n, (VECTOR, VECTOR, COVECTOR, COVECTOR), [
            (Perm(images),),
            (Cap(), Cap()),
        ])

    rhs = [(1, caps_after((1, 3, 2, 4))),    # (u.w)(v.x)
           (-1, caps_after((1, 3, 4, 2)))]   # (u.x)(v.w)
    return lhs, rhs


def scalar_probe(diagram: LayeredDiagram, bindings, vectors) -> Rat:
    """Bind column vectors to every input slot of a diagram with no outputs
    and return the resulting scalar.  Covector input slots pair with their
    vector by the standard basis."""
    t = eval_layered(diagram, bindings).tensor
    if t.out_arity != 0 or t.in_arity != len(vectors):
        raise ValueError("probe arity mismatch")
    vectors = [tuple(rat(x) for x in v) for v in vectors]
    return _bind_inputs(t, vectors).get((), 0)


def jacobi_diagrams(k: int, n: int, name: str):
    """Stretch: the two presentations of the vertex pair with k labeled
    joining strands and n-k open strands.

    Wiring W0 (frozen empirically): the left side routes the labeled strands
    around the outside, which reads as both cilia starting their enumeration
    at the upper block (top slots right to left, then bottom slots left to
    right); the right side is the straight asymnkk form with canonical
    ciliations.  Under W0 both sides evaluate equal on the nose for all
    tested n <= 6, k <= n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    m = n - k   # open strands

    # right side: canonical node pair, joining strands labeled
    layers = [(_vertex(SINK, n, m),)]
    if k:
        layers.append(tuple(Mat(name) for _ in range(k)))
    layers.append((_vertex(SOURCE, n, k),))
    rhs = LayeredDiagram(n, (VECTOR,) * m, layers)

    # left side: same topology, both cilia reading the top block first
    sink_cil = tuple(range(n, m, -1)) + tuple(range(1, m + 1))
    source_cil = tuple(range(n, k, -1)) + tuple(range(1, k + 1))
    layers = [(NVertex(SINK, m, sink_cil),)]
    if k:
        layers.append(tuple(Mat(name) for _ in range(k)))
    layers.append((NVertex(SOURCE, k, source_cil),))
    lhs = LayeredDiagram(n, (VECTOR,) * m, layers)
    return lhs, rhs
