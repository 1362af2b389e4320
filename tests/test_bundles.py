"""Bundles on the contraction path, vertex to vertex and vertex to
boundary, judged by the signed graph colorings oracle, which shares no
idea with either evaluator."""

import inspect
import random
import types
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from time import perf_counter

import pytest

from tracediagrams import evaluate as evaluate_module, kernels
from tracediagrams.builders import (adjugate_diagram, antisym_nodepair,
                                    complemental_node)
from tracediagrams.diagrams import (COVECTOR, SINK, SOURCE, VECTOR, GNode,
                                    Id, LayeredDiagram, Mat, NVertex,
                                    canonical_ciliation, to_graph)
from tracediagrams.evaluate import eval_contraction, eval_layered
from tracediagrams.linalg import Matrix, det_oracle

from signed_colorings import signed_colorings
from test_evaluate import _dense_matrix, _mutant

WORDS = ((), (Mat("A"),), (Mat("B", True),), (Mat("A"), Mat("B")))


def _matrix(n, rng):
    """Entries in [-3, 3], a quarter of them over a denominator, so that
    a bundle's divisor is its edges' denominator to the k-th power."""
    return Matrix([[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2)))
                    for _ in range(n)] for _ in range(n)])


def _vertex_pair(n, rng):
    """A vertex over another, each with a random ciliation and b boundary
    wires, joined by n - b >= 2 strands whose label words are drawn from
    one or two of WORDS, so that strands often share a word."""
    b = rng.randint(0, n - 2)
    bottom, top = rng.choice(((SINK, SOURCE), (SOURCE, SINK)))
    words = rng.sample(WORDS, rng.randint(1, 2))
    strands = [rng.choice(words) for _ in range(n - b)]
    layers = [(NVertex(bottom, b, tuple(rng.sample(range(1, n + 1), n))),)]
    layers += [tuple(w[i] if i < len(w) else Id() for w in strands)
               for i in range(max(map(len, strands)))]
    layers.append((NVertex(top, n - b, tuple(rng.sample(range(1, n + 1),
                                                          n))),))
    return LayeredDiagram(n, (VECTOR if bottom == SINK else COVECTOR,) * b,
                          layers)


def _bundle_corpus():
    """Seeded diagrams at n = 2..4: 24 random vertex pairs per n, the
    adjugate diagram and every antisymmetrizer node pair, each with A and
    B bound."""
    rng = random.Random(27)
    corpus = []
    for n in (2, 3, 4):
        diagrams = [_vertex_pair(n, rng) for _ in range(24)]
        diagrams.append(adjugate_diagram(n, "A"))
        diagrams += [antisym_nodepair(k, n) for k in range(n + 1)]
        corpus += [(d, {"A": _matrix(n, rng), "B": _matrix(n, rng)})
                   for d in diagrams]
    return corpus


def _bundles_formed(graph):
    """(labeled, k) for each set of k >= 2 edges with one label word from
    one vertex to another."""
    groups = Counter((e.tail[1], e.head[1], e.labels)
                     for e in graph.edges.values() if e.tail[0] != "loop")
    return [(bool(key[2]), k) for key, k in groups.items() if k > 1]


def test_both_evaluators_equal_signed_colorings_on_bundles():
    """The corpus forms labeled and unlabeled bundles of every size
    k = 2..n; each evaluator's tensor equals the colorings' sum."""
    formed = Counter()
    for d, bindings in _bundle_corpus():
        graph = to_graph(d)
        formed.update((d.n,) + b for b in _bundles_formed(graph))
        want = signed_colorings(graph, bindings)
        assert eval_contraction(graph, bindings).tensor.nonzeros == want
        assert eval_layered(d, bindings).tensor.nonzeros == want
    # (n, labeled, k): count
    assert formed == {
        (2, False, 2): 5, (2, True, 2): 13,
        (3, False, 2): 3, (3, False, 3): 1,
        (3, True, 2): 12, (3, True, 3): 6,
        (4, False, 2): 5, (4, False, 3): 2, (4, False, 4): 1,
        (4, True, 2): 11, (4, True, 3): 3, (4, True, 4): 2}


def _first_bundle_mismatch(module, corpus=None):
    """The index of the first diagram of corpus (the bundle corpus by
    default) on which module's eval_checked raises, or None."""
    for i, (d, bindings) in enumerate(corpus or _bundle_corpus()):
        try:
            module.eval_checked(d, bindings)
        except module.CrossCheckMismatch:
            return i
    return None


_V_RUN = "runs.setdefault(id(sink), []).append(tuple([i for i, _ in at_v]))"


@pytest.mark.parametrize("old, new", [
    # the sign of the order of V's bundle slots read in U's slot order
    ("            scale = -scale", "            pass"),
    # the k! orders of a bundle's digits
    ("scale *= factorial(k)", "scale *= 1"),
    # a minor's expansion along its first row with its signs flipped
    ("n * n if j & 1 else 0", "0 if j & 1 else n * n"),
    # each term reading the minor of the column set less another column
    # than its own
    ("map(reversed, sets)", "iter(sets)"),
    # the zero-entry narrowing dropping the first minor a level needs
    ("need = sorted(need)", "need = sorted(need)[1:]"),
    # U's restriction read in V's slot order: the minors' columns keyed
    # by the tail variables in V's order, U's ε sorted in U's
    ("+ tuple([tail_var[eid] for eid in by_u])",
     "+ tuple([tail_var[eid] for eid in by_v])"),
    # an unlabeled bundle's one variable per edge restricted at V too, in
    # V's slot order
    ("        if not labels:\n                continue",
     "        if not labels:\n                sink = d.vertices[v]\n"
     "                at_v = [(i, eid) for i, (eid, _) in enumerate("
     "sink.ciliation) if eid in [e for _, e in at_u]]\n                "
     + _V_RUN + "\n                continue"),
])
def test_bundle_mutants_fail_the_cross_check(old, new):
    assert _first_bundle_mismatch(_mutant(old, new)) is not None


def test_one_end_restriction_of_a_labeled_bundle_changes_only_the_work():
    """The minors' factor holds no entry whose head digits decrease in V's
    slot order, so V's ε restricted or not gives the same tensor: the
    restriction at V only cuts the work.  A copy that restricts a labeled
    bundle's ε at U only passes the cross-check with more terms."""
    plain = _mutant(_V_RUN, _V_RUN)
    one_end = _mutant(_V_RUN, "pass")
    corpus = _bundle_corpus()
    assert _first_bundle_mismatch(plain) is None
    assert _first_bundle_mismatch(one_end) is None
    terms = [sum(m.eval_contraction(to_graph(d), b).term_count
                 for d, b in corpus) for m in (plain, one_end)]
    assert terms[0] < terms[1]


# -- The minors' expansion ---------------------------------------------------

def _recursive_minor_table(flat, n, k):
    """The minors table as a memoized recursion formed it: each minor
    expanded along its first row over the minors of the rows after it,
    memoized by (rows, columns), a sub-minor expanded only when its entry
    is nonzero and a product counted only when both factors are.  A
    reference for evaluate._minor_table, used by the tests only."""
    memo = {}
    terms = 0

    def minor(rows, cols):
        nonlocal terms
        if not rows:
            return 1
        value = memo.get((rows, cols))
        if value is None:
            value = 0
            first = rows[0] * n
            for j, c in enumerate(cols):
                entry = flat[first + c]
                if entry:
                    sub = minor(rows[1:], cols[:j] + cols[j + 1:])
                    if sub:
                        terms += 1
                        value += -entry * sub if j & 1 else entry * sub
            memo[rows, cols] = value
        return value

    sets = list(combinations(range(n), k))
    keys = [sum(d * n ** (k - 1 - i) for i, d in enumerate(s)) for s in sets]
    table = {}
    for rows, row_key in zip(sets, keys):
        for cols, col_key in zip(sets, keys):
            value = minor(rows, cols)
            if value:
                table[row_key * n ** k + col_key] = value
    return table, terms


def _integer_matrices(n, rng):
    """A dense, a zero-heavy and a rank-deficient flat n x n integer
    matrix: entries in [-9, 9], entries in [-1, 1], and the product of an
    n x r and an r x n matrix with entries in [-3, 3], r < n."""
    dense = [rng.randint(-9, 9) for _ in range(n * n)]
    sparse = [rng.randint(-1, 1) for _ in range(n * n)]
    r = rng.randrange(n)
    u = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    w = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    low = [sum(u[i][t] * w[t][j] for t in range(r))
           for i in range(n) for j in range(n)]
    return dense, sparse, low


def test_minor_table_equals_the_recursive_expansion():
    """The planned bottom-up expansion forms the recursion's table, in
    the same order, and exactly its products: every 1 <= k <= n <= 6 on
    seeded dense, zero-heavy and rank-deficient matrices, and k = 4 and 8
    at n = 8."""
    rng = random.Random(29)
    shapes = [(n, k) for n in range(1, 7) for k in range(1, n + 1)]
    for n, k in shapes + [(8, 4), (8, 8)]:
        for _ in range(3 if n < 7 else 1):
            for flat in _integer_matrices(n, rng):
                want = _recursive_minor_table(flat, n, k)
                got = evaluate_module._minor_table(flat, n, k)
                assert got == want, (n, k, flat)
                assert list(got[0]) == list(want[0]), (n, k, flat)


# -- Boundary bundles --------------------------------------------------------

def _rows(strands):
    """The layers that put each strand's word on its wire, Id beside a
    shorter word."""
    return [tuple(w[i] if i < len(w) else Id() for w in strands)
            for i in range(max(map(len, strands), default=0))]


def _dressed_vertex(n, rng):
    """A sink or a source with a random ciliation, k of its n wires inputs
    and n - k outputs, each wire carrying a word drawn from one or two of
    WORDS, so that boundary wires often share a word."""
    k = rng.randint(0, n)
    direction = rng.choice((SINK, SOURCE))
    words = rng.sample(WORDS, rng.randint(1, 2))
    below = [rng.choice(words) for _ in range(k)]
    above = [rng.choice(words) for _ in range(n - k)]
    cil = tuple(rng.sample(range(1, n + 1), n))
    layers = _rows(below) + [(NVertex(direction, k, cil),)] + _rows(above)
    return LayeredDiagram(n, (VECTOR if direction == SINK else COVECTOR,) * k,
                          layers)


def _boundary_corpus():
    """Seeded diagrams at n = 4 and 5: 20 and 5 dressed vertices, a sink
    with two words, each on one input and one output, and a source with a
    bundle to a sink beside a bundle to the outputs, each with A and B
    bound."""
    rng = random.Random(287)
    corpus = [_dressed_vertex(n, rng) for n in (4,) * 20 + (5,) * 5]
    a, bt = Mat("A"), Mat("B", True)
    corpus.append(LayeredDiagram(4, (VECTOR,) * 2, [
        (a, bt), (NVertex(SINK, 2, (3, 1, 4, 2)),), (bt, a)]))
    corpus.append(LayeredDiagram(4, (), [
        (NVertex(SOURCE, 0, (2, 4, 1, 3)),), (a, a, bt, bt),
        (Id(), Id(), NVertex(SINK, 2, (4, 1, 3, 2)))]))
    return [(d, {"A": _matrix(d.n, rng), "B": _matrix(d.n, rng)})
            for d in corpus]


def _boundary_bundles_formed(graph):
    """k for each set of k >= 2 labeled edges with one label word at one
    vertex whose far ends are all boundary vertices."""
    formed = []
    for v in graph.vertices:
        if type(v) is GNode:
            words = Counter()
            for eid, end in v.ciliation:
                e = graph.edges[eid]
                far = e.tail if end == "head" else e.head
                if e.labels and type(graph.vertices[far[1]]) is not GNode:
                    words[e.labels] += 1
            formed += [k for k in words.values() if k > 1]
    return formed


def test_both_evaluators_equal_signed_colorings_on_boundary_bundles():
    """The corpus forms boundary bundles of every size k = 2..n, on
    inputs, on outputs and on both; each evaluator's tensor equals the
    colorings' sum."""
    formed = Counter()
    for d, bindings in _boundary_corpus():
        graph = to_graph(d)
        formed.update((d.n, k) for k in _boundary_bundles_formed(graph))
        want = signed_colorings(graph, bindings)
        assert eval_contraction(graph, bindings).tensor.nonzeros == want
        assert eval_layered(d, bindings).tensor.nonzeros == want
    # (n, k): count
    assert formed == {(4, 2): 9, (4, 3): 5, (4, 4): 4,
                      (5, 2): 1, (5, 3): 1, (5, 4): 1, (5, 5): 1}


def test_probe_sorts_a_boundary_bundles_digits():
    """A probe pins a boundary bundle's digits sorted, with the sign of the
    sort, or is zero where a digit repeats: every entry of the corpus's
    n = 4 diagrams, probed, equals the full tensor's."""
    for d, bindings in _boundary_corpus():
        if d.n > 4:
            continue
        graph = to_graph(d)
        full = eval_contraction(graph, bindings).tensor
        for flat, index in enumerate(product(range(1, d.n + 1),
                                             repeat=full.out_arity
                                             + full.in_arity)):
            outs, ins = index[:full.out_arity], index[full.out_arity:]
            probe = eval_contraction(graph, bindings, probe=(outs, ins))
            assert probe.tensor.as_scalar() == full.nonzeros.get(flat, 0)


def _kernels_mutant(old, new):
    """A fresh copy of the evaluate module whose kernels module is a copy
    built from its source with the one occurrence of old replaced by
    new."""
    source = inspect.getsource(kernels)
    assert source.count(old) == 1, old
    copy = types.ModuleType(kernels.__name__)
    exec(compile(source.replace(old, new), kernels.__file__, "exec"),
         vars(copy))
    module = _mutant("from . import kernels\n", "from . import kernels\n")
    module.kernels = copy
    return module


_BOUNDARY = ("            if v is None:\n"
             "                far_var = head_var if source else tail_var")


@pytest.mark.parametrize("old, new", [
    # the sign of each order dropped
    ("        value = -value\n", ""),
    # only the increasing order written
    ("zip(permutations(digits), signs)", "zip([digits], signs)"),
])
def test_boundary_expansion_mutants_fail_the_cross_check(old, new):
    corpus = _boundary_corpus()
    assert _first_bundle_mismatch(_kernels_mutant(old, new), corpus) \
        is not None


@pytest.mark.parametrize("old, new", [
    # the boundary digits keyed in boundary-position order, outputs then
    # inputs, instead of U's slot order
    (_BOUNDARY, _BOUNDARY + "\n                by_u.sort(key=lambda e: ("
     "lambda w: (type(w) is GInput, w.position))(d.vertices[(d.edges[e]"
     ".head if source else d.edges[e].tail)[1]]))"),
    # a stray k! on a boundary bundle
    (_BOUNDARY, _BOUNDARY + "\n                scale *= factorial(k)"),
])
def test_boundary_bundle_mutants_fail_the_cross_check(old, new):
    corpus = _boundary_corpus()
    assert _first_bundle_mismatch(_mutant(old, new), corpus) is not None


def test_unrestricted_vertex_of_a_boundary_bundle_changes_only_the_work():
    """The minors' factor holds no entry whose digits at U decrease in
    U's slot order, so U's ε restricted or not gives the same tensor: the
    restriction only cuts the work.  A copy that leaves U's ε whole passes
    the cross-check with more terms."""
    plain = _mutant(_BOUNDARY, _BOUNDARY)
    whole = _mutant(_BOUNDARY, _BOUNDARY.replace(
        "far_var =", "runs[id(u)].pop()\n                far_var ="))
    corpus = _boundary_corpus()
    assert _first_bundle_mismatch(plain, corpus) is None
    assert _first_bundle_mismatch(whole, corpus) is None
    terms = [sum(m.eval_contraction(to_graph(d), b).term_count
                 for d, b in corpus) for m in (plain, whole)]
    assert terms[0] < terms[1]


@pytest.mark.parametrize("k", [0, 3, 7])
def test_contraction_path_reaches_the_dressed_vertex_frontier(k):
    """The n = 7 vertex with A on every wire, k of them inputs, is one
    boundary bundle: under a second on the contraction path (about 15 ms
    on a 2-core x86-64 host, where summing the ε factor against one matrix
    at a time took 1.1-1.4 s and 4,477,872 terms), and det(A) times the
    bare vertex."""
    n = 7
    a = _dense_matrix(n, 7)
    layers = _rows([(Mat("A"),)] * k) + [
        (NVertex(SINK, k, canonical_ciliation(n, k)),)] + _rows(
        [(Mat("A"),)] * (n - k))
    graph = to_graph(LayeredDiagram(n, (VECTOR,) * k, layers))
    start = perf_counter()
    res = eval_contraction(graph, {"A": a})
    assert perf_counter() - start < 1
    bare = eval_contraction(to_graph(complemental_node(k, n)), {}).tensor
    assert res.tensor == bare.scale(det_oracle(a))
    # the minors' one n x n determinant (448 products), the one join of
    # the ε entry with it and the n! = 5040 entries written
    assert res.term_count == 5489
