"""Vertex-to-vertex bundles on the contraction path, judged by the signed
graph colorings oracle, which shares no idea with either evaluator."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from tracediagrams.builders import adjugate_diagram, antisym_nodepair
from tracediagrams.diagrams import (COVECTOR, SINK, SOURCE, VECTOR, Id,
                                    LayeredDiagram, Mat, NVertex, to_graph)
from tracediagrams.evaluate import eval_contraction, eval_layered
from tracediagrams.linalg import Matrix

from signed_colorings import signed_colorings
from test_evaluate import _mutant

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


def _first_bundle_mismatch(module):
    """The index of the first corpus diagram on which module's
    eval_checked raises, or None."""
    for i, (d, bindings) in enumerate(_bundle_corpus()):
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
    ("value += -entry * sub if j & 1 else entry * sub",
     "value += entry * sub if j & 1 else -entry * sub"),
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
