"""The diagram catalog: every builder against its stated value or oracle."""

from fractions import Fraction
from math import factorial

import pytest

from tracediagrams import builders
from tracediagrams.builders import (CramerSolution, adjugate_diagram,
                                    adjugate_value, antisym_nodepair,
                                    antisym_permsum, antisym_tensor,
                                    antisym_traced, antisym_traced_classes,
                                    binet_cauchy_pair,
                                    codeterminant, complemental_node,
                                    cramer_solve, cross_product_node,
                                    crossout_nullifier, det_diagram_value,
                                    det_permsum, det_permsum_value,
                                    jacobi_diagrams, loop_diagram,
                                    power_strand, scalar_probe, trace_loop,
                                    vertex_pair)
from tracediagrams.diagrams import (compose_vertical, to_graph,
                                    validate_layered)
from tracediagrams.evaluate import eval_checked, eval_contraction, eval_layered
from tracediagrams.identities import random_matrix, random_vector
from tracediagrams.linalg import (Matrix, Permutation, adjugate_oracle,
                                  det_oracle, levi_civita, reversal_sign,
                                  solve_oracle)
from tracediagrams.tensor import Tensor

A = Matrix([[2, 3], [4, 5]])


def evaluated(d, bindings=None):
    return eval_checked(d, bindings or {})


# -- loops --------------------------------------------------------------------

def test_loop_values():
    assert evaluated(loop_diagram(5)).as_scalar() == 5
    assert evaluated(trace_loop(2, "A"), {"A": A}).as_scalar() == 7
    assert evaluated(trace_loop(3, "A"),
                     {"A": Matrix.identity(3)}).as_scalar() == 3


def test_power_strand():
    t = evaluated(power_strand(2, "A", 3), {"A": A})
    assert t.to_matrix() == A ** 3


# -- determinant as permutation sum ----------------------------------------------

def test_det_permsum_two_terms_at_n2():
    terms = det_permsum(2, "A")
    assert len(terms) == 2
    assert sorted(sign for sign, _ in terms) == [-1, 1]
    basis = (1, 2)
    values = {}
    for sign, d in terms:
        t = eval_contraction(to_graph(d), {"A": A}, probe=(basis, basis))
        values[sign] = t.tensor.as_scalar()
    # identity braiding picks a11*a22, the swap picks a12*a21
    assert values[1] == 2 * 5
    assert values[-1] == 3 * 4


def test_det_permsum_values():
    assert det_permsum_value(2, A) == -2
    assert det_permsum_value(3, Matrix.identity(3)) == 1
    m = random_matrix(4, 17)
    assert det_permsum_value(4, m) == det_oracle(m)


def test_det_diagram_value():
    assert det_diagram_value(2, A) == -2
    m = random_matrix(3, 23)
    assert det_diagram_value(3, m) == det_oracle(m)


# -- vertex pairs -------------------------------------------------------------------

def test_vertex_pair_values():
    assert evaluated(vertex_pair(2, [["A"], ["A"]]),
                     {"A": A}).as_scalar() == 4
    for n in (2, 3, 4):
        want = reversal_sign(n) * factorial(n)
        assert evaluated(vertex_pair(n, [[]] * n)).as_scalar() == want


def test_vertex_pair_wrong_strand_count():
    with pytest.raises(ValueError):
        vertex_pair(3, [["A"], ["A"]])


def test_vertex_pair_reconstructs_linear_coefficient():
    # one labeled strand out of two recovers the trace coefficient: the
    # circle evaluates to -tr(A), and the sign prefactor (-1)^(1 + 2//2)
    # is +1, giving the char-poly linear coefficient -7
    circle = evaluated(vertex_pair(2, [["A"], []]), {"A": A}).as_scalar()
    assert circle == -A.trace()
    coeff = Fraction(1, factorial(1) * factorial(1)) * circle
    assert coeff == -7


# -- antisymmetrizers --------------------------------------------------------------

def test_antisym_permsum_binor_form():
    terms = antisym_permsum(2, 2)
    assert sorted(sign for sign, _ in terms) == [-1, 1]
    ident = Tensor.identity(2, 2)
    swap = Tensor.from_function(2, 2, 2,
                                lambda outs, ins: int(outs == ins[::-1]))
    assert antisym_tensor(2, 2) == ident - swap


def test_antisym_nodepair_comparison():
    for n in (2, 3):
        for k in range(0, n + 1):
            pair = evaluated(antisym_nodepair(k, n))
            scale = Fraction(reversal_sign(n), factorial(n - k))
            assert pair.scale(scale) == antisym_tensor(k, n)


def test_antisym_beyond_dimension_is_zero():
    assert antisym_tensor(3, 2).is_zero()


@pytest.mark.parametrize("k,n", [(0, 2), (2, 3), (3, 3), (4, 4), (3, 2)])
def test_antisym_tensor_evaluates_every_permutation_diagram(monkeypatch, k,
                                                            n):
    """The sum stays one eval_layered call per permutation diagram, k! in
    all, so a dropped or merged term shows in the checks that compare it
    with the node pair.  perfbench's layered_eval times each of these calls
    as one operation."""
    calls = []

    def counting(d, bindings, **kwargs):
        calls.append(d)
        return eval_layered(d, bindings, **kwargs)

    monkeypatch.setattr(builders, "eval_layered", counting)
    antisym_tensor(k, n)
    assert len(calls) == factorial(k)
    assert sorted(d.layers[0][0].images for d in calls) == \
        sorted(p.images for p in Permutation.all_permutations(k))


def rearrangement_sign(outs, ins):
    """ASym(k) entry: the sign of the rearrangement taking ins to outs, or 0
    when ins repeats a digit or outs is not a rearrangement of it."""
    if len(set(ins)) < len(ins) or sorted(outs) != sorted(ins):
        return 0
    pos = [ins.index(d) for d in outs]
    inversions = sum(a > b for i, a in enumerate(pos) for b in pos[i + 1:])
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 5)
                                 for k in range(n + 2)])
def test_antisym_tensor_matches_rearrangement_sign(k, n):
    t = antisym_tensor(k, n)
    assert (t.n, t.out_arity, t.in_arity) == (n, k, k)
    assert all(type(x) is int for x in t.entries)
    if k > n:
        assert t.is_zero()
    else:
        assert t.entries == \
            Tensor.from_function(n, k, k, rearrangement_sign).entries


def test_antisym_idempotent_up_to_factorial():
    """ASym(k)^2 = k! ASym(k).  The node pair P evaluates to
    s (n-k)! ASym(k) with s = (-1)^floor(n/2), so P over P is
    s (n-k)! k! P, through both evaluators."""
    for k, n in ((2, 3), (3, 3), (4, 4), (1, 3), (0, 2)):
        pair = antisym_nodepair(k, n)
        once = evaluated(pair)
        assert not once.is_zero()
        twice = evaluated(compose_vertical(pair, pair))
        assert twice == once.scale(reversal_sign(n) * factorial(n - k)
                                   * factorial(k))


def test_antisym_nodepair_range():
    with pytest.raises(ValueError):
        antisym_nodepair(4, 3)


# -- single vertices ---------------------------------------------------------------

def test_complemental_node_basis_action():
    t = evaluated(complemental_node(2, 3))
    assert [t.get((c,), (1, 2)) for c in (1, 2, 3)] == [0, 0, 1]
    assert all(t.get((c,), (1, 1)) == 0 for c in (1, 2, 3))


def test_ciliation_reading_on_a_five_valent_vertex():
    """A degree-5 vertex with two lower and three upper edges, enumerated
    counterclockwise from a left cilium, orders its slots as lower-left,
    lower-right, upper-right, upper-middle, upper-left."""
    from itertools import permutations
    from tracediagrams.diagrams import canonical_ciliation
    assert canonical_ciliation(5, 2) == (1, 2, 5, 4, 3)
    t = evaluated(complemental_node(2, 5))
    for ins in permutations(range(1, 6), 2):
        complement = [i for i in range(1, 6) if i not in ins]
        for outs in permutations(complement):
            # outputs enter the sign reversed (upper slots read right to left)
            want = levi_civita(tuple(ins) + tuple(reversed(outs)))
            assert t.get(outs, ins) == want


def test_codeterminant_n2():
    t = evaluated(codeterminant(2))
    assert t.get((1, 2), ()) == -1
    assert t.get((2, 1), ()) == 1
    assert t.get((1, 1), ()) == 0


def test_complemental_node_range():
    with pytest.raises(ValueError):
        complemental_node(5, 3)


def test_cross_product_node():
    got = cross_product_node(3, [(1, 0, 0), (0, 1, 0)])
    assert [got.get((c,), ()) for c in (1, 2, 3)] == [0, 0, 1]
    u, v = (1, 2, 3), (4, 5, 6)
    got = cross_product_node(3, [u, v])
    classical = (u[1] * v[2] - u[2] * v[1],
                 u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
    assert tuple(got.get((c,), ()) for c in (1, 2, 3)) == classical
    assert cross_product_node(3, [u, u]).is_zero()
    with pytest.raises(ValueError):
        cross_product_node(3, [u])


# -- adjugate and Cramer ----------------------------------------------------------

def test_adjugate_fixture_and_random():
    assert adjugate_value(2, A) == Matrix([[5, -3], [-4, 2]])
    for n in (2, 3, 4):
        m = random_matrix(n, 31 + n)
        assert adjugate_value(n, m) == adjugate_oracle(m)


def test_adjugate_diagram_composed_with_matrix():
    from tracediagrams.diagrams import LayeredDiagram, Mat, VECTOR
    from tracediagrams.diagrams import compose_vertical
    composed = compose_vertical(adjugate_diagram(2, "A"),
                                LayeredDiagram(2, (VECTOR,), [(Mat("A"),)]))
    got = evaluated(composed, {"A": A})
    want = Tensor.identity(2, 1).scale(reversal_sign(2) * factorial(1)
                                       * det_oracle(A))
    assert got == want


def test_cramer_fixture():
    solution = cramer_solve(A, (1, 0))
    assert solution == CramerSolution((Fraction(-5, 2), 2), False)
    assert cramer_solve(Matrix.identity(3), (4, 5, 6)).xs == (4, 5, 6)


def test_cramer_matches_oracle():
    for n in (2, 3):
        m = random_matrix(n, 41 + n, invertible=True)
        b = random_vector(n, 77 + n)
        got = cramer_solve(m, b)
        assert not got.singular
        assert tuple(Fraction(x) for x in got.xs) == solve_oracle(m, b)


def test_cramer_singular_reported():
    singular = Matrix([[1, 2], [2, 4]])
    assert cramer_solve(singular, (1, 1)).singular


def test_cramer_diagram_probe():
    """The diagram cramer_solve reads: the adjugate over A_j's strand, whose
    entry (j, j) is (-1)^floor(n/2) (n-1)! det(A_j) for every j."""
    for n in (2, 3):
        diagram = compose_vertical(adjugate_diagram(n, "Aj"),
                                   power_strand(n, "Aj", 1))
        a = random_matrix(n, 51 + n)
        b = random_vector(n, 61 + n)
        for j in range(1, n + 1):
            a_j = a.with_column(j, b)
            value = evaluated(diagram, {"Aj": a_j}).get((j,), (j,))
            assert value == reversal_sign(n) * factorial(n - 1) \
                * det_oracle(a_j)


def test_crossout_nullifier():
    p = crossout_nullifier(3, 2)
    assert p.apply((1, 1, 1)) == (1, 0, 1)
    assert p @ p == p


# -- traced antisymmetrizers ---------------------------------------------------------

def test_traced_closed_matches_cycle_oracle():
    for m in (2, 3):
        total = 0
        for term in antisym_traced(m, None, "A", 2):
            value = evaluated(term.diagram, {"A": A}).as_scalar()
            total += term.sign * value
        oracle = 0
        for p in Permutation.all_permutations(m):
            prod = 1
            for cycle in p.cycles():
                prod *= (A ** len(cycle)).trace()
            oracle += p.sign * prod
        assert total == oracle


def test_traced_open_powers_recorded():
    terms = antisym_traced(3, 0, "A", 2)
    assert len(terms) == 6
    assert {t.open_power for t in terms} == {0, 1, 2}
    ident = next(t for t in terms if t.perm == Permutation.identity(3))
    assert ident.open_power == 0
    t = evaluated(ident.diagram, {"A": A})
    assert t.to_matrix() == Matrix.identity(2).scale(A.trace() ** 2)


def test_cayley_hamilton_fixture():
    total = Tensor.zeros(2, 1, 1)
    for term in antisym_traced(3, 0, "A", 2):
        t = evaluated(term.diagram, {"A": A})
        total = total + (t if term.sign > 0 else -t)
    assert total.is_zero()
    # grouped by open power: 2! * (A^2 - 7A - 2I)
    want = (A ** 2 - A.scale(7) - Matrix.identity(2).scale(2)).scale(2)
    assert want.is_zero()


def test_traced_open_power_parameter():
    (term,) = [t for t in antisym_traced(1, 2, "A", 2)]
    assert evaluated(term.diagram, {"A": A}).to_matrix() == A ** 2


def _graph_shape(diagram):
    """A traced term's graph up to edge ids: its boundary vertices and the
    multiset of its edges' ends and labels."""
    g = to_graph(diagram)
    return tuple(g.vertices), tuple(sorted(
        (e.tail, e.head, e.labels) for e in g.edges.values()))


def _traced_by_graph(m, i_open):
    """Every permutation term of antisym_traced, keyed by graph shape."""
    by_graph = {}
    for term in antisym_traced(m, i_open, "A", 2):
        by_graph.setdefault(_graph_shape(term.diagram), []).append(term)
    return by_graph


@pytest.mark.parametrize("i_open", [None, 0])
def test_traced_classes_cover_every_permutation_graph(i_open):
    """One class term per distinct graph: every permutation's graph is its
    class representative's graph, up to edge ids."""
    for m in range(0 if i_open is None else 1, 6):
        by_graph = _traced_by_graph(m, i_open)
        classes = antisym_traced_classes(m, i_open, "A", 2)
        shapes = [_graph_shape(t.diagram) for t in classes]
        assert sorted(shapes) == sorted(by_graph), m
        for shape, rep in zip(shapes, classes):
            assert {t.open_power for t in by_graph[shape]} == \
                {rep.open_power}, (m, rep.perm)


@pytest.mark.parametrize("i_open", [None, 0])
def test_traced_class_weight_is_its_members_sign_sum(i_open):
    for m in range(0 if i_open is None else 1, 6):
        by_graph = _traced_by_graph(m, i_open)
        for rep in antisym_traced_classes(m, i_open, "A", 2):
            members = by_graph[_graph_shape(rep.diagram)]
            assert rep.perm == members[0].perm, (m, rep.perm)
            assert rep.sign == sum(t.sign for t in members), (m, rep.perm)


# -- fixed families ----------------------------------------------------------------

def test_binet_cauchy_fixtures():
    lhs, rhs = binet_cauchy_pair()
    e1, e2 = (1, 0, 0), (0, 1, 0)

    def sides(vs):
        return (scalar_probe(lhs, {}, vs),
                sum(s * scalar_probe(d, {}, vs) for s, d in rhs))

    left, right = sides([e1, e2, e1, e2])
    assert left == right == 1
    u, v, w, x = (1, 2, 0), (3, -1, 2), (0, 1, 1), (2, 2, -3)
    left, right = sides([u, v, w, x])
    assert left == right
    left, right = sides([u, u, w, x])
    assert left == right == 0


def test_jacobi_wirings_agree():
    for n in (2, 3):
        m = random_matrix(n, 400 + n)
        for k in range(0, n + 1):
            lhs, rhs = jacobi_diagrams(k, n, "A")
            assert evaluated(lhs, {"A": m}) == evaluated(rhs, {"A": m})
    with pytest.raises(ValueError):
        jacobi_diagrams(4, 3, "A")


def test_every_builder_diagram_validates_and_cross_checks():
    diagrams = [
        (loop_diagram(3), {}),
        (trace_loop(3, "A"), {"A": Matrix.identity(3)}),
        (vertex_pair(3, [["A"], [], ["A"]]), {"A": random_matrix(3, 1)}),
        (antisym_nodepair(2, 3), {}),
        (complemental_node(1, 3), {}),
        (codeterminant(3), {}),
        (adjugate_diagram(3, "A"), {"A": random_matrix(3, 2)}),
        (compose_vertical(adjugate_diagram(3, "A"), power_strand(3, "A", 1)),
         {"A": random_matrix(3, 3)}),
        (power_strand(3, "A", 2), {"A": random_matrix(3, 4)}),
        (jacobi_diagrams(1, 3, "A")[0], {"A": random_matrix(3, 5)}),
        (jacobi_diagrams(1, 3, "A")[1], {"A": random_matrix(3, 6)}),
        (binet_cauchy_pair()[0], {}),
    ]
    diagrams += [(d, {"A": random_matrix(3, 7)})
                 for _, d in det_permsum(3, "A")[:3]]
    diagrams += [(t.diagram, {"A": random_matrix(3, 8)})
                 for t in antisym_traced(3, 0, "A", 3)[:4]]
    for d, b in diagrams:
        assert validate_layered(d) == []
        eval_checked(d, b)
