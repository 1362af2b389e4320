"""The two evaluators and their cross-check."""

import inspect
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

import tracediagrams.evaluate as evaluate_module
from tracediagrams.builders import (adjugate_diagram, antisym_nodepair,
                                    antisym_tensor, det_permsum,
                                    jacobi_diagrams,
                                    loop_diagram, trace_loop, vertex_pair)
from tracediagrams.diagrams import (COVECTOR, SINK, VECTOR, Cap, Cross,
                                    Cup, Id, LayeredDiagram, Mat, NVertex,
                                    Perm, canonical_ciliation,
                                    compose_vertical, piece_step, to_graph)
from tracediagrams.evaluate import (CrossCheckMismatch, eval_checked,
                                    eval_contraction, eval_layered)
from tracediagrams.fuzz import random_bindings, random_layered_diagram
from tracediagrams.identities import random_matrix
from tracediagrams.linalg import (Matrix, det_oracle, levi_civita,
                                  reversal_sign)
from tracediagrams.tensor import Tensor

from test_acceptance import _builder_catalog

A = Matrix([[2, 3], [4, 5]])
M4 = Matrix([[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1], [1, 1, 0, 2]])


def graph_eval(d, bindings, probe=None):
    return eval_contraction(to_graph(d), bindings, probe=probe).tensor


# -- contraction evaluator ----------------------------------------------------

def test_closed_loop_scalar():
    assert graph_eval(loop_diagram(3), {}).as_scalar() == 3


def test_trace_fixture():
    assert graph_eval(trace_loop(2, "A"), {"A": A}).as_scalar() == 7


def test_two_vertices_joined_all_labeled():
    for n in (2, 3):
        a = Matrix.identity(n).scale(2)
        got = graph_eval(vertex_pair(n, [["A"]] * n), {"A": a}).as_scalar()
        from math import factorial
        from tracediagrams.linalg import det_oracle
        assert got == reversal_sign(n) * factorial(n) * det_oracle(a)


def test_sink_on_basis_columns_in_ciliation_order():
    n = 3
    t = graph_eval(LayeredDiagram(n, (VECTOR,) * n,
                                  [(NVertex(SINK, n, (1, 2, 3)),)]), {})
    assert t.get((), (1, 2, 3)) == 1
    assert t.get((), (2, 1, 3)) == -1
    assert t.get((), (1, 1, 2)) == 0


def test_probe_matches_full_tensor():
    d = adjugate_diagram(3, "A")
    a = Matrix([[1, 2, 0], [0, 1, 3], [2, 0, 1]])
    g = to_graph(d)
    full = eval_contraction(g, {"A": a}).tensor
    for o in (1, 2, 3):
        for i in (1, 2, 3):
            probe = eval_contraction(g, {"A": a}, probe=((o,), (i,))).tensor
            assert probe.as_scalar() == full.get((o,), (i,))


def test_unbound_matrix_name():
    with pytest.raises(ValueError, match="unbound matrix"):
        eval_layered(trace_loop(2, "A"), {})
    with pytest.raises(ValueError, match="unbound matrix"):
        eval_contraction(to_graph(trace_loop(2, "A")), {})


def test_probe_arity_mismatch():
    g = to_graph(adjugate_diagram(2, "A"))
    with pytest.raises(ValueError, match="probe arity"):
        eval_contraction(g, {"A": A}, probe=((1, 2), (1,)))


@pytest.mark.parametrize("probe", [((0,), (0,)), ((4,), (4,)),
                                   ((1,), (4,))])
def test_probe_index_out_of_range(probe):
    """A probe index outside 1..n is refused, also on a straight wire,
    where no factor would look the digit up."""
    for d in (LayeredDiagram(3, (VECTOR,), [(Id(),)]),
              adjugate_diagram(3, "A")):
        with pytest.raises(ValueError, match="probe index out of range"):
            eval_contraction(to_graph(d), {"A": Matrix.identity(3)},
                             probe=probe)


def test_probe_of_straight_wire_and_cup_outputs():
    """An unlabeled edge between two boundary vertices is one variable,
    read at both: a probe at equal digits reads 1 and writes one entry,
    at unequal digits it reads 0 and does no work, and the whole tensor
    forms no product."""
    wire = to_graph(LayeredDiagram(3, (VECTOR,), [(Id(),)]))
    cup = to_graph(LayeredDiagram(3, (), [(Cup(),)]))
    for a, b in product((1, 2, 3), repeat=2):
        for graph, probe in ((wire, ((a,), (b,))), (cup, ((a, b), ()))):
            result = eval_contraction(graph, {}, probe=probe)
            assert result.tensor.as_scalar() == (a == b)
            assert result.term_count == (a == b)
    for graph in (wire, cup):
        result = eval_contraction(graph, {})
        assert result.tensor.nonzeros == {0: 1, 4: 1, 8: 1}
        assert result.term_count == 3


def test_dimension_mismatch_binding():
    with pytest.raises(ValueError, match="dimension"):
        eval_layered(trace_loop(2, "A"), {"A": Matrix.identity(3)})


def test_rational_entries_stay_exact():
    half = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    got = graph_eval(trace_loop(2, "A"), {"A": half}).as_scalar()
    assert got == Fraction(5, 6)
    assert eval_layered(trace_loop(2, "A"), {"A": half}).tensor.as_scalar() \
        == Fraction(5, 6)


# -- layered evaluator -------------------------------------------------------

def test_kink_is_identity():
    kink = LayeredDiagram(2, (VECTOR,), [(Id(), Cup()), (Cap(), Id())])
    assert eval_layered(kink, {}).tensor == Tensor.identity(2, 1)


def test_out_swapped_cup():
    d = LayeredDiagram(3, (), [(Cup(),), (Cross(),)])
    t = eval_layered(d, {}).tensor
    assert d.outputs() == (VECTOR, COVECTOR)
    for i in range(1, 4):
        for j in range(1, 4):
            assert t.get((i, j), ()) == int(i == j)


def test_worked_double_vertex_example():
    t = eval_layered(antisym_nodepair(1, 3), {}).tensor
    assert t.to_matrix() == Matrix.identity(3).scale(-2)
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -2, 5)):
        assert t.to_matrix().apply(v) == tuple(-2 * x for x in v)


def test_perm_piece_matches_cross_expansion():
    by_perm = LayeredDiagram(2, (VECTOR,) * 3, [(Perm((3, 1, 2)),)])
    by_crosses = LayeredDiagram(2, (VECTOR,) * 3, [
        (Cross(), Id()),
        (Id(), Cross()),
    ])
    # wire 1 -> position 3 is the composite of two adjacent crossings
    assert eval_layered(by_perm, {}).tensor == \
        eval_layered(by_crosses, {}).tensor


def test_multilinearity_in_bound_matrix():
    d = trace_loop(3, "A")
    rng = random.Random(0)
    m1 = Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    m2 = Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    lam = Fraction(3, 7)
    combo = m1.scale(lam) + m2
    lhs = eval_layered(d, {"A": combo}).tensor.as_scalar()
    rhs = lam * eval_layered(d, {"A": m1}).tensor.as_scalar() + \
        eval_layered(d, {"A": m2}).tensor.as_scalar()
    assert lhs == rhs


def test_multilinearity_in_each_input_slot():
    t = eval_layered(antisym_nodepair(2, 3), {}).tensor

    def apply_pair(u, v):
        out = []
        for o1 in (1, 2, 3):
            for o2 in (1, 2, 3):
                out.append(sum(t.get((o1, o2), (i, j)) * u[i - 1] * v[j - 1]
                               for i in (1, 2, 3) for j in (1, 2, 3)))
        return tuple(out)

    u1, u2, v = (1, 2, 3), (0, -1, 4), (2, 2, -5)
    lam = Fraction(5, 3)
    combo = tuple(a + lam * b for a, b in zip(u1, u2))
    lhs = apply_pair(combo, v)
    rhs = tuple(a + lam * b for a, b in zip(apply_pair(u1, v),
                                            apply_pair(u2, v)))
    assert lhs == rhs


def test_eval_result_metadata():
    res = eval_layered(trace_loop(2, "A"), {"A": A})
    assert res.tensor.arity == 0
    assert res.term_count > 0
    res2 = eval_contraction(to_graph(trace_loop(2, "A")), {"A": A})
    assert res2.term_count > 0


# -- isotopy regressions ----------------------------------------------------------

def test_slid_label_presentations_agree():
    on_vector = LayeredDiagram(2, (), [(Cup(),), (Id(), Mat("A")), (Cap(),)])
    on_covector = LayeredDiagram(2, (), [(Cup(),), (Mat("A"), Id()), (Cap(),)])
    assert eval_checked(on_vector, {"A": A}) == \
        eval_checked(on_covector, {"A": A})


def test_cap_transpose_regression():
    asym = A
    wires = (VECTOR, COVECTOR)
    left = LayeredDiagram(2, wires, [(Mat("A"), Id()), (Cap(),)])
    right_along = LayeredDiagram(2, wires, [(Id(), Mat("A")), (Cap(),)])
    right_against = LayeredDiagram(2, wires,
                                   [(Id(), Mat("A", True)), (Cap(),)])
    b = {"A": asym}
    t_left = eval_checked(left, b)
    assert t_left == eval_checked(right_along, b)
    assert t_left != eval_checked(right_against, b)
    sym = Matrix([[1, 2], [2, 5]])
    assert eval_checked(left, {"A": sym}) == \
        eval_checked(right_against, {"A": sym})


def test_vertex_order_sign_regression():
    n = 3
    base = eval_layered(LayeredDiagram(
        n, (VECTOR, VECTOR), [(NVertex(SINK, 2, (1, 2, 3)),)]), {}).tensor
    swapped = eval_layered(LayeredDiagram(
        n, (VECTOR, VECTOR), [(NVertex(SINK, 2, (2, 1, 3)),)]), {}).tensor
    assert swapped == -base


def _flat(digits, n):
    idx = 0
    for d in digits:
        idx = idx * n + d
    return idx


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertex_tensor_matches_entrywise_definition(n):
    # built from its n! nonzeros, a vertex piece's table must hold exactly
    # the nonzero Levi-Civita signs of every entry's digits read in
    # ciliation order, keyed by input block
    rng = random.Random(100 + n)
    for j in range(n + 1):
        ciliations = [canonical_ciliation(n, j)]
        ciliations += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
        for cil in ciliations:
            want = {}
            for by_slot in product(range(n), repeat=n):
                sign = levi_civita(tuple(by_slot[s - 1] + 1 for s in cil))
                if sign:
                    want.setdefault(_flat(by_slot[:j], n), []).append(
                        (_flat(by_slot[j:], n), sign))
            got = evaluate_module._vertex_table(n, j, cil)
            assert {b: sorted(row) for b, row in got.items()} == want
            assert all(type(c) is int for row in got.values() for _, c in row)


def _piece_entry(piece, n, polarity, bindings):
    """Entrywise definition of a piece: a function of its 0-based output
    and input digit tuples."""
    match piece:
        case Cross():
            return lambda o, i: int(o == (i[1], i[0]))
        case Perm(images=images):
            return lambda o, i: int(all(o[t - 1] == i[s]
                                        for s, t in enumerate(images)))
        case Cup():
            return lambda o, i: int(o[0] == o[1])
        case Cap():
            return lambda o, i: int(i[0] == i[1])
        case Mat(name=name, against_orientation=against):
            rows = bindings[name].rows
            if (polarity == COVECTOR) != against:
                return lambda o, i: rows[i[0]][o[0]]
            return lambda o, i: rows[o[0]][i[0]]
        case NVertex(ciliation=cil):
            def entry(o, i):
                by_slot = i + o
                return levi_civita(tuple(by_slot[s - 1] + 1 for s in cil))
            return entry


def _apply_by_definition(state, n, arity, offset, j_in, j_out, entry):
    """new[pre + o + post] = sum over b of entry(o, b) * state[pre + b +
    post], and the count of (state nonzero, nonzero entry(o, b)) pairs
    whose state digits at the block are b."""
    dense = {digits: state.get(_flat(digits, n), 0)
             for digits in product(range(n), repeat=arity)}
    result = {}
    for digits in product(range(n), repeat=arity - j_in + j_out):
        pre, o = digits[:offset], digits[offset:offset + j_out]
        post = digits[offset + j_out:]
        value = sum(entry(o, b) * dense[pre + b + post]
                    for b in product(range(n), repeat=j_in))
        if value:
            result[_flat(digits, n)] = value
    terms = sum(1 for digits, x in dense.items() if x
                for o in product(range(n), repeat=j_out)
                if entry(o, digits[offset:offset + j_in]))
    return result, terms


def _random_state(rng, n, arity):
    values = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    return {i: x for i in range(n ** arity) if (x := rng.choice(values))}


def test_fold_matches_entrywise_definition():
    # every piece kind at every offset of random sparse states, n <= 3
    rng = random.Random(17)
    b = {"A": Matrix([[2, 0, -1], [Fraction(1, 3), 4, 0], [0, -2, 5]]),
         "B": Matrix([[1, 3], [0, -1]]), "C": Matrix([[-4]])}
    for n in (1, 2, 3):
        name = {1: "C", 2: "B", 3: "A"}[n]
        pieces = [(Cross(), None), (Perm((3, 1, 2)), None),
                  (Perm((2, 3, 1)), None), (Perm((2, 4, 1, 3)), None),
                  (Cup(), None), (Cap(), None)]
        pieces += [(Mat(name, against), pol) for against in (False, True)
                   for pol in (VECTOR, COVECTOR)]
        for j in range(n + 1):
            pieces += [(NVertex(SINK, j, canonical_ciliation(n, j)), None),
                       (NVertex(SINK, j, tuple(rng.sample(range(1, n + 1),
                                                          n))), None)]
        for piece, pol in pieces:
            j_in, j_out = piece_step(piece, n, (), 0)[:2]
            if not isinstance(piece, Mat):
                table = evaluate_module._piece_table(piece, n)
            entry = _piece_entry(piece, n, pol, b)
            for arity in range(j_in, j_in + 3):
                for offset in range(arity - j_in + 1):
                    state = _random_state(rng, n, arity)
                    want, want_terms = _apply_by_definition(
                        state, n, arity, offset, j_in, j_out, entry)
                    if isinstance(piece, (Cross, Perm)):
                        # a relabelling forms no products: compare states
                        got = evaluate_module._relabel(
                            state, n, arity, offset, j_in, table)
                    elif isinstance(piece, Mat):
                        got, terms = evaluate_module._apply_mat(
                            state, n, arity, offset, piece, pol, b)
                        assert terms == want_terms, (piece, pol, arity,
                                                     offset)
                    else:
                        got, terms = evaluate_module._apply(
                            state, n, arity, offset, j_in, j_out, table)
                        assert terms == want_terms, (piece, pol, arity,
                                                     offset)
                    assert got == want, (piece, pol, arity, offset)
                    assert all(got.values())


def test_mat_pass_matches_entrywise_definition():
    # both ways of a Mat pass, scatter and dense, each run on every state
    # against the definition: Fraction entries, a zero row and a zero
    # column, rows whose products cancel on equal digits, both polarities
    # and both against flags
    rng = random.Random(23)
    h = Fraction(1, 2)
    for n in (2, 3, 4, 5):
        mixed = [[rng.choice((0, 1, -2, 3, h, Fraction(-4, 3)))
                  for _ in range(n)] for _ in range(n)]
        mixed[0] = [0] * n                         # a zero row
        for row in mixed:
            row[-1] = 0                            # a zero column
        cancelling = [[(1, -1)[j % 2] * (i + 1) if j < 2 else 0
                       for j in range(n)] for i in range(n)]
        cancelling[-1] = [h, -h] + [1] * (n - 2)
        for rows in (mixed, cancelling):
            b = {"A": Matrix(rows)}
            pieces = [(Mat("A", against), pol) for against in (False, True)
                      for pol in (VECTOR, COVECTOR)]
            for arity in range(1, 5):
                for piece, pol in pieces:
                    entry = _piece_entry(piece, n, pol, b)
                    offset = rng.randrange(arity)
                    low = n ** (arity - offset - 1)
                    # the rows _apply_mat applies upward: A or A^T
                    up = [[entry((i,), (j,)) for j in range(n)]
                          for i in range(n)]
                    # every slot, most slots or a quarter of the slots
                    # filled; equal values make the cancelling rows cancel
                    for fill in ((1, 2), (0, 1, 1, 2, 1, h), (0, 0, 0, -1)):
                        state = {i: x for i in range(n ** arity)
                                 if (x := rng.choice(fill))}
                        want = _apply_by_definition(
                            state, n, arity, offset, 1, 1, entry)
                        assert evaluate_module._apply_mat(
                            state, n, arity, offset, piece, pol, b) == want
                        for way in (evaluate_module._scatter_mat,
                                    evaluate_module._dense_mat):
                            got, terms = way(state, n, low, up)
                            assert (got, terms) == want, (way, n, arity,
                                                          piece, pol)
                            assert all(got.values())


def test_mat_pass_goes_dense_only_on_large_mostly_full_states():
    mostly_full = evaluate_module._mostly_full
    full = dict.fromkeys(range(5 ** 4), 1)
    assert mostly_full(full, 5, 5)
    # three of every four slots, or fewer than n^4 nonzeros, or n < 5
    assert mostly_full({k: 1 for k in range(5 ** 5) if k % 5 < 4}, 5, 1)
    assert not mostly_full({k: 1 for k in range(5 ** 5) if k % 5 < 3}, 5, 1)
    assert not mostly_full(dict.fromkeys(range(5 ** 4 - 1), 1), 5, 5)
    assert not mostly_full(dict.fromkeys(range(4 ** 5), 1), 4, 4)


def test_fold_drops_cancelled_entries():
    n = 2
    # e1 - e2 through the matrix [[1, 1], [0, 0]]: its products cancel
    assert evaluate_module._apply_mat(
        {0: 1, 1: -1}, n, 1, 0, Mat("A"), VECTOR,
        {"A": Matrix([[1, 1], [0, 0]])}) == ({}, 2)
    # a cap meets a state whose diagonal sums to zero
    diag = {_flat((0, 0), n): 3, _flat((1, 1), n): -3}
    assert evaluate_module._apply(
        diag, n, 2, 0, 2, 0, evaluate_module._piece_table(Cap(), n)) == \
        ({}, 2)


def _dense_matrix(n, seed):
    """perfbench.workloads.dense_matrix: entries in [-9, 9], none zero."""
    rng = random.Random(seed)
    return Matrix([[rng.choice((-1, 1)) * rng.randint(1, 9)
                    for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n, terms", [(3, 132), (4, 1488), (5, 18780),
                                      (6, 273024)])
def test_layered_det_circle_term_count(n, terms):
    # one product per (state nonzero, table coefficient): the count the
    # dense pair_contract fold made before the state went sparse
    a = _dense_matrix(n, 1)
    res = eval_layered(vertex_pair(n, [["A"]] * n), {"A": a})
    assert res.term_count == terms
    assert res.tensor.as_scalar() == \
        reversal_sign(n) * factorial(n) * det_oracle(a)


def test_layered_nodepair_term_count():
    assert eval_layered(antisym_nodepair(2, 4), {}).term_count == 72
    assert eval_layered(antisym_nodepair(2, 5), {}).term_count == 360


def test_wide_permutation_of_cups_in_bounded_memory():
    """Five cups, a 10-wire reversal and five caps close into five loops
    at n=5: a 3,125-entry state, whose permutation must not cost n^10 of
    anything.  Run under a 512 MB address-space limit, in a subprocess so
    that the limit binds nothing else."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tracediagrams

    root = str(Path(tracediagrams.__file__).resolve().parent.parent)
    path = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from tracediagrams.diagrams import Cap, Cup, LayeredDiagram, Perm\n"
        "from tracediagrams.evaluate import eval_layered\n"
        "d = LayeredDiagram(5, (), [(Cup(),) * 5,\n"
        "                           (Perm(tuple(range(10, 0, -1))),),\n"
        "                           (Cap(),) * 5])\n"
        "print(eval_layered(d, {}).tensor.as_scalar())\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3125\n"


def test_relabelling_counts_no_terms():
    assert eval_layered(LayeredDiagram(3, (VECTOR,) * 3,
                                       [(Perm((3, 1, 2)),)]), {}
                        ).term_count == 0
    # the cup and the cap form 3 products each; the crossing none
    circle = LayeredDiagram(3, (), [(Cup(),), (Cross(),), (Cap(),)])
    assert eval_layered(circle, {}).term_count == 6


def test_eval_layered_result_holds_no_zero():
    d = adjugate_diagram(3, "A")
    b = {"A": Matrix([[1, 2, 0], [0, 1, 3], [2, 0, 1]])}
    layered = eval_layered(d, b).tensor
    assert layered.nonzeros and all(layered.nonzeros.values())
    assert layered == eval_contraction(to_graph(d), b).tensor


# -- evaluation on given input columns ----------------------------------------------

def _on_columns(t, columns):
    """The nonzeros of t whose input half is one of columns."""
    size = t.n ** t.in_arity
    return {i: x for i, x in t.nonzeros.items() if i % size in columns}


def _column_cases():
    rng = random.Random(17)
    for n in (2, 3):
        yield from _builder_catalog(n)
    for _ in range(200):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        yield d, random_bindings(d, rng)


def test_columns_restrict_the_full_evaluation():
    """On a random subset of its input columns, eval_layered gives the full
    evaluation of either evaluator on those columns, and zero elsewhere;
    columns=range(n^k) is the default evaluation, term for term."""
    rng = random.Random(23)
    for d, b in _column_cases():
        size = d.n ** len(d.inputs)
        full = eval_layered(d, b)
        every = eval_layered(d, b, columns=range(size))
        assert every.tensor.nonzeros == full.tensor.nonzeros
        assert every.term_count == full.term_count
        columns = set(rng.sample(range(size), rng.randint(0, size)))
        got = eval_layered(d, b, columns=columns).tensor
        shape = (got.n, got.out_arity, got.in_arity)
        assert shape == (full.tensor.n, full.tensor.out_arity,
                         full.tensor.in_arity)
        assert got.nonzeros == _on_columns(full.tensor, columns)
        contraction = eval_contraction(to_graph(d), b).tensor
        assert got.nonzeros == _on_columns(contraction, columns)


def test_empty_columns_give_the_zero_tensor():
    t = eval_layered(adjugate_diagram(3, "A"), {"A": random_matrix(3, 5)},
                     columns=[]).tensor
    assert (t.n, t.out_arity, t.in_arity) == (3, 1, 1) and t.is_zero()


def test_column_outside_the_inputs_is_refused():
    d = antisym_nodepair(2, 3)
    for bad in (9, -1):
        with pytest.raises(ValueError, match=f"column {bad} "):
            eval_layered(d, {}, columns=[0, bad])


# -- cross-check ------------------------------------------------------------------

def test_eval_checked_on_builders():
    for d, b in ((loop_diagram(3), {}),
                 (trace_loop(2, "A"), {"A": A}),
                 (vertex_pair(2, [["A"], ["A"]]), {"A": A}),
                 (antisym_nodepair(2, 3), {}),
                 (adjugate_diagram(3, "A"), {"A": Matrix.identity(3)})):
        eval_checked(d, b)


def test_eval_checked_fuzz_campaign():
    rng = random.Random(7)
    for _ in range(60):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        eval_checked(d, random_bindings(d, rng))


def test_no_evaluation_path_builds_a_dense_list(monkeypatch):
    def dense(self):
        raise AssertionError("a dense entry list was built")
    monkeypatch.setattr(Tensor, "entries", property(dense))
    rng = random.Random(7)
    for _ in range(200):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        eval_checked(d, random_bindings(d, rng))
    for side in jacobi_diagrams(0, 5, "A"):
        assert eval_checked(side, {}).nonzeros
    t = antisym_tensor(4, 4)
    assert t.get((1, 2, 3, 4), (2, 1, 3, 4)) == -1


def test_eval_checked_small_families_at_n4():
    m = Matrix([[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1], [1, 1, 0, 2]])
    b = {"A": m}
    eval_checked(vertex_pair(4, [["A"]] * 4), b)
    eval_checked(adjugate_diagram(4, "A"), b)
    eval_checked(antisym_nodepair(2, 4), {})
    eval_checked(trace_loop(4, "A"), b)


def test_eval_checked_validates_each_form_once(monkeypatch):
    import tracediagrams.diagrams as diagrams_module
    calls = {"validate_layered": 0, "validate_graph": 0}
    originals = {name: getattr(diagrams_module, name) for name in calls}

    def counting(name):
        def validate(d):
            calls[name] += 1
            return originals[name](d)
        return validate

    for module in (diagrams_module, evaluate_module):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name))
    eval_checked(vertex_pair(3, [["A"]] * 3), {"A": Matrix.identity(3)})
    assert calls == {"validate_layered": 1, "validate_graph": 1}


def test_eval_checked_keeps_error_messages():
    bad = LayeredDiagram(2, (VECTOR, VECTOR), [(Id(),)])
    with pytest.raises(ValueError) as layered_err:
        eval_layered(bad, {})
    with pytest.raises(ValueError) as checked_err:
        eval_checked(bad, {})
    assert str(checked_err.value) == str(layered_err.value)
    assert str(checked_err.value).startswith("invalid diagram: ")
    with pytest.raises(ValueError, match="unbound matrix name 'A'"):
        eval_checked(trace_loop(2, "A"), {})


def test_contraction_path_calls_no_layered_kernel(monkeypatch):
    from tracediagrams import kernels

    rng = random.Random(5)
    cases = [(vertex_pair(4, [["A"]] * 4), {"A": M4}),
             (adjugate_diagram(3, "A"), {"A": Matrix.identity(3)}),
             (antisym_nodepair(2, 3), {})]
    for _ in range(20):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        cases.append((d, random_bindings(d, rng)))
    want = [eval_layered(d, b).tensor for d, b in cases]

    def forbidden(*args):
        raise AssertionError("contraction path called a layered kernel")

    for name in ("pair_contract", "permute_axes", "_strides", "_offsets"):
        monkeypatch.setattr(kernels, name, forbidden)
    for name in ("_apply", "_apply_mat", "_scatter_mat", "_dense_mat",
                 "_mostly_full", "_relabel", "_piece_table", "_vertex_table",
                 "_lexicographic_signs", "_perm_shifts"):
        monkeypatch.setattr(evaluate_module, name, forbidden)
    assert [graph_eval(d, b) for d, b in cases] == want


def test_layered_path_calls_no_contraction_kernel(monkeypatch):
    from tracediagrams import kernels

    rng = random.Random(6)
    cases = [(vertex_pair(4, [["A"]] * 4), {"A": M4}),
             (adjugate_diagram(3, "A"), {"A": Matrix.identity(3)}),
             (antisym_nodepair(2, 3), {})]
    for _ in range(20):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        cases.append((d, random_bindings(d, rng)))
    want = [graph_eval(d, b) for d, b in cases]

    def forbidden(*args):
        raise AssertionError("layered path called a contraction kernel")

    # every function the kernels module defines, so that a new kernel is
    # forbidden here without a change to this test
    names = [name for name, fn in vars(kernels).items()
             if inspect.isfunction(fn) and fn.__module__ == kernels.__name__]
    assert {"epsilon_network", "_join", "_sign_table"} <= set(names)
    for name in names:
        monkeypatch.setattr(kernels, name, forbidden)
    for name in ("_edge_factor", "_int_label", "_int_matmul", "_divided"):
        monkeypatch.setattr(evaluate_module, name, forbidden)
    assert [eval_layered(d, b).tensor for d, b in cases] == want


def test_fuzz_corpus_work_is_pinned():
    """A fixed fuzz corpus costs each evaluator a fixed number of terms and
    yields a fixed number of nonzeros, so a faster path cannot quietly do
    different work.  The layered terms and the nonzeros are those of the
    parent commit of the per-call overhead cuts (019a4aa).  The
    contraction terms fell from 15521 to 13082 when an unlabeled edge
    between two boundary vertices became one variable read at both
    instead of a δ factor joined with the rest: such a wire now costs
    only the entries it spreads the result over."""
    rng = random.Random(12)
    layered_terms = contraction_terms = nonzeros = 0
    for _ in range(300):
        d = random_layered_diagram(rng.choice((2, 3)), rng, max_width=3)
        bindings = random_bindings(d, rng)
        layered = eval_layered(d, bindings)
        contraction = eval_contraction(to_graph(d), bindings)
        assert layered.tensor == contraction.tensor
        layered_terms += layered.term_count
        contraction_terms += contraction.term_count
        nonzeros += len(layered.tensor.nonzeros)
    assert (layered_terms, contraction_terms, nonzeros) == \
        (27144, 13082, 6468)


def test_probe_work_is_pinned():
    """A probe pins every boundary variable.  The joins that restrict
    factors to the pinned digits are not counted, so a probe's terms are
    the products of its eliminations and the one entry written.  Each
    det_permsum term's probe at the identity entry forms no product, so
    on a matrix with no zero entry it costs one term."""
    counts = []
    for n in (2, 3, 4):
        a = Matrix([[n * r + c + 1 for c in range(n)] for r in range(n)])
        basis = tuple(range(1, n + 1))
        counts.append(sum(
            eval_contraction(to_graph(d), {"A": a},
                             probe=(basis, basis)).term_count
            for _, d in det_permsum(n, "A")))
    assert counts == [2, 6, 24]
    rng = random.Random(13)
    terms = 0
    for _ in range(200):
        d = random_layered_diagram(rng.choice((2, 3)), rng, max_width=3)
        probe = tuple(tuple(rng.randint(1, d.n) for _ in slots)
                      for slots in (d.outputs(), d.inputs))
        terms += eval_contraction(to_graph(d), random_bindings(d, rng),
                                  probe=probe).term_count
    assert terms == 349


def _random_rational_matrix(n, rng):
    return Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(n)] for _ in range(n)])


def test_edge_factor_matches_matrix_product():
    """The integer factor over its denominator is the product of the
    labels, the one nearest the tail applied first."""
    rng = random.Random(8)
    for n in (1, 2, 3, 4):
        bindings = {name: _random_rational_matrix(n, rng) for name in "ABC"}
        memo = {}
        for _ in range(40):
            labels = tuple((rng.choice("ABC"), rng.random() < 0.5)
                           for _ in range(rng.randint(1, 4)))
            want = Matrix.identity(n)
            for name, transposed in labels:
                lab = bindings[name]
                want = (lab.transpose() if transposed else lab) @ want
            for table in (memo, {}):
                flat, denom = evaluate_module._edge_factor(
                    labels, bindings, n, table)
                assert all(isinstance(x, int) for x in flat)
                got = Matrix([[Fraction(flat[i * n + j], denom)
                               for j in range(n)] for i in range(n)])
                assert got == want, (n, labels)


def test_contraction_path_builds_no_matrix(monkeypatch):
    rng = random.Random(9)
    cases = [(vertex_pair(3, [["A"]] * 3),
              {"A": _random_rational_matrix(3, rng)}),
             (adjugate_diagram(3, "A"), {"A": _random_rational_matrix(3, rng)})]
    for _ in range(30):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        cases.append((d, {name: _random_rational_matrix(d.n, rng)
                          for name in sorted(d.matrix_names())}))
    assert sum(bool(d.matrix_names()) for d, _ in cases) > 10
    graphs = [(to_graph(d), b) for d, b in cases]
    want = [eval_layered(d, b).tensor for d, b in cases]

    def forbidden(*args):
        raise AssertionError("contraction path built a Matrix")

    monkeypatch.setattr(Matrix, "__init__", forbidden)
    monkeypatch.setattr(Matrix, "__matmul__", forbidden)
    assert [eval_contraction(g, b).tensor for g, b in graphs] == want


def test_det_circle_n6_on_both_evaluators():
    n = 6
    a = Matrix([[3, -1, 4, 1, -5, 9], [2, 6, -5, 3, 5, -8],
                [9, 7, 9, -3, 2, 3], [-8, 4, 6, 2, -6, 4],
                [3, 3, -8, 3, 2, 7], [9, -5, 1, 2, 8, -8]])
    want = reversal_sign(n) * factorial(n) * det_oracle(a)
    d = vertex_pair(n, [["A"]] * n)
    assert eval_layered(d, {"A": a}).tensor.as_scalar() == want
    assert graph_eval(d, {"A": a}).as_scalar() == want


def test_jacobi_k0_sides_contraction_counts():
    # each k = 0 side is two ε factors sharing no variable, multiplied in
    # by flat offsets: 120 * 120 products, then as many entries written
    bindings = {"A": random_matrix(5, 1)}
    lhs, rhs = (eval_contraction(to_graph(d), bindings)
                for d in jacobi_diagrams(0, 5, "A"))
    for side in (lhs, rhs):
        assert side.term_count == 28800
        assert len(side.tensor.nonzeros) == 14400
    assert lhs.tensor == rhs.tensor


def test_corrupted_ciliation_raises_mismatch(monkeypatch):
    d = antisym_nodepair(1, 3)

    def corrupted(diagram):
        g = to_graph(diagram)
        from tracediagrams.diagrams import GNode
        for vid, v in enumerate(g.vertices):
            if isinstance(v, GNode):
                cil = list(v.ciliation)
                cil[0], cil[1] = cil[1], cil[0]
                g.vertices[vid] = GNode(v.direction, tuple(cil))
                break
        return g

    monkeypatch.setattr(evaluate_module, "to_graph", corrupted)
    with pytest.raises(CrossCheckMismatch) as info:
        eval_checked(d, {})
    err = info.value
    assert err.layered_value != err.contraction_value


def test_adjugate_ratio_fixture():
    composed = compose_vertical(adjugate_diagram(2, "A"),
                                LayeredDiagram(2, (VECTOR,), [(Mat("A"),)]))
    got = eval_checked(composed, {"A": A})
    assert got == Tensor.identity(2, 1).scale(2)
