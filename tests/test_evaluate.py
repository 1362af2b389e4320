"""The two evaluators and their cross-check."""

import inspect
import random
import types
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import factorial

import pytest

import tracediagrams.evaluate as evaluate_module
from tracediagrams.builders import (adjugate_diagram, antisym_nodepair,
                                    antisym_permsum, antisym_tensor,
                                    det_permsum, jacobi_diagrams,
                                    loop_diagram, trace_loop, vertex_pair)
from tracediagrams.diagrams import (COVECTOR, SINK, SOURCE, VECTOR, Cap,
                                    Cross, Cup, Id, LayeredDiagram, Mat,
                                    NVertex, Perm, canonical_ciliation,
                                    compose_vertical, piece_step, to_graph)
from tracediagrams.evaluate import (CrossCheckMismatch, eval_checked,
                                    eval_contraction, eval_layered)
from tracediagrams.fuzz import random_bindings, random_layered_diagram
from tracediagrams.identities import random_matrix, run_check
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


def _compositions(j):
    """Every tuple of positive run lengths that sums to j."""
    if j == 0:
        return [()]
    return [(r,) + rest for r in range(1, j + 1)
            for rest in _compositions(j - r)]


def _increasing_in_runs(digits, runs):
    at = 0
    for r in runs:
        if list(digits[at:at + r]) != sorted(digits[at:at + r]):
            return False
        at += r
    return True


def _full_table(piece, n):
    """A vertex's table keyed by every input block, every row holding
    every output block: each wire a run of its own."""
    j = piece.in_count
    return evaluate_module._vertex_table(n, piece.ciliation, (1,) * j,
                                         (1,) * (n - j))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertex_tensor_matches_entrywise_definition(n):
    # a vertex piece's table must hold exactly the nonzero Levi-Civita
    # signs of every entry's digits read in ciliation order, keyed by
    # input block, for every composition of its input block and of its
    # output block into runs: the keys whose digits increase within each
    # input run, and in each row the output blocks whose digits increase
    # within each output run, with the signs of the entries
    rng = random.Random(100 + n)
    for j in range(n + 1):
        ciliations = [canonical_ciliation(n, j)]
        ciliations += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
        for cil in ciliations:
            full = {}
            for by_slot in product(range(n), repeat=n):
                sign = levi_civita(tuple(by_slot[s - 1] + 1 for s in cil))
                if sign:
                    full.setdefault(by_slot[:j], []).append(
                        (by_slot[j:], sign))
            for in_runs, out_runs in product(_compositions(j),
                                             _compositions(n - j)):
                want = {
                    _flat(ins, n): sorted(
                        (_flat(outs, n), sign) for outs, sign in row
                        if _increasing_in_runs(outs, out_runs))
                    for ins, row in full.items()
                    if _increasing_in_runs(ins, in_runs)}
                got = evaluate_module._vertex_table(n, cil, in_runs,
                                                    out_runs)
                assert {b: sorted(row) for b, row in got.items()} == want, \
                    (cil, in_runs, out_runs)
                assert all(type(c) is int
                           for row in got.values() for _, c in row)


def test_ciliations_of_one_parity_share_a_vertex_table():
    # a ciliation only signs the table, so the 24 ciliations at n = 4
    # read two tables
    tables = {id(evaluate_module._vertex_table(4, cil, (1, 1), (1, 1)))
              for cil in permutations(range(1, 5))}
    assert len(tables) == 2


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
            if isinstance(piece, NVertex):
                table = _full_table(piece, n)
            elif not isinstance(piece, Mat):
                images = piece.images if isinstance(piece, Perm) else ()
                table = evaluate_module._piece_table(n, type(piece), images)
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
                            state, n, arity, offset,
                            evaluate_module._oriented(piece, pol, b))
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
    # a Mat pass on every state against the definition: Fraction entries,
    # a zero row and a zero column, rows whose products cancel on equal
    # digits, both polarities and both against flags
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
                    # every slot, most slots or a quarter of the slots
                    # filled; equal values make the cancelling rows cancel
                    for fill in ((1, 2), (0, 1, 1, 2, 1, h), (0, 0, 0, -1)):
                        state = {i: x for i in range(n ** arity)
                                 if (x := rng.choice(fill))}
                        want = _apply_by_definition(
                            state, n, arity, offset, 1, 1, entry)
                        got, terms = evaluate_module._apply_mat(
                            state, n, arity, offset,
                            evaluate_module._oriented(piece, pol, b))
                        assert (got, terms) == want, (n, arity, piece, pol)
                        assert all(got.values())


def test_fuse_matches_matrix_product():
    """A wire's pending matrix after two labels is the later one times
    the earlier one, exactly."""
    rng = random.Random(24)
    for n in (1, 2, 3, 4):
        later, earlier = (_random_rational_matrix(n, rng) for _ in "ab")
        assert Matrix(evaluate_module._fuse(later.rows, earlier.rows)) == \
            later @ earlier


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_absorbed_inputs_match_a_pass_per_wire(n):
    """A vertex that absorbs its inputs' pending matrices into sorted
    digits before its table, keyed by the runs of the absorbed block, and
    a cap's one table of P^T Q, give the state of an _apply_mat pass per
    labeled wire followed by the piece's full table: on random sparse
    states, for every in_count from the source (0) to the sink (n),
    canonical and shuffled ciliations and every subset of labeled
    inputs."""
    ev = evaluate_module
    rng = random.Random(300 + n)
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    pieces = [Cap()]
    for j in range(n + 1):
        pieces += [NVertex(SINK, j, canonical_ciliation(n, j)),
                   NVertex(SINK, j, tuple(rng.sample(range(1, n + 1), n)))]
    for piece in pieces:
        j_in, j_out = piece_step(piece, n, (), 0)[:2]
        if isinstance(piece, NVertex):
            table = _full_table(piece, n)
        else:
            table = ev._piece_table(n, Cap, ())
        for labeled in product((False, True), repeat=j_in):
            wires = [_random_rational_matrix(n, rng).rows if on else None
                     for on in labeled]
            arity = j_in + rng.randint(0, 2)
            offset = rng.randint(0, arity - j_in)
            state = {rng.randrange(n ** arity): rng.choice(values)
                     for _ in range(12)}
            want = state
            for s, rows in enumerate(wires):
                if rows is not None:
                    want = ev._apply_mat(want, n, arity, offset + s, rows)[0]
            want = ev._apply(want, n, arity, offset, j_in, j_out, table)[0]
            got, last = state, table
            if isinstance(piece, NVertex):
                got, _, scale, runs = ev._absorb(state, n, arity, offset,
                                                 wires, {})
                assert scale == 1       # no input is in a sorted group
                last = ev._vertex_table(n, piece.ciliation, runs,
                                        (1,) * j_out)
            elif any(labeled):
                last = ev._cap_table(n, *wires)[0]
            got = ev._apply(got, n, arity, offset, j_in, j_out, last)[0]
            assert got == want, (piece, labeled, arity, offset)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extracted_groups_match_the_expanded_state(n):
    """A state held at increasing digits only on each group of a vertex's
    inputs, absorbed by _absorb and then the vertex table keyed by the
    runs it leaves, times the returned scale, gives what the
    state expanded into all the orderings of each group, with the sign of
    each, gives without groups: for every in_count, every composition of
    the inputs into groups and single wires (a group at the front of the
    inputs is the sorted prefix when it holds no label), canonical and
    shuffled ciliations, no label, every label and random subsets."""
    ev = evaluate_module
    rng = random.Random(400 + n)
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    for j in range(2, n + 1):
        for cil in (canonical_ciliation(n, j),
                    tuple(rng.sample(range(1, n + 1), n))):
            table = _full_table(NVertex(SINK, j, cil), n)
            for composition in _compositions(j):
                groups = {}
                for at, r in enumerate(composition):
                    if r > 1:
                        groups[sum(composition[:at])] = r
                subsets = [(False,) * j, (True,) * j]
                subsets += [tuple(rng.random() < 0.5 for _ in range(j))
                            for _ in range(2)]
                for labeled in subsets:
                    wires = [_random_rational_matrix(n, rng).rows if on
                             else None for on in labeled]
                    arity = j + rng.randint(0, 2)
                    offset = rng.randint(0, arity - j)
                    stored, expanded = {}, {}
                    for _ in range(6):
                        digits = [rng.randrange(n) for _ in range(arity)]
                        for g, r in groups.items():
                            at = offset + g
                            digits[at:at + r] = sorted(rng.sample(range(n),
                                                                  r))
                        value = rng.choice(values)
                        stored[_flat(digits, n)] = value
                        orders = [permutations(range(r))
                                  for r in groups.values()]
                        for sigmas in product(*orders):
                            moved, sign = list(digits), value
                            for (g, r), sigma in zip(groups.items(), sigmas):
                                at = offset + g
                                moved[at:at + r] = [digits[at + i]
                                                    for i in sigma]
                                sign *= levi_civita(tuple(i + 1
                                                          for i in sigma))
                            expanded[_flat(moved, n)] = sign
                    want, _, one, _ = ev._absorb(expanded, n, arity, offset,
                                                 wires, {})
                    assert one == 1
                    want = ev._apply(want, n, arity, offset, j, n - j,
                                     table)[0]
                    got, _, scale, runs = ev._absorb(stored, n, arity, offset,
                                                     wires, groups)
                    got = ev._apply(got, n, arity, offset, j, n - j,
                                    ev._vertex_table(n, cil, runs,
                                                     (1,) * (n - j)))[0]
                    assert {k: v * scale for k, v in got.items()} == want, \
                        (j, cil, composition, labeled)


def _mutant(old, new):
    """A fresh copy of the evaluate module, built from its source with the
    one occurrence of old replaced by new."""
    source = inspect.getsource(evaluate_module)
    assert source.count(old) == 1, old
    module = types.ModuleType(evaluate_module.__name__)
    module.__package__ = evaluate_module.__package__
    exec(compile(source.replace(old, new), evaluate_module.__file__, "exec"),
         vars(module))
    return module


def _first_mismatch(module, count=500):
    """The index of the first of count seeded fuzz diagrams (n = 2 or 3,
    width 5) on which module's eval_checked raises, or None.  Caps whose
    two wires both carry labels are rare: a cap that drops its right
    wire's matrix first fails on diagram 437."""
    rng = random.Random(25)
    for i in range(count):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        bindings = random_bindings(d, rng)
        try:
            module.eval_checked(d, bindings)
        except module.CrossCheckMismatch:
            return i
    return None


_PERM_IMAGES = "images = piece.images if kind is Perm else (2, 1)"
_TOP = "for pos, rows in pending.items():"


@pytest.mark.parametrize("old, new", [
    # the labels on a wire fused in the wrong order (earlier @ later)
    ("rows = _fuse(rows, held[pos_old])",
     "rows = _fuse(held[pos_old], rows)"),
    # a pending matrix left at its position by a crossing, or by a
    # permutation, while its wire moves
    (_PERM_IMAGES, "images = piece.images if kind is Perm else (1, 2)"),
    (_PERM_IMAGES, "images = sorted(piece.images) if kind is Perm "
                   "else (2, 1)"),
    # a digit inserted into a vertex's sorted digits with the sign of the
    # smaller digits it passes instead of the greater
    ("-1 if (s - i) & 1 else 1", "-1 if i & 1 else 1"),
    # an unlabeled vertex input between labeled ones not absorbed, so the
    # digits before the next labeled input are not sorted
    ("if s or rows is not None:", "if rows is not None:"),
    # a cap reading its left wire's pending matrix P where P^T is due, or
    # dropping its right wire's when both carry one
    ("m = list(zip(*p))", "m = p"),
    ("m, terms = _fuse(m, q), n ** 3", "terms = n ** 3"),
    # the pending matrices at the top boundary dropped
    (_TOP, "for pos, rows in ():"),
])
def test_fold_mutants_fail_the_cross_check(old, new):
    assert _first_mismatch(_mutant(old, new)) is not None


def _group_diagram(rng):
    """A seeded n = 4 diagram built to meet sorted groups: a vertex with
    m >= 2 outputs beside two input wires, a slice of random Id, Mat,
    Cross, Cup and Cap pieces over all of them, a slice of labels, and a
    vertex that takes 2 or more of the wires that begin the top profile
    with the outputs' polarity.  The fold keeps the outputs as a group
    when the random slice leaves them alone and the last vertex takes
    all of them.  Shapes whose boundary would exceed 7 wires are drawn
    again, so that every diagram stays cheap."""
    n = 4
    while True:
        m = rng.randint(2, n)
        birth = rng.choice((SINK, SOURCE))
        out, into = (COVECTOR, VECTOR) if birth == SINK else (VECTOR,
                                                                COVECTOR)
        inputs = [into] * (n - m) + [rng.choice((VECTOR, COVECTOR))
                                     for _ in range(2)]
        profile = [out] * m + inputs[n - m:]
        pieces, top, pos = [], [], 0
        while pos < len(profile):
            pair = tuple(profile[pos:pos + 2])
            kind = rng.choice(("id", "id", "mat", "cross", "cup", "cap"))
            if kind == "cross" and len(pair) == 2:
                pieces.append(Cross())
                top += pair[::-1]
                pos += 2
            elif kind == "cap" and len(set(pair)) == 2:
                pieces.append(Cap())
                pos += 2
            elif kind == "cup" and Cup() not in pieces:
                pieces.append(Cup())
                top += [COVECTOR, VECTOR]
            else:
                pieces.append(Mat("B") if kind == "mat" else Id())
                top.append(profile[pos])
                pos += 1
        run = 0
        while run < min(n, len(top)) and top[run] == out:
            run += 1
        if run < 2:
            continue
        j = rng.randint(2, run)
        if len(inputs) + len(top) - 2 * j + n > 7:
            continue
        first, last = (tuple(rng.sample(range(1, n + 1), n)) for _ in "ab")
        return LayeredDiagram(n, inputs, [
            (NVertex(birth, n - m, first),) + (Id(), Id()),
            tuple(pieces),
            tuple(rng.choice((Id(), Id(), Mat("A"))) for _ in top),
            (NVertex(SOURCE if birth == SINK else SINK, j, last),)
            + (Id(),) * (len(top) - j)])


def _first_group_mismatch(module, count=150):
    """The index of the first of count seeded _group_diagram corpus
    diagrams on which module's eval_checked raises, or None."""
    rng = random.Random(26)
    for i in range(count):
        d = _group_diagram(rng)
        try:
            module.eval_checked(d, random_bindings(d, rng))
        except module.CrossCheckMismatch:
            return i
    return None


# a group's wires carried on by a piece other than Id and Mat, at the
# piece's first output positions, as if it were a row of Id pieces
_CARRY = ("groups.update((offset + s, held_groups[pos_old + s]) for s in "
          "range(j_in) if {}pos_old + s in held_groups); ")
_RELABEL = "passes.append((offset, j_in, None, table))"
_TABLE = "table = _piece_table(n, kind, ())"


@pytest.mark.parametrize("old, new", [
    # a digit moved to the front of a sorted group with the sign +1
    ("-1 if j & 1 else 1", "1"),
    # the r! orderings of a group's wires past the last labeled input
    # not counted
    ("scale *= factorial(ends[s] - s)", "scale *= 1"),
    # a group kept while a crossing meets its wires, while a cup's wires
    # sit among them, or while a cap takes one of them
    (_RELABEL, _CARRY.format("kind is Cross and ") + _RELABEL),
    ("held_groups.get(pos + t) == (p, t, m)",
     "held_groups.get(pos + t, (p, t, m)) == (p, t, m)"),
    (_TABLE, _CARRY.format("") + _TABLE),
    # a group kept for a vertex that takes only some of its wires
    ("0 <= s <= j_in - m", "0 <= s < j_in"),
    # a vertex writing its decreasing output blocks where the extraction
    # passes read increasing ones
    ("_run_blocks(rest, out_runs, n, memo)",
     "_run_blocks(rest[::-1], out_runs, n, memo)"),
    # a vertex whose inputs the state holds sorted reading its rows at the
    # decreasing input blocks, or without the sign of its digit set
    ("_run_blocks(chosen, in_runs, n, memo)",
     "_run_blocks(chosen[::-1], in_runs, n, memo)"),
    ("sign = -cil_sign if (sum(chosen) - pairs) & 1 else cil_sign",
     "sign = cil_sign"),
    # a group's position left where it was by the Id and Mat pieces that
    # carry it, past a cup, a cap or a vertex beside it
    ("groups[offset] = held_groups[pos_old]",
     "groups[pos_old] = held_groups[pos_old]"),
    # the r! orderings of an unlabeled group at the front of a vertex's
    # inputs, taken as its sorted prefix, not counted
    ("scale = factorial(front)", "scale = 1"),
    # a group at the front of a vertex's inputs taken as its sorted prefix
    # though a wire of it is labeled
    ("not any(wires[:ends[0]])", "(ends[0] > 1 or not any(wires[:ends[0]]))"),
    # a table keyed by runs that signs each block by its first run only
    ("tail = _run_signs(runs[1:])", "tail = [1] * len(_run_signs(runs[1:]))"),
])
def test_group_mutants_fail_the_cross_check(old, new):
    assert _first_group_mismatch(_mutant(old, new)) is not None


def test_group_beside_an_unlabeled_input_is_not_sorted_input():
    # a vertex whose inputs are an unlabeled group of two and one more
    # unlabeled wire holds blocks that increase on the group only, so its
    # table is keyed by the runs (2, 1); read as one run, it drops every
    # entry whose third digit is not the greatest
    d = LayeredDiagram(4, (VECTOR, VECTOR, COVECTOR, COVECTOR), [
        (NVertex(SINK, 2, canonical_ciliation(4, 2)), Id(), Id()),
        (NVertex(SOURCE, 3, canonical_ciliation(4, 3)), Id())])
    eval_checked(d, {})
    module = _mutant("block += (ends[s] - s,)",
                     "block = (block[0] + ends[s] - s,)")
    with pytest.raises(module.CrossCheckMismatch):
        module.eval_checked(d, {})


def test_group_after_an_unlabeled_input_is_scaled_by_its_orders():
    # a group of two after an unlabeled input wire is a run past the
    # sorted prefix, which no pass opens: the fold scales the result by
    # its 2! orders (288 terms, 576 without the group); the group corpus
    # first meets such a run at diagram 130
    d = LayeredDiagram(4, (VECTOR, COVECTOR, COVECTOR, VECTOR), [
        (Id(), NVertex(SOURCE, 2, canonical_ciliation(4, 2)), Id()),
        (NVertex(SINK, 3, canonical_ciliation(4, 3)), Id())])
    eval_checked(d, {})
    assert eval_layered(d, {}).term_count == 288
    module = _mutant("scale *= factorial(ends[s] - s)", "scale *= 1")
    with pytest.raises(module.CrossCheckMismatch):
        module.eval_checked(d, {})


def test_unmutated_copy_passes_the_cross_check():
    # the harness of the mutant tests: the same corpora, the same code.
    # Of the group corpus's vertex tables, 18 write a group, 75 with two
    # or more inputs read one run of increasing input blocks, and 39 are
    # keyed by two or more runs, one of them a group
    module = _mutant(_TOP, _TOP)
    assert _first_mismatch(module) is None
    table, keys = module._vertex_table, []

    def counted(n, ciliation, in_runs, out_runs):
        keys.append((in_runs, out_runs))
        return table(n, ciliation, in_runs, out_runs)

    module._vertex_table = counted
    assert _first_group_mismatch(module) is None
    assert sum(len(out) == 1 and out[0] > 1 for _, out in keys) == 18
    assert sum(len(ins) == 1 and ins[0] > 1 for ins, _ in keys) == 75
    assert sum(len(ins) > 1 and max(ins) > 1 for ins, _ in keys) == 39


def test_fold_drops_cancelled_entries():
    n = 2
    # e1 - e2 through the matrix [[1, 1], [0, 0]]: its products cancel
    rows = evaluate_module._oriented(Mat("A"), VECTOR,
                                     {"A": Matrix([[1, 1], [0, 0]])})
    assert evaluate_module._apply_mat({0: 1, 1: -1}, n, 1, 0, rows) == \
        ({}, 2)
    # a cap meets a state whose diagonal sums to zero
    diag = {_flat((0, 0), n): 3, _flat((1, 1), n): -3}
    assert evaluate_module._apply(
        diag, n, 2, 0, 2, 0, evaluate_module._piece_table(n, Cap, ())) == \
        ({}, 2)


def _dense_matrix(n, seed):
    """perfbench.workloads.dense_matrix: entries in [-9, 9], none zero."""
    rng = random.Random(seed)
    return Matrix([[rng.choice((-1, 1)) * rng.randint(1, 9)
                    for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n, terms", [(3, 69), (4, 446), (5, 2345),
                                      (6, 11770), (7, 57039), (8, 269768)])
def test_layered_det_circle_term_count(n, terms):
    """One product per (state nonzero, table coefficient).  The sink
    absorbs its labeled inputs one at a time into sorted digits, so each
    set of absorbed digits is one state entry where each of its orders
    was one before; with a pass of A per wire ahead of the vertex table
    the counts were 132, 1488, 18780 and 273024 for n = 3..6, and n = 7
    took 4.5M terms.  From n = 4 the source writes its outputs as one
    sorted group too, one entry where it wrote n!, and the sink moves
    each wire's digit to the front of the group's rest (n - s entries per
    entry for the s-th wire) before absorbing it: the counts were 569,
    5328, 56185 and 654854 for n = 4..7 and 8328465 at n = 8 with the
    source's n! orders, and n = 3, below the group rule, keeps 69."""
    a = _dense_matrix(n, 1)
    res = eval_layered(vertex_pair(n, [["A"]] * n), {"A": a})
    assert res.term_count == terms
    assert res.tensor.as_scalar() == \
        reversal_sign(n) * factorial(n) * det_oracle(a)


@pytest.mark.parametrize("n, terms", [(2, 13), (3, 97), (4, 35), (5, 80),
                                      (6, 195), (7, 451), (8, 1023),
                                      (9, 2300)])
def test_contraction_det_circle_term_count(n, terms):
    """The circle's n labeled edges are one bundle: each vertex's ε holds
    the one entry whose digits increase in its slot order, and the minors'
    factor the one n x n determinant, expanded along its first row,
    bottom up, once per (row suffix, column subset) pair: at most
    n * 2^(n-1) products, fewer where a smaller minor is zero (11 of 12
    at n = 3, 77 of 80 at n = 5, 1020 of 1024 at n = 8, 2297 of 2304 at
    n = 9).  Three more terms join the three one-entry factors and write
    the result.
    Summed against one matrix at a time, the circle took 13, 97, 1169,
    16166, 250021 and 4257506 terms at n = 2..7.  Bundles form from
    n = 4 only, as the fold's groups do: at n = 2 and 3 the search cost
    more time than the smaller tables saved, so there the circle is
    summed against one matrix at a time, 13 and 97 terms, where a bundle
    took 7 and 14."""
    a = _dense_matrix(n, 1)
    res = eval_contraction(to_graph(vertex_pair(n, [["A"]] * n)), {"A": a})
    assert res.term_count == terms
    assert res.tensor.as_scalar() == \
        reversal_sign(n) * factorial(n) * det_oracle(a)


def test_contraction_path_reaches_the_circle_checks_frontier():
    """The det circle at n = 8 and 9 and the adjugate diagram composed with
    A at n = 7, each well under a second on the contraction path (about
    a millisecond each on a 2-core x86-64 host)."""
    from time import perf_counter

    for n in (8, 9):
        a = _dense_matrix(n, n)
        graph = to_graph(vertex_pair(n, [["A"]] * n))
        start = perf_counter()
        value = eval_contraction(graph, {"A": a}).tensor.as_scalar()
        assert perf_counter() - start < 1
        assert value == reversal_sign(n) * factorial(n) * det_oracle(a)
    n = 7
    a = _dense_matrix(n, 7)
    graph = to_graph(compose_vertical(
        adjugate_diagram(n, "A"),
        LayeredDiagram(n, (VECTOR,), [(Mat("A"),)])))
    start = perf_counter()
    t = eval_contraction(graph, {"A": a}).tensor
    assert perf_counter() - start < 1
    c = reversal_sign(n) * factorial(n - 1) * det_oracle(a)
    assert t.entries == [c if i == j else 0
                         for i in range(n) for j in range(n)]


def _built_vertex_tables(monkeypatch):
    """Empty vertex-table caches for one test: the list returned gets
    each table the parity-keyed builder makes, once per build."""
    built = []
    build = evaluate_module._parity_table.__wrapped__

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(evaluate_module, "_parity_table", cache(recorded))
    monkeypatch.setattr(evaluate_module, "_vertex_table",
                        cache(evaluate_module._vertex_table.__wrapped__))
    return built


@pytest.mark.parametrize("n", [6, 7, 8])
def test_det_circle_reads_one_entry_vertex_tables(monkeypatch, n):
    """The source writes its outputs as one sorted group and the sink
    absorbs every input, labeled or, in the unlabeled circle, taken as one
    sorted group at the front of its inputs: the two circles share two
    tables, each the one entry that the fold reads of a vertex's n!."""
    tables = _built_vertex_tables(monkeypatch)
    a = _dense_matrix(n, 1)
    for labels, bindings in (([["A"]] * n, {"A": a}), ([[]] * n, {})):
        res = eval_layered(vertex_pair(n, labels), bindings)
        value = det_oracle(a) if bindings else 1
        assert res.tensor.as_scalar() == \
            reversal_sign(n) * factorial(n) * value
    assert len(tables) == 2
    assert all(sum(map(len, t.values())) == 1 for t in tables)


def test_char_coefficients_reads_run_keyed_tables(monkeypatch):
    """char_coefficients' sinks take labeled inputs and then an unlabeled
    group of a source's outputs: two increasing runs, so a sink's table
    holds C(n, s) keys for s labeled inputs where all n! orders of its
    inputs were keys before.  At n = 6 no table holds more than
    C(6, 3) = 20."""
    tables = _built_vertex_tables(monkeypatch)
    assert run_check("char_coefficients", n=6, trials=1,
                     seed=7).outcome == "pass"
    assert tables and max(len(t) for t in tables) <= 20


def _width5_n4_corpus():
    """The width-5 n = 4 fuzz corpus: diagram i, then its bindings, from
    one random.Random(4)."""
    rng = random.Random(4)
    for _ in range(200):
        d = random_layered_diagram(4, rng)
        yield d, random_bindings(d, rng)


def test_front_group_is_the_sorted_prefix():
    """In diagrams 85 and 192 of the width-5 n = 4 corpus a source's three
    outputs, unlabeled, are a sink's first three inputs and a labeled
    wire its fourth.  That group is the sorted prefix, which absorbing
    starts after, scaled by 3!: diagram 192 does 473 terms, where
    extracting each group wire before absorbing it did 1,625 and the
    source's outputs in all their orders 1,369, and diagram 85 does
    67,280, where extracting did 68,432 and no group 68,176."""
    terms = {}
    for i, (d, b) in enumerate(_width5_n4_corpus()):
        if i in (85, 192):
            res = eval_layered(d, b)
            assert res.tensor == eval_contraction(to_graph(d), b).tensor
            terms[i] = res.term_count
    assert terms == {85: 67280, 192: 473}


def test_layered_nodepair_term_count():
    """The sink's outputs are one sorted group, which the source takes
    as the sorted prefix of its inputs (none is labeled): the sink writes
    one entry per output set where it wrote one per order, and the
    source's table applies to it, the result scaled by r!.  Before groups
    the counts were 72 and 360, and at n = 3, below the group rule, 18 is
    unchanged."""
    assert eval_layered(antisym_nodepair(2, 3), {}).term_count == 18
    assert eval_layered(antisym_nodepair(2, 4), {}).term_count == 36
    assert eval_layered(antisym_nodepair(2, 5), {}).term_count == 60


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
    # a labeled bundle of five edges and one of two labeled A^T between
    # vertices with random ciliations, then an unlabeled one of three
    bundles = LayeredDiagram(5, (), [
        (NVertex(SOURCE, 0, tuple(rng.sample(range(1, 6), 5))),),
        (Mat("A"),) * 5,
        (NVertex(SINK, 5, tuple(rng.sample(range(1, 6), 5))),)])
    pair = LayeredDiagram(5, (), [
        (NVertex(SOURCE, 0, tuple(rng.sample(range(1, 6), 5))),),
        (Mat("A", True), Id(), Mat("A", True), Id(), Id()),
        (NVertex(SINK, 5, tuple(rng.sample(range(1, 6), 5))),)])
    # a sink with A on two inputs and two outputs, a boundary bundle of
    # four, and B^T on its fifth wire
    dressed = LayeredDiagram(5, (VECTOR,) * 3, [
        (Mat("A"), Mat("B", True), Mat("A")),
        (NVertex(SINK, 3, tuple(rng.sample(range(1, 6), 5))),),
        (Mat("A"), Mat("A"))])
    cases = [(vertex_pair(4, [["A"]] * 4), {"A": M4}),
             (adjugate_diagram(3, "A"), {"A": Matrix.identity(3)}),
             (antisym_nodepair(2, 3), {}),
             (bundles, {"A": _dense_matrix(5, 2)}),
             (pair, {"A": _dense_matrix(5, 3)}),
             (dressed, {"A": _dense_matrix(5, 4), "B": _dense_matrix(5, 5)})]
    for _ in range(20):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        cases.append((d, random_bindings(d, rng)))
    want = [eval_layered(d, b).tensor for d, b in cases]

    def forbidden(*args):
        raise AssertionError("contraction path called a layered kernel")

    for name in ("pair_contract", "permute_axes", "_strides", "_offsets"):
        monkeypatch.setattr(kernels, name, forbidden)
    for name in ("_apply", "_apply_mat", "_oriented", "_fuse", "_relabel",
                 "_absorb", "_absorb_table", "_insertions", "_cap_table",
                 "_block", "_piece_table", "_vertex_table", "_parity_table",
                 "_run_blocks", "_perm_shifts", "_passes",
                 "_extraction_table"):
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

    # every function the kernels module defines, a cached one included, so
    # that a new kernel is forbidden here without a change to this test
    names = [name for name, fn in vars(kernels).items()
             if inspect.isfunction(inspect.unwrap(fn))
             and fn.__module__ == kernels.__name__]
    assert {"epsilon_network", "_join", "sign_table"} <= set(names)
    for name in names:
        monkeypatch.setattr(kernels, name, forbidden)
    for name in ("_edge_factor", "_int_label", "_int_matmul", "_divided",
                 "_bundles", "_bundle_factors", "_minor_table",
                 "_minor_plan", "_minor_columns", "_inversions"):
        monkeypatch.setattr(evaluate_module, name, forbidden)
    assert [eval_layered(d, b).tensor for d, b in cases] == want


def test_fuzz_corpus_work_is_pinned():
    """A fixed fuzz corpus costs each evaluator a fixed number of terms and
    yields a fixed number of nonzeros, so a faster path cannot quietly do
    different work.  The nonzeros are those of the parent commit of the
    per-call overhead cuts (019a4aa).  The contraction terms fell from
    15521 to 13082 when an unlabeled edge between two boundary vertices
    became one variable read at both instead of a δ factor joined with
    the rest: such a wire now costs only the entries it spreads the
    result over.  The layered terms fell from 27144 to 17669 when the
    labels on one wire were fused into one matrix applied where the wire
    ends: each product of two labels counts n^3 terms, one per product of
    entries, and the wire's one pass counts a term per (state nonzero,
    nonzero coefficient) pair as each label's pass did.  They fell to
    16443 when vertices absorbed their inputs' matrices into sorted
    digits, one entry per digit set where each order was one, and a cap
    took its wires' matrices in one table of P^T Q instead of a pass per
    wire and a cap pass.  Sorted output groups form from n = 4 only, so
    this n = 2, 3 corpus does the same work with them as without.  The
    contraction terms fell from 13082 to 12968 when vertex-to-vertex
    bundles came to restrict their vertices' ε factors to increasing
    digits: 31 diagrams of the corpus form 31 bundles, all unlabeled (11
    of two edges at n = 2, 16 of two and 4 of three at n = 3), and their
    terms fell from 652 to 538.  They went back to 13082 when bundles
    came to form from n = 4 only, as the fold's groups do: on the fuzz
    shapes at n = 2 and 3 the bundle search cost more time than the
    terms it saved."""
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
        (16443, 13082, 6468)


def test_label_free_terms_are_unchanged():
    """Wires without labels carry no pending matrix, so a diagram without
    Mat pieces costs the terms it cost before labels were fused: the
    antisymmetrizer's permutation terms, one node pair and the label-free
    diagrams of a seeded fuzz corpus.  Sorted output groups start at
    n = 4, and the permutation terms have no vertex while the node pair
    and the corpus are at n <= 3, so none of these counts moved with
    them; test_layered_nodepair_term_count pins node pairs with groups."""
    n = 4
    columns = [sum(d * n ** (n - 1 - i) for i, d in enumerate(digits))
               for digits in permutations(range(n))]
    assert sum(eval_layered(d, {}, columns=columns).term_count
               for _, d in antisym_permsum(n, n)) == 0
    assert eval_layered(antisym_nodepair(2, 3), {}).term_count == 18
    rng = random.Random(14)
    count = terms = 0
    for _ in range(300):
        d = random_layered_diagram(rng.choice((2, 3)), rng)
        if not d.matrix_names():
            count += 1
            terms += eval_layered(d, {}).term_count
    assert (count, terms) == (113, 1767)


def test_probe_work_is_pinned():
    """A probe pins every boundary variable.  The joins that restrict
    factors to the pinned digits are not counted, so a probe's terms are
    the products of its eliminations and the one entry written.  Each
    det_permsum term's probe at the identity entry forms no product, so
    on a matrix with no zero entry it costs one term.  The fuzz probes
    fell from 349 to 329 terms when vertex-to-vertex bundles came to
    restrict their vertices' ε factors to increasing digits: 13 of the
    200 diagrams form unlabeled bundles, and their terms fell from 50 to
    30.  They went back to 349 when bundles came to form from n = 4 only,
    since this corpus is at n = 2 and 3."""
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
