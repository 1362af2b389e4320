"""CLI surface: parsing, evaluation, checks, builtins, DOT export."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracediagrams.builders import (adjugate_diagram, antisym_nodepair,
                                    loop_diagram, trace_loop, vertex_pair)
from tracediagrams.cli import (DiagramFileError, dumps_diagram,
                               export_dot, main, parse_diagram_file,
                               parse_matrix_literal)
from tracediagrams.diagrams import VECTOR, LayeredDiagram, Mat, to_graph
from tracediagrams.evaluate import eval_layered
from tracediagrams.fuzz import random_bindings, random_layered_diagram
from tracediagrams.linalg import Matrix

TRACE_DOC = {
    "n": 2,
    "matrices": {"A": [["2", "3"], ["4", "5"]]},
    "inputs": [],
    "layers": [
        {"pieces": [{"kind": "cup"}]},
        {"pieces": [{"kind": "id"}, {"kind": "mat", "name": "A"}]},
        {"pieces": [{"kind": "cap"}]},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


# -- parsing ---------------------------------------------------------------------

def test_parse_trace_file():
    diagram, bindings = parse_diagram_file(json.dumps(TRACE_DOC))
    assert bindings["A"] == Matrix([[2, 3], [4, 5]])
    assert eval_layered(diagram, bindings).tensor.as_scalar() == 7


def test_parse_reports_json_position():
    with pytest.raises(DiagramFileError, match=r"line \d+ column \d+"):
        parse_diagram_file("{ not json")


def test_parse_mismatched_widths_names_layer():
    doc = dict(TRACE_DOC, layers=[
        {"pieces": [{"kind": "cup"}]},
        {"pieces": [{"kind": "id"}]},
    ])
    with pytest.raises(DiagramFileError, match="layer 1.*wire count"):
        parse_diagram_file(json.dumps(doc))


def test_parse_unknown_piece_kind():
    doc = dict(TRACE_DOC, layers=[{"pieces": [{"kind": "spiral"}]}])
    with pytest.raises(DiagramFileError, match="unknown piece kind"):
        parse_diagram_file(json.dumps(doc))


def test_parse_unbound_matrix():
    doc = dict(TRACE_DOC, matrices={})
    with pytest.raises(DiagramFileError, match="unbound matrix"):
        parse_diagram_file(json.dumps(doc))


def test_parse_vertex_defaults_to_canonical_ciliation():
    doc = {
        "n": 2, "matrices": {}, "inputs": ["vector", "vector"],
        "layers": [{"pieces": [{"kind": "vertex", "dir": "sink", "in": 2}]}],
    }
    diagram, _ = parse_diagram_file(json.dumps(doc))
    (piece,) = diagram.layers[0]
    assert piece.ciliation == (1, 2)


def test_parse_declared_outputs_checked():
    doc = dict(TRACE_DOC, outputs=["vector"])
    with pytest.raises(DiagramFileError, match="declared outputs"):
        parse_diagram_file(json.dumps(doc))


def test_matrix_literal_rationals():
    from fractions import Fraction
    m = parse_matrix_literal([["1/2", "0"], ["-3", "7/3"]])
    assert m.entry(1, 1) == Fraction(1, 2)
    assert m.entry(2, 2) == Fraction(7, 3)
    with pytest.raises(ValueError):
        parse_matrix_literal("nope")


def assert_round_trip(diagram, bindings):
    parsed, parsed_bindings = parse_diagram_file(
        dumps_diagram(diagram, bindings))
    assert (parsed.n, parsed.inputs, parsed.layers) == \
        (diagram.n, diagram.inputs, diagram.layers)
    assert parsed_bindings == bindings
    assert eval_layered(parsed, parsed_bindings).tensor == \
        eval_layered(diagram, bindings).tensor


def test_round_trip_builder_diagrams():
    fractional = Matrix([[Fraction(1, 2), 3], [-4, Fraction(-7, 3)]])
    cases = [
        (loop_diagram(3), {}),
        (trace_loop(2, "A"), {"A": Matrix([[2, 3], [4, 5]])}),
        (vertex_pair(3, [["A"], [], ["A"]]), {"A": Matrix.identity(3)}),
        (antisym_nodepair(2, 3), {}),
        (adjugate_diagram(2, "A"), {"A": Matrix([[2, 3], [4, 5]])}),
        (LayeredDiagram(2, [VECTOR], [[Mat("A", against_orientation=True)]]),
         {"A": fractional}),
    ]
    for diagram, bindings in cases:
        assert_round_trip(diagram, bindings)


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_round_trip_random_diagrams(n, seed):
    rng = random.Random(seed)
    diagram = random_layered_diagram(n, rng, max_width=4)
    assert_round_trip(diagram, random_bindings(diagram, rng))


# -- commands ----------------------------------------------------------------------

def test_cmd_eval_closed_diagram(tmp_path, capsys):
    path = write(tmp_path, "trace.json", TRACE_DOC)
    assert main(["eval", path]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_cmd_eval_matrix_diagram(tmp_path, capsys):
    doc = {
        "n": 2, "matrices": {"A": [["2", "3"], ["4", "5"]]},
        "inputs": ["vector"],
        "layers": [{"pieces": [{"kind": "mat", "name": "A"}]}],
    }
    path = write(tmp_path, "mat.json", doc)
    assert main(["eval", path, "--evaluator", "layered"]) == 0
    out = capsys.readouterr().out
    assert "2" in out and "5" in out and out.count("[") == 2


def test_cmd_eval_term_count(tmp_path, capsys):
    path = write(tmp_path, "trace.json", TRACE_DOC)
    assert main(["eval", path, "--term-count"]) == 0
    out = capsys.readouterr().out
    assert "terms[layered]" in out and "terms[contraction]" in out


def test_cmd_eval_parse_error_exit(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{")
    assert main(["eval", path]) == 2
    assert "error" in capsys.readouterr().err


def test_cmd_eval_cross_check_failure_exit(tmp_path, capsys, monkeypatch):
    import tracediagrams.cli as cli_module
    from tracediagrams.diagrams import GNode, to_graph as real_to_graph

    def corrupted(diagram):
        g = real_to_graph(diagram)
        for vid, v in enumerate(g.vertices):
            if isinstance(v, GNode):
                cil = list(v.ciliation)
                cil[0], cil[1] = cil[1], cil[0]
                g.vertices[vid] = GNode(v.direction, tuple(cil))
                break
        return g

    doc = {
        "n": 2, "matrices": {}, "inputs": ["vector", "vector"],
        "layers": [{"pieces": [{"kind": "vertex", "dir": "sink", "in": 2}]}],
    }
    path = write(tmp_path, "vertex.json", doc)
    monkeypatch.setattr(cli_module, "to_graph", corrupted)
    assert main(["eval", path]) == 3
    assert "cross-check" in capsys.readouterr().err


def test_cmd_check_all_exit_zero(capsys):
    assert main(["check", "--all", "--max-n", "2", "--trials", "2",
                 "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_cmd_check_single(capsys):
    assert main(["check", "cayley_hamilton", "--n", "3", "--trials", "2"]) == 0
    assert "PASS cayley_hamilton n=3" in capsys.readouterr().out


def test_cmd_check_unknown(capsys):
    assert main(["check", "nonsense"]) == 2
    assert "unknown identity" in capsys.readouterr().err


def test_cmd_check_failure_exits_nonzero(monkeypatch, capsys):
    from tracediagrams import identities

    def doomed(ctx):
        ctx.fail("forced failure for the exit-status contract")

    broken = identities.IdentityCheck("loop_dim", "broken", doomed, (2, 6),
                                      False, False)
    monkeypatch.setitem(identities.REGISTRY, "loop_dim", broken)
    assert main(["check", "loop_dim", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL loop_dim" in out and "0/1 checks passed" in out


def test_cmd_check_error_does_not_hide_other_checks(capsys):
    from tracediagrams import identities

    @identities._register("raises_demo", "always raises", n_range=(2, 3))
    def raises_demo(ctx):
        raise ValueError(f"broken at n={ctx.n}")

    try:
        code = main(["check", "--all", "--max-n", "2", "--trials", "1",
                     "--seed", "5"])
    finally:
        del identities.REGISTRY["raises_demo"]
    out = capsys.readouterr().out
    assert code == 1
    assert "ERROR raises_demo n=2" in out and "FAIL" not in out
    passed = sum(line.startswith("PASS ") for line in out.splitlines())
    assert passed > 0 and f"{passed}/{passed + 1} checks passed" in out


def test_cmd_check_rejects_nonpositive_trials(capsys):
    assert main(["check", "cayley_hamilton", "--n", "3", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert "error: trials must be >= 1" in captured.err
    assert "PASS" not in captured.out
    assert main(["check", "--all", "--trials", "0"]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_cmd_check_jsonl(capsys):
    assert main(["check", "loop_dim", "--n", "2", "--format", "jsonl"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["id"] == "loop_dim" and record["outcome"] == "pass"


def test_cmd_check_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("TRACEDIAG_SEED", "123")
    assert main(["check", "trace_loop", "--n", "2", "--trials", "1"]) == 0
    assert "seed=123" in capsys.readouterr().out


def test_cmd_builtin_adjugate(tmp_path, capsys):
    mat = write(tmp_path, "A.mat", [["2", "3"], ["4", "5"]])
    assert main(["builtin", "adjugate", "--n", "2", "--matrix", mat]) == 0
    out = capsys.readouterr().out
    assert "5" in out and "-3" in out and "-4" in out and "2" in out


def test_cmd_builtin_cramer(tmp_path, capsys):
    mat = write(tmp_path, "A.mat", [["2", "3"], ["4", "5"]])
    vec = write(tmp_path, "b.vec", ["1", "0"])
    assert main(["builtin", "cramer", "--matrix", mat, "--vector", vec]) == 0
    assert capsys.readouterr().out.strip() == "(-5/2, 2)"


def test_cmd_builtin_unknown(capsys):
    assert main(["builtin", "wat", "--n", "2"]) == 2
    assert "unknown builtin" in capsys.readouterr().err


def test_cmd_builtin_missing_params(capsys):
    assert main(["builtin", "loop"]) == 2
    assert main(["builtin", "antisym-nodepair", "--n", "3"]) == 2


def test_cmd_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cayley_hamilton" in out and "adjugate" in out


# -- DOT export -------------------------------------------------------------------

def test_export_dot_trace_loop(tmp_path, capsys):
    path = write(tmp_path, "trace.json", TRACE_DOC)
    assert main(["export-dot", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert 'label="A"' in out
    assert "shape=point" in out        # the free loop junction


def test_export_dot_adjugate_ports():
    dot = export_dot(to_graph(adjugate_diagram(3, "A")))
    assert dot.count('label="sink"') == 1
    assert dot.count('label="source"') == 1
    assert "headlabel=" in dot and "taillabel=" in dot
    assert 'label="A"' in dot


def test_export_dot_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "not json at all")
    assert main(["export-dot", path]) == 2
