"""CLI surface: parsing, evaluation, checks, builtins, DOT export."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

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
from tracediagrams.identities import REGISTRY
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


def _vertex_doc(**vertex):
    """A sink vertex on two vector inputs at n = 2, with fields replaced."""
    rec = dict({"kind": "vertex", "dir": "sink", "in": 2}, **vertex)
    return {"n": 2, "inputs": ["vector", "vector"],
            "layers": [{"pieces": [rec]}]}


def _perm_doc(images):
    return {"n": 2, "inputs": ["vector", "vector"],
            "layers": [{"pieces": [{"kind": "perm", "images": images}]}]}


def _mat_doc(**mat):
    """TRACE_DOC with the fields of its mat piece replaced."""
    rec = dict({"kind": "mat", "name": "A"}, **mat)
    return dict(TRACE_DOC, layers=[
        {"pieces": [{"kind": "cup"}]},
        {"pieces": [{"kind": "id"}, rec]},
        {"pieces": [{"kind": "cap"}]},
    ])


@pytest.mark.parametrize("doc, where", [
    (dict(TRACE_DOC, matrices=[]), '"matrices"'),
    (dict(TRACE_DOC, layers=5), '"layers"'),
    (dict(TRACE_DOC, layers=[{"pieces": 5}]), "layers[0]"),
    (_vertex_doc(ciliation=5), "layers[0].pieces[0]"),
    (_vertex_doc(ciliation=[1, "2"]), "layers[0].pieces[0]"),
    (_vertex_doc(ciliation=[True, 2]), "layers[0].pieces[0]"),
    (_vertex_doc(**{"in": True}), "layers[0].pieces[0]"),
    (_perm_doc([2, "1"]), "layers[0].pieces[0]"),
    (_perm_doc([2, True]), "layers[0].pieces[0]"),
    (dict(TRACE_DOC, outputs=5), '"outputs"'),
    (dict(TRACE_DOC, n=True), '"n"'),
    (dict(TRACE_DOC, matrices={"A": [["1/0", "3"], ["4", "5"]]}),
     'matrix "A": row 1 column 1'),
    (dict(TRACE_DOC, matrices={"A": [[True, "3"], ["4", "5"]]}),
     'matrix "A": row 1 column 1'),
    (dict(TRACE_DOC, matrices={"A": ["23", "45"]}), 'matrix "A"'),
    (_mat_doc(name=["A"]), "layers[1].pieces[1]"),
    (_mat_doc(against_orientation="false"), "layers[1].pieces[1]"),
])
def test_hostile_diagram_file_gets_located_error(tmp_path, capsys, doc, where):
    """Malformed fields are refused with a message naming them: exit 2 (a
    diagram file error), one error line, no traceback."""
    with pytest.raises(DiagramFileError, match=re.escape(where)):
        parse_diagram_file(json.dumps(doc))
    assert main(["eval", write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert "Traceback" not in err and err.count("\n") == 1


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
    assert capsys.readouterr().err.startswith(f"error: {path}: line 1 column")


DEEP_JSON = "[" * 200000 + "]" * 200000


def _one_nesting_error(captured, path):
    assert captured.out == ""
    assert captured.err == \
        f"error: {path}: arrays or objects nested too deeply to parse\n"


def test_cmd_eval_deeply_nested_json(tmp_path, capsys):
    path = write(tmp_path, "deep.json", DEEP_JSON)
    assert main(["eval", path]) == 2
    _one_nesting_error(capsys.readouterr(), path)


def test_cmd_export_dot_deeply_nested_json(tmp_path, capsys):
    path = write(tmp_path, "deep.json", DEEP_JSON)
    assert main(["export-dot", path]) == 2
    _one_nesting_error(capsys.readouterr(), path)


def _cramer_files(tmp_path, bad, text):
    """The --matrix and --vector files of a cramer call, the one named by
    bad holding text instead."""
    files = {"--matrix": write(tmp_path, "A.mat", [["2", "3"], ["4", "5"]]),
             "--vector": write(tmp_path, "b.vec", ["1", "0"])}
    files[bad] = write(tmp_path, "bad.json", text)
    return files


@pytest.mark.parametrize("deep", ["--matrix", "--vector"])
def test_cmd_builtin_deeply_nested_json(tmp_path, capsys, deep):
    files = _cramer_files(tmp_path, deep, DEEP_JSON)
    assert main(["builtin", "cramer", "--matrix", files["--matrix"],
                 "--vector", files["--vector"]]) == 2
    # the error names the file nested too deeply, and not the other one
    other = files["--vector" if deep == "--matrix" else "--matrix"]
    captured = capsys.readouterr()
    _one_nesting_error(captured, files[deep])
    assert other not in captured.err


@pytest.mark.parametrize("bad", ["--matrix", "--vector"])
def test_cmd_builtin_malformed_json_names_file(tmp_path, capsys, bad):
    files = _cramer_files(tmp_path, bad, "[1, 2")
    assert main(["builtin", "cramer", "--matrix", files["--matrix"],
                 "--vector", files["--vector"]]) == 2
    other = files["--vector" if bad == "--matrix" else "--matrix"]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[bad]}: line 1 column 6: ")
    assert other not in err


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


def test_cmd_eval_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    import tracediagrams.cli as cli_module

    def exhausted(*args, **kwargs):
        raise MemoryError

    path = write(tmp_path, "trace.json", TRACE_DOC)
    monkeypatch.setattr(cli_module, "eval_layered", exhausted)
    assert main(["eval", path, "--evaluator", "layered"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "out of memory" in err and "eval" in err and path in err


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


def test_cmd_check_all_refuses_n(capsys):
    # --all runs every n up to --max-n; a lone --n would be dropped
    assert main(["check", "--all", "--n", "3", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_cmd_check_rejects_nonpositive_trials(capsys):
    assert main(["check", "cayley_hamilton", "--n", "3", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert "error: trials must be >= 1" in captured.err
    assert "PASS" not in captured.out
    assert main(["check", "--all", "--trials", "0"]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_cmd_check_max_n_below_range(capsys):
    # a --max-n under the check's range selects no n: an error, not 0/0
    lo, hi = REGISTRY["cayley_hamilton"].n_range
    assert main(["check", "cayley_hamilton", "--max-n", "1"]) == 2
    captured = capsys.readouterr()
    assert f"error: check cayley_hamilton supports n in {lo}..{hi}, " \
        "got --max-n 1" in captured.err
    assert "checks passed" not in captured.out
    assert main(["check", "triple_isotopy", "--max-n", "2"]) == 2
    assert "supports n in 3..3, got --max-n 2" in capsys.readouterr().err


def test_cmd_check_streams_each_record(monkeypatch, capsys):
    """Each record is written as its check finishes, before the next check
    starts, and the stream reads exactly as the records of run_all."""
    from tracediagrams import cli
    from tracediagrams.identities import report_records, run_all

    written_before = []
    real = cli.run_check

    def spy(*args):
        written_before.append(capsys.readouterr().out)
        return real(*args)

    monkeypatch.setattr(cli, "run_check", spy)
    assert main(["check", "--all", "--max-n", "2", "--trials", "1",
                 "--seed", "7", "--format", "jsonl"]) == 0
    rest = capsys.readouterr().out
    records = [r + "\n" for r in report_records(
        run_all(max_n=2, trials=1, seed=7))]
    assert written_before[:2] == ["", records[0]]
    assert "".join(written_before) + rest == "".join(records)


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, argv", [
    ("check_all_seed7_max5.txt", ["--max-n", "5"]),
    ("check_all_seed7_max4.jsonl", ["--max-n", "4", "--format", "jsonl"]),
])
def test_seeded_report_matches_golden(name, argv, capsys):
    """`check --all --trials 1 --seed 7` prints the committed report byte
    for byte; a difference is named by its first line."""
    assert main(["check", "--all", "--trials", "1", "--seed", "7",
                 *argv]) == 0
    got = capsys.readouterr().out.encode("utf-8")
    want = (GOLDEN / name).read_bytes()
    if got != want:
        got_lines = got.splitlines(keepends=True)
        want_lines = want.splitlines(keepends=True)
        at = next((i for i, pair in enumerate(zip(got_lines, want_lines))
                   if pair[0] != pair[1]),
                  min(len(got_lines), len(want_lines)))
        pytest.fail(f"{name} differs first at line {at + 1}: "
                    f"got {got_lines[at:at + 1]!r}, "
                    f"want {want_lines[at:at + 1]!r}")


def test_cmd_check_jsonl(capsys):
    assert main(["check", "loop_dim", "--n", "2", "--format", "jsonl"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["id"] == "loop_dim" and record["outcome"] == "pass"


def test_cmd_check_closed_pipe_prints_no_traceback():
    """A reader that is gone before the first write must not cost a
    traceback: the command exits 1 with nothing on stderr."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tracediagrams

    root = str(Path(tracediagrams.__file__).resolve().parent.parent)
    path = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tracediagrams", "check", "trace_loop",
             "--n", "2", "--trials", "1", "--format", "jsonl", "--timings"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert proc.stderr == ""         # no traceback, no message
    assert proc.returncode == 1


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


@pytest.mark.parametrize("matrix", [
    [["2", "3"], ["4", "5"]],      # regular: would fail inside the solver
    [["1", "2"], ["2", "4"]],      # singular: would report "no solution"
])
@pytest.mark.parametrize("vector", [["1", "2", "3"], ["1"]])
def test_cmd_builtin_cramer_vector_length(tmp_path, capsys, matrix, vector):
    """A --vector whose length is not n is refused before solving, with one
    error line naming --vector and both lengths."""
    mat = write(tmp_path, "A.mat", matrix)
    vec = write(tmp_path, "b.vec", vector)
    assert main(["builtin", "cramer", "--matrix", mat, "--vector", vec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --vector has {len(vector)} entries, "
                            "the matrix is 2x2\n")


@pytest.mark.parametrize("matrix, vector", [
    ([["1/0", "3"], ["4", "5"]], ["1", "0"]),
    ([[True, "3"], ["4", "5"]], ["1", "0"]),
    (["23", "45"], ["1", "0"]),
    ([["2", "3"], ["4", "5"]], ["1/0", "0"]),
    ([["2", "3"], ["4", "5"]], [True, "0"]),
    ([["2", "3"], ["4", "5"]], '"10"'),
])
def test_cmd_builtin_hostile_literal(tmp_path, capsys, matrix, vector):
    """A bad --matrix or --vector cell is refused with one located error
    line and exit 2, not a traceback or a misread."""
    mat = write(tmp_path, "A.mat", matrix)
    vec = write(tmp_path, "b.vec", vector)
    assert main(["builtin", "cramer", "--matrix", mat, "--vector", vec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err and err.count("\n") == 1


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
    assert capsys.readouterr().err.startswith(f"error: {path}: line 1 column")
