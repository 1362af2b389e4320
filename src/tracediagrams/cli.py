"""Terminal front end: evaluate diagram files, run identity checks, build
catalog diagrams, and export DOT renderings.

Diagram file format (JSON, UTF-8): see README.  Rationals are serialized as
"p/q" or "p" strings; no floats anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import builders
from .diagrams import (COVECTOR, SINK, SOURCE, VECTOR, Cap, Cross, Cup,
                       Diagram, GInput, GNode, GOutput, Id, LayeredDiagram,
                       Mat, NVertex, Perm, canonical_ciliation, to_graph,
                       validate_layered)
from .evaluate import (CrossCheckMismatch, eval_checked, eval_contraction,
                       eval_layered)
from .identities import (REGISTRY, report_lines, report_records, run_check,
                         select_checks)
from .linalg import Matrix, format_rat, rat
from .tensor import Tensor

SEED_ENV = "TRACEDIAG_SEED"

_PIECE_KINDS = ("id", "cross", "cup", "cap", "mat", "vertex", "perm")


class DiagramFileError(ValueError):
    pass


# -- Diagram file parsing -------------------------------------------------------

def _parse_json(text: str, path: str | None = None):
    """json.loads, raising DiagramFileError for text that is not JSON (at
    its line and column) or is nested too deeply for the parser.  The
    message starts with path, the file the text was read from, if given."""
    where = f"{path}: " if path else ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise DiagramFileError(
            f"{where}line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except RecursionError:
        raise DiagramFileError(
            f"{where}arrays or objects nested too deeply to parse") from None


def parse_diagram_file(text: str, path: str | None = None
                       ) -> tuple[LayeredDiagram, dict]:
    """Parse the JSON diagram format into a validated layered diagram plus
    matrix bindings.  Raises DiagramFileError with a located message; a
    JSON syntax error names path, the file the text was read from, if
    given."""
    doc = _parse_json(text, path)
    if not isinstance(doc, dict):
        raise DiagramFileError("top level must be an object")

    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise DiagramFileError('"n" must be a positive integer')

    matrices = {}
    literals = doc.get("matrices", {})
    if not isinstance(literals, dict):
        raise DiagramFileError('"matrices" must be an object of named rows')
    for name, rows in literals.items():
        try:
            matrices[name] = parse_matrix_literal(rows)
        except (ValueError, TypeError) as err:
            raise DiagramFileError(f'matrix "{name}": {err}') from err
        if matrices[name].n != n:
            raise DiagramFileError(
                f'matrix "{name}" is {matrices[name].n}x{matrices[name].n}, '
                f"diagram has n={n}")

    inputs = doc.get("inputs", [])
    if not isinstance(inputs, list) or \
            any(p not in (VECTOR, COVECTOR) for p in inputs):
        raise DiagramFileError(
            '"inputs" must list polarities "vector"/"covector"')

    records = doc.get("layers", [])
    if not isinstance(records, list):
        raise DiagramFileError('"layers" must be a list')
    layers = []
    for li, layer in enumerate(records):
        if not isinstance(layer, dict) or "pieces" not in layer:
            raise DiagramFileError(f'layers[{li}] must carry "pieces"')
        if not isinstance(layer["pieces"], list):
            raise DiagramFileError(f'layers[{li}]: "pieces" must be a list')
        pieces = []
        for pi, rec in enumerate(layer["pieces"]):
            where = f"layers[{li}].pieces[{pi}]"
            pieces.append(_parse_piece(rec, n, where))
        layers.append(tuple(pieces))

    diagram = LayeredDiagram(n, tuple(inputs), layers)
    problems = validate_layered(diagram)
    if problems:
        raise DiagramFileError("; ".join(problems))

    declared = doc.get("outputs")
    if declared is not None and not isinstance(declared, list):
        raise DiagramFileError('"outputs" must list polarities')
    if declared is not None and tuple(declared) != diagram.outputs():
        raise DiagramFileError(
            f"declared outputs {declared} but the layers produce "
            f"{list(diagram.outputs())}")

    missing = sorted(diagram.matrix_names() - set(matrices))
    if missing:
        raise DiagramFileError(f"unbound matrix names: {', '.join(missing)}")
    return diagram, matrices


def _parse_piece(rec, n: int, where: str):
    if not isinstance(rec, dict) or "kind" not in rec:
        raise DiagramFileError(f'{where}: piece must carry "kind"')
    kind = rec["kind"]
    match kind:
        case "id":
            return Id()
        case "cross":
            return Cross()
        case "cup":
            return Cup()
        case "cap":
            return Cap()
        case "mat":
            if not isinstance(rec.get("name"), str):
                raise DiagramFileError(
                    f'{where}: mat piece needs a string "name"')
            against = rec.get("against_orientation", False)
            if not isinstance(against, bool):
                raise DiagramFileError(
                    f'{where}: "against_orientation" must be true or false')
            return Mat(rec["name"], against)
        case "vertex":
            direction = rec.get("dir")
            if direction not in (SINK, SOURCE):
                raise DiagramFileError(
                    f'{where}: vertex "dir" must be "sink" or "source"')
            j = rec.get("in")
            if not _is_int(j) or not 0 <= j <= n:
                raise DiagramFileError(
                    f'{where}: vertex "in" must be an integer in 0..{n}')
            cil = rec.get("ciliation")
            if cil is None:
                cil = canonical_ciliation(n, j)
            if not _int_list(cil) or sorted(cil) != list(range(1, n + 1)):
                raise DiagramFileError(
                    f"{where}: ciliation must order slots 1..{n}")
            return NVertex(direction, j, tuple(cil))
        case "perm":
            images = rec.get("images")
            if not _int_list(images) or \
                    sorted(images) != list(range(1, len(images) + 1)):
                raise DiagramFileError(
                    f'{where}: perm "images" must be a bijection on 1..m')
            return Perm(tuple(images))
    raise DiagramFileError(f"{where}: unknown piece kind {kind!r}")


def _is_int(x) -> bool:
    """An integer in the file: JSON's true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x) -> bool:
    """A list of integers in the file, or a tuple the parser made."""
    return isinstance(x, (list, tuple)) and all(_is_int(i) for i in x)


def parse_matrix_literal(rows) -> Matrix:
    """Row-major array of arrays of 'p/q' or 'p' strings (ints allowed).
    Raises ValueError, naming the cell at fault."""
    if not isinstance(rows, list) or \
            not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix literal must be an array of arrays")
    return Matrix([[_scalar_literal(x, f"row {r} column {c}")
                    for c, x in enumerate(row, 1)]
                   for r, row in enumerate(rows, 1)])


def _scalar_literal(x, where: str):
    """A 'p/q' or 'p' string or an integer, from a file: JSON's true and
    false, floats and anything else are refused with a ValueError."""
    if not (isinstance(x, str) or _is_int(x)):
        raise ValueError(f"{where}: expected a 'p/q' or 'p' string, "
                         f"got {json.dumps(x)}")
    try:
        return rat(x)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err


def diagram_to_dict(d: LayeredDiagram, bindings: dict | None = None) -> dict:
    doc = {"n": d.n, "inputs": list(d.inputs)}
    if bindings:
        doc["matrices"] = {
            name: [[format_rat(x) for x in row] for row in m.rows]
            for name, m in sorted(bindings.items())}
    doc["layers"] = [{"pieces": [_piece_to_dict(p) for p in layer]}
                     for layer in d.layers]
    return doc


def _piece_to_dict(piece) -> dict:
    match piece:
        case Id():
            return {"kind": "id"}
        case Cross():
            return {"kind": "cross"}
        case Cup():
            return {"kind": "cup"}
        case Cap():
            return {"kind": "cap"}
        case Mat(name=name, against_orientation=against):
            rec = {"kind": "mat", "name": name}
            if against:
                rec["against_orientation"] = True
            return rec
        case NVertex(direction=direction, in_count=j, ciliation=cil):
            return {"kind": "vertex", "dir": direction, "in": j,
                    "ciliation": list(cil)}
        case Perm(images=images):
            return {"kind": "perm", "images": list(images)}
    raise TypeError(f"unknown piece: {piece!r}")


def dumps_diagram(d: LayeredDiagram, bindings: dict | None = None) -> str:
    return json.dumps(diagram_to_dict(d, bindings), indent=2)


# -- Pretty printing -----------------------------------------------------------

def format_tensor(t: Tensor) -> str:
    if t.arity == 0:
        return format_rat(t.as_scalar())
    if (t.out_arity, t.in_arity) == (1, 1):
        return format_matrix(t.to_matrix())
    lines = [f"tensor n={t.n} outputs={t.out_arity} inputs={t.in_arity}"]
    for flat, value in sorted(t.nonzeros.items()):
        outs, ins = t.index(flat)
        o = ",".join(map(str, outs))
        i = ",".join(map(str, ins))
        lines.append(f"  [{o}|{i}] = {format_rat(value)}")
    if t.is_zero():
        lines.append("  (zero tensor)")
    return "\n".join(lines)


def format_matrix(m: Matrix) -> str:
    cells = [[format_rat(x) for x in row] for row in m.rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]"
                     for row in cells)


# -- DOT export ------------------------------------------------------------------

def export_dot(graph: Diagram) -> str:
    lines = ["digraph trace_diagram {", "  rankdir=BT;"]
    names = {}
    for vid, v in enumerate(graph.vertices):
        if isinstance(v, GInput):
            names[vid] = f"in{v.position}"
            lines.append(
                f'  {names[vid]} [shape=plaintext label="in {v.position}"];')
        elif isinstance(v, GOutput):
            names[vid] = f"out{v.position}"
            lines.append(
                f'  {names[vid]} [shape=plaintext label="out {v.position}"];')
        else:
            names[vid] = f"v{vid}"
            lines.append(
                f'  {names[vid]} [shape=circle label="{v.direction}"];')

    cil_position = {}
    for vid, v in enumerate(graph.vertices):
        if isinstance(v, GNode):
            for slot, ref in enumerate(v.ciliation, start=1):
                cil_position[(vid, ref)] = slot

    for eid in sorted(graph.edges):
        e = graph.edges[eid]
        label = "·".join(name + ("^T" if transposed else "")
                              for name, transposed in e.labels)
        attrs = []
        if label:
            attrs.append(f'label="{label}"')
        if e.tail[0] == "loop":
            junction = f"loop{eid}"
            lines.append(f'  {junction} [shape=point label=""];')
            lines.append(f"  {junction} -> {junction}"
                         + (f" [{', '.join(attrs)}]" if attrs else "") + ";")
            continue
        tail_vid, head_vid = e.tail[1], e.head[1]
        tail_slot = cil_position.get((tail_vid, (eid, "tail")))
        head_slot = cil_position.get((head_vid, (eid, "head")))
        if tail_slot is not None:
            attrs.append(f'taillabel="{tail_slot}"')
        if head_slot is not None:
            attrs.append(f'headlabel="{head_slot}"')
        line = f"  {names[tail_vid]} -> {names[head_vid]}"
        if attrs:
            line += f" [{', '.join(attrs)}]"
        lines.append(line + ";")
    lines.append("}")
    return "\n".join(lines)


# -- Commands --------------------------------------------------------------------

def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise DiagramFileError(f"cannot read {path}: {err}") from err


def cmd_eval(args) -> int:
    # parse_diagram_file has validated the diagram, and to_graph checks
    # the graph it builds
    diagram, bindings = parse_diagram_file(_read_file(args.file), args.file)
    if args.evaluator == "layered":
        result = eval_layered(diagram, bindings, validated=True)
        tensors = {"layered": result}
    elif args.evaluator == "contraction":
        result = eval_contraction(to_graph(diagram), bindings,
                                  validated=True)
        tensors = {"contraction": result}
    else:
        layered = eval_layered(diagram, bindings, validated=True)
        contraction = eval_contraction(to_graph(diagram), bindings,
                                       validated=True)
        diff = layered.tensor.first_difference(contraction.tensor)
        if diff is not None:
            raise CrossCheckMismatch(*diff)
        tensors = {"layered": layered, "contraction": contraction}
        result = layered
    print(format_tensor(result.tensor))
    if args.term_count:
        for path, res in tensors.items():
            print(f"terms[{path}] = {res.term_count}")
    return 0


def cmd_check(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, "0"))
    if args.all:
        if args.n is not None:
            print("error: --all runs every n up to --max-n; give --max-n, "
                  "not --n", file=sys.stderr)
            return 2
        selection = select_checks(args.max_n, args.stretch)
    else:
        if not args.id:
            print("error: give an identity id or --all", file=sys.stderr)
            return 2
        check = REGISTRY.get(args.id)
        if check is None:
            print(f"error: unknown identity {args.id!r}", file=sys.stderr)
            return 2
        if args.n is not None:
            ns = [args.n]
        else:
            lo, hi = check.n_range
            ns = range(lo, min(hi, args.max_n) + 1)
            if not ns:
                raise ValueError(f"check {args.id} supports n in {lo}..{hi}, "
                                 f"got --max-n {args.max_n}")
        selection = [(args.id, n) for n in ns]
    emit = report_records if args.format == "jsonl" else report_lines
    failures = 0
    for check_id, n in selection:
        report = run_check(check_id, n, args.trials, seed)
        failures += report.outcome != "pass"
        # each record as its check finishes, so a long run shows progress
        for line in emit([report], timings=args.timings):
            print(line, flush=True)
    if args.format == "text":
        print(f"{len(selection) - failures}/{len(selection)} checks passed")
    return 0 if failures == 0 else 1


def cmd_builtin(args) -> int:
    matrix = None
    if args.matrix:
        matrix = parse_matrix_literal(
            _parse_json(_read_file(args.matrix), args.matrix))
        if args.n is not None and matrix.n != args.n:
            print(f"error: matrix is {matrix.n}x{matrix.n}, --n is {args.n}",
                  file=sys.stderr)
            return 2
    n = args.n if args.n is not None else (matrix.n if matrix else None)
    if n is None:
        print("error: --n (or --matrix) is required", file=sys.stderr)
        return 2
    try:
        text = _run_builtin(args.name, n, args.k, matrix, args)
    except KeyError:
        print(f"error: unknown builtin {args.name!r}; "
              "run `tracediag list`", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(text)
    return 0


BUILTIN_SUMMARIES = {
    "loop": "closed unlabeled loop (scalar n)",
    "trace": "closed loop through the matrix (its trace)",
    "det-permsum": "determinant via the signed permutation sum",
    "vertex-pair": "joined vertices, all strands labeled"
                   " ((-1)^(n//2) n! det A)",
    "antisym-nodepair": "node-pair antisymmetrizer on k strands",
    "codeterminant": "all-output vertex as a tensor",
    "complemental-node": "single mixed vertex with k inputs",
    "adjugate": "adjugate of the matrix, rescaled from the diagram",
    "cramer": "solve A x = b diagrammatically (needs --matrix and --vector)",
    "jacobi-pair": "both routings of the labeled pair (stretch)",
}


def _run_builtin(name: str, n: int, k, matrix, args) -> str:
    def need_matrix():
        if matrix is None:
            raise ValueError("this builtin needs --matrix")
        return matrix

    match name:
        case "loop":
            value = eval_layered(builders.loop_diagram(n), {}).tensor
            return format_rat(value.as_scalar())
        case "trace":
            t = eval_checked(builders.trace_loop(n, "A"), {"A": need_matrix()})
            return format_rat(t.as_scalar())
        case "det-permsum":
            return format_rat(builders.det_permsum_value(n, need_matrix()))
        case "vertex-pair":
            t = eval_checked(builders.vertex_pair(n, [["A"]] * n),
                             {"A": need_matrix()})
            return format_rat(t.as_scalar())
        case "antisym-nodepair":
            if k is None:
                raise ValueError("this builtin needs --k")
            t = eval_checked(builders.antisym_nodepair(k, n), {})
            return format_tensor(t)
        case "codeterminant":
            return format_tensor(eval_checked(builders.codeterminant(n), {}))
        case "complemental-node":
            if k is None:
                raise ValueError("this builtin needs --k")
            t = eval_checked(builders.complemental_node(k, n), {})
            return format_tensor(t)
        case "adjugate":
            return format_matrix(builders.adjugate_value(n, need_matrix()))
        case "cramer":
            if not args.vector:
                raise ValueError("this builtin needs --vector")
            literal = _parse_json(_read_file(args.vector), args.vector)
            if not isinstance(literal, list):
                raise ValueError("vector literal must be an array")
            b = [_scalar_literal(x, f"vector entry {i}")
                 for i, x in enumerate(literal, 1)]
            a = need_matrix()
            if len(b) != a.n:
                raise ValueError(f"--vector has {len(b)} entries, "
                                 f"the matrix is {a.n}x{a.n}")
            solution = builders.cramer_solve(a, b)
            if solution.singular:
                return "singular matrix: no unique solution"
            return "(" + ", ".join(format_rat(x) for x in solution.xs) + ")"
        case "jacobi-pair":
            if k is None:
                raise ValueError("this builtin needs --k")
            lhs, rhs = builders.jacobi_diagrams(k, n, "A")
            tl = eval_checked(lhs, {"A": need_matrix()})
            tr_ = eval_checked(rhs, {"A": need_matrix()})
            status = "equal" if tl == tr_ else "NOT EQUAL"
            return f"{status}\n{format_tensor(tl)}"
    raise KeyError(name)


def cmd_export_dot(args) -> int:
    diagram, _ = parse_diagram_file(_read_file(args.file), args.file)
    print(export_dot(to_graph(diagram)))
    return 0


def cmd_list(args) -> int:
    print("identity checks:")
    for check in REGISTRY.values():
        lo, hi = check.n_range
        stretch = "  [stretch]" if check.stretch else ""
        print(f"  {check.id:28s} n={lo}..{hi}{stretch}  {check.summary}")
    print("\nbuiltins:")
    for name, summary in BUILTIN_SUMMARIES.items():
        print(f"  {name:28s} {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracediag",
        description="evaluate trace diagrams exactly and check their "
                    "identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a diagram file")
    p.add_argument("file")
    p.add_argument("--evaluator", choices=("contraction", "layered", "both"),
                   default="both")
    p.add_argument("--term-count", action="store_true",
                   help="also print each evaluator's multiply-add count")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run identity checks")
    p.add_argument("id", nargs="?", help="identity id (see `list`)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default ${SEED_ENV} or 0)")
    p.add_argument("--stretch", action="store_true",
                   help="include stretch checks in --all")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times in reports")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("builtin", help="evaluate a catalog diagram")
    p.add_argument("name")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--matrix", help="JSON matrix literal file")
    p.add_argument("--vector", help="JSON vector literal file")
    p.set_defaults(fn=cmd_builtin)

    p = sub.add_parser("export-dot", help="print the graph form as DOT")
    p.add_argument("file")
    p.set_defaults(fn=cmd_export_dot)

    p = sub.add_parser("list", help="list identities and builtins")
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DiagramFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CrossCheckMismatch as err:
        print(f"internal cross-check failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        where = args.command
        if getattr(args, "file", None):
            where += f" {args.file}"
        print(f"error: out of memory in tracediag {where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
