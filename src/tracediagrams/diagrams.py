"""The two diagram representations and the conversion between them.

A diagram is authored in *layered* form: an ordered stack of slices read
bottom to top, each slice a left-to-right row of elementary pieces (identity
wire, crossing, cup, cap, matrix label, degree-n vertex, permutation macro).
Every wire carries a polarity: "vector" wires are oriented up the page,
"covector" wires down.  The *graph* form is derived: wires are stitched into
oriented edges carrying ordered matrix labels, and the degree-n vertices keep
an explicit ciliation (a total order on their incident edge-ends).

Conventions fixed here and relied on by the evaluators:

* Cup creates (covector, vector); Cap consumes one vector and one covector
  wire in either order (the pairing is symmetric, and the circle built as a
  cup directly under a cap must validate).
* A vertex piece with j bottom slots and n-j top slots numbers its slots
  1..j across the bottom (left to right) then j+1..n across the top (left to
  right).  The canonical ciliation enumerates bottoms left to right, then
  tops right to left (counterclockwise from a cilium at the lower left); the
  same rule is used for sinks and sources.
* A Mat label with against_orientation=False is attached along its edge's
  orientation; the cumulative matrix of an edge is the product of its labels
  with the label nearest the tail applied first.

Graph -> layered conversion is deliberately not provided; layered form is the
authoring format and graphs are only produced from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

VECTOR = "vector"
COVECTOR = "covector"

SINK = "sink"
SOURCE = "source"


# -- Pieces ---------------------------------------------------------------

@dataclass(frozen=True)
class Id:
    pass


@dataclass(frozen=True)
class Cross:
    pass


@dataclass(frozen=True)
class Cup:
    pass


@dataclass(frozen=True)
class Cap:
    pass


@dataclass(frozen=True)
class Mat:
    name: str
    against_orientation: bool = False


@dataclass(frozen=True)
class NVertex:
    direction: str                 # SINK or SOURCE
    in_count: int                  # bottom slots; top slots = n - in_count
    ciliation: tuple[int, ...]     # a total order on slots 1..n


@dataclass(frozen=True)
class Perm:
    images: tuple[int, ...]        # wire at position s moves to images[s-1]

    def __init__(self, images):
        object.__setattr__(self, "images", tuple(images))


Piece = Id | Cross | Cup | Cap | Mat | NVertex | Perm

Slice = tuple


def canonical_ciliation(n: int, in_count: int) -> tuple[int, ...]:
    """Bottom slots left to right, then top slots right to left."""
    return tuple(range(1, in_count + 1)) + tuple(range(n, in_count, -1))


def piece_arity(piece: Piece, n: int) -> tuple[int, int]:
    """(wires consumed, wires produced)."""
    match piece:
        case Id() | Mat():
            return 1, 1
        case Cross():
            return 2, 2
        case Cup():
            return 0, 2
        case Cap():
            return 2, 0
        case NVertex(in_count=j):
            return j, n - j
        case Perm(images=images):
            return len(images), len(images)
    raise TypeError(f"unknown piece: {piece!r}")


# -- Layered form -----------------------------------------------------------

@dataclass(frozen=True)
class LayeredDiagram:
    n: int
    inputs: tuple[str, ...]            # polarity per bottom wire
    layers: tuple[Slice, ...]

    def __init__(self, n, inputs, layers):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "layers",
                           tuple(tuple(layer) for layer in layers))

    def matrix_names(self) -> set[str]:
        return {p.name for layer in self.layers for p in layer
                if isinstance(p, Mat)}

    def outputs(self) -> tuple[str, ...]:
        """Top-boundary polarities; raises on an invalid diagram."""
        profile = _chain_profile(self)
        if isinstance(profile, list):
            raise ValueError("invalid diagram: " + "; ".join(profile))
        return profile


def piece_polarities(piece: Piece, n: int, ins: tuple[str, ...]):
    """Output polarities for a piece given its input polarities, or an
    error string."""
    match piece:
        case Id() | Mat():
            return ins
        case Cross():
            return (ins[1], ins[0])
        case Cup():
            return (COVECTOR, VECTOR)
        case Cap():
            if ins not in ((VECTOR, COVECTOR), (COVECTOR, VECTOR)):
                return f"cap requires one vector and one covector, got {ins}"
            return ()
        case NVertex(direction=d, in_count=j):
            want = VECTOR if d == SINK else COVECTOR
            if any(p != want for p in ins):
                return f"{d} vertex requires {want} inputs, got {ins}"
            produced = COVECTOR if d == SINK else VECTOR
            return (produced,) * (n - j)
        case Perm(images=images):
            out = [None] * len(images)
            for s, target in enumerate(images):
                out[target - 1] = ins[s]
            return tuple(out)
    raise TypeError(f"unknown piece: {piece!r}")


def _check_piece(piece: Piece, n: int) -> list[str]:
    problems = []
    match piece:
        case Mat(name=name):
            if not name:
                problems.append("matrix piece with empty name")
        case NVertex(direction=d, in_count=j, ciliation=cil):
            if d not in (SINK, SOURCE):
                problems.append(f"vertex direction must be sink/source: {d}")
            if not 0 <= j <= n:
                problems.append(f"vertex in_count {j} out of range 0..{n}")
            if sorted(cil) != list(range(1, n + 1)):
                problems.append(
                    f"ciliation must order slots 1..{n} exactly once: {cil}")
        case Perm(images=images):
            if sorted(images) != list(range(1, len(images) + 1)):
                problems.append(f"perm images not a bijection: {images}")
    return problems


def _chain_profile(d: LayeredDiagram):
    """Final polarity profile, or the list of violations found."""
    problems = []
    for p in d.inputs:
        if p not in (VECTOR, COVECTOR):
            problems.append(f"unknown polarity {p!r}")
    if d.n < 1:
        problems.append(f"dimension must be >= 1, got {d.n}")
    if problems:
        return problems

    profile = list(d.inputs)
    for li, layer in enumerate(d.layers):
        for piece in layer:
            for msg in _check_piece(piece, d.n):
                problems.append(f"layer {li}: {msg}")
        consumed = sum(piece_arity(p, d.n)[0] for p in layer)
        if consumed != len(profile):
            problems.append(
                f"layer {li}: wire count {len(profile)} vs {consumed}")
            return problems  # later profiles are unknowable
        new_profile = []
        pos = 0
        for piece in layer:
            j_in, _ = piece_arity(piece, d.n)
            ins = tuple(profile[pos:pos + j_in])
            pos += j_in
            outs = piece_polarities(piece, d.n, ins)
            if isinstance(outs, str):
                problems.append(f"layer {li}: {outs}")
                return problems
            new_profile.extend(outs)
        profile = new_profile
    if problems:
        return problems
    return tuple(profile)


def validate_layered(d: LayeredDiagram) -> list[str]:
    """Empty list when valid; otherwise every violation found."""
    profile = _chain_profile(d)
    return profile if isinstance(profile, list) else []


def compose_vertical(top: LayeredDiagram,
                     bottom: LayeredDiagram) -> LayeredDiagram:
    """Stack top onto bottom; composition of the evaluated functions."""
    if top.n != bottom.n:
        raise ValueError(f"dimension mismatch: {top.n} vs {bottom.n}")
    boundary = bottom.outputs()
    if boundary != top.inputs:
        raise ValueError(
            f"boundary mismatch: bottom outputs {boundary}, "
            f"top inputs {top.inputs}")
    return LayeredDiagram(bottom.n, bottom.inputs,
                          bottom.layers + top.layers)


def juxtapose_horizontal(left: LayeredDiagram,
                         right: LayeredDiagram) -> LayeredDiagram:
    """Side-by-side placement; tensor product of the evaluated functions.
    The shorter diagram is padded above with identity slices."""
    if left.n != right.n:
        raise ValueError(f"dimension mismatch: {left.n} vs {right.n}")

    def padded(d: LayeredDiagram, height: int):
        slices = list(d.layers)
        width = len(d.outputs())
        pad = (Id(),) * width
        slices.extend(pad for _ in range(height - len(slices)))
        return slices

    height = max(len(left.layers), len(right.layers))
    layers = [tuple(ls) + tuple(rs)
              for ls, rs in zip(padded(left, height), padded(right, height))]
    return LayeredDiagram(left.n, left.inputs + right.inputs, layers)


# -- Graph form ----------------------------------------------------------

@dataclass(frozen=True)
class GInput:
    position: int


@dataclass(frozen=True)
class GOutput:
    position: int


@dataclass(frozen=True)
class GNode:
    direction: str
    ciliation: tuple[tuple[int, str], ...]   # ordered (edge id, "head"/"tail")


@dataclass
class GEdge:
    tail: tuple | None = None       # ("vertex", vid) | ("loop",) | None
    head: tuple | None = None
    labels: tuple[tuple[str, bool], ...] = ()   # (name, transposed), tail first


@dataclass
class Diagram:
    """Graph form: oriented matrix-labeled edges between degree-1 boundary
    vertices and ciliated degree-n vertices; free loops allowed."""
    n: int
    vertices: list = field(default_factory=list)
    edges: dict[int, GEdge] = field(default_factory=dict)

    def matrix_names(self) -> set[str]:
        return {name for e in self.edges.values() for name, _ in e.labels}

    def input_count(self) -> int:
        return sum(1 for v in self.vertices if isinstance(v, GInput))

    def output_count(self) -> int:
        return sum(1 for v in self.vertices if isinstance(v, GOutput))


def validate_graph(d: Diagram) -> list[str]:
    """Empty list when valid; otherwise every violation found."""
    problems = []
    incident: dict[int, list[tuple[int, str]]] = {i: [] for i in
                                                  range(len(d.vertices))}
    for eid, e in d.edges.items():
        for end_name, attach in (("tail", e.tail), ("head", e.head)):
            if attach is None:
                problems.append(f"edge {eid}: dangling {end_name}")
            elif attach[0] == "vertex":
                vid = attach[1]
                if not 0 <= vid < len(d.vertices):
                    problems.append(f"edge {eid}: bad vertex id {vid}")
                else:
                    incident[vid].append((eid, end_name))
            elif attach[0] != "loop":
                problems.append(f"edge {eid}: bad attachment {attach}")
        if (e.tail is not None and e.tail[0] == "loop") != \
                (e.head is not None and e.head[0] == "loop"):
            problems.append(f"edge {eid}: half-closed loop")

    in_positions, out_positions = [], []
    for vid, v in enumerate(d.vertices):
        ends = incident[vid]
        if isinstance(v, (GInput, GOutput)):
            if len(ends) != 1:
                problems.append(
                    f"degree: boundary vertex {vid} has degree {len(ends)}")
            (in_positions if isinstance(v, GInput)
             else out_positions).append(v.position)
        elif isinstance(v, GNode):
            if len(ends) != d.n:
                problems.append(
                    f"degree: vertex {vid} has degree {len(ends)}, "
                    f"expected {d.n}")
            if sorted(v.ciliation) != sorted(ends):
                problems.append(
                    f"ciliation: vertex {vid} ciliation does not list each "
                    f"incident edge-end exactly once")
            want = "head" if v.direction == SINK else "tail"
            for eid, end_name in ends:
                if end_name != want:
                    problems.append(
                        f"sink/source: vertex {vid} is a {v.direction} but "
                        f"edge {eid} attaches by its {end_name}")
        else:
            problems.append(f"unknown vertex kind at {vid}")

    for kind, positions in (("input", in_positions),
                            ("output", out_positions)):
        if sorted(positions) != list(range(1, len(positions) + 1)):
            problems.append(
                f"{kind} positions must be exactly 1..{len(positions)}: "
                f"{sorted(positions)}")
    return problems


# -- Layered -> graph conversion -----------------------------------------

class _EdgeBuild:
    __slots__ = ("tail", "head", "labels", "closed")

    def __init__(self):
        self.tail = None
        self.head = None
        self.labels = deque()
        self.closed = False


def to_graph(d: LayeredDiagram) -> Diagram:
    """Dissolve cups/caps/crossings into edges, keep vertices and labels.

    Each wire tracks the open end of the edge currently travelling through
    it: the head end on vector wires (edge oriented up the page), the tail
    end on covector wires.
    """
    errors = validate_layered(d)
    if errors:
        raise ValueError("invalid diagram: " + "; ".join(errors))

    n = d.n
    vertices: list = []
    builds: dict[int, _EdgeBuild] = {}
    next_eid = 0

    def new_edge() -> int:
        nonlocal next_eid
        builds[next_eid] = _EdgeBuild()
        next_eid += 1
        return next_eid - 1

    # wires: list of (edge id, open end "head"/"tail")
    wires: list[tuple[int, str]] = []
    for pos, polarity in enumerate(d.inputs, start=1):
        vid = len(vertices)
        vertices.append(GInput(pos))
        eid = new_edge()
        if polarity == VECTOR:
            builds[eid].tail = ("vertex", vid)
            wires.append((eid, "head"))
        else:
            builds[eid].head = ("vertex", vid)
            wires.append((eid, "tail"))

    cil_refs: dict[int, list[tuple[int, str]]] = {}   # vid -> ordered refs

    def remap_edge(old: int, new: int):
        for i, (eid, end) in enumerate(wires):
            if eid == old:
                wires[i] = (new, end)
        for refs in cil_refs.values():
            for i, (eid, end) in enumerate(refs):
                if eid == old:
                    refs[i] = (new, end)
        del builds[old]

    for layer in d.layers:
        pos = 0
        for piece in layer:
            j_in, _ = piece_arity(piece, n)
            segment = wires[pos:pos + j_in]
            match piece:
                case Id():
                    replacement = segment
                case Mat(name=name, against_orientation=against):
                    eid, end = segment[0]
                    if end == "head":
                        builds[eid].labels.append((name, against))
                    else:
                        builds[eid].labels.appendleft((name, against))
                    replacement = segment
                case Cross():
                    replacement = [segment[1], segment[0]]
                case Perm(images=images):
                    replacement = [None] * len(images)
                    for s, target in enumerate(images):
                        replacement[target - 1] = segment[s]
                case Cup():
                    eid = new_edge()
                    replacement = [(eid, "tail"), (eid, "head")]
                case Cap():
                    (le, lend), (re, rend) = segment
                    if lend == "tail":      # (covector, vector) orientation
                        (le, lend), (re, rend) = (re, rend), (le, lend)
                    assert lend == "head" and rend == "tail"
                    if le == re:
                        b = builds[le]
                        b.closed = True
                        b.tail = b.head = ("loop",)
                    else:
                        bl, br = builds[le], builds[re]
                        bl.labels.extend(br.labels)
                        bl.head = br.head
                        remap_edge(re, le)
                    replacement = []
                case NVertex(direction=direction, in_count=j, ciliation=cil):
                    vid = len(vertices)
                    refs = []
                    for eid, end in segment:
                        b = builds[eid]
                        if direction == SINK:
                            b.head = ("vertex", vid)
                            refs.append((eid, "head"))
                        else:
                            b.tail = ("vertex", vid)
                            refs.append((eid, "tail"))
                    replacement = []
                    for _ in range(n - j):
                        eid = new_edge()
                        b = builds[eid]
                        if direction == SINK:
                            b.head = ("vertex", vid)
                            replacement.append((eid, "tail"))
                            refs.append((eid, "head"))
                        else:
                            b.tail = ("vertex", vid)
                            replacement.append((eid, "head"))
                            refs.append((eid, "tail"))
                    cil_refs[vid] = [refs[slot - 1] for slot in cil]
                    vertices.append(GNode(direction, ()))  # filled below
                case _:
                    raise TypeError(f"unknown piece: {piece!r}")
            wires[pos:pos + j_in] = replacement
            pos += len(replacement)

    for pos, (eid, end) in enumerate(wires, start=1):
        vid = len(vertices)
        vertices.append(GOutput(pos))
        b = builds[eid]
        if end == "head":
            b.head = ("vertex", vid)
        else:
            b.tail = ("vertex", vid)

    # ciliations are final now that all cap merges have remapped edge ids
    for vid, refs in cil_refs.items():
        vertices[vid] = GNode(vertices[vid].direction, tuple(refs))

    edges = {eid: GEdge(b.tail, b.head, tuple(b.labels))
             for eid, b in builds.items()}
    graph = Diagram(n, vertices, edges)
    problems = validate_graph(graph)
    if problems:
        raise AssertionError(
            "conversion produced an invalid graph: " + "; ".join(problems))
    return graph

