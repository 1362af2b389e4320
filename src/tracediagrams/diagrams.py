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

from dataclasses import dataclass, field
from itertools import count

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


def _vertex_problems(n: int, d: str, j: int, cil) -> list[str]:
    """What is wrong with a vertex piece's fields, if anything."""
    problems = []
    if d not in (SINK, SOURCE):
        problems.append(f"vertex direction must be sink/source: {d}")
    if not 0 <= j <= n:
        problems.append(f"vertex in_count {j} out of range 0..{n}")
    if sorted(cil) != list(range(1, n + 1)):
        problems.append(
            f"ciliation must order slots 1..{n} exactly once: {cil}")
    return problems


def piece_step(piece: Piece, n: int, profile, pos: int, check=True):
    """A piece in a walk over one slice, by one dispatch: (wires consumed,
    wires produced, output polarities, construction problems), where its
    inputs are profile[pos:pos + wires consumed].  The polarities are an
    error string when the inputs do not suit the piece, and None when
    they are unknowable: fewer wires remain, or a Perm is no bijection.
    check=False skips the construction checks, for a diagram already
    validated, and reports no problems."""
    match piece:
        case Id():
            ins = profile[pos:pos + 1]
            return 1, 1, ins or None, ()
        case Mat(name=name):
            ins = profile[pos:pos + 1]
            if name or not check:
                return 1, 1, ins or None, ()
            return 1, 1, ins or None, ("matrix piece with empty name",)
        case Cross():
            ins = profile[pos:pos + 2]
            return 2, 2, (ins[1], ins[0]) if len(ins) == 2 else None, ()
        case Cup():
            return 0, 2, (COVECTOR, VECTOR), ()
        case Cap():
            ins = tuple(profile[pos:pos + 2])
            if len(ins) < 2:
                outs = None
            elif ins in ((VECTOR, COVECTOR), (COVECTOR, VECTOR)):
                outs = ()
            else:
                outs = f"cap requires one vector and one covector, got {ins}"
            return 2, 0, outs, ()
        case NVertex(direction=d, in_count=j, ciliation=cil):
            problems = _vertex_problems(n, d, j, cil) if check else ()
            ins = tuple(profile[pos:pos + j])
            want = VECTOR if d == SINK else COVECTOR
            if len(ins) < j:
                outs = None
            elif ins.count(want) != len(ins):
                outs = f"{d} vertex requires {want} inputs, got {ins}"
            else:
                outs = (COVECTOR if d == SINK else VECTOR,) * (n - j)
            return j, n - j, outs, problems
        case Perm(images=images):
            m = len(images)
            ins = profile[pos:pos + m]
            if check and sorted(images) != list(range(1, m + 1)):
                return m, m, None, (
                    f"perm images not a bijection: {images}",)
            if len(ins) < m:
                return m, m, None, ()
            outs = [None] * m
            for s, target in enumerate(images):
                outs[target - 1] = ins[s]
            return m, m, outs, ()
    raise TypeError(f"unknown piece: {piece!r}")


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

    n = d.n
    profile = list(d.inputs)
    for li, layer in enumerate(d.layers):
        new_profile = []
        pos = 0
        error = None
        known = True
        for piece in layer:
            j_in, _, outs, checks = piece_step(piece, n, profile, pos)
            for msg in checks:
                problems.append(f"layer {li}: {msg}")
            pos += j_in
            if outs is None:
                known = False
            elif isinstance(outs, str):
                error = error or outs
            else:
                new_profile.extend(outs)
        if pos != len(profile):
            problems.append(f"layer {li}: wire count {len(profile)} vs {pos}")
            return problems  # later profiles are unknowable
        if error is not None:
            problems.append(f"layer {li}: {error}")
            return problems
        if not known:
            return problems
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


def validate_graph(d: Diagram) -> list[str]:
    """Empty list when valid; otherwise every violation found."""
    problems = []
    size = len(d.vertices)
    incident: list[list[tuple[int, str]]] = [[] for _ in range(size)]
    for eid, e in d.edges.items():
        tail, head = e.tail, e.head
        for end_name, attach in (("tail", tail), ("head", head)):
            if attach is None:
                problems.append(f"edge {eid}: dangling {end_name}")
            elif attach[0] == "vertex":
                vid = attach[1]
                if not 0 <= vid < size:
                    problems.append(f"edge {eid}: bad vertex id {vid}")
                else:
                    incident[vid].append((eid, end_name))
            elif attach[0] != "loop":
                problems.append(f"edge {eid}: bad attachment {attach}")
        if (tail is not None and tail[0] == "loop") != \
                (head is not None and head[0] == "loop"):
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

def _remap_edge(old: int, new: int, wires: list, cil_refs: dict,
                builds: dict):
    """Point every wire and ciliation reference at edge old to edge new,
    and drop old, which a cap has merged into new."""
    for i, (eid, end) in enumerate(wires):
        if eid == old:
            wires[i] = (new, end)
    for _, refs in cil_refs.values():
        for i, (eid, end) in enumerate(refs):
            if eid == old:
                refs[i] = (new, end)
    del builds[old]


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
    # the edges as they are built, by id; labels stay a list until the end
    builds: dict[int, GEdge] = {}
    ids = count()

    # wires: list of (edge id, open end "head"/"tail")
    wires: list[tuple[int, str]] = []
    for pos, polarity in enumerate(d.inputs, start=1):
        vid = len(vertices)
        vertices.append(GInput(pos))
        eid = next(ids)
        if polarity == VECTOR:
            builds[eid] = GEdge(("vertex", vid), None, [])
            wires.append((eid, "head"))
        else:
            builds[eid] = GEdge(None, ("vertex", vid), [])
            wires.append((eid, "tail"))

    # vid -> (direction, ordered refs)
    cil_refs: dict[int, tuple[str, list[tuple[int, str]]]] = {}

    for layer in d.layers:
        pos = 0
        for piece in layer:
            match piece:
                case Id():
                    pos += 1
                    continue
                case Mat(name=name, against_orientation=against):
                    eid, end = wires[pos]
                    if end == "head":
                        builds[eid].labels.append((name, against))
                    else:
                        builds[eid].labels.insert(0, (name, against))
                    pos += 1
                    continue
                case Cross():
                    j_in = 2
                    replacement = [wires[pos + 1], wires[pos]]
                case Perm(images=images):
                    j_in = len(images)
                    replacement = [None] * j_in
                    for s, target in enumerate(images):
                        replacement[target - 1] = wires[pos + s]
                case Cup():
                    j_in = 0
                    eid = next(ids)
                    builds[eid] = GEdge(None, None, [])
                    replacement = [(eid, "tail"), (eid, "head")]
                case Cap():
                    j_in = 2
                    (le, lend), (re, rend) = wires[pos:pos + 2]
                    if lend == "tail":      # (covector, vector) orientation
                        (le, lend), (re, rend) = (re, rend), (le, lend)
                    assert lend == "head" and rend == "tail"
                    if le == re:
                        b = builds[le]
                        b.tail = b.head = ("loop",)
                    else:
                        bl, br = builds[le], builds[re]
                        bl.labels.extend(br.labels)
                        bl.head = br.head
                        _remap_edge(re, le, wires, cil_refs, builds)
                    replacement = []
                case NVertex(direction=direction, in_count=j, ciliation=cil):
                    j_in = j
                    vid = len(vertices)
                    refs = []
                    for eid, end in wires[pos:pos + j]:
                        b = builds[eid]
                        if direction == SINK:
                            b.head = ("vertex", vid)
                            refs.append((eid, "head"))
                        else:
                            b.tail = ("vertex", vid)
                            refs.append((eid, "tail"))
                    replacement = []
                    for _ in range(n - j):
                        eid = next(ids)
                        if direction == SINK:
                            builds[eid] = GEdge(None, ("vertex", vid), [])
                            replacement.append((eid, "tail"))
                            refs.append((eid, "head"))
                        else:
                            builds[eid] = GEdge(("vertex", vid), None, [])
                            replacement.append((eid, "head"))
                            refs.append((eid, "tail"))
                    cil_refs[vid] = direction, [refs[slot - 1]
                                                for slot in cil]
                    vertices.append(None)   # the GNode, once refs are final
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
    for vid, (direction, refs) in cil_refs.items():
        vertices[vid] = GNode(direction, tuple(refs))

    for b in builds.values():
        b.labels = tuple(b.labels)
    graph = Diagram(n, vertices, builds)
    problems = validate_graph(graph)
    if problems:
        raise AssertionError(
            "conversion produced an invalid graph: " + "; ".join(problems))
    return graph

