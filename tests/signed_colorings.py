"""A diagram's value by its signed graph colorings, for the tests only.

This is the definition the evaluators are judged by, enumerated: every
assignment of a digit to each end of each edge, and to each point between
two labels of an edge, where an unlabeled edge carries one digit and the
ends at each vertex carry distinct digits, contributes the Levi-Civita
sign of each vertex's digits in ciliation order times the entries of the
labels along each edge.  It shares no idea with either evaluator: no
sorted digits, no minors, no elimination; it imports nothing from
`kernels` or `evaluate`.
"""

from itertools import product

from tracediagrams.diagrams import GInput, GNode, GOutput


def _sign(digits):
    inversions = sum(a > b for i, a in enumerate(digits)
                     for b in digits[i + 1:])
    return -1 if inversions & 1 else 1


def _word_entries(labels, bindings, n):
    """{(tail digit, head digit): the sum over the digits between the
    labels of the product of the label entries}, the label nearest the
    tail first; each label (name, transposed) reads its matrix at (row =
    the digit on its head side, column = the digit on its tail side)."""
    def entry(label, head, tail):
        name, transposed = label
        rows = bindings[name].rows
        return rows[tail][head] if transposed else rows[head][tail]

    entries = {}
    for digits in product(range(n), repeat=len(labels) + 1):
        value = 1
        for label, tail, head in zip(labels, digits, digits[1:]):
            value *= entry(label, head, tail)
        if value:
            key = digits[0], digits[-1]
            entries[key] = entries.get(key, 0) + value
    return entries


def signed_colorings(d, bindings):
    """The graph-form diagram d's tensor as {flat index: nonzero value},
    indexed by its outputs by position and then its inputs by position,
    row-major, as `Tensor.nonzeros` is."""
    n = d.n
    scale = 1
    edges = []                  # (edge id, word entries or None)
    for eid, e in sorted(d.edges.items()):
        entries = _word_entries(e.labels, bindings, n) if e.labels else None
        if e.tail[0] == "loop":     # a closed loop is its word's trace
            scale *= n if entries is None else \
                sum(entries.get((x, x), 0) for x in range(n))
        else:
            edges.append((eid, entries))
    nodes = [v for v in d.vertices if isinstance(v, GNode)]
    # the edge end each boundary vertex reads, outputs then inputs
    ends = {}
    for eid, e in d.edges.items():
        for end in ("tail", "head"):
            attach = getattr(e, end)
            if attach[0] == "vertex":
                ends[attach[1]] = eid, end
    boundary = sorted(((type(v) is GInput, v.position), ends[vid])
                      for vid, v in enumerate(d.vertices)
                      if type(v) in (GInput, GOutput))
    at_vertex = {}              # (edge id, end) -> its vertex, if a node
    for vid, v in enumerate(d.vertices):
        if isinstance(v, GNode):
            for ref in v.ciliation:
                at_vertex[ref] = vid
    used = {vid: set() for vid in at_vertex.values()}
    digit = {}                  # (edge id, end) -> its digit
    result = {}

    def leaf(value):
        for v in nodes:
            value *= _sign([digit[ref] for ref in v.ciliation])
        if value:
            index = 0
            for _, ref in boundary:
                index = index * n + digit[ref]
            result[index] = result.get(index, 0) + value

    def color(i, value):
        if i == len(edges):
            leaf(value)
            return
        eid, entries = edges[i]
        tail, head = (eid, "tail"), (eid, "head")
        pairs = ((x, x) for x in range(n)) if entries is None else \
            product(range(n), repeat=2)
        for x, y in pairs:
            weight = 1 if entries is None else entries.get((x, y), 0)
            if not weight:
                continue
            u, v = at_vertex.get(tail), at_vertex.get(head)
            if (u is not None and x in used[u]) or \
                    (v is not None and y in used[v]):
                continue
            for vertex, z in ((u, x), (v, y)):
                if vertex is not None:
                    used[vertex].add(z)
            digit[tail], digit[head] = x, y
            color(i + 1, value * weight)
            for vertex, z in ((u, x), (v, y)):
                if vertex is not None:
                    used[vertex].discard(z)

    color(0, scale)
    return {k: v for k, v in result.items() if v}
