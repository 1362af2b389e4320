"""Pure-Python contraction kernels.

These are the reference implementations of the three hot loops the evaluators
funnel through.  `tracediagrams._speedups` (Cython) implements the same
signatures; `tracediagrams.kernels` picks one at import time.

Dense tensors are flat lists in row-major order over `naxes` axes, each of
size n.  Entries are exact numbers (int or Fraction); the kernels only
multiply and add, so exactness is preserved.

Index arithmetic is done once per call, not once per entry: `_offsets`
builds the flat offset of every digit combination over a set of axes as a
table, axis by axis with the last axis fastest.  `permute_axes` then copies
each run along the result's trailing axes with one list slice.
`pair_contract` gathers b's entries at each summation offset into a column
once, and builds each row of the result from a's nonzero summands times
those columns, adding them in summation order.  `epsilon_network`
prunes ε factors by all-different propagation: a digit already held by
another variable of a shared ε factor is never bound.

term counts returned by the kernels are the number of multiply-accumulate
operations actually performed (zero factors prune eagerly).
"""


def _strides(n, naxes):
    return [n ** (naxes - 1 - i) for i in range(naxes)]


def _offsets(n, weights):
    """Flat offsets sum(d_i * weights[i]) of every digit combination in
    range(n)**len(weights), in row-major order (last axis fastest)."""
    offs = [0]
    for w in weights:
        steps = [d * w for d in range(n)]
        offs = [o + s for o in offs for s in steps]
    return offs


def pair_contract(n, a_vals, a_naxes, b_vals, b_naxes, pairs):
    """Contract two dense tensors over paired axes.

    pairs: list of (a_axis, b_axis), 0-based.  Result axes are a's free axes
    in order, then b's free axes in order.  Returns (vals, term_count).
    """
    a_paired = {p for p, _ in pairs}
    b_paired = {q for _, q in pairs}
    if len(a_paired) != len(pairs) or len(b_paired) != len(pairs):
        raise ValueError("duplicate axis in pairing")
    for p, q in pairs:
        if not (0 <= p < a_naxes and 0 <= q < b_naxes):
            raise ValueError(f"pairing axis out of range: ({p}, {q})")
    a_str = _strides(n, a_naxes)
    b_str = _strides(n, b_naxes)
    a_bases = _offsets(n, [a_str[i] for i in range(a_naxes)
                           if i not in a_paired])
    b_bases = _offsets(n, [b_str[i] for i in range(b_naxes)
                           if i not in b_paired])
    a_sums = _offsets(n, [a_str[p] for p, _ in pairs])
    b_sums = _offsets(n, [b_str[q] for _, q in pairs])

    # cols[j]: b's entries at summation offset j, one per b base, with their
    # nonzero count; built once, and only where some entry of a is nonzero
    cols = {}
    zero_row = [0] * len(b_bases)
    out = []
    terms = 0
    for ab in a_bases:
        row = zero_row
        for j, ao in enumerate(a_sums):
            av = a_vals[ab + ao]
            if not av:
                continue
            if j not in cols:
                bo = b_sums[j]
                col = [b_vals[bb + bo] for bb in b_bases]
                cols[j] = col, len(col) - col.count(0)
            col, nonzero = cols[j]
            terms += nonzero
            row = [acc + av * bv if bv else acc
                   for acc, bv in zip(row, col)]
        out += row
    return out, terms


def permute_axes(n, vals, naxes, perm):
    """Reorder axes so that result axis r is source axis perm[r]."""
    if sorted(perm) != list(range(naxes)):
        raise ValueError(f"not an axis permutation: {perm}")
    if not naxes:
        return [vals[0]]
    src_str = _strides(n, naxes)
    weights = [src_str[perm[r]] for r in range(naxes)]
    # Trailing result axes that keep their source order form one strided run.
    last = weights[-1]
    k = 1
    while k < naxes and weights[-k - 1] == weights[-k] * n:
        k += 1
    span = last * n ** k
    out = []
    for b in _offsets(n, weights[:-k]):
        out += vals[b:b + span:last]
    return out


def _eps(digits):
    """Sign of a 0-based index sequence: 0 on repeats, else parity."""
    m = len(digits)
    inv = 0
    for i in range(m):
        di = digits[i]
        for j in range(i + 1, m):
            if di == digits[j]:
                return 0
            if di > digits[j]:
                inv += 1
    return -1 if inv & 1 else 1


def epsilon_network(n, nvars, out_vars, fixed, eps_factors, delta_factors,
                    mat_factors):
    """Sum factor products over all assignments of `nvars` index variables.

    Variables take 0-based digits in range(n); `fixed` pins some of them.
    Factors reference variables by id:
      eps_factors:   tuples of var ids -> Levi-Civita sign of their digits
      delta_factors: (v1, v2)          -> 1 if equal else 0
      mat_factors:   (head, tail, flat n*n vals) -> vals[digit(head)*n+digit(tail)]
    out_vars selects the digits forming the result's mixed-radix index (most
    significant first); returns (out_vals of length n**len(out_vars), terms).

    Enumeration is depth-first in var-id order; every factor is evaluated as
    soon as its last variable is bound, so zero factors prune whole subtrees.
    ε factors also prune earlier, by all-different propagation: each free
    variable has a list of clash variables, the other variables of its ε
    factors that are fixed or bound before it, and a digit one of them holds
    is skipped.  Only subtrees whose ε factor would evaluate to 0 are cut,
    so the leaves, their order and the term count are unchanged.  A variable
    repeated inside one factor and clashes between fixed variables are left
    to the full ε evaluation.
    """
    digits = [0] * nvars
    fixed_map = dict(fixed)
    for v, d in fixed_map.items():
        digits[v] = d

    sched = [[] for _ in range(nvars + 1)]  # sched[v]: factors complete at v

    def last_var(vs):
        free = [v for v in vs if v not in fixed_map]
        return max(free) if free else -1

    clash = [set() for _ in range(nvars)]
    for f in eps_factors:
        sched[last_var(f) + 1].append(("e", tuple(f)))
        for v in f:
            if v not in fixed_map:
                clash[v].update(u for u in f
                                if u != v and (u < v or u in fixed_map))
    for v1, v2 in delta_factors:
        sched[last_var((v1, v2)) + 1].append(("d", (v1, v2)))
    for h, t, vals in mat_factors:
        sched[last_var((h, t)) + 1].append(("m", (h, t, vals)))
    clash = [tuple(sorted(c)) for c in clash]

    out = [0] * (n ** len(out_vars))
    terms = 0

    def eval_factors(v, partial):
        for kind, f in sched[v]:
            if kind == "e":
                s = _eps([digits[x] for x in f])
                if s == 0:
                    return None
                if s < 0:
                    partial = -partial
            elif kind == "d":
                if digits[f[0]] != digits[f[1]]:
                    return None
            else:
                h, t, vals = f
                e = vals[digits[h] * n + digits[t]]
                if not e:
                    return None
                partial = partial * e
        return partial

    def recurse(v, partial):
        nonlocal terms
        if v == nvars:
            idx = 0
            for ov in out_vars:
                idx = idx * n + digits[ov]
            out[idx] += partial
            terms += 1
            return
        if v in fixed_map:
            p = eval_factors(v + 1, partial)
            if p is not None:
                recurse(v + 1, p)
            return
        taken = [digits[u] for u in clash[v]]
        for d in range(n):
            if d in taken:
                continue
            digits[v] = d
            p = eval_factors(v + 1, partial)
            if p is not None:
                recurse(v + 1, p)

    # factors with no free variables are scheduled at position 0
    start = eval_factors(0, 1)
    if start is not None:
        recurse(0, start)
    return out, terms
