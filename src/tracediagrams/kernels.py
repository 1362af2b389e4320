"""Contraction kernels: the three hot loops the evaluators funnel through.

Dense tensors are flat lists in row-major order over `naxes` axes, each of
size n.  Entries are exact numbers (int or Fraction); the kernels only
multiply and add, so exactness is preserved.

Index arithmetic is done once per call, not once per entry: `_offsets`
builds the flat offset of every digit combination over a set of axes as a
table, axis by axis with the last axis fastest.  `permute_axes` then copies
each run along the result's trailing axes with one list slice.
`pair_contract` gathers b's entries at each summation offset into a column
once, and builds each row of the result from a's nonzero summands times
those columns, adding them in summation order.

`epsilon_network` builds a search plan once per call.  ε signs come from
a table per (n, arity) of the n!/(n-m)! tuples of distinct digits, read
through an itemgetter over the factor's variables; a miss means ε = 0.
Each free variable is one level with flat tuples of the ε, δ and matrix
checks it completes, the clash variables whose digits it may not take
(all-different propagation on ε factors), and its weight in the flat
output index, which is carried down the recursion.  The last level's loop
adds into the result directly, with no call per leaf.

term counts returned by the kernels are the number of multiply-accumulate
operations actually performed (zero factors prune eagerly).
"""

from itertools import permutations
from operator import itemgetter


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


# (n, arity) -> {tuple of distinct digits in range(n): its Levi-Civita sign}
_eps_sign_cache: dict[tuple[int, int], dict[tuple, int]] = {}


def _sign_table(n, m):
    """Every tuple of m distinct digits in range(n), n!/(n-m)! of them,
    mapped to the parity sign of its order.  Any other tuple (a repeated
    digit, or m > n) is absent: its ε is 0."""
    table = _eps_sign_cache.get((n, m))
    if table is None:
        table = {}
        for p in permutations(range(n), m):
            inv = sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
            table[p] = -1 if inv & 1 else 1
        _eps_sign_cache[(n, m)] = table
    return table


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

    Enumeration is depth-first over the free variables in var-id order,
    from a plan built once per call.  Each free variable is one level
    holding the checks of the factors it completes: the factors whose
    highest-id free variable it is, so a factor that completes at a fixed
    variable runs at the preceding free level, and factors with no free
    variable run once before the search.  A zero factor prunes the whole
    subtree.  An ε check reads the sign of its variables' digits, taken
    with an itemgetter, from the table of `_sign_table`; a miss is ε = 0,
    which covers repeated digits, a variable repeated inside one factor,
    clashes between fixed variables and factors longer than n.  ε factors
    also prune earlier, by all-different propagation: a level never binds
    a digit held by a fixed or lower-id variable of one of its ε factors.
    Each variable has a weight in the flat output index (summed over its
    positions in out_vars), and the index is carried down the recursion;
    the last level adds into the result and counts terms in its own loop.
    Only subtrees whose product would be 0 are cut, so the leaves, their
    order and the term count are those of a plain enumeration.
    """
    digits = [0] * nvars
    fixed_map = dict(fixed)
    for v, d in fixed_map.items():
        digits[v] = d
    free = [v for v in range(nvars) if v not in fixed_map]
    level_of = {v: i for i, v in enumerate(free)}

    weight = [0] * nvars
    size = 1
    for ov in reversed(out_vars):
        weight[ov] += size
        size *= n
    out = [0] * size

    def level(vs):
        return max((level_of[v] for v in vs if v in level_of), default=-1)

    # checks by level; the extra last slot (level -1) runs before the search
    eps_at = [[] for _ in range(len(free) + 1)]
    delta_at = [[] for _ in range(len(free) + 1)]
    mat_at = [[] for _ in range(len(free) + 1)]
    clash = [set() for _ in range(nvars)]
    for f in eps_factors:
        if len(f) < 2:      # ε of at most one index is 1
            continue
        eps_at[level(f)].append((itemgetter(*f), _sign_table(n, len(f))))
        for v in f:
            if v not in fixed_map:
                clash[v].update(u for u in f
                                if u != v and (u < v or u in fixed_map))
    for v1, v2 in delta_factors:
        delta_at[level((v1, v2))].append((v1, v2))
    for h, t, vals in mat_factors:
        mat_at[level((h, t))].append((h, t, vals))

    start = 1
    for get, table in eps_at[-1]:
        s = table.get(get(digits))
        if s is None:
            return out, 0
        if s < 0:
            start = -start
    for a, b in delta_at[-1]:
        if digits[a] != digits[b]:
            return out, 0
    for h, t, vals in mat_at[-1]:
        e = vals[digits[h] * n + digits[t]]
        if not e:
            return out, 0
        start = start * e
    base = sum(digits[v] * weight[v] for v in fixed_map)
    if not free:
        out[base] += start
        return out, 1

    # per level: variable, digits no fixed clash holds, free clash
    # variables, the three kinds of checks, and the output weight
    levels = []
    for i, v in enumerate(free):
        held = {digits[u] for u in clash[v] if u in fixed_map}
        levels.append((v, [d for d in range(n) if d not in held],
                       tuple(sorted(u for u in clash[v]
                                    if u not in fixed_map)),
                       tuple(eps_at[i]), tuple(delta_at[i]),
                       tuple(mat_at[i]), weight[v]))
    last = len(levels) - 1

    def descend(i, partial, idx):
        """Terms of the subtree below level i."""
        v, cands, clash_v, eps, deltas, mats, wv = levels[i]
        if clash_v:
            taken = [digits[u] for u in clash_v]
            cands = [d for d in cands if d not in taken]
        leaf = i == last
        terms = 0
        for d in cands:
            digits[v] = d
            p = partial
            for get, table in eps:
                s = table.get(get(digits))
                if s is None:
                    break
                if s < 0:
                    p = -p
            else:
                for a, b in deltas:
                    if digits[a] != digits[b]:
                        break
                else:
                    for h, t, vals in mats:
                        e = vals[digits[h] * n + digits[t]]
                        if not e:
                            break
                        p = p * e
                    else:
                        if leaf:
                            out[idx + d * wv] += p
                            terms += 1
                        else:
                            terms += descend(i + 1, p, idx + d * wv)
        return terms

    return out, descend(0, start, base)
