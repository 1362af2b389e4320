"""Kernels: dense pair contraction and axis permutation, and the sparse
variable elimination of the contraction evaluator.

The dense kernels take flat lists in row-major order over `naxes` axes,
each of size n, as Tensor.entries builds them.  Entries are exact numbers
(int or Fraction); the kernels only multiply and add, so exactness is
preserved.

Index arithmetic is done once per call, not once per entry: `_offsets`
builds the flat offset of every digit combination over a set of axes as a
table, axis by axis with the last axis fastest.  `permute_axes` then copies
each run along the result's trailing axes with one list slice.
`pair_contract` gathers b's entries at each summation offset into a column
once, and builds each row of the result from a's nonzero summands times
those columns, adding them in summation order.  These two serve
`Tensor.permuted_axes` and `tensor.tensor_contract` only; the layered
evaluator folds its sparse state itself, in evaluate.py.

`epsilon_network` serves the contraction evaluator and shares no code with
them.  It sums index variables out of sparse factors, each a dict from the
digit tuple of its variables to a nonzero value, one variable at a time
(bucket elimination).  ε factors read their nonzeros from a table per
(n, arity) of the n!/(n-m)! tuples of distinct digits, and the result is
the dict of its nonzeros by flat index.

term counts returned by the kernels are the number of multiply-accumulate
operations actually performed (zero factors prune eagerly).
"""

from itertools import permutations
from operator import itemgetter, mul


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


def _picker(positions):
    """Function from a digit tuple to the tuple of its digits at positions."""
    if len(positions) == 1:
        i = positions[0]
        return lambda key: (key[i],)
    if not positions:
        return lambda key: ()
    return itemgetter(*positions)


def _join(a, b, drop):
    """Product of factors a and b with the variables in drop summed out.
    b is the one indexed by the shared variables, so pass the smaller as b.
    Returns the factor, zeros dropped, and the number of products formed."""
    a_scope, a_table = a
    b_scope, b_table = b
    shared = [v for v in a_scope if v in b_scope]
    a_keep = [i for i, v in enumerate(a_scope) if v not in drop]
    b_keep = [i for i, v in enumerate(b_scope)
              if v not in drop and v not in a_scope]
    b_key = _picker([b_scope.index(v) for v in shared])
    b_out = _picker(b_keep)
    rows = {}
    for key, val in b_table.items():
        rows.setdefault(b_key(key), []).append((b_out(key), val))
    a_key = _picker([a_scope.index(v) for v in shared])
    a_out = _picker(a_keep)
    out = {}
    get = out.get
    terms = 0
    for key, av in a_table.items():
        matches = rows.get(a_key(key))
        if matches:
            head = a_out(key)
            terms += len(matches)
            for tail, bv in matches:
                k = head + tail
                out[k] = get(k, 0) + av * bv
    scope = tuple(a_scope[i] for i in a_keep) + \
        tuple(b_scope[i] for i in b_keep)
    return (scope, {k: v for k, v in out.items() if v}), terms


_UNIT = ((), {(): 1})


def epsilon_network(n, nvars, out_vars, fixed, eps_factors, delta_factors,
                    mat_factors):
    """Sum factor products over all assignments of `nvars` index variables.

    Variables take 0-based digits in range(n); `fixed` pins some of them.
    Factors reference variables by id:
      eps_factors:   tuples of var ids -> Levi-Civita sign of their digits
      delta_factors: (v1, v2)          -> 1 if equal else 0
      mat_factors:   (head, tail, flat n*n vals) -> vals[digit(head)*n+digit(tail)]
    out_vars selects the digits forming the result's mixed-radix index (most
    significant first); returns ({flat index: nonzero value}, terms).

    Sparse variable elimination.  Each factor is a dict from the digit
    tuple of its variables to a nonzero value: an ε factor is the table of
    `_sign_table` (a repeated variable, or more variables than n, makes the
    network zero), a matrix factor its nonzeros (the diagonal, over one
    variable, when head == tail), a δ factor its n diagonal pairs.  Fixed
    variables restrict their factors first.  Then the variables that are
    neither fixed nor outputs are summed out, one at a time in greedy
    min-degree order: fewest other variables sharing a factor with it, ties
    to the lower id.  The factors mentioning the variable are joined,
    smallest first, and each variable that only they mention is summed out
    at the last join where it appears; zero entries are dropped.  A summed
    variable that no factor mentions contributes a factor n.  The factors
    left, all over output variables, are multiplied together and each
    nonzero is written at its flat index; an output variable they do not
    mention is broadcast over its n digits.

    terms counts the multiply-adds performed: one per product formed in a
    join (a variable summed out of a lone factor is a join with the unit
    factor) and one per entry written to the result.
    """
    pinned = dict(fixed)
    factors = []
    for f in eps_factors:
        if len(f) < 2:          # ε of at most one index is 1
            continue
        if len(set(f)) < len(f) or len(f) > n:
            return {}, 0
        factors.append((tuple(f), _sign_table(n, len(f))))
    for a, b in delta_factors:
        if a != b:
            factors.append(((a, b), {(d, d): 1 for d in range(n)}))
    for h, t, vals in mat_factors:
        if h == t:
            factors.append(((h,), {(d,): e for d in range(n)
                                   if (e := vals[d * n + d])}))
        else:
            factors.append(((h, t), {(i, j): e for i in range(n)
                                     for j in range(n)
                                     if (e := vals[i * n + j])}))

    scale = 1
    if pinned:
        restricted = []
        for scope, table in factors:
            at = [i for i, v in enumerate(scope) if v in pinned]
            if at:
                want = tuple(pinned[scope[i]] for i in at)
                held = _picker(at)
                keep = [i for i, v in enumerate(scope) if v not in pinned]
                pick = _picker(keep)
                table = {pick(k): e for k, e in table.items()
                         if held(k) == want}
                scope = tuple(scope[i] for i in keep)
            if not table:
                return {}, 0
            if scope:
                restricted.append((scope, table))
            else:
                scale *= table[()]
        factors = restricted

    outs = {v for v in out_vars if v not in pinned}
    mentioned = {v for scope, _ in factors for v in scope}
    scale *= n ** (nvars - len(pinned) - len(mentioned | outs))
    elim = mentioned - outs
    terms = 0
    while elim:
        best = None
        for v in elim:
            near = set()
            for scope, _ in factors:
                if v in scope:
                    near.update(scope)
            if best is None or (len(near), v) < best:
                best = len(near), v
        v = best[1]
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        if len(bucket) == 1:
            bucket.append(_UNIT)
        bucket.sort(key=lambda f: len(f[1]))
        # each variable only the bucket mentions is summed out at the last
        # join where it appears (the first join, if that is bucket[0])
        elsewhere = {u for scope, _ in factors for u in scope}
        last = {}
        for i, (scope, _) in enumerate(bucket):
            for u in scope:
                if u in elim and u not in elsewhere:
                    last[u] = max(i, 1)
        elim.difference_update(last)
        acc = bucket[0]
        for i in range(1, len(bucket)):
            drop = {u for u, at in last.items() if at == i}
            f = bucket[i]
            acc, t = _join(f, acc, drop) if len(f[1]) > len(acc[1]) \
                else _join(acc, f, drop)
            terms += t
            if not acc[1]:
                return {}, terms
        if acc[0]:
            factors.append(acc)
        else:
            scale *= acc[1][()]

    factors.sort(key=lambda f: len(f[1]))
    result = factors[0] if factors else _UNIT
    for f in factors[1:]:
        result, t = _join(f, result, ())
        terms += t
    scope, table = result

    weight = dict.fromkeys(outs, 0)
    base = 0
    stride = 1
    for v in reversed(out_vars):
        if v in pinned:
            base += pinned[v] * stride
        else:
            weight[v] += stride
        stride *= n
    spread = [base]
    for v, w in weight.items():
        if v not in scope:
            spread = [s + d * w for s in spread for d in range(n)]
    weights = [weight[v] for v in scope]
    out = {}
    for key, val in table.items():
        if scale != 1:
            val = val * scale
        idx = sum(map(mul, key, weights))
        for s in spread:
            out[idx + s] = val
    return out, terms + len(table) * len(spread)
