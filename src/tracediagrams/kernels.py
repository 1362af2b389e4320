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
them.  It sums index variables out of sparse factors, one variable at a
time (bucket elimination).  A factor is a dict from the mixed-radix
integer of its variables' digits, first variable most significant, to a
nonzero value; ε factors read theirs from a table per (n, arity) of the
n!/(n-m)! keys of distinct digits.  A join reads the shared-variable
digits and the kept digits of each key as sums of table lookups, one per
run of digits (`_digit_tables`); runs are cut so that no table exceeds
max(the factor's nonzero count, n^3) entries.  The factors left after
elimination are multiplied in keyed by the result's flat index, so one
that shares no variable with the running product adds its flat offsets
to the product's, and the result is the dict of its nonzeros by flat
index.

term counts returned by the kernels are the number of multiply-accumulate
operations actually performed (zero factors prune eagerly).
"""

from itertools import permutations, repeat


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


# (n, arity) -> {mixed-radix key of m distinct digits: its Levi-Civita sign}
_eps_sign_cache: dict[tuple[int, int], dict[int, int]] = {}


def _sign_table(n, m):
    """Every tuple of m distinct digits in range(n), n!/(n-m)! of them,
    keyed by its mixed-radix integer (first digit most significant) and
    mapped to the parity sign of its order.  Any other tuple (a repeated
    digit, or m > n) is absent: its ε is 0."""
    table = _eps_sign_cache.get((n, m))
    if table is None:
        table = {}
        for p in permutations(range(n), m):
            inv = sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
            key = 0
            for d in p:
                key = key * n + d
            table[key] = -1 if inv & 1 else 1
        _eps_sign_cache[(n, m)] = table
    return table


# (n, weights, run length) -> _digit_tables' runs, or None
_digit_table_cache: dict[tuple[int, tuple, int], list[tuple] | None] = {}


def _digit_tables(n, weights, size):
    """Lookup tables for the map from a key of p = len(weights) base-n
    digits, digit 0 most significant, to the sum of digit i times
    weights[i].  The digits are split into as few runs as keep every
    run's table within max(size, n^3) entries, the runs as even as
    possible, so a factor of `size` nonzeros never builds a table much
    larger than itself.  Returns (div, mod, table) per run that has a
    nonzero weight, where the key's sum is that of table[key // div %
    mod] (mod is None for the most significant run), or None when the
    weights are the key's own place values."""
    p = len(weights)
    bound = max(size, n ** 3)
    g = p
    while n ** g > bound:
        g -= 1
    key = (n, tuple(weights), g)
    if key in _digit_table_cache:
        return _digit_table_cache[key]
    tables = None
    if weights != [n ** (p - 1 - i) for i in range(p)]:
        tables = []
        runs = -(-p // g)
        stop = p
        for r in range(runs):               # least significant run first
            start = stop - p // runs - (r < p % runs)
            if any(weights[start:stop]):
                table = [0]
                for w in weights[start:stop]:
                    table = [t + d * w for t in table for d in range(n)]
                tables.append((n ** (p - stop),
                               n ** (stop - start) if start else None, table))
            stop = start
    _digit_table_cache[key] = tables
    return tables


def _digit_sums(keys, n, weights):
    """[sum of digit i times weights[i] over the digits of key] for each
    key in keys, by the lookups of _digit_tables."""
    if not any(weights):
        return [0] * len(keys)
    tables = _digit_tables(n, weights, len(keys))
    if tables is None:
        return list(keys)
    sums = None
    for div, mod, table in tables:
        if mod is None:
            sums = [table[k // div] for k in keys] if sums is None else \
                [s + table[k // div] for s, k in zip(sums, keys)]
        else:
            sums = [table[k // div % mod] for k in keys] if sums is None \
                else [s + table[k // div % mod] for s, k in zip(sums, keys)]
    return sums


def _place(n, scope, chosen, scale=1):
    """Weights, one per variable of scope, that read the digits of the
    chosen variables as a mixed-radix integer in chosen's order (first
    most significant) times scale; the other variables weigh 0."""
    top = len(chosen) - 1
    return [scale * n ** (top - chosen.index(v)) if v in chosen else 0
            for v in scope]


def _pairs(n, a, a_match, a_out, b, b_match, b_out, summing):
    """The products of a's and b's nonzeros whose keys agree under the
    weights a_match and b_match, each keyed by the sum of its a_out and
    b_out sums.  Unless summing, every pair lands on its own key, so no
    entry can cancel; else the products on one key are added and zeros
    dropped.  Returns the table and the number of products formed."""
    b_codes = _digit_sums(b, n, b_out)
    if any(b_match):
        rows = {}
        for m, code, bv in zip(_digit_sums(b, n, b_match), b_codes,
                               b.values()):
            row = rows.get(m)
            if row is None:
                rows[m] = [(code, bv)]
            else:
                row.append((code, bv))
        matches = _digit_sums(a, n, a_match)
    else:
        rows = {0: list(zip(b_codes, b.values()))}
        matches = repeat(0)
    out = {}
    get = out.get
    terms = 0
    for m, head, av in zip(matches, _digit_sums(a, n, a_out), a.values()):
        row = rows.get(m)
        if row:
            terms += len(row)
            if summing:
                for code, bv in row:
                    k = head + code
                    out[k] = get(k, 0) + av * bv
            else:
                for code, bv in row:
                    out[head + code] = av * bv
    if summing:
        out = {k: v for k, v in out.items() if v}
    return out, terms


def _join(n, a, b, drop):
    """Product of factors a and b with the variables in drop summed out.
    b is the one indexed by the shared variables, so pass the smaller as b.
    Returns the factor, zeros dropped, and the number of products formed."""
    a_scope, a_table = a
    b_scope, b_table = b
    shared = [v for v in a_scope if v in b_scope]
    a_keep = [v for v in a_scope if v not in drop]
    b_keep = [v for v in b_scope if v not in drop and v not in a_scope]
    table, terms = _pairs(
        n, a_table, _place(n, a_scope, shared),
        _place(n, a_scope, a_keep, n ** len(b_keep)),
        b_table, _place(n, b_scope, shared), _place(n, b_scope, b_keep),
        bool(drop))
    return (tuple(a_keep + b_keep), table), terms


_UNIT = ((), {0: 1})


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

    Sparse variable elimination.  Each factor is a dict from the
    mixed-radix integer of its variables' digits (first variable most
    significant) to a nonzero value: an ε factor is the table of
    `_sign_table` (a repeated variable, or more variables than n, makes the
    network zero), a matrix factor the nonzeros of its flat vals keyed by
    their own index (the diagonal, over one variable, when head == tail),
    a δ factor its n diagonal keys d*(n+1).  Fixed variables restrict
    their factors first.  Then the variables that are neither fixed nor
    outputs are summed out, one at a time in greedy min-degree order:
    fewest other variables sharing a factor with it, ties to the lower
    id.  The factors mentioning the variable are joined, smallest first,
    and each variable that only they mention is summed out at the last
    join where it appears; a join that sums nothing out forms each key
    once, so only the others add and drop zeros.  A join reads each key's
    shared-variable digits and its kept digits with a lookup per run of
    digits (`_digit_tables`).  A summed variable that no factor mentions
    contributes a factor n.  The factors left, all over output variables,
    are multiplied in, smallest first, keyed by the result's flat index
    from the start: a factor sharing no variable with the running product
    adds its flat offsets to the product's.  An output variable they do
    not mention is broadcast over its n digits.

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
            factors.append(((a, b), {d * (n + 1): 1 for d in range(n)}))
    for h, t, vals in mat_factors:
        if h == t:
            factors.append(((h,), {d: e for d in range(n)
                                   if (e := vals[d * (n + 1)])}))
        else:
            factors.append(((h, t), {i: e for i, e in enumerate(vals) if e}))

    scale = 1
    if pinned:
        restricted = []
        for scope, table in factors:
            held = [v for v in scope if v in pinned]
            if held:
                keep = [v for v in scope if v not in pinned]
                want = 0
                for v in held:
                    want = want * n + pinned[v]
                table = {k: e for h, k, e in zip(
                    _digit_sums(table, n, _place(n, scope, held)),
                    _digit_sums(table, n, _place(n, scope, keep)),
                    table.values()) if h == want}
                scope = tuple(keep)
            if not table:
                return {}, 0
            if scope:
                restricted.append((scope, table))
            else:
                scale *= table[0]
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
            acc, t = _join(n, f, acc, drop) if len(f[1]) > len(acc[1]) \
                else _join(n, acc, f, drop)
            terms += t
            if not acc[1]:
                return {}, terms
        if acc[0]:
            factors.append(acc)
        else:
            scale *= acc[1][0]

    # the result's flat index is base + the sum of digit(v) * weight[v];
    # out_vars may repeat a variable, so its weight sums its place values
    width = len(out_vars)
    strides = [n ** (width - 1 - i) for i in range(width)]
    weight = dict.fromkeys(outs, 0)
    place = {}
    base = 0
    for i, v in enumerate(out_vars):
        if v in pinned:
            base += pinned[v] * strides[i]
        else:
            weight[v] += strides[i]
            place[v] = i
    factors.sort(key=lambda f: len(f[1]))
    scope, f = factors[0] if factors else _UNIT
    table = dict(zip(_digit_sums(f, n, [weight[v] for v in scope]),
                     f.values()))
    held = list(scope)
    for scope, f in factors[1:]:
        # the running product's keys are flat indices less base, so a
        # variable's digit is read at one place it holds in out_vars
        shared = [v for v in scope if v in held]
        at = {place[v]: n ** (len(shared) - 1 - i)
              for i, v in enumerate(shared)}
        table, t = _pairs(
            n, f, _place(n, scope, shared),
            [0 if v in held else weight[v] for v in scope],
            table, [at.get(i, 0) for i in range(width)], strides, False)
        terms += t
        held += [v for v in scope if v not in held]

    spread = [base]
    for v, w in weight.items():
        if v not in held:
            spread = [s + d * w for s in spread for d in range(n)]
    terms += len(table) * len(spread)
    if spread != [0] or scale != 1:
        table = {k + s: v * scale if scale != 1 else v
                 for k, v in table.items() for s in spread}
    return table, terms
