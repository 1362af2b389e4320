"""Kernels: the sparse variable elimination of the contraction evaluator,
and two dense kernels, pair contraction and axis permutation.

`epsilon_network` serves the contraction evaluator.  It sums index
variables out of sparse factors, one variable at a time (bucket
elimination).  A factor is a dict from the mixed-radix integer of its
variables' digits, first variable most significant, to a nonzero value; ε
factors read theirs from a table per (n, arity) of the n!/(n-m)! keys of
distinct digits, and matrix factors their nonzero entries.  There are no
δ factors: two ends that must carry one digit share one variable, an
output listed twice is read where its two digits agree, and a variable
pinned to two different digits makes the network zero.  Every product of
two factors is a join (`_join`): the restriction to pinned digits, each
bucket, and the factors left after elimination, whose last join keys the
product by the result's flat index.
A join reads the shared-variable digits and the kept digits of each key as
sums of table lookups, one per run of digits (`_runs`); runs are cut so
that no table exceeds max(the factor's nonzero count, n^3) entries.

The tables are planned once per shape, not once per call: `_plan_cache`
maps a join's shape (n, the positions of its variables relabelled by
first occurrence, the dropped positions, the two run lengths and the
weights of its kept digits, if given) to its readers, and the weights of
a lone reading to its runs.  A join makes one lookup, and a network
renumbered or rebound reuses every plan.

The dense kernels, `pair_contract` and `permute_axes`, have no caller in
the package: tensors are combined by composing diagrams, and the layered
evaluator folds its sparse state itself, in evaluate.py.  They take flat
row-major lists over `naxes` axes, each of size n, and do their index
arithmetic once per call: `_offsets` builds the flat offset of every digit
combination over a set of axes as a table, last axis fastest.
`permute_axes` copies each run along the result's trailing axes with one
list slice; `pair_contract` gathers b's entries at each summation offset
into a column once, and builds each row of the result from a's nonzero
summands times those columns.  Both share no code with the eliminator.

Entries are exact numbers (int or Fraction); the kernels only multiply and
add, so exactness is preserved.  term counts returned by the kernels are
the number of multiply-accumulate operations actually performed (zero
factors prune eagerly).
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


# Shape -> plan, so that each shape is planned once per process:
#   (n, weights, run length)             -> _digit_sums' runs (_runs);
#   a join's shape (see _join)           -> its readers and kept positions.
# No key holds a variable id or a value, so a network with its variables
# renumbered, or bound to other matrices, reuses every plan.
_plan_cache: dict[tuple, tuple | list | None] = {}


def _run_length(n, p, size):
    """Digits per run of the tables for a p-digit key of a factor of size
    nonzeros: the most that keep every run's table within max(size, n^3)
    entries."""
    if p <= 3:
        return p
    bound = max(size, n ** 3)
    g = p
    while n ** g > bound:
        g -= 1
    return g


def _runs(n, weights, g):
    """Lookup tables for the map from a key of p = len(weights) base-n
    digits, digit 0 most significant, to the sum of digit i times
    weights[i], in runs of at most g digits, as even as possible.  Returns
    (div, mod, table) per run that has a nonzero weight, where the key's
    sum is that of table[key // div % mod] (mod is None for the most
    significant run), or None when the weights are the key's own place
    values."""
    p = len(weights)
    if list(weights) == [n ** (p - 1 - i) for i in range(p)]:
        return None
    tables = []
    runs = -(-p // g)
    stop = p
    for r in range(runs):                   # least significant run first
        start = stop - p // runs - (r < p % runs)
        if any(weights[start:stop]):
            table = [0]
            for w in weights[start:stop]:
                table = [t + d * w for t in table for d in range(n)]
            tables.append((n ** (p - stop),
                           n ** (stop - start) if start else None, table))
        stop = start
    return tables



def _read(keys, tables):
    """[the digit sum of each key in keys] by the runs of _runs: the keys
    themselves for None, and zeros when no run is left."""
    if tables is None:
        return list(keys)
    if len(tables) == 1 and tables[0][0] == 1 and tables[0][1] is None:
        return list(map(tables[0][2].__getitem__, keys))   # one whole run
    sums = None
    for div, mod, table in tables:
        if mod is None:
            sums = [table[k // div] for k in keys] if sums is None else \
                [s + table[k // div] for s, k in zip(sums, keys)]
        else:
            sums = [table[k // div % mod] for k in keys] if sums is None \
                else [s + table[k // div % mod] for s, k in zip(sums, keys)]
    return [0] * len(keys) if sums is None else sums


def _digit_sums(keys, n, weights):
    """[sum of digit i times weights[i] over the digits of key] for each
    key in keys, by the runs the plan cache holds for the weights."""
    key = (n, tuple(weights), _run_length(n, len(weights), len(keys)))
    tables = _plan_cache.get(key, False)
    if tables is False:
        tables = _plan_cache[key] = _runs(n, weights, key[2])
    return _read(keys, tables)


def _place(n, scope, chosen, scale=1):
    """Weights, one per variable of scope, that read the digits of the
    chosen variables as a mixed-radix integer in chosen's order (first
    most significant) times scale; the other variables weigh 0."""
    top = len(chosen) - 1
    return [scale * n ** (top - chosen.index(v)) if v in chosen else 0
            for v in scope]


def _pairs(a, a_out, b, b_out, match, summing):
    """The products of a's and b's nonzeros, each keyed by the sum of its
    a_out and b_out readings.  match is None to pair every entry of a with
    every entry of b, or the (a, b) readers whose readings must agree.
    Unless summing, every pair lands on its own key, so no entry can
    cancel and the products formed are the result's entries; else the
    products on one key are added and zeros dropped.  Returns the table
    and the number of products formed."""
    b_codes = _read(b, b_out)
    if match is None:
        rows = {0: list(zip(b_codes, b.values()))}
        matches = repeat(0)
    else:
        a_match, b_match = match
        rows = {}
        for m, code, bv in zip(_read(b, b_match), b_codes, b.values()):
            row = rows.get(m)
            if row is None:
                rows[m] = [(code, bv)]
            else:
                row.append((code, bv))
        matches = _read(a, a_match)
    if not summing:
        out = {head + code: av * bv
               for m, head, av in zip(matches, _read(a, a_out), a.values())
               for code, bv in rows.get(m, ())}
        return out, len(out)
    out = {}
    get = out.get
    terms = 0
    for m, head, av in zip(matches, _read(a, a_out), a.values()):
        row = rows.get(m)
        if row:
            terms += len(row)
            for code, bv in row:
                k = head + code
                out[k] = get(k, 0) + av * bv
    if len(out) == terms:       # each product has a key of its own
        return out, terms
    return {k: v for k, v in out.items() if v}, terms


def _join_plan(n, p, b_at, dropped, a_run, b_run, weights):
    """The plan of a join of the shape _join keys it by: the match readers
    (None when no variable is shared), a's and b's out readers, and the
    positions in a's scope + b's scope of the variables kept, a's first."""
    b_vars = []
    fresh = p
    for i in b_at:
        b_vars.append(fresh if i < 0 else i)
        fresh += i < 0
    a_vars = list(range(p))
    shared = [v for v in a_vars if v in b_vars]
    keep = [i for i in a_vars if not dropped[i]]
    b_keep = [p + j for j, v in enumerate(b_vars)
              if v >= p and not dropped[p + j]]
    match = None
    if shared:
        match = (_runs(n, _place(n, a_vars, shared), a_run),
                 _runs(n, _place(n, b_vars, shared), b_run))
    if weights is None:
        a_out = _place(n, a_vars, keep, n ** len(b_keep))
        b_out = _place(n, b_vars, [b_vars[i - p] for i in b_keep])
    else:
        a_out = weights[:p]
        b_out = [0 if i >= 0 else w for i, w in zip(b_at, weights[p:])]
    return (match, _runs(n, a_out, a_run), _runs(n, b_out, b_run),
            keep + b_keep, any(dropped))


def _join(n, a, b, drop, weights=None):
    """Product of factors a and b with the variables in drop summed out.
    The larger is joined as a, its entries matched against the rows of the
    other's indexed by the shared variables.  Returns the factor, zeros
    dropped, and the number of products formed.  The product is keyed by
    its kept digits as a mixed-radix integer, or, given weights (a dict
    over the variables), by the sum of each kept digit times its weight.

    The plan is looked up once by the join's shape: n, a's variable count,
    the position in a of each of b's variables (-1 if none), which of a's
    then b's variables are dropped, the run length of each side and the
    weights of a's then b's variables, if any."""
    if len(b[1]) > len(a[1]):
        a, b = b, a
    a_scope, a_table = a
    b_scope, b_table = b
    both = a_scope + b_scope
    shape = (n, len(a_scope),
             tuple([a_scope.index(v) if v in a_scope else -1
                    for v in b_scope]),
             tuple([v in drop for v in both]),
             _run_length(n, len(a_scope), len(a_table)),
             _run_length(n, len(b_scope), len(b_table)),
             None if weights is None else tuple([weights[v] for v in both]))
    plan = _plan_cache.get(shape)
    if plan is None:
        plan = _plan_cache[shape] = _join_plan(*shape)
    match, a_out, b_out, keep, summing = plan
    table, terms = _pairs(a_table, a_out, b_table, b_out, match, summing)
    return (tuple([both[i] for i in keep]), table), terms


_UNIT = ((), {0: 1})


def epsilon_network(n, nvars, out_vars, fixed, eps_factors, mat_factors):
    """Sum factor products over all assignments of `nvars` index variables.

    Variables take 0-based digits in range(n); `fixed` pairs (var, digit)
    pin some of them, and a variable pinned to two different digits makes
    the network zero.  Factors reference variables by id:
      eps_factors: tuples of var ids -> Levi-Civita sign of their digits
      mat_factors: (head, tail, flat n*n vals) -> vals[digit(head)*n+digit(tail)]
    out_vars selects the digits forming the result's mixed-radix index (most
    significant first) and may repeat a variable, whose entries then lie
    where its digits agree; returns ({flat index: nonzero value}, terms).

    Sparse variable elimination.  Each factor is a dict from the
    mixed-radix integer of its variables' digits (first variable most
    significant) to a nonzero value: an ε factor is the table of
    `_sign_table` (a repeated variable, or more variables than n, makes the
    network zero), a matrix factor the nonzeros of its flat vals keyed by
    their own index (the diagonal, over one variable, when head == tail).
    There is no equality (δ) factor: ends that carry one digit are one
    variable.  Fixed variables restrict their factors first: each is
    joined with the one entry of its pinned digits, which are dropped.
    Then the variables that are neither fixed nor outputs are summed out,
    one at a time in greedy min-degree order: fewest other variables
    sharing a factor with it, ties to the lower id.  The factors mentioning the variable are joined, smallest first,
    and each variable that only they mention is summed out at the last
    join where it appears; a join that sums nothing out forms each key
    once, so only the others add and drop zeros.  A join reads each key's
    shared-variable digits and its kept digits with a lookup per run of
    digits, from the plan `_plan_cache` holds for the join's shape.  A
    summed variable that no factor mentions contributes a factor n.  The
    factors left, all over output variables, are joined smallest first,
    the last join keyed by the result's flat index (a lone factor is
    re-keyed by `_digit_sums`).  An output variable they do not mention
    is broadcast over its n digits; one that out_vars repeats is read with
    the sum of its place values, so a variable that is only an output,
    twice (a straight wire), is an identity formed with no product.

    terms counts the multiply-adds performed: one per product formed in a
    join other than a restriction (a variable summed out of a lone factor
    is a join with the unit factor) and one per entry written to the
    result.
    """
    pinned = {}
    for v, d in fixed:
        if pinned.setdefault(v, d) != d:
            return {}, 0
    factors = []
    for f in eps_factors:
        if len(f) < 2:          # ε of at most one index is 1
            continue
        if len(set(f)) < len(f) or len(f) > n:
            return {}, 0
        factors.append((tuple(f), _sign_table(n, len(f))))
    for h, t, vals in mat_factors:
        if h == t:
            factors.append(((h,), {d: e for d in range(n)
                                   if (e := vals[d * (n + 1)])}))
        else:
            factors.append(((h, t), {i: e for i, e in enumerate(vals) if e}))

    scale = 1
    if pinned:
        restricted = []
        for f in factors:
            held = tuple([v for v in f[0] if v in pinned])
            if held:
                want = 0
                for v in held:
                    want = want * n + pinned[v]
                # joined with the one entry of the pinned digits, uncounted
                f, _ = _join(n, f, (held, {want: 1}), held)
            scope, table = f
            if not table:
                return {}, 0
            if scope:
                restricted.append(f)
            else:
                scale *= table[0]
        factors = restricted

    outs = {v for v in out_vars if v not in pinned}
    mentioned = {v for scope, _ in factors for v in scope}
    scale *= n ** (nvars - len(pinned) - len(mentioned | outs))
    elim = mentioned - outs
    terms = 0
    while elim:
        if len(elim) == 1:
            v, = elim
        else:
            near = {}
            for scope, _ in factors:
                for u in scope:
                    if u in elim:
                        if u in near:
                            near[u].update(scope)
                        else:
                            near[u] = set(scope)
            v = min(elim, key=lambda u: (len(near[u]), u))
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
            acc, t = _join(n, acc, bucket[i],
                           {u for u, at in last.items() if at == i})
            terms += t
            if not acc[1]:
                return {}, terms
        if acc[0]:
            factors.append(acc)
        else:
            scale *= acc[1][0]

    # the result's flat index is base + the sum of digit(v) * weight[v];
    # out_vars may repeat a variable, so its weight sums its place values
    weight = dict.fromkeys(outs, 0)
    base = 0
    stride = 1
    for v in reversed(out_vars):
        if v in pinned:
            base += pinned[v] * stride
        else:
            weight[v] += stride
        stride *= n
    factors.sort(key=lambda f: len(f[1]))
    acc = factors[0] if factors else _UNIT
    last = len(factors) - 1
    for i in range(1, last + 1):
        # the last join keys the product by the result's flat index
        acc, t = _join(n, acc, factors[i], (), weight if i == last else None)
        terms += t
    scope, table = acc
    if last < 1:                # a lone factor is re-keyed by flat index
        table = dict(zip(_digit_sums(table, n, [weight[v] for v in scope]),
                         table.values()))

    spread = [base]
    for v, w in weight.items():
        if v not in mentioned:
            spread = [s + d * w for s in spread for d in range(n)]
    terms += len(table) * len(spread)
    if spread != [0] or scale != 1:
        table = {k + s: v * scale if scale != 1 else v
                 for k, v in table.items() for s in spread}
    return table, terms
