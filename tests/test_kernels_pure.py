"""The contraction kernels against brute-force definitions.

Each oracle enumerates every digit combination with itertools.product and
applies the definition directly, sharing no index arithmetic or pruning with
the kernels.  Values must match exactly, and so must the term counts of the
dense kernels.  epsilon_network returns its nonzeros by flat index, matched
against the oracle's nonzero entries; it counts the multiply-adds of its
variable elimination, not the oracle's leaves, so its counts are pinned
separately.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from tracediagrams import kernels
from tracediagrams.linalg import Matrix, det_oracle


def rand_val(rng):
    roll = rng.random()
    if roll < 0.3:
        return 0
    if roll < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.randint(-9, 9)


def flat(n, digits):
    idx = 0
    for d in digits:
        idx = idx * n + d
    return idx


def sign(digits):
    if len(set(digits)) < len(digits):
        return 0
    inversions = sum(1 for i in range(len(digits))
                     for j in range(i + 1, len(digits))
                     if digits[i] > digits[j])
    return -1 if inversions % 2 else 1


def nonzeros(vals):
    return {i: x for i, x in enumerate(vals) if x}


def pair_contract_oracle(n, a, a_naxes, b, b_naxes, pairs):
    a_free = [i for i in range(a_naxes) if i not in {p for p, _ in pairs}]
    b_free = [i for i in range(b_naxes) if i not in {q for _, q in pairs}]
    out, terms = [], 0
    for fa in product(range(n), repeat=len(a_free)):
        for fb in product(range(n), repeat=len(b_free)):
            acc = 0
            for s in product(range(n), repeat=len(pairs)):
                da, db = [0] * a_naxes, [0] * b_naxes
                for ax, d in zip(a_free, fa):
                    da[ax] = d
                for ax, d in zip(b_free, fb):
                    db[ax] = d
                for (p, q), d in zip(pairs, s):
                    da[p] = db[q] = d
                av, bv = a[flat(n, da)], b[flat(n, db)]
                if av and bv:
                    acc += av * bv
                    terms += 1
            out.append(acc)
    return out, terms


def permute_axes_oracle(n, vals, naxes, perm):
    out = []
    for combo in product(range(n), repeat=naxes):
        src = [0] * naxes
        for r, d in enumerate(combo):
            src[perm[r]] = d
        out.append(vals[flat(n, src)])
    return out


def epsilon_network_oracle(n, nvars, out_vars, fixed, eps, mats, sparse=(),
                           scale=1):
    """Every factor is applied at the leaf of a full enumeration; every
    (var, digit) pair of fixed must hold there."""
    out, terms = [0] * n ** len(out_vars), 0
    for digits in product(range(n), repeat=nvars):
        if any(digits[v] != d for v, d in fixed):
            continue
        value = scale
        for f in eps:
            value *= sign([digits[v] for v in f])
        for h, t, m in mats:
            value *= m[digits[h] * n + digits[t]]
        for scope, table in sparse:
            value *= table.get(flat(n, [digits[v] for v in scope]), 0)
        if value:
            out[flat(n, [digits[v] for v in out_vars])] += value
            terms += 1
    return out, terms


def test_pair_contract_matches_definition():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        a_naxes, b_naxes = rng.randint(0, 3), rng.randint(0, 3)
        a = [rand_val(rng) for _ in range(n ** a_naxes)]
        b = [rand_val(rng) for _ in range(n ** b_naxes)]
        npairs = rng.randint(0, min(a_naxes, b_naxes))
        pairs = list(zip(rng.sample(range(a_naxes), npairs),
                         rng.sample(range(b_naxes), npairs)))
        assert kernels.pair_contract(n, a, a_naxes, b, b_naxes, pairs) == \
            pair_contract_oracle(n, a, a_naxes, b, b_naxes, pairs)


def test_permute_axes_matches_definition():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 4)
        naxes = rng.randint(0, 5)
        vals = [rand_val(rng) for _ in range(n ** naxes)]
        perm = list(range(naxes))
        # shuffle a prefix only, half the time, so trailing axes stay put
        cut = naxes if rng.random() < 0.5 else rng.randint(0, naxes)
        head = perm[:cut]
        rng.shuffle(head)
        perm = head + perm[cut:]
        assert kernels.permute_axes(n, vals, naxes, perm) == \
            permute_axes_oracle(n, vals, naxes, perm)


def test_epsilon_network_matches_definition():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 4)
        nvars = rng.randint(0, 6)
        if rng.random() < 0.7:
            out_vars = rng.sample(range(nvars), rng.randint(0, min(2, nvars)))
        else:                              # var ids may repeat
            out_vars = rng.choices(range(nvars), k=rng.randint(0, 3)) \
                if nvars else []
        fixed = [(v, rng.randrange(n)) for v in range(nvars)
                 if rng.random() < 0.25]
        if fixed and rng.random() < 0.2:   # a variable pinned twice
            fixed.append((rng.choice(fixed)[0], rng.randrange(n)))
        eps, mats = [], []
        if nvars:
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.6:     # distinct var ids, maybe > n
                    k = rng.randint(1, min(nvars, n + 2))
                    eps.append(tuple(rng.sample(range(nvars), k)))
                else:                      # var ids may repeat
                    eps.append(tuple(rng.choices(range(nvars),
                                                 k=rng.randint(1, 4))))
            for _ in range(rng.randint(0, 2)):
                mats.append((rng.randrange(nvars), rng.randrange(nvars),
                             [rand_val(rng) for _ in range(n * n)]))
        args = (n, nvars, out_vars, fixed, eps, mats)
        assert kernels.epsilon_network(*args)[0] == \
            nonzeros(epsilon_network_oracle(*args)[0])


def test_sign_table_keeps_the_entries_increasing_on_its_runs():
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(0, n + 1)
        slots = rng.sample(range(m), rng.randint(0, m))
        runs = []
        while slots:
            cut = rng.randint(1, len(slots))
            runs.append(tuple(sorted(slots[:cut])))
            slots = slots[cut:]
        runs = tuple(sorted(runs))
        want = {flat(n, d): sign(d) for d in product(range(n), repeat=m)
                if len(set(d)) == m and all(d[a] < d[b] for run in runs
                                            for a, b in zip(run, run[1:]))}
        assert kernels.sign_table(n, m, runs) == want


def test_epsilon_network_with_sparse_factors_and_a_scale():
    """Sparse factors are joined as given, a key they lack being a zero
    entry, and the scale multiplies the result."""
    rng = random.Random(28)
    for _ in range(200):
        n = rng.randint(1, 4)
        nvars = rng.randint(1, 5)
        out_vars = rng.sample(range(nvars), rng.randint(0, min(2, nvars)))
        fixed = [(v, rng.randrange(n)) for v in range(nvars)
                 if rng.random() < 0.2]
        eps = [tuple(rng.sample(range(nvars), rng.randint(1, min(nvars,
                                                                 n))))]
        sparse = []
        for _ in range(rng.randint(1, 2)):
            scope = tuple(rng.sample(range(nvars), rng.randint(1, nvars)))
            table = {k: rand_val(rng) for k in range(n ** len(scope))
                     if rng.random() < 0.5}
            sparse.append((scope, {k: v for k, v in table.items() if v}))
        scale = rng.choice((1, 2, -6, 24))
        args = (n, nvars, out_vars, fixed, eps, [], sparse, scale)
        assert kernels.epsilon_network(*args)[0] == \
            nonzeros(epsilon_network_oracle(*args)[0])


def test_epsilon_network_writes_every_order_of_increasing_outputs():
    """A sparse factor that holds some output variables' digits increasing
    only, named in orders, has each entry of the result also written at
    every other order of those digits, with the sign of the order: the
    entry at any index is the sign of sorting those digits times the
    unexpanded entry at the sorted index, and 0 where a digit repeats."""
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(2, 4)
        nvars = rng.randint(2, 6)
        out_vars = rng.sample(range(nvars), rng.randint(2, min(4, nvars)))
        held = rng.sample(out_vars, rng.randint(2, min(n, len(out_vars))))
        scope = tuple(rng.sample(range(nvars), rng.randint(1, 2)))
        scope = tuple(held) + tuple(v for v in scope if v not in held)
        table = {}
        for digits in product(range(n), repeat=len(scope)):
            if all(a < b for a, b in zip(digits, digits[1:len(held)])) \
                    and rng.random() < 0.7:
                table[flat(n, digits)] = rng.choice((-3, -1, 2, 5))
        eps = [tuple(rng.sample(range(nvars), rng.randint(1, min(nvars,
                                                                 n))))]
        args = (n, nvars, out_vars, [], eps, [], [(scope, table)])
        base = epsilon_network_oracle(*args)[0]
        at = [out_vars.index(v) for v in held]
        want = {}
        for i, index in enumerate(product(range(n), repeat=len(out_vars))):
            digits = [index[p] for p in at]
            if len(set(digits)) < len(digits):
                continue
            ordered = list(index)
            for p, d in zip(at, sorted(digits)):
                ordered[p] = d
            value = sign(digits) * base[flat(n, ordered)]
            if value:
                want[i] = value
        assert kernels.epsilon_network(*args, 1, [tuple(held)])[0] == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_epsilon_network_levi_civita(n):
    # one ε factor on n free output variables is the Levi-Civita tensor
    vals, terms = kernels.epsilon_network(n, n, list(range(n)), [],
                                          [tuple(range(n))], [])
    assert vals == nonzeros([sign(d) for d in product(range(n), repeat=n)])
    assert terms == len(vals)


def test_epsilon_network_fixed_clash_and_repeat():
    # two fixed variables sharing a digit zero the network
    assert kernels.epsilon_network(3, 3, [2], [(0, 1), (1, 1)],
                                   [(0, 1, 2)], []) == ({}, 0)
    # a variable repeated inside one ε factor zeroes it too
    assert kernels.epsilon_network(3, 2, [0, 1], [], [(0, 1, 0)], []) == \
        ({}, 0)
    # a fixed variable removes its digit from the free ones
    assert kernels.epsilon_network(3, 3, [0, 2], [(1, 0)],
                                   [(0, 1, 2)], []) == ({5: -1, 7: 1}, 2)
    # a variable pinned to two digits, as a probe pins a straight wire at
    # unequal digits, zeroes the network; pinned twice to one digit, it is
    # pinned once
    col = [(1, 0, [2, 0, 7, -1, 4, 0, 5, 3, 3])]   # column 2: 7, 0, 3
    assert kernels.epsilon_network(3, 2, [1], [(0, 2), (0, 1)], [], col) == \
        ({}, 0)
    assert kernels.epsilon_network(3, 2, [1], [(0, 2), (0, 2)], [], col) == \
        kernels.epsilon_network(3, 2, [1], [(0, 2)], [], col) == \
        ({0: 7, 2: 3}, 2)


M3 = [2, 0, Fraction(1, 3), -1, 4, 0, 5, Fraction(-2, 7), 3]

EPSILON_NETWORK_CASES = {
    # (n, nvars, out_vars, fixed, eps_factors, mat_factors)
    "repeated out var": (3, 3, [0, 1, 0], [], [(0, 1, 2)], [(2, 1, M3)]),
    "fixed out var": (3, 3, [1, 2], [(2, 1)], [(0, 1, 2)], []),
    "all-fixed eps, sign only": (3, 4, [3], [(0, 1), (1, 0), (2, 2)],
                                 [(0, 1, 2)], [(3, 0, M3)]),
    "all-fixed eps, clash": (3, 4, [3], [(0, 1), (1, 2), (2, 1)],
                             [(0, 1, 2)], [(3, 0, M3)]),
    "eps longer than n": (2, 4, [0, 1], [], [(0, 1, 2)],
                          [(3, 0, [1, 2, 3, 4])]),
    "eps longer than n, fixed": (2, 3, [], [(0, 0), (1, 1), (2, 0)],
                                 [(0, 1, 2)], []),
    "fixed var above every free var": (3, 3, [0, 1], [(2, 2)],
                                       [(0, 2, 1), (1, 2, 0)],
                                       [(1, 0, M3)]),
    "no eps factors": (3, 2, [0, 1], [(1, 1)], [],
                       [(0, 1, M3), (0, 0, M3)]),
    # variable 3 is summed and in no factor: a factor of n
    "free var in no factor": (3, 4, [0, 1], [], [(0, 1, 2)], [(2, 1, M3)]),
    # output variable 2 is in no factor: broadcast over its digits
    "output var in no factor": (3, 3, [0, 2, 1], [], [], [(0, 1, M3)]),
    # output variable 2, twice and in no factor, is a straight wire: an
    # identity beside the matrix, broadcast over the sum of its places
    "straight wire beside a factor": (3, 3, [2, 0, 2, 1], [], [],
                                      [(0, 1, M3)]),
    "straight wire alone": (3, 1, [0, 0], [], [], []),
    "loop matrix factor": (3, 3, [0, 1], [], [(0, 1, 2)], [(2, 2, M3)]),
    "two disconnected components": (3, 6, [0, 3], [],
                                    [(0, 1, 2), (3, 4, 5)],
                                    [(1, 0, M3), (4, 3, M3)]),
    # after elimination three factors are left that share no variable:
    # ε(0, 1), M3(2, 3) and an integer matrix on (5, 4); output 6 is
    # pinned, output 7 is in no factor (broadcast) and the summed 8 is in
    # no factor (a factor 3)
    "three disjoint leftover factors": (
        3, 9, [4, 0, 7, 2, 6, 1, 5, 3], [(6, 2)], [(0, 1)],
        [(2, 3, M3), (5, 4, [1, -2, 0, 3, 0, 4, -5, 6, 7])]),
    # ε(3, 4) and M3(0, 1) are multiplied in by flat offsets, then the
    # running product is joined with a matrix on (1, 2) through the digit
    # of the repeated output 1
    "leftover factors sharing a variable": (
        3, 5, [2, 1, 0, 3, 4, 1], [], [(3, 4)],
        [(0, 1, M3), (1, 2, [3, 1, -4, 1, 5, -9, 2, 6, 5])]),
    # summing 0 and 1 out of ε(0, 1, 2)·S(0, 1) with S01 = S10 cancels at
    # digit 2 of variable 2 before variable 2 meets the output's matrix
    "intermediate sum cancels": (3, 4, [3], [], [(0, 1, 2)],
                                 [(0, 1, [1, 5, 2, 5, 0, 4, 7, 3, 1]),
                                  (3, 2, [2, -1, 3, 6, 4, -2, 1, 1, 5])]),
}


@pytest.mark.parametrize("case", sorted(EPSILON_NETWORK_CASES))
def test_epsilon_network_edge_cases(case):
    args = EPSILON_NETWORK_CASES[case]
    got = kernels.epsilon_network(*args)[0]
    want = nonzeros(epsilon_network_oracle(*args)[0])
    assert got == want
    assert {i: type(x) for i, x in got.items()} == \
        {i: type(x) for i, x in want.items()}


def test_epsilon_network_cancellation_drops_intermediate_entry():
    args = EPSILON_NETWORK_CASES["intermediate sum cancels"]
    vals, terms = kernels.epsilon_network(*args)
    assert len(vals) == 3 and all(vals.values())
    # ε·S: 6 products, leaving 2 nonzeros over variable 2 (digit 2
    # cancelled, else 3); times the output's matrix: 2 · 3 products; 3
    # entries scattered
    assert terms == 6 + 6 + 3


# Term counts of the det circle Σ ε(a) ε(b) Π A[b_i][a_i] on these matrices,
# under min-degree elimination with ties to the lower variable id.
DET_CIRCLE_TERMS = {
    3: ([[-9, -6, 2], [-8, 9, -4], [9, 7, -4]], 133),
    4: ([[-5, -7, 3, -2], [-7, 1, -9, 5], [-2, 4, -5, 4], [-5, 6, -6, 9]],
        1465),
    5: ([[6, -8, -1, -2, 8], [-7, -4, -4, 5, -7], [-2, -8, -3, -1, -4],
         [-3, 6, -9, -3, -7], [1, 7, -3, 2, 5]], 18661),
    6: ([[9, -7, 6, -1, -8, -9], [-5, 9, 6, 2, 1, -9], [-1, 6, -3, 4, 8, 8],
         [-6, -3, 9, 8, -1, -7], [4, 1, -7, 2, 4, -1], [5, -6, -3, 0, -6, -8]],
        263485),
}


@pytest.mark.parametrize("n", sorted(DET_CIRCLE_TERMS))
def test_epsilon_network_det_circle_terms(n):
    rows, want_terms = DET_CIRCLE_TERMS[n]
    flat_a = [x for row in rows for x in row]
    vals, terms = kernels.epsilon_network(
        n, 2 * n, [], [], [tuple(range(n)), tuple(range(n, 2 * n))],
        [(n + i, i, flat_a) for i in range(n)])
    assert vals == {0: factorial(n) * det_oracle(Matrix(rows))}
    assert terms == want_terms


def _open_circle(n, ids, rows):
    """The det circle at n with variables 0 and n left as outputs, every
    variable v renamed ids[v]; variable 2n is a free extra one."""
    flat_a = [x for row in rows for x in row]
    return kernels.epsilon_network(
        n, 2 * n + 1, [ids[0], ids[n]], [],
        [tuple(ids[v] for v in range(n)),
         tuple(ids[v] for v in range(n, 2 * n))],
        [(ids[n + i], ids[i], flat_a) for i in range(1, n)])


@pytest.mark.parametrize("n", [3, 4])
def test_renumbered_or_rebound_network_adds_no_plan(n):
    """Plans are keyed by shape alone: the same network with its variables
    renumbered (in the same relative order, so the elimination is the
    same) or bound to other nonzero entries reuses every plan."""
    rng = random.Random(n)
    rows = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
            for _ in range(n)]
    shifted = [v + 1 for v in range(2 * n)] + [0]
    kernels._join_plan.cache_clear()
    kernels._runs.cache_clear()

    def plans():
        return (kernels._join_plan.cache_info().currsize,
                kernels._runs.cache_info().currsize)

    want = _open_circle(n, list(range(2 * n + 1)), rows)
    built = plans()
    assert built[0] > 0                             # a join's plan
    assert _open_circle(n, shifted, rows) == want
    other = [[-x for x in row] for row in rows]
    assert _open_circle(n, shifted, other)[1] == want[1]
    assert plans() == built


def test_digit_sums_read_every_digit_from_bounded_tables():
    rng = random.Random(14)
    for n in (1, 2, 3, 5):
        for p in range(7):
            weights = tuple([rng.choice((0, 0, 1, rng.randint(1, 40)))
                             for _ in range(p)])
            keys = [rng.randrange(n ** p) for _ in range(rng.randint(0, 30))]
            want = [sum(w * (k // n ** (p - 1 - i) % n)
                        for i, w in enumerate(weights)) for k in keys]
            assert kernels._digit_sums(keys, n, weights) == want
    # a 16-digit key at n = 8 over a factor of 100 nonzeros builds no table
    # above max(100, 8^3) = 512 entries
    weights = tuple([rng.randint(1, 50) for _ in range(16)])
    tables = kernels._runs(8, weights, kernels._run_length(8, 16, 100))
    assert max(len(table) for _, _, table in tables) <= 512
    keys = [rng.randrange(8 ** 16) for _ in range(100)]
    assert kernels._digit_sums(keys, 8, weights) == \
        [sum(w * (k // 8 ** (15 - i) % 8) for i, w in enumerate(weights))
         for k in keys]


def test_kernel_argument_errors():
    with pytest.raises(ValueError):
        kernels.pair_contract(2, [1, 2, 3, 4], 2, [1, 2, 3, 4], 2,
                           [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        kernels.pair_contract(2, [1, 2], 1, [1, 2], 1, [(1, 0)])
    with pytest.raises(ValueError):
        kernels.permute_axes(2, [1, 2, 3, 4], 2, [0, 0])
