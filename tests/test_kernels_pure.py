"""The contraction kernels against brute-force definitions.

Each oracle enumerates every digit combination with itertools.product and
applies the definition directly, sharing no index arithmetic or pruning with
the kernels.  Values and term counts must both match exactly.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from tracediagrams import kernels


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


def epsilon_network_oracle(n, nvars, out_vars, fixed, eps, delta, mats):
    """Every factor is applied at the leaf of a full enumeration."""
    pinned = dict(fixed)
    out, terms = [0] * n ** len(out_vars), 0
    for digits in product(range(n), repeat=nvars):
        if any(digits[v] != d for v, d in pinned.items()):
            continue
        value = 1
        for f in eps:
            value *= sign([digits[v] for v in f])
        for v1, v2 in delta:
            value *= int(digits[v1] == digits[v2])
        for h, t, m in mats:
            value *= m[digits[h] * n + digits[t]]
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
        eps, delta, mats = [], [], []
        if nvars:
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.6:     # distinct var ids, maybe > n
                    k = rng.randint(1, min(nvars, n + 2))
                    eps.append(tuple(rng.sample(range(nvars), k)))
                else:                      # var ids may repeat
                    eps.append(tuple(rng.choices(range(nvars),
                                                 k=rng.randint(1, 4))))
            for _ in range(rng.randint(0, 2)):
                delta.append((rng.randrange(nvars), rng.randrange(nvars)))
            for _ in range(rng.randint(0, 2)):
                mats.append((rng.randrange(nvars), rng.randrange(nvars),
                             [rand_val(rng) for _ in range(n * n)]))
        args = (n, nvars, out_vars, fixed, eps, delta, mats)
        assert kernels.epsilon_network(*args) == epsilon_network_oracle(*args)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_epsilon_network_levi_civita(n):
    # one ε factor on n free output variables is the Levi-Civita tensor
    vals, terms = kernels.epsilon_network(n, n, list(range(n)), [],
                                       [tuple(range(n))], [], [])
    assert vals == [sign(d) for d in product(range(n), repeat=n)]
    assert terms == sum(1 for v in vals if v)


def test_epsilon_network_fixed_clash_and_repeat():
    # two fixed variables sharing a digit zero the network
    assert kernels.epsilon_network(3, 3, [2], [(0, 1), (1, 1)],
                                [(0, 1, 2)], [], []) == ([0, 0, 0], 0)
    # a variable repeated inside one ε factor zeroes it too
    assert kernels.epsilon_network(3, 2, [0, 1], [], [(0, 1, 0)], [], []) == \
        ([0] * 9, 0)
    # a fixed variable removes its digit from the free ones
    assert kernels.epsilon_network(3, 3, [0, 2], [(1, 0)],
                                [(0, 1, 2)], [], []) == \
        ([0, 0, 0, 0, 0, -1, 0, 1, 0], 2)


M3 = [2, 0, Fraction(1, 3), -1, 4, 0, 5, Fraction(-2, 7), 3]

EPSILON_NETWORK_CASES = {
    # (n, nvars, out_vars, fixed, eps_factors, delta_factors, mat_factors)
    "repeated out var": (3, 3, [0, 1, 0], [], [(0, 1, 2)], [],
                         [(2, 1, M3)]),
    "fixed out var": (3, 3, [1, 2], [(2, 1)], [(0, 1, 2)], [], []),
    "all-fixed eps, sign only": (3, 4, [3], [(0, 1), (1, 0), (2, 2)],
                                 [(0, 1, 2)], [], [(3, 0, M3)]),
    "all-fixed eps, clash": (3, 4, [3], [(0, 1), (1, 2), (2, 1)],
                             [(0, 1, 2)], [], [(3, 0, M3)]),
    "eps longer than n": (2, 4, [0, 1], [], [(0, 1, 2)], [],
                          [(3, 0, [1, 2, 3, 4])]),
    "eps longer than n, fixed": (2, 3, [], [(0, 0), (1, 1), (2, 0)],
                                 [(0, 1, 2)], [], []),
    "fixed var above every free var": (3, 4, [0, 1], [(3, 2)],
                                       [(0, 3, 1), (2, 3, 0)], [(1, 2)],
                                       [(1, 0, M3)]),
    "no eps factors": (3, 4, [0, 3], [(2, 1)], [], [(0, 1), (3, 2)],
                       [(1, 3, M3), (0, 0, M3)]),
}


@pytest.mark.parametrize("case", sorted(EPSILON_NETWORK_CASES))
def test_epsilon_network_edge_cases(case):
    args = EPSILON_NETWORK_CASES[case]
    got, want = kernels.epsilon_network(*args), epsilon_network_oracle(*args)
    assert got == want
    assert [type(x) for x in got[0]] == [type(x) for x in want[0]]


def test_kernel_argument_errors():
    with pytest.raises(ValueError):
        kernels.pair_contract(2, [1, 2, 3, 4], 2, [1, 2, 3, 4], 2,
                           [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        kernels.pair_contract(2, [1, 2], 1, [1, 2], 1, [(1, 0)])
    with pytest.raises(ValueError):
        kernels.permute_axes(2, [1, 2, 3, 4], 2, [0, 0])
