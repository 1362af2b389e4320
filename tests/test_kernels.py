"""Backend parity: the compiled kernels must agree with the pure ones
bit-for-bit, values and term counts alike."""

import random
from fractions import Fraction

import pytest

from tracediagrams import _kernels_pure as pure

fast = pytest.importorskip("tracediagrams._speedups")


def rand_val(rng):
    roll = rng.random()
    if roll < 0.3:
        return 0
    if roll < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.randint(-9, 9)


def test_pair_contract_parity():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(1, 4)
        a_naxes = rng.randint(0, 3)
        b_naxes = rng.randint(0, 3)
        a = [rand_val(rng) for _ in range(n ** a_naxes)]
        b = [rand_val(rng) for _ in range(n ** b_naxes)]
        npairs = rng.randint(0, min(a_naxes, b_naxes))
        pairs = list(zip(rng.sample(range(a_naxes), npairs),
                         rng.sample(range(b_naxes), npairs)))
        assert pure.pair_contract(n, a, a_naxes, b, b_naxes, pairs) == \
            fast.pair_contract(n, a, a_naxes, b, b_naxes, pairs)


def test_permute_axes_parity():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randint(1, 4)
        naxes = rng.randint(0, 4)
        vals = [rand_val(rng) for _ in range(n ** naxes)]
        perm = list(range(naxes))
        rng.shuffle(perm)
        assert pure.permute_axes(n, vals, naxes, perm) == \
            fast.permute_axes(n, vals, naxes, perm)


def test_epsilon_network_parity():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        nvars = rng.randint(0, 6)
        n_out = rng.randint(0, min(2, nvars))
        out_vars = rng.sample(range(nvars), n_out)
        fixed = [(v, rng.randrange(n)) for v in range(nvars)
                 if v not in out_vars and rng.random() < 0.2]
        eps, delta, mats = [], [], []
        if nvars:
            for _ in range(rng.randint(0, 2)):
                eps.append(tuple(rng.choices(range(nvars),
                                             k=rng.randint(1, 4))))
            for _ in range(rng.randint(0, 2)):
                delta.append((rng.randrange(nvars), rng.randrange(nvars)))
            for _ in range(rng.randint(0, 2)):
                mats.append((rng.randrange(nvars), rng.randrange(nvars),
                             [rand_val(rng) for _ in range(n * n)]))
        assert pure.epsilon_network(n, nvars, out_vars, fixed, eps, delta,
                                    mats) == \
            fast.epsilon_network(n, nvars, out_vars, fixed, eps, delta, mats)


def test_kernel_errors_match():
    for impl in (pure, fast):
        with pytest.raises(ValueError):
            impl.pair_contract(2, [1, 2, 3, 4], 2, [1, 2, 3, 4], 2,
                               [(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            impl.permute_axes(2, [1, 2, 3, 4], 2, [0, 0])

