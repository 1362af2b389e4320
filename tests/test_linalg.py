"""Exact scalar/permutation/matrix layer, checked against first principles."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracediagrams.linalg import (Matrix, Permutation, adjugate_oracle,
                                  charpoly_oracle, det_oracle, format_rat,
                                  levi_civita, rat, reversal_sign,
                                  solve_oracle)

A_FIXTURE = Matrix([[2, 3], [4, 5]])


def brute_inversions(images):
    return sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
               if images[i] > images[j])


def leibniz_det(m):
    """Determinant by permutation expansion: the reference the elimination
    oracles are checked against."""
    n = m.n
    total = 0
    for p in Permutation.all_permutations(n):
        term = p.sign
        for i in range(1, n + 1):
            term *= m.entry(i, p(i))
            if term == 0:
                break
        total += term
    return total


def oracle_matrices(n, seed):
    """Seeded int, Fraction, singular and zero-heavy n x n matrices."""
    rng = random.Random(seed)

    def entries(draw):
        return [[draw() for _ in range(n)] for _ in range(n)]

    out = [Matrix(entries(lambda: rng.randint(-9, 9))) for _ in range(8)]
    out += [Matrix(entries(lambda: Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 5))))
            for _ in range(4)]
    for _ in range(4):
        rows = entries(lambda: rng.randint(-5, 5))
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.randint(-3, 3)
        rows[i] = [c * x for x in rows[j]] if i != j else [0] * n
        out.append(Matrix(rows))
    out += [Matrix(entries(lambda: rng.choice((0, 0, 0, 1, -2))))
            for _ in range(8)]
    return out


# -- rationals ---------------------------------------------------------------

def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == -7
    assert rat(Fraction(2, 6)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_format_round_trip():
    for value in (0, 5, -3, Fraction(22, 7), Fraction(-1, 2)):
        assert rat(format_rat(value)) == value


# -- permutations ----------------------------------------------------------------

def test_perm_sign_examples():
    assert Permutation.identity(3).sign == 1
    assert Permutation((2, 1)).sign == -1
    # full reversal on 4 elements: brute-force count gives 6 inversions
    reversal = Permutation(range(4, 0, -1))
    assert brute_inversions(reversal.images) == 6
    assert reversal.sign == 1


def test_reversal_sign_values():
    assert reversal_sign(2) == -1
    assert reversal_sign(3) == -1
    assert reversal_sign(4) == 1


def test_reversal_sign_matches_perm_sign():
    for n in range(1, 9):
        assert reversal_sign(n) == Permutation(range(n, 0, -1)).sign


def test_permutation_compose_inverse_cycles():
    p = Permutation((2, 3, 1, 4))
    assert p.cycles() == [(1, 2, 3), (4,)]
    assert Permutation.identity(3).cycles() == [(1,), (2,), (3,)]


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_sign_is_multiplicative(p_images, q_images):
    p, q = Permutation(p_images), Permutation(q_images)
    pq = Permutation(p_images[i - 1] for i in q_images)   # p after q
    assert pq.sign == p.sign * q.sign


def test_levi_civita_examples():
    assert levi_civita((1, 2, 3)) == 1
    assert levi_civita((2, 1, 3)) == -1
    assert levi_civita((1, 1, 2)) == 0
    with pytest.raises(ValueError):
        levi_civita((0, 1))


def test_levi_civita_matches_perm_sign_exhaustive():
    for n in range(1, 5):
        for images in permutations(range(1, n + 1)):
            assert levi_civita(images) == Permutation(images).sign


# -- determinant / adjugate / charpoly -------------------------------------------

def test_det_examples():
    assert det_oracle(A_FIXTURE) == -2
    for n in (1, 2, 3, 4):
        assert det_oracle(Matrix.identity(n)) == 1
    # a zero leading pivot swaps rows; a column with no pivot gives 0
    assert det_oracle(Matrix([[0, 1], [1, 0]])) == -1
    assert det_oracle(Matrix([[0, 0, 1], [0, 2, 3], [4, 5, 6]])) == -8
    assert det_oracle(Matrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]])) == 0
    assert det_oracle(Matrix([[Fraction(1, 2), 1], [1, 4]])) == 1


def test_det_matches_leibniz():
    for n in range(1, 7):
        for m in oracle_matrices(n, 300 + n):
            got = det_oracle(m)
            assert got == leibniz_det(m)
            if all(type(x) is int for row in m.rows for x in row):
                assert type(got) is int


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_det_two_by_two_formula(entries):
    a, b, c, d = entries
    assert det_oracle(Matrix([[a, b], [c, d]])) == a * d - b * c


def test_det_multiplicative():
    from tracediagrams.identities import random_matrix
    for n in (2, 3, 4):
        for seed in range(6):
            m = random_matrix(n, seed * 2)
            k = random_matrix(n, seed * 2 + 1)
            assert det_oracle(m @ k) == det_oracle(m) * det_oracle(k)


def test_adjugate_examples():
    assert adjugate_oracle(A_FIXTURE) == Matrix([[5, -3], [-4, 2]])
    assert adjugate_oracle(Matrix.identity(3)) == Matrix.identity(3)
    singular = Matrix([[1, 2], [2, 4]])
    assert (adjugate_oracle(singular) @ singular).is_zero()


def test_adjugate_defining_identity():
    from tracediagrams.identities import random_matrix
    for n in (2, 3, 4):
        for seed in range(4):
            m = random_matrix(n, 100 + seed)
            want = Matrix.identity(n).scale(det_oracle(m))
            assert adjugate_oracle(m) @ m == want


def test_charpoly_examples():
    assert charpoly_oracle(A_FIXTURE) == (-2, -7, 1)
    assert charpoly_oracle(Matrix.identity(2)) == (1, -2, 1)
    assert charpoly_oracle(Matrix([[0] * 3] * 3)) == (0, 0, 0, -1)
    assert charpoly_oracle(Matrix([[5]])) == (5, -1)


def test_charpoly_matches_leibniz_at_n_plus_1_points():
    # n+1 points pin a polynomial of degree n
    for n in range(1, 7):
        for m in oracle_matrices(n, 500 + n):
            cp = charpoly_oracle(m)
            assert len(cp) == n + 1
            for x in range(n + 1):
                shifted = m - Matrix.identity(n).scale(x)
                assert sum(c * x ** i for i, c in enumerate(cp)) \
                    == leibniz_det(shifted)


def test_solve_oracle():
    xs = solve_oracle(A_FIXTURE, (1, 0))
    assert xs == (Fraction(-5, 2), Fraction(2))
    assert solve_oracle(Matrix([[1, 1], [1, 1]]), (1, 0)) is None


# -- matrix type -----------------------------------------------------------------

def test_matrix_basics():
    m = A_FIXTURE
    assert m.entry(1, 2) == 3
    assert m.trace() == 7
    assert m.transpose() == Matrix([[2, 4], [3, 5]])
    assert m ** 0 == Matrix.identity(2)
    assert m ** 2 == m @ m
    assert m.with_column(1, (9, 9)) == Matrix([[9, 3], [9, 5]])
    assert m.with_column(2, (3, 5)) == m       # column 2 reads (3, 5)
    assert m.apply((1, 1)) == (5, 9)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        m @ Matrix.identity(3)
