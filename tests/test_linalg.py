"""Exact scalar/permutation/matrix layer, checked against first principles."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracediagrams.linalg import (Matrix, Permutation, Polynomial,
                                  adjugate_oracle, charpoly_oracle,
                                  det_oracle, format_rat,
                                  lagrange_interpolate, levi_civita,
                                  rat, reversal_sign, solve_oracle)

A_FIXTURE = Matrix([[2, 3], [4, 5]])


def brute_inversions(images):
    return sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
               if images[i] > images[j])


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
    reversal = Permutation.reversal(4)
    assert brute_inversions(reversal.images) == 6
    assert reversal.sign == 1


def test_reversal_sign_values():
    assert reversal_sign(2) == -1
    assert reversal_sign(3) == -1
    assert reversal_sign(4) == 1


def test_reversal_sign_matches_perm_sign():
    for n in range(1, 9):
        assert reversal_sign(n) == Permutation.reversal(n).sign


def test_permutation_compose_inverse_cycles():
    p = Permutation((2, 3, 1, 4))
    q = Permutation((1, 2, 4, 3))
    pq = p.compose(q)
    assert all(pq(i) == p(q(i)) for i in range(1, 5))
    assert p.compose(p.inverse()) == Permutation.identity(4)
    assert p.cycles() == [(1, 2, 3), (4,)]


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_sign_is_multiplicative(p_images, q_images):
    p, q = Permutation(p_images), Permutation(q_images)
    assert p.compose(q).sign == p.sign * q.sign


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
    assert charpoly_oracle(A_FIXTURE) == Polynomial([-2, -7, 1])
    assert charpoly_oracle(Matrix.identity(2)) == Polynomial([1, -2, 1])
    assert charpoly_oracle(Matrix.zero(3)) == Polynomial([0, 0, 0, -1])


def test_charpoly_interpolation_consistency():
    from tracediagrams.identities import random_matrix
    for n in (2, 3, 4):
        m = random_matrix(n, 55 + n)
        p = charpoly_oracle(m)
        for x in range(n + 1):
            shifted = m - Matrix.identity(n).scale(x)
            assert p(x) == det_oracle(shifted)


def test_lagrange_interpolation_exact():
    p = lagrange_interpolate([(0, 1), (1, 2), (2, 5)])   # 1 + x^2
    assert p == Polynomial([1, 0, 1])
    with pytest.raises(ValueError):
        lagrange_interpolate([(0, 1), (0, 2)])


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
    assert m.column(2) == (3, 5)
    assert m.apply((1, 1)) == (5, 9)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        m @ Matrix.identity(3)
