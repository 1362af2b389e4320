"""The sparse tensor type: construction, access, sums and comparison."""

from fractions import Fraction

import pytest

from tracediagrams.linalg import Matrix
from tracediagrams.tensor import Tensor

A = Matrix([[2, 3], [4, 5]])


def test_shapes_and_indexing():
    t = Tensor.from_function(2, 1, 2, lambda outs, ins: outs[0] * 10
                             + ins[0] * 2 + ins[1])
    assert t.get((2,), (1, 2)) == 24
    with pytest.raises(ValueError):
        t.get((1,), (1,))
    with pytest.raises(ValueError):
        t.get((3,), (1, 1))
    with pytest.raises(ValueError):
        Tensor(2, 1, 1, [1, 2, 3])
    entries = [1, 2, 3, 4]
    t = Tensor(2, 1, 1, entries)
    entries[0] = 9                   # the public constructor copies
    assert t.get((1,), (1,)) == 1


def test_scalar_boxing():
    s = Tensor(3, 0, 0, [7])
    assert s.arity == 0 and s.as_scalar() == 7
    assert Tensor(3, 0, 0, [0]).as_scalar() == 0
    with pytest.raises(ValueError):
        Tensor.identity(2, 1).as_scalar()


def test_algebra_and_zero():
    t = Tensor.from_matrix(A)
    assert (t - t).is_zero()
    assert (t + (-t)).is_zero()
    assert t.scale(2).to_matrix() == A.scale(2)
    assert t.first_difference(t) is None
    diff = t.first_difference(t.scale(2))
    assert diff == ((1,), (1,), 2, 4)


def test_identity_tensor():
    ident = Tensor.identity(3, 2)
    assert ident.get((2, 3), (2, 3)) == 1
    assert ident.get((2, 3), (3, 2)) == 0


def test_holds_nonzeros_only():
    t = Tensor(2, 1, 1, [0, Fraction(3, 2), 0, -1])
    assert t.nonzeros == {1: Fraction(3, 2), 3: -1}
    assert t.entries == [0, Fraction(3, 2), 0, -1]
    assert (t - t).nonzeros == {} and t.scale(0).nonzeros == {}
    assert (t + Tensor(2, 1, 1, [0, 0, 5, 1])).nonzeros == \
        {1: Fraction(3, 2), 2: 5}
    assert t.first_difference(Tensor(2, 1, 1, [7, Fraction(3, 2), 0, 1])) \
        == ((1,), (1,), 0, 7)
    assert Tensor.identity(2, 2).nonzeros == {0: 1, 5: 1, 10: 1, 15: 1}
