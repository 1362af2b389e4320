"""Dense exact tensors: maps V^(tensor k) -> V^(tensor l) over the rationals.

A Tensor with in_arity k and out_arity l stores n^(k+l) exact entries in a
flat row-major list; axis 0..l-1 are the output slots, axis l..l+k-1 the
input slots, and index tuples are 1-based.  A (0,0)-tensor is a boxed scalar,
which keeps closed diagram evaluations in the same type.

Entries are ints or Fractions; contraction goes through tracediagrams.kernels
and stays exact.
"""

from __future__ import annotations

from itertools import product

from . import kernels
from .linalg import Matrix, Rat, rat


class Tensor:
    __slots__ = ("n", "out_arity", "in_arity", "entries")

    def __init__(self, n: int, out_arity: int, in_arity: int, entries):
        entries = list(entries)
        if len(entries) != n ** (out_arity + in_arity):
            raise ValueError(
                f"expected {n ** (out_arity + in_arity)} entries, "
                f"got {len(entries)}")
        self.n = n
        self.out_arity = out_arity
        self.in_arity = in_arity
        self.entries = entries

    # -- constructors ----------------------------------------------------

    @classmethod
    def scalar(cls, n: int, value: Rat) -> "Tensor":
        return cls(n, 0, 0, [rat(value)])

    @classmethod
    def zeros(cls, n: int, out_arity: int, in_arity: int) -> "Tensor":
        return cls(n, out_arity, in_arity, [0] * n ** (out_arity + in_arity))

    @classmethod
    def identity(cls, n: int, wires: int) -> "Tensor":
        """The identity map on V^(tensor wires)."""
        t = cls.zeros(n, wires, wires)
        size = n ** wires
        for i in range(size):
            t.entries[i * size + i] = 1
        return t

    @classmethod
    def from_function(cls, n, out_arity, in_arity, fn) -> "Tensor":
        """fn(outs, ins) with 1-based index tuples."""
        entries = []
        for combo in product(range(1, n + 1), repeat=out_arity + in_arity):
            entries.append(fn(combo[:out_arity], combo[out_arity:]))
        return cls(n, out_arity, in_arity, entries)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Tensor":
        """An n x n matrix as the (1,1)-tensor v -> M v."""
        return cls(m.n, 1, 1, [x for row in m.rows for x in row])

    # -- access ------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.out_arity + self.in_arity

    def get(self, outs=(), ins=()) -> Rat:
        """Entry at 1-based output and input index tuples."""
        outs, ins = tuple(outs), tuple(ins)
        if len(outs) != self.out_arity or len(ins) != self.in_arity:
            raise ValueError("index tuple arity mismatch")
        idx = 0
        for i in outs + ins:
            if not 1 <= i <= self.n:
                raise ValueError(f"index {i} out of range 1..{self.n}")
            idx = idx * self.n + (i - 1)
        return self.entries[idx]

    def as_scalar(self) -> Rat:
        if self.arity != 0:
            raise ValueError("not a (0,0)-tensor")
        return self.entries[0]

    def to_matrix(self) -> Matrix:
        if (self.out_arity, self.in_arity) != (1, 1):
            raise ValueError("not a (1,1)-tensor")
        n = self.n
        return Matrix([self.entries[i * n:(i + 1) * n] for i in range(n)])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- algebra ------------------------------------------------------------

    def _check_shape(self, other: "Tensor"):
        if (self.n, self.out_arity, self.in_arity) != \
                (other.n, other.out_arity, other.in_arity):
            raise ValueError("tensor shape mismatch")

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_shape(other)
        return Tensor(self.n, self.out_arity, self.in_arity,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_shape(other)
        return Tensor(self.n, self.out_arity, self.in_arity,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, c: Rat) -> "Tensor":
        c = rat(c)
        return Tensor(self.n, self.out_arity, self.in_arity,
                      [c * x for x in self.entries])

    def __neg__(self) -> "Tensor":
        return self.scale(-1)

    def permuted_axes(self, perm) -> "Tensor":
        """Reorder raw axes (0-based positions over outs-then-ins); the
        out/in split is preserved by count."""
        vals = kernels.permute_axes(self.n, self.entries, self.arity,
                                    list(perm))
        return Tensor(self.n, self.out_arity, self.in_arity, vals)

    def __eq__(self, other):
        return (isinstance(other, Tensor)
                and self.n == other.n
                and self.out_arity == other.out_arity
                and self.in_arity == other.in_arity
                and all(a == b for a, b in zip(self.entries, other.entries)))

    def __hash__(self):
        return hash((self.n, self.out_arity, self.in_arity,
                     tuple(rat(x) for x in self.entries)))

    def __repr__(self):
        return (f"Tensor(n={self.n}, out={self.out_arity}, "
                f"in={self.in_arity})")

    def first_difference(self, other: "Tensor"):
        """First (outs, ins, self value, other value) where entries differ,
        or None if equal; shapes must already match."""
        self._check_shape(other)
        for flat, (a, b) in enumerate(zip(self.entries, other.entries)):
            if a != b:
                combo = []
                rem = flat
                for _ in range(self.arity):
                    combo.append(rem % self.n)
                    rem //= self.n
                combo.reverse()
                idx = tuple(d + 1 for d in combo)
                return idx[:self.out_arity], idx[self.out_arity:], a, b
        return None


def tensor_contract(a: Tensor, b: Tensor, pairing) -> Tensor:
    """Contract paired axes of two tensors.

    pairing: list of (axis_of_a, axis_of_b) raw 0-based axis positions
    (outputs first, then inputs).  Paired axes are summed; the result keeps
    a's free axes (in order) as outputs and b's free axes as inputs.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    pairing = [(int(p), int(q)) for p, q in pairing]
    vals, _ = kernels.pair_contract(a.n, a.entries, a.arity,
                                    b.entries, b.arity, pairing)
    return Tensor(a.n, a.arity - len(pairing), b.arity - len(pairing), vals)

