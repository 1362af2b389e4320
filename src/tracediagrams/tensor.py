"""Sparse exact tensors: maps V^(tensor k) -> V^(tensor l) over the rationals.

A Tensor with in_arity k and out_arity l holds its nonzero entries only, as a
dict from flat row-major index to value over n^(k+l) entries; axis 0..l-1
are the output slots, axis l..l+k-1 the input slots, and index tuples are
1-based.  A (0,0)-tensor is a boxed scalar, which keeps closed diagram
evaluations in the same type.

Entries are ints or Fractions.  `entries` builds the dense list on demand,
for callers that want every entry.  Tensors are combined by composing
diagrams, not here: this type only adds, scales and compares.
"""

from __future__ import annotations

from itertools import product

from .linalg import Matrix, Rat, rat


class Tensor:
    __slots__ = ("n", "out_arity", "in_arity", "nonzeros")

    def __init__(self, n: int, out_arity: int, in_arity: int, entries):
        """The tensor of the dense row-major `entries`; zeros are dropped."""
        entries = list(entries)
        if len(entries) != n ** (out_arity + in_arity):
            raise ValueError(
                f"expected {n ** (out_arity + in_arity)} entries, "
                f"got {len(entries)}")
        self.n, self.out_arity, self.in_arity = n, out_arity, in_arity
        self.nonzeros = {i: x for i, x in enumerate(entries) if x}

    # -- constructors ----------------------------------------------------

    @classmethod
    def _owning(cls, n: int, out_arity: int, in_arity: int,
                nonzeros: dict) -> "Tensor":
        """A tensor that holds `nonzeros`, {flat index: nonzero value},
        itself, not a copy: for a zero-free dict the caller has just built
        and keeps no other reference to."""
        t = cls.__new__(cls)
        t.n, t.out_arity, t.in_arity = n, out_arity, in_arity
        t.nonzeros = nonzeros
        return t

    @classmethod
    def zeros(cls, n: int, out_arity: int, in_arity: int) -> "Tensor":
        return cls._owning(n, out_arity, in_arity, {})

    @classmethod
    def identity(cls, n: int, wires: int) -> "Tensor":
        """The identity map on V^(tensor wires)."""
        size = n ** wires
        return cls._owning(n, wires, wires,
                           {i * (size + 1): 1 for i in range(size)})

    @classmethod
    def from_function(cls, n, out_arity, in_arity, fn) -> "Tensor":
        """fn(outs, ins) with 1-based index tuples."""
        nonzeros = {}
        combos = product(range(1, n + 1), repeat=out_arity + in_arity)
        for i, combo in enumerate(combos):
            x = fn(combo[:out_arity], combo[out_arity:])
            if x:
                nonzeros[i] = x
        return cls._owning(n, out_arity, in_arity, nonzeros)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Tensor":
        """An n x n matrix as the (1,1)-tensor v -> M v."""
        return cls(m.n, 1, 1, [x for row in m.rows for x in row])

    # -- access ------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.out_arity + self.in_arity

    @property
    def entries(self) -> list:
        """All n^arity entries as a new dense row-major list."""
        vals = [0] * self.n ** self.arity
        for i, x in self.nonzeros.items():
            vals[i] = x
        return vals

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
        return self.nonzeros.get(idx, 0)

    def index(self, flat: int) -> tuple[tuple, tuple]:
        """The 1-based (outs, ins) index tuples of a flat index."""
        digits = []
        for _ in range(self.arity):
            flat, d = divmod(flat, self.n)
            digits.append(d + 1)
        digits.reverse()
        return tuple(digits[:self.out_arity]), tuple(digits[self.out_arity:])

    def as_scalar(self) -> Rat:
        if self.arity != 0:
            raise ValueError("not a (0,0)-tensor")
        return self.nonzeros.get(0, 0)

    def to_matrix(self) -> Matrix:
        if (self.out_arity, self.in_arity) != (1, 1):
            raise ValueError("not a (1,1)-tensor")
        n, entries = self.n, self.entries
        return Matrix([entries[i * n:(i + 1) * n] for i in range(n)])

    def is_zero(self) -> bool:
        return not self.nonzeros

    # -- algebra ------------------------------------------------------------

    def _check_shape(self, other: "Tensor"):
        if (self.n, self.out_arity, self.in_arity) != \
                (other.n, other.out_arity, other.in_arity):
            raise ValueError("tensor shape mismatch")

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_shape(other)
        return self._combined(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_shape(other)
        return self._combined(other, -1)

    def _combined(self, other: "Tensor", sign: int) -> "Tensor":
        """self + sign * other: a copy of self's nonzeros, updated by
        other's, and any entry that cancels to zero removed."""
        out = dict(self.nonzeros)
        get = out.get
        for i, x in other.nonzeros.items():
            v = get(i, 0) + sign * x
            if v:
                out[i] = v
            else:
                del out[i]
        return Tensor._owning(self.n, self.out_arity, self.in_arity, out)

    def scale(self, c: Rat) -> "Tensor":
        c = rat(c)
        nonzeros = {i: c * x for i, x in self.nonzeros.items()} if c else {}
        return Tensor._owning(self.n, self.out_arity, self.in_arity, nonzeros)

    def __neg__(self) -> "Tensor":
        return self.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Tensor)
                and self.n == other.n
                and self.out_arity == other.out_arity
                and self.in_arity == other.in_arity
                and self.nonzeros == other.nonzeros)

    def __hash__(self):
        return hash((self.n, self.out_arity, self.in_arity,
                     frozenset(self.nonzeros.items())))

    def __repr__(self):
        return (f"Tensor(n={self.n}, out={self.out_arity}, "
                f"in={self.in_arity})")

    def first_difference(self, other: "Tensor"):
        """First (outs, ins, self value, other value), in row-major order,
        where entries differ, or None if equal; shapes must already match."""
        self._check_shape(other)
        a, b = self.nonzeros, other.nonzeros
        if a == b:
            return None
        flat = min(i for i in a.keys() | b.keys()
                   if a.get(i, 0) != b.get(i, 0))
        return (*self.index(flat), a.get(flat, 0), b.get(flat, 0))

