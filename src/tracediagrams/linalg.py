"""Exact scalar, permutation and matrix layer.

Everything in this package computes over the rationals.  Scalars are plain
ints or fractions.Fraction (always reduced, positive denominator); there is
no floating point anywhere, so every comparison is exact equality.

Basis indices are 1-based throughout the public API, matching the usual
e_1..e_n notation for the standard basis.

The *_oracle functions are the exact linear-algebra references that diagram
evaluations are checked against.  They share no code with the diagram engine:
determinant by Bareiss elimination, adjugate by cofactors, characteristic
polynomial by Berkowitz's recurrence, solutions by the adjugate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _itertools_permutations

Rat = int | Fraction


def rat(value) -> Rat:
    """Coerce to an exact scalar; accepts int, Fraction, or a 'p/q' string."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
            if not den:
                raise ValueError(f"zero denominator in {value!r}")
            return Fraction(num, den)
        return int(text)
    raise TypeError(f"not an exact scalar: {value!r}")


def format_rat(value: Rat) -> str:
    """Serialize to the 'p/q' or 'p' literal form."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


# -- Permutations -------------------------------------------------------------

class Permutation:
    """A bijection on {1..m}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(1, m + 1))

    @classmethod
    def all_permutations(cls, m: int):
        for images in _itertools_permutations(range(1, m + 1)):
            yield cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle starting at its smallest element."""
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            out.append(tuple(cycle))
        return out

    @property
    def sign(self) -> int:
        inv = 0
        images = self.images
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if images[i] > images[j]:
                    inv += 1
        return -1 if inv & 1 else 1

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def reversal_sign(n: int) -> int:
    """Sign of the order reversal on n elements: (-1)^floor(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -1 if (n // 2) & 1 else 1


def levi_civita(idx) -> int:
    """Sign of a 1-based index tuple: 0 on repeats, else permutation sign."""
    idx = tuple(idx)
    n = len(idx)
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
    inv = 0
    for i in range(n):
        vi = idx[i]
        for j in range(i + 1, n):
            if vi == idx[j]:
                return 0
            if vi > idx[j]:
                inv += 1
    return -1 if inv & 1 else 1


# -- Matrices ------------------------------------------------------------------

class Matrix:
    """Square matrix of exact scalars, stored as a tuple of row tuples."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(rat(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Rat:
        """1-based entry access: row i, column j."""
        return self.rows[i - 1][j - 1]

    def with_column(self, j: int, column) -> "Matrix":
        column = [rat(x) for x in column]
        if len(column) != self.n:
            raise ValueError("column length mismatch")
        return Matrix(tuple(row[:j - 1] + (column[i],) + row[j:]
                            for i, row in enumerate(self.rows)))

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def trace(self) -> Rat:
        return sum(self.rows[i][i] for i in range(self.n))

    def scale(self, c: Rat) -> "Matrix":
        c = rat(c)
        return Matrix(tuple(tuple(c * x for x in row) for row in self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        cols = other.transpose().rows
        return Matrix(tuple(tuple(sum(a * b for a, b in zip(row, col))
                                  for col in cols) for row in self.rows))

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            raise ValueError("negative matrix power not supported")
        out = Matrix.identity(self.n)
        for _ in range(k):
            out = out @ self
        return out

    def apply(self, vector) -> tuple[Rat, ...]:
        """Matrix-vector product; vector is a length-n sequence."""
        vector = tuple(rat(x) for x in vector)
        if len(vector) != self.n:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * v for a, v in zip(row, vector))
                     for row in self.rows)

    def _check_dim(self, other: "Matrix"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.n == other.n
                and all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = ", ".join("[" + ", ".join(format_rat(x) for x in row) + "]"
                         for row in self.rows)
        return f"Matrix([{body}])"


# -- Exact oracles ---------------------------------------------------------------

def det_oracle(m: Matrix) -> Rat:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968): each step's division by the previous pivot is exact, so int
    matrices stay in ints; a zero pivot swaps in a lower row and flips the
    sign, and a column with no pivot makes the determinant 0."""
    n = m.n
    rows = [list(row) for row in m.rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                num = row[j] * pivot - lead * pivot_row[j]
                row[j] = (num // prev if type(num) is int and type(prev) is int
                          else num / prev)
        prev = pivot
    return sign * rows[-1][-1]


def adjugate_oracle(m: Matrix) -> Matrix:
    """Adjugate by the classical cofactor/transpose construction."""
    n = m.n
    if n == 1:
        return Matrix([[1]])
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = Matrix([[m.rows[r][c] for c in range(n) if c != j]
                            for r in range(n) if r != i])
            sign = -1 if (i + j) & 1 else 1
            cof[i][j] = sign * det_oracle(minor)
    return Matrix(cof).transpose()


def charpoly_oracle(m: Matrix) -> tuple[Rat, ...]:
    """Coefficients of det(M - x*I), index i multiplying x^i, by Berkowitz's
    division-free recurrence (IPL 18, 1984).

    With M_k the leading k x k block, R and C the first k entries of row
    k+1 and of column k+1, and a = M[k+1][k+1], the coefficients (highest
    first) of det(x*I - M_(k+1)) are the lower-triangular Toeplitz matrix
    with first column (1, -a, -R C, -R M_k C, ..., -R M_k^(k-1) C) applied
    to those of det(x*I - M_k); det(M - x*I) is (-1)^n det(x*I - M)."""
    n, rows = m.n, m.rows
    poly = [1]
    for k in range(n):
        block = [r[:k] for r in rows[:k]]
        row, col = rows[k][:k], [r[k] for r in rows[:k]]
        toeplitz = [1, -rows[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(r * c for r, c in zip(row, col)))
            col = [sum(b * c for b, c in zip(brow, col)) for brow in block]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
                for i in range(k + 2)]
    sign = -1 if n & 1 else 1
    return tuple(sign * c for c in reversed(poly))


def solve_oracle(m: Matrix, b) -> tuple[Rat, ...] | None:
    """Exact solution of M x = b via the adjugate; None if M is singular."""
    d = det_oracle(m)
    if d == 0:
        return None
    y = adjugate_oracle(m).apply(b)
    return tuple(Fraction(v, 1) / d for v in y)
