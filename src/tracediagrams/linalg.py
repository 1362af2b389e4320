"""Exact scalar, permutation and matrix layer.

Everything in this package computes over the rationals.  Scalars are plain
ints or fractions.Fraction (always reduced, positive denominator); there is
no floating point anywhere, so every comparison is exact equality.

Basis indices are 1-based throughout the public API, matching the usual
e_1..e_n notation for the standard basis.

The *_oracle functions are the brute-force linear-algebra reference
implementations that diagram evaluations are checked against: determinant by
permutation expansion, adjugate by cofactors, characteristic polynomial by
evaluation at n+1 points plus exact Lagrange interpolation.
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
    def reversal(cls, m: int) -> "Permutation":
        return cls(range(m, 0, -1))

    @classmethod
    def all_permutations(cls, m: int):
        for images in _itertools_permutations(range(1, m + 1)):
            yield cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(self.images[other.images[i] - 1]
                           for i in range(len(self.images)))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Permutation(images)

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

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(n)])

    def entry(self, i: int, j: int) -> Rat:
        """1-based entry access: row i, column j."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[Rat, ...]:
        return tuple(row[j - 1] for row in self.rows)

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


# -- Polynomials ---------------------------------------------------------------

class Polynomial:
    """Dense polynomial; coeffs[i] multiplies x^i, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [rat(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def coefficient(self, i: int) -> Rat:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, x: Rat) -> Rat:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([c + (b[i] if i < len(b) else 0)
                           for i, c in enumerate(a)])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c: Rat) -> "Polynomial":
        c = rat(c)
        return Polynomial([c * x for x in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[format_rat(c) for c in self.coeffs]})"


def lagrange_interpolate(points) -> Polynomial:
    """Exact interpolation through (x, y) pairs with distinct x."""
    points = [(rat(x), rat(y)) for x, y in points]
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total = Polynomial([0])
    for i, (xi, yi) in enumerate(points):
        basis = Polynomial([1])
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = basis * Polynomial([-xj, 1])
                denom *= xi - xj
        total = total + basis.scale(Fraction(yi, 1) / denom)
    return total


# -- Brute-force oracles ---------------------------------------------------------

def det_oracle(m: Matrix) -> Rat:
    """Determinant by direct permutation expansion."""
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


def charpoly_oracle(m: Matrix) -> Polynomial:
    """Coefficients of det(M - x*I), by evaluation at x = 0..n and
    exact interpolation."""
    n = m.n
    points = []
    for x in range(n + 1):
        shifted = m - Matrix.identity(n).scale(x)
        points.append((x, det_oracle(shifted)))
    return lagrange_interpolate(points)


def solve_oracle(m: Matrix, b) -> tuple[Rat, ...] | None:
    """Exact solution of M x = b via the adjugate; None if M is singular."""
    d = det_oracle(m)
    if d == 0:
        return None
    y = adjugate_oracle(m).apply(b)
    return tuple(Fraction(v, 1) / d for v in y)
