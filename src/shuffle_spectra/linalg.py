"""Exact linear algebra, integer-first.

Dense matrices with exact nullspaces, ranks, linear solves and integer
characteristic polynomials: the brute-force oracle that everything else in
the package is checked against, deterministic down to the bit.  Integral
entries are plain ints; a Fraction appears only where a denominator really
arises (a probability matrix, a Gram solve, a rational input).

Rank, nullspace and solve share one fraction-free Gauss-Jordan (Bareiss)
elimination of the rows scaled to integers: each pivot column is cleared
above and below, every update divides exactly by the previous pivot, and all
pivots end equal, so a row over its pivot is a row of the reduced echelon
form.  Ranks first try a certificate: a rank modulo one word-sized prime equal
to the smaller dimension proves full rank, since a nonzero minor mod p is a
nonzero integer minor.

Characteristic polynomials are computed modulo a batch of word-sized primes
(Hessenberg reduction followed by the standard minor recurrence) and
recombined by CRT under a rigorous coefficient bound, so the result is exact
even for the factorial-sized matrices this package produces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


def _entry(x) -> Scalar:
    """x as an int when integral, else as a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


def _quotient(a: int, b: int) -> Scalar:
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


class IntPolynomial:
    """Integer polynomial; coefficients stored lowest degree first."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return IntPolynomial(out)

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def from_integer_roots(cls, roots: dict[int, int]) -> "IntPolynomial":
        """Monic product of (x - r)^multiplicity over the given root map."""
        poly = cls.one()
        for root, mult in roots.items():
            factor = cls((-root, 1))
            for _ in range(mult):
                poly = poly * factor
        return poly

    def integer_roots(self, bound: int) -> tuple[dict[int, int], "IntPolynomial"]:
        """All integer roots in [-bound, bound] with multiplicities.

        Returns the root->multiplicity map together with the rootless
        cofactor.  Callers supply a bound that provably covers every root
        (e.g. a Gershgorin bound for a characteristic polynomial); the
        cofactor is constant exactly when the polynomial splits over the
        integers within that bound.
        """
        if self.is_zero():
            raise ValueError("the zero polynomial has every root")
        roots: dict[int, int] = {}
        poly = list(self.coefficients)

        def divide_out(r: int) -> bool:
            # synthetic division by (x - r); succeeds iff r is a root
            out = [0] * (len(poly) - 1)
            carry = 0
            for i in range(len(poly) - 1, 0, -1):
                carry = poly[i] + carry * r if i < len(poly) - 1 else poly[i]
                out[i - 1] = carry
            if poly[0] + carry * r != 0:
                return False
            poly[:] = out
            return True

        for r in range(-bound, bound + 1):
            while len(poly) > 1 and divide_out(r):
                roots[r] = roots.get(r, 0) + 1
        return roots, IntPolynomial(poly)

    def __repr__(self) -> str:
        if self.is_zero():
            return "IntPolynomial(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            term = "x" if i == 1 else f"x^{i}" if i else ""
            mag = "" if (abs(c) == 1 and i) else str(abs(c))
            parts.append(("-" if c < 0 else "+") + mag + term)
        text = " ".join(parts).lstrip("+")
        return f"IntPolynomial({text.strip()})"


class ExactMatrix:
    """Dense, immutable matrix of exact rationals: data holds one tuple per
    row, with every integral entry a plain int and any other a Fraction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self._set_rows(tuple(tuple(_entry(x) for x in row) for row in data))

    def _set_rows(self, rows: tuple[tuple[Scalar, ...], ...]) -> None:
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ValueError("ragged rows")
        self.data = rows

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "ExactMatrix":
        cols = [tuple(col) for col in columns]
        if not cols:
            return cls.zeros(0, 0)
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "ExactMatrix":
        # the entries are already normalized, so skip __init__
        out = ExactMatrix.__new__(ExactMatrix)
        out._set_rows(tuple(zip(*self.data)))
        return out

    def scale(self, s) -> "ExactMatrix":
        return ExactMatrix([[x * s for x in row] for row in self.data])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = other.transpose().data
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data]
        )

    def multiply_vector(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(_entry(sum(a * b for a, b in zip(row, v))) for row in self.data)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def to_int_rows(self) -> list[list[int]]:
        """Entries as plain ints; raises if any entry is non-integral."""
        bad = next((x for row in self.data for x in row if type(x) is not int), None)
        if bad is not None:
            raise ValueError(f"non-integral entry {bad}")
        return [list(row) for row in self.data]

    def eigenvalue_bound(self) -> int:
        """Integer Gershgorin bound: every eigenvalue has |z| <= bound."""
        if self.rows == 0:
            return 0
        return max(math.ceil(sum(abs(x) for x in row)) for row in self.data)

    # -- elimination ------------------------------------------------------

    def _integerized_rows(self) -> list[list[int]]:
        # row scaling by positive integers preserves rank
        out = []
        for row in self.data:
            scale = math.lcm(*(x.denominator for x in row)) if row else 1
            out.append([x.numerator * (scale // x.denominator) for x in row])
        return out

    def _echelon(self) -> tuple[list[list[int]], list[int]]:
        """Fraction-free Gauss-Jordan elimination of the integerized rows.

        Returns the rows and the pivot columns; row r holds pivot r.  Every
        pivot ends equal to the last one, so row r divided by its pivot is
        row r of the reduced row echelon form.
        """
        m = self._integerized_rows()
        pivots: list[int] = []
        prev = 1
        for col in range(self.cols):
            top = len(pivots)
            pivot_row = next((r for r in range(top, self.rows) if m[r][col]), None)
            if pivot_row is None:
                continue
            m[top], m[pivot_row] = m[pivot_row], m[top]
            pivot_line = m[top]
            pivot = pivot_line[col]
            for r in range(self.rows):
                if r != top:
                    factor = m[r][col]
                    m[r] = [(pivot * x - factor * y) // prev for x, y in zip(m[r], pivot_line)]
            prev = pivot
            pivots.append(col)
            if len(pivots) == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        """Exact rank over the rationals.

        Returns min(rows, cols) at once when the rank modulo the first prime
        of _prime_stream() reaches it, which proves full rank; otherwise
        counts the pivots of the exact elimination.
        """
        full = min(self.rows, self.cols)
        if full and _rank_mod(self._integerized_rows(), next(_prime_stream())) == full:
            return full
        return len(self._echelon()[1])

    def nullspace(self) -> tuple[Vector, ...]:
        """Basis of the right kernel, in reduced normal form.

        Each free column yields one basis vector carrying 1 in that column
        and zeros in every other free column, so the output is unique for a
        given matrix and usable in golden-file comparisons.
        """
        m, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [0] * self.cols
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = _quotient(-m[r][f], m[r][c])
            basis.append(tuple(v))
        return tuple(basis)

    def solve(self, b: Sequence) -> Vector | None:
        """Some x with self @ x = b, or None when the system is inconsistent.

        Free variables are pinned to zero, so the answer is deterministic.
        """
        if len(b) != self.rows:
            raise ValueError("right-hand side has the wrong length")
        m, pivots = ExactMatrix([row + (x,) for row, x in zip(self.data, b)])._echelon()
        if pivots and pivots[-1] == self.cols:
            return None
        x = [0] * self.cols
        for r, c in enumerate(pivots):
            x[c] = _quotient(m[r][self.cols], m[r][c])
        return tuple(x)

    # -- characteristic polynomial ----------------------------------------

    def charpoly(self) -> IntPolynomial:
        """Characteristic polynomial det(xI - M) of an integer matrix.

        Requires a square matrix with integral entries; scale denominators
        away first.
        """
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        entries = self.to_int_rows()
        return IntPolynomial(_charpoly_int(entries))


# -- modular characteristic polynomial internals ---------------------------

# Primes are capped so that a dot product of length <= _MAX_DIM of products of
# two residues stays inside int64.
_PRIME_CAP = 1 << 26
_MAX_DIM = (1 << 63) // (_PRIME_CAP * _PRIME_CAP)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_stream():
    p = _PRIME_CAP - 1
    while p > 2:
        if _is_prime(p):
            yield p
        p -= 2


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix modulo p, by Gaussian elimination in int64.

    Residues stay below p < 2**26, so every product fits in int64.
    """
    a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        pivot_row = rank + int(nz[0])
        if pivot_row != rank:
            a[[rank, pivot_row]] = a[[pivot_row, rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), p - 2, p) % p
        below = a[rank + 1 :, col]
        a[rank + 1 :, col:] = (a[rank + 1 :, col:] - below[:, None] * a[rank, col:]) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _charpoly_int(a: list[list[int]]) -> tuple[int, ...]:
    n = len(a)
    if n == 0:
        return (1,)
    if n > _MAX_DIM:
        raise ValueError(f"matrix too large for modular charpoly ({n} > {_MAX_DIM})")
    radius = max(sum(abs(x) for x in row) for row in a)
    # every eigenvalue z has |z| <= radius, so the coefficient of x^(n-k)
    # is bounded by C(n,k) * radius^k
    bound = max(math.comb(n, k) * radius**k for k in range(n + 1))
    target = 2 * bound + 1

    if max(abs(x) for row in a for x in row) < (1 << 62):
        arr = np.array(a, dtype=np.int64)
    else:
        arr = np.array(a, dtype=object)
    modulus = 1
    combined = [0] * (n + 1)
    for p in _prime_stream():
        residues = _charpoly_mod(arr, p)
        if modulus == 1:
            combined = [int(r) for r in residues]
        else:
            inv = pow(modulus % p, p - 2, p)
            for i in range(n + 1):
                delta = (int(residues[i]) - combined[i]) % p
                combined[i] += modulus * ((delta * inv) % p)
        modulus *= p
        if modulus >= target:
            break
    half = modulus // 2
    return tuple(c - modulus if c > half else c for c in combined)


def _charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial mod p, lowest degree first.

    Reduction commutes with taking the characteristic polynomial, so no
    prime is ever "unlucky" here.
    """
    n = a.shape[0]
    h = (a % p).astype(np.int64)
    # similarity reduction to upper Hessenberg form
    for k in range(n - 2):
        col = h[k + 1 :, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + k + 1
        if piv != k + 1:
            h[[k + 1, piv], :] = h[[piv, k + 1], :]
            h[:, [k + 1, piv]] = h[:, [piv, k + 1]]
        inv = pow(int(h[k + 1, k]), p - 2, p)
        mult = (h[k + 2 :, k] * inv) % p
        h[k + 2 :, :] = (h[k + 2 :, :] - mult[:, None] * h[k + 1, :]) % p
        h[:, k + 1] = (h[:, k + 1] + h[:, k + 2 :] @ mult) % p
    # minor recurrence on the Hessenberg form; polys[k] holds the
    # characteristic polynomial of the leading k x k block
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    prods = np.zeros(0, dtype=np.int64)  # prods[i] = h[i+1,i] * ... * h[k-1,k-2]
    for k in range(1, n + 1):
        if k >= 2:
            s = int(h[k - 1, k - 2])
            prods = np.concatenate([(prods * s) % p, np.array([s], dtype=np.int64)])
        hkk = int(h[k - 1, k - 1])
        new = np.zeros(n + 1, dtype=np.int64)
        new[1 : k + 1] = polys[k - 1, 0:k]
        new[0:k] = (new[0:k] - hkk * polys[k - 1, 0:k]) % p
        if k >= 2:
            weights = (h[0 : k - 1, k - 1] * prods[: k - 1]) % p
            new[0:k] = (new[0:k] - weights @ polys[0 : k - 1, 0:k]) % p
        polys[k, :] = new % p
    return polys[n, :]
