"""Exact linear algebra, integer-first.

Dense matrices with exact nullspaces, ranks, linear solves and integer
characteristic polynomials: the brute-force oracle that everything else in
the package is checked against, deterministic down to the bit.  Integral
entries are plain ints; a Fraction appears only where a denominator really
arises (a probability matrix, a Gram solve, a rational input).

Exact values become ints in one place, _clear_denominators, which scales
them by the lcm of their denominators and hands ints back as they are.
Ranks are certified in one place, _rank on int rows, which ExactMatrix and
the eigenbasis check of lifting share: a rank modulo _RANK_PRIME, the
largest prime below 2**26, equal to the smaller dimension proves full rank,
since a nonzero minor mod p is a nonzero integer minor; otherwise it counts
the pivots of _echelon.  That fraction-free Gauss-Jordan (Bareiss)
elimination of int rows also gives solve and the one nullspace normal form,
_nullspace: each pivot column is cleared above and below, every update
divides exactly by the previous pivot, and all pivots end equal, so a row
over its pivot is a row of the reduced echelon form.

_independent_rows picks rows independent mod p, for the rank mod p
(_rank_mod, over the shorter side) and for a nullspace of fewer rows, with
each line packed into one int, one entry mod p per 64-bit lane, so clearing
a column costs one big-int operation per line.  A lane stays below
p + r * (p - 1)**2 after r pivots, below 2**64 for r up to 4096 at
_RANK_PRIME (_lane_capacity); every 4096 pivots each lane is reduced again.

No command computes a characteristic polynomial.  Both spectra the package
prints share one Krylov core, in plain ints.  For an operator M given as a
step u -> M u, a start vector v and distinct integers S, with p the product
of (x - lam) over S (IntPolynomial.from_integer_roots) and d = |S|:
_annihilating_krylov checks p(M) v == 0 from the vectors M^k v, k <= d, and
_multiplicities turns the traces of M^k, k < d, into the multiplicity of
each lam, sum q[k] tr(M^k) / q(lam) for q = p / (x - lam)
(IntPolynomial.divide_root).  What lifts p(M) v == 0 to p(M) == 0 and what
gives the traces stays with each operator: the move check and the
fixing-permutation weights in words.certify_r2r_spectra, the relabelling
check in injective._certify_integral_spectrum.  charpoly stays for small
matrices, by the Faddeev-LeVerrier recurrence in plain ints; the tests check
spectra against a modular CRT charpoly of their own.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

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


def _clear_denominators(values: Sequence[Scalar]) -> Sequence[int]:
    """values times the lcm of their denominators, ints in the same ratios;
    a sequence of ints comes back as it is, with no lcm taken."""
    if {int}.issuperset(map(type, values)):
        return values
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


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

    @classmethod
    def from_integer_roots(cls, roots: dict[int, int]) -> "IntPolynomial":
        """Monic product of (x - r)^multiplicity over the given root map."""
        coefficients = [1]
        for root, mult in roots.items():
            for _ in range(mult):
                # x * c - root * c, lowest degree first
                coefficients = [
                    hi - root * lo for hi, lo in zip([0] + coefficients, coefficients + [0])
                ]
        return cls(coefficients)

    def divide_root(self, r: int) -> tuple["IntPolynomial", int]:
        """Quotient and remainder of the division by (x - r), by synthetic
        division; the remainder is the value at r."""
        carries = []
        carry = 0
        for c in reversed(self.coefficients):
            carry = c + r * carry
            carries.append(carry)
        remainder = carries.pop() if carries else 0
        return IntPolynomial(reversed(carries)), remainder

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


def _annihilating_krylov(step, start: list[int], roots: Sequence[int]) -> list[list[int]] | None:
    """The Krylov vectors [v, M v, ..., M^d v] of v = start, or None unless
    p(M) v == 0 for p = prod (x - lam) over the d distinct roots.

    step(u) returns M u as a list of ints.
    """
    krylov = [start]
    for _ in roots:
        krylov.append(step(krylov[-1]))
    poly = IntPolynomial.from_integer_roots(dict.fromkeys(roots, 1)).coefficients
    if any(sum(map(mul, poly, column)) for column in zip(*krylov)):
        return None
    return krylov


def _multiplicities(roots: Sequence[int], traces: Sequence[int]) -> dict[int, int] | None:
    """The multiplicities m of the distinct roots with sum m lam^k == traces[k]
    for every k < d, over the roots with m != 0, in the order of roots; None
    when one is not an integer.

    With p = prod (x - lam) and q = p / (x - lam), every other root is a root
    of q, so sum q[k] traces[k] = m_lam q(lam).
    """
    poly = IntPolynomial.from_integer_roots(dict.fromkeys(roots, 1))
    out = {}
    for lam in roots:
        q = poly.divide_root(lam)[0]
        m, remainder = divmod(sum(map(mul, q.coefficients, traces)), q(lam))
        if remainder:
            return None
        if m:
            out[lam] = m
    return out


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

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def row(self, i: int) -> Vector:
        return self.data[i]

    def transpose(self) -> "ExactMatrix":
        # the entries are already normalized, so skip __init__
        out = ExactMatrix.__new__(ExactMatrix)
        out._set_rows(tuple(zip(*self.data)))
        return out

    def scale(self, s) -> "ExactMatrix":
        return ExactMatrix([[x * s for x in row] for row in self.data])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = other.transpose().data
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data]
        )

    def to_int_rows(self) -> list[list[int]]:
        """Entries as plain ints; raises if any entry is non-integral."""
        bad = next((x for row in self.data for x in row if type(x) is not int), None)
        if bad is not None:
            raise ValueError(f"non-integral entry {bad}")
        return [list(row) for row in self.data]

    # -- elimination ------------------------------------------------------

    def _integerized_rows(self) -> list[Sequence[int]]:
        # row scaling by positive integers preserves rank and nullspace
        return [_clear_denominators(row) for row in self.data]

    def rank(self) -> int:
        """Exact rank over the rationals, by _rank."""
        return _rank(self._integerized_rows())

    def nullspace(self) -> tuple[Vector, ...]:
        """Basis of the right kernel, in reduced normal form (_nullspace)."""
        return _nullspace(self._integerized_rows(), self.cols)

    def solve(self, b: Sequence) -> Vector | None:
        """Some x with self @ x = b, or None when the system is inconsistent.

        Free variables are pinned to zero, so the answer is deterministic.
        """
        if len(b) != self.rows:
            raise ValueError("right-hand side has the wrong length")
        augmented = ExactMatrix([row + (x,) for row, x in zip(self.data, b)])
        m, pivots = _echelon(augmented._integerized_rows())
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
        away first.  Faddeev-LeVerrier: with B_1 = I, the coefficient of
        x^(n-k) is c = -tr(M B_k) / k, an exact division, and
        B_(k+1) = M B_k + c I.  That is n dense products, so it suits small
        matrices.
        """
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        a = self.to_int_rows()
        n = self.rows
        coefficients = [0] * n + [1]
        b = ExactMatrix.identity(n).data
        for k in range(1, n + 1):
            ab = [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]
            c = -sum(ab[i][i] for i in range(n)) // k
            coefficients[n - k] = c
            b = ab
            for i in range(n):
                b[i][i] += c
        return IntPolynomial(coefficients)


# -- ranks and elimination of int rows --------------------------------------

# The most words or injective words a command takes: its dense matrices are that
# big, though the library runs the sparse Laplacian certificate past it (n = 7).
_MAX_DIM = 2048
# Ranks are certified modulo this prime (_rank_mod), the largest below 2**26.
_RANK_PRIME = 67108859


# A packed line holds one entry per 64-bit lane, lowest lane first.
_LANE = (1 << 64) - 1


def _lane_capacity(p: int) -> int:
    """The most pivots r with p + r * (p - 1)**2 <= 2**64, the lane bound
    of _rank_mod; 4096 for _RANK_PRIME."""
    return ((1 << 64) - p) // (p - 1) ** 2


def _pack(values: Sequence[int], p: int) -> int:
    """The values reduced mod p, one per lane, as one int."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *[x % p for x in values]), "little")


def _lanes(x: int, width: int) -> tuple[int, ...]:
    """The width lanes of x, lowest first; x must fit in them."""
    return struct.unpack(f"<{width}Q", x.to_bytes(8 * width, "little"))


def _independent_rows(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """Indices, increasing, of rows independent modulo a prime p < 2**32
    that span every row modulo p, by Gaussian elimination on packed lines.

    Each line is one int, its entries reduced mod p in 64-bit lanes (_pack),
    and the columns are cleared left to right, each dropped once cleared by
    a shift of every line.  The first line whose low lane is nonzero mod p
    is the pivot, removed and picked.  Its tail is unpacked once, scaled by
    minus the inverse of its low lane mod p, reduced and packed again, so
    every other line, with c its low lane mod p, becomes (x >> 64) + c * tail
    in one big-int operation.  Lanes are reduced lazily: every lane stays below
    p + r * (p - 1)**2 after r pivots, so no lane carries into the next
    while r is at most _lane_capacity(p), and each time that many pivots
    have passed every lane of every line is reduced mod p.  Rows independent
    mod p are independent over the rationals, as a nonzero minor mod p is a
    nonzero integer minor.
    """
    width = len(rows[0]) if rows else 0
    lines, ids, picked = [_pack(row, p) for row in rows], list(range(len(rows))), []
    capacity = _lane_capacity(p)
    while lines and width:
        width -= 1
        k = next((k for k, x in enumerate(lines) if (x & _LANE) % p), None)
        if k is None:
            lines = [x >> 64 for x in lines]
            continue
        pivot = lines.pop(k)
        picked.append(ids.pop(k))
        scale = p - pow(pivot & _LANE, -1, p)
        tail = _pack([y * scale for y in _lanes(pivot >> 64, width)], p)
        lines = [(x >> 64) + (x & _LANE) % p * tail for x in lines]
        if len(picked) % capacity == 0:
            lines = [_pack(_lanes(x, width), p) for x in lines]
    return sorted(picked)


def _rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix modulo a prime p < 2**32: the number of
    _independent_rows, over the shorter side, as rank is invariant under
    transposition."""
    if rows and len(rows[0]) < len(rows):
        rows = list(zip(*rows))
    return len(_independent_rows(rows, p))


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of int rows, all of one length.

    Returns the reduced rows and the pivot columns; row r holds pivot r.
    Every pivot ends equal to the last one, so row r divided by its pivot is
    row r of the reduced row echelon form.  rows itself is left as it is.
    """
    m = list(rows)
    pivots: list[int] = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        pivot_row = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[top], m[pivot_row] = m[pivot_row], m[top]
        pivot_line = m[top]
        pivot = pivot_line[col]
        for r in range(len(m)):
            if r != top:
                factor = m[r][col]
                m[r] = [(pivot * x - factor * y) // prev for x, y in zip(m[r], pivot_line)]
        prev = pivot
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals of int rows, all of one length: the
    smaller dimension when the rank modulo _RANK_PRIME reaches it, which
    proves full rank, else the pivot count of _echelon."""
    full = min(len(rows), len(rows[0])) if rows else 0
    if full and _rank_mod(rows, _RANK_PRIME) == full:
        return full
    return len(_echelon(rows)[1])


def _nullspace(rows: Sequence[Sequence[int]], cols: int, pick: bool = False) -> tuple[Vector, ...]:
    """Basis of the right kernel of int rows of length cols, in reduced
    normal form: one vector per free column, 1 there and 0 in every other
    free column, read off _echelon.  It depends only on the kernel.  With
    pick, only the _independent_rows mod _RANK_PRIME go to _echelon: their
    kernel contains that of all rows, and a caller checks that it is not
    larger, else takes the kernel again without pick."""
    if pick:
        rows = [rows[i] for i in _independent_rows(rows, _RANK_PRIME)]
    m, pivots = _echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(cols) if c not in pivot_set):
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = _quotient(-m[r][f], m[r][c])
        basis.append(tuple(v))
    return tuple(basis)
