"""Lifting operators and the recursive eigenbasis construction.

A lift maps the Specht module of a shape into the Specht module of the shape
with one extra cell in a chosen row, sending eigenvectors of the
random-to-random operator to eigenvectors one size up.  It is a closed form,
a sum over chains of rows evaluated by one integer recursion over the rows;
the tests check it against the chain sum itself and against insertion
followed by orthogonal projection.

Kernel bases are nullspaces taken in word coordinates: the matrix whose
columns are the images of the Specht basis vectors under random-to-top, over
the words of the shape.  Random-to-random is top-to-random after
random-to-top, and top-to-random is the transpose of random-to-top in the
word basis, so the two operators have the same kernel and random-to-top
costs n images per word where random-to-random costs n^2.  Composing lifts
along the rows of a horizontal strip, smallest row first, and feeding in
those kernel bases of the smaller shapes produces a complete eigenbasis of
every Specht module; each lift is kept as an integer multiple, which the
scalar normal form of an eigenvector cannot tell apart, so no eigenvector
costs a division.  Pushing those through the module embeddings indexed by
semistandard tableaux yields a full eigenbasis of any word space.

Both eigenbases pass one check core, `_check_columns`, before they are
returned.  It tests the whole eigenbasis as one matrix identity: with V the
matrix whose rows are the words of the space and whose columns are the
vectors, and Lambda the diagonal matrix of their eigenvalues, it checks
r2r V == V Lambda and rank V == dim of the space, in exact integers.  r2r V
needs neither a words-by-words matrix nor a pass per vector: each row of V
is packed into one int, its entries the digits in base 2**b (Kronecker
substitution), and one gather per distinct move of positions applies r2r to
that one column.  Rank V is the sum of the ranks of its per-eigenvalue
blocks, which the eigen-equations make exact, each certified by linalg._rank:
every vector of a block becomes one int with its coefficients mod a prime
in 64-bit lanes, one lane per word, so the elimination modulo that prime
updates a whole vector per big-int operation, and a block whose rank modulo
the prime is its size is proven independent at once.

The eigenbasis of a word space is int columns over its words from theta
(specht.theta_column) to the output, checked once, on the word space.  Its
Specht eigenbases are not checked on their own: theta_t is injective on a
Specht module and commutes with r2r, and every Specht module pushed has a
tableau, so a broken eigen-equation or a lost rank there shows in the images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import compress
from operator import lshift, mul, sub

from .combinatorics import (
    Partition,
    check_partition,
    check_skew,
    desarrangement_count,
    dominates,
    horizontal_strip_inners,
    part,
    partitions_of,
    semistandard_tableaux,
    standard_tableaux,
)
from .linalg import _clear_denominators, _rank
from .spectrum import eig_strip, sort_evaluation
from .specht import specht_basis, theta_column
from .words import (
    WordVector,
    _apply_moves,
    _lex_order,
    _move_gathers,
    apply_sh,
    apply_theta,
    enumerate_words,
    operator_matrix,
    r2t,
    word_to_text,
)


def normalize_vector(v: WordVector) -> WordVector:
    """Scalar normal form: integer coefficients with content one, and the
    coefficient of the lexicographically first word positive.  A vector
    already in normal form comes back as it is."""
    if not v:
        return v
    coeffs = [c for _, c in v.items()]
    # _clear_denominators hands a list of ints back as it is
    ints = _clear_denominators(coeffs)
    divisor = math.gcd(*ints)
    if v.coefficient(min(v.words())) < 0:
        divisor = -divisor
    if divisor == 1 and ints is coeffs:
        return v
    return WordVector._from_ints({w: c // divisor for w, c in zip(v.words(), ints)})


def _normal_column(column: list[int], lex) -> list[int]:
    """normalize_vector of an int column over the words of one evaluation,
    with lex = words._lex_order of that evaluation.  A zero column stays
    zero, for the check to report."""
    divisor = math.gcd(*column)
    if not divisor:
        return column
    if column[next(i for i in lex if column[i])] < 0:
        divisor = -divisor
    return column if divisor == 1 else [c // divisor for c in column]


def _added_rows(outer: Partition, inner: Partition) -> list[int]:
    """Rows gaining a cell, weakly increasing, with multiplicity."""
    outer, inner = check_skew(outer, inner)
    rows: list[int] = []
    for i in range(1, len(outer) + 1):
        rows.extend([i] * (outer[i - 1] - part(inner, i)))
    return rows


def _check_lift_target(shape: Partition, row: int) -> Partition:
    shape = check_partition(shape)
    if row < 1 or row > len(shape) + 1:
        raise ValueError(f"cannot add a cell in row {row} of {shape}")
    target = list(shape) + [0] * (row - len(shape))
    target[row - 1] += 1
    target_partition = tuple(target)
    if not (row == 1 or target[row - 2] >= target[row - 1]):
        raise ValueError(f"{shape} plus a cell in row {row} is not a partition")
    return target_partition


def lift(shape: Partition, row: int, v: WordVector) -> WordVector:
    """Closed-form lift of v from the Specht module of shape into the Specht
    module with one more cell in the given row.

    Sums, over all chains b_1 < ... < b_t < row, the insertion of letter b_1
    followed by the replacements b_1 -> b_2 -> ... -> row, weighted by the
    inverse gaps of the adjusted part lengths; the empty chain is the plain
    insertion of the row's letter.  The input must lie in the source Specht
    module for the output to land in the target one.  The sum is evaluated
    row by row in integers, with one division at the end.
    """
    lifted, scale = _scaled_lift(shape, row, v)
    return lifted / scale


def _scaled_lift(shape: Partition, row: int, v: WordVector) -> tuple[WordVector, int]:
    """(g * lift(shape, row, v), g), with g the product of the gaps above row."""
    _check_lift_target(shape, row)
    # gap of each row b above row; at most b - row < 0, as part(shape, b) >= part(shape, row)
    gaps = [(part(shape, row) - row) - (part(shape, b) - b) for b in range(1, row)]
    # lifted[b - 1] is the sum over the chains ending in b, times the product of the gaps above b
    lifted: list[WordVector] = []
    for b in range(1, row + 1):
        scale = math.prod(gaps[: b - 1])
        terms = [(w, scale * c) for w, c in apply_sh(b, v).items()]
        for a in range(1, b):
            weight = math.prod(gaps[a : b - 1])
            terms.extend((w, weight * c) for w, c in apply_theta(a, b, lifted[a - 1]).items())
        lifted.append(WordVector(terms))
    return lifted[-1], math.prod(gaps)


def lift_chain(outer: Partition, inner: Partition, v: WordVector) -> WordVector:
    """Composite lift along the rows of outer/inner, smallest rows first.

    The weakly increasing order is what makes deferring all projections to
    the closed form valid; the composite is identically zero whenever the
    skew shape has two cells in one column.  It divides once, at the end.
    """
    lifted, scale = _scaled_lift_chain(outer, inner, v)
    return lifted / scale


def _scaled_lift_chain(
    outer: Partition, inner: Partition, v: WordVector
) -> tuple[WordVector, int]:
    """(g * lift_chain(outer, inner, v), g), with g the product of the gaps
    of every lift along the chain; g is never zero, as every gap is
    negative."""
    outer, inner = check_skew(outer, inner)
    current, scale = inner, 1
    for row in _added_rows(outer, inner):
        v, gaps = _scaled_lift(current, row, v)
        scale *= gaps
        current = _check_lift_target(current, row)
    return v, scale


@cache
def kernel_basis(shape: Partition) -> tuple[WordVector, ...]:
    """Basis of the kernel of the random-to-random operator on the Specht
    module of the shape, in the deterministic nullspace normal form.

    The nullspace is that of random-to-top, taken over the words of the
    shape, so every returned combination is annihilated exactly.  It is the
    same subspace: r2r = t2r o r2t with t2r the transpose of r2t in the word
    basis, so r2r(v) = 0 gives |r2t(v)|^2 = <v, r2r(v)> = 0 over the
    rationals, and the reduced nullspace basis depends only on the subspace.
    The dimension always equals the number of desarrangement tableaux of the
    shape, and `eigenbasis` checks these vectors again against r2r itself,
    as the strip of eigenvalue 0.
    """
    shape = check_partition(shape)
    basis = specht_basis(shape).vectors
    matrix = operator_matrix(r2t, basis, enumerate_words(shape))
    vectors = []
    for coeffs in matrix.nullspace():
        # the normal form is the same for every nonzero multiple: clear the
        # denominators first and combine in ints
        coeffs = _clear_denominators(coeffs)
        v = WordVector((w, c * x) for c, u in zip(coeffs, basis) if c for w, x in u.items())
        vectors.append(normalize_vector(v))
    if len(vectors) != desarrangement_count(shape):
        raise AssertionError(
            f"kernel of {shape} has dimension {len(vectors)}, "
            f"expected {desarrangement_count(shape)}"
        )
    return tuple(vectors)


@dataclass(frozen=True)
class EigenbasisEntry:
    """Eigenvectors contributed by one horizontal strip.

    vectors are normalized lifts of the kernel basis of the inner shape, in
    the order of that basis.  Every vector satisfies r2r(v) = eigenvalue * v
    exactly.
    """

    outer: Partition
    inner: Partition
    eigenvalue: int
    vectors: tuple[WordVector, ...]

    def strip_json(self) -> dict:
        """The JSON fields of the entry that precede its vectors."""
        return {
            "strip": {"outer": list(self.outer), "inner": list(self.inner)},
            "eigenvalue": self.eigenvalue,
        }

    def to_json(self) -> dict:
        return {**self.strip_json(), "vectors": [v.to_json() for v in self.vectors]}


def _label(entries, j: int) -> str:
    """Name of vector j of the entries, counted across them in order."""
    for entry in entries:
        if j < len(entry.vectors):
            return f"vector {j} of strip {entry.outer}/{entry.inner}"
        j -= len(entry.vectors)


def _check_eigenbasis(entries: list[EigenbasisEntry], words, dimension: int, space: str) -> None:
    """Raise AssertionError unless the vectors of the entries are nonzero
    eigenvectors for their entries' eigenvalues and form a basis of the span
    of words, a space of the given dimension.

    The word-vector entry point of _check_columns: words must be all the
    words of one evaluation, and a vector with any other word fails.  Each
    vector becomes an int column over words, its Fraction coefficients
    cleared by linalg._clear_denominators, which changes neither its
    eigen-equation nor any rank.  The eigenbasis of a word space skips this
    and its Specht eigenbases, and is checked once, as columns, on the word
    space (module docstring).
    """
    index = {w: i for i, w in enumerate(words)}
    columns = []
    for j, v in enumerate(v for entry in entries for v in entry.vectors):
        col = [0] * len(words)
        for w, c in v.items():
            i = index.get(w)
            if i is None:
                label = _label(entries, j)
                raise AssertionError(f"{label} has word {word_to_text(w)}, not in {space}")
            col[i] = c
        columns.append(_clear_denominators(col))
    _check_columns(entries, columns, words, dimension, space)


def _check_columns(entries, columns: list[list[int]], words, dimension: int, space: str) -> None:
    """The check of _check_eigenbasis on int columns over words, one per
    vector of the entries, in order; only the strips, the eigenvalues and
    the number of vectors of each entry are read.

    V holds the columns and Lambda their eigenvalues.  With n the word
    length and B = max |V| * max(n**2, max |Lambda|), every entry of r2r V
    and of V Lambda is at most B in absolute value, since r2r sums n**2
    entries of a column.  Each row w of V is packed into
    P[w] = sum over j of V[w][j] * 2**(b*j), and of V Lambda into S[w],
    where 2**b > 2B.  `_apply_moves` maps P to the packed rows of r2r V, so
    D = r2r P - S packs the digits d_j of r2r V - V Lambda, each with
    |d_j| <= 2B < 2**b.  A packed int with such digits is zero only when
    every digit is, and its lowest set bit lies in the digit of its first
    nonzero one: D == 0 is every eigen-equation, and the first failing
    vector is the least (lowest set bit of d) // b over the nonzero entries
    d of D.  Once every eigen-equation holds, vectors of distinct
    eigenvalues are independent, so rank V is the sum of the ranks of its
    blocks of one eigenvalue each.  linalg._rank ranks each block, its
    vectors as int rows packed into 64-bit lanes: full at once when its
    rank modulo a prime says so, else by exact elimination.  Everything
    runs in plain ints, so nothing rounds or overflows.  Each message names
    the first failing vector.
    """
    eigenvalues = [entry.eigenvalue for entry in entries for _ in entry.vectors]
    n = len(words[0])
    top = max((max(map(abs, col)) for col in columns), default=0)
    b = (2 * top * max([n * n, *map(abs, eigenvalues)])).bit_length()
    shifts = [b * j for j in range(len(columns))]
    # the rows of V, packed; with no vectors, every word packs to 0
    packed = [sum(map(lshift, row, shifts)) for row in zip(*columns)] or [0] * len(words)
    scaled = [
        sum(map(lshift, map(mul, row, eigenvalues), shifts)) for row in zip(*columns)
    ] or packed
    image = _apply_moves(_move_gathers(words), packed)
    failing = min(
        (((d & -d).bit_length() - 1) // b for d in map(sub, image, scaled) if d),
        default=len(columns),
    )
    zero = next((j for j, col in enumerate(columns) if not any(col)), len(columns))
    if zero < failing:
        raise AssertionError(f"zero {_label(entries, zero)} in {space}")
    if failing < len(columns):
        raise AssertionError(f"eigen-equation failed for {_label(entries, failing)} in {space}")

    blocks: dict[int, list] = {}
    for lam, col in zip(eigenvalues, columns):
        blocks.setdefault(lam, []).append(col)
    if len(columns) != dimension or sum(map(_rank, blocks.values())) != dimension:
        raise AssertionError(f"eigenvectors do not span {space}")


def _lifted_entries(shape: Partition) -> list[EigenbasisEntry]:
    """The entries of eigenbasis(shape), unchecked."""
    entries: list[EigenbasisEntry] = []
    for inner in sorted(horizontal_strip_inners(shape), key=lambda m: (sum(m), m)):
        kernel = kernel_basis(inner)
        if not kernel:
            continue
        # the normal form is the same for every nonzero multiple, so the
        # integral lift needs no division
        vectors = tuple(normalize_vector(_scaled_lift_chain(shape, inner, u)[0]) for u in kernel)
        entries.append(EigenbasisEntry(shape, inner, eig_strip(shape, inner), vectors))
    return entries


@cache
def eigenbasis(shape: Partition) -> tuple[EigenbasisEntry, ...]:
    """Complete eigenbasis of the random-to-random operator on a Specht module.

    One entry per horizontal strip inner shape with a nonzero kernel; the
    union of all vectors has full rank, and per-strip dimensions equal the
    inner shapes' desarrangement counts.  Raises if any of that fails, since
    a failure would falsify the construction rather than the input.
    """
    shape = check_partition(shape)
    entries = _lifted_entries(shape)
    _check_eigenbasis(
        entries,
        enumerate_words(shape),
        len(standard_tableaux(shape)),
        f"the Specht module of {shape}",
    )
    return tuple(entries)


def eigenbasis_columns(evaluation):
    """The eigenbasis of eigenbasis_for_evaluation as checked int columns.

    Returns words = enumerate_words(evaluation), lex = _lex_order of it,
    and one (tableau, entry, columns) triple per tableau and unchecked
    Specht entry, columns holding the normal forms of its pushes.
    """
    evaluation = tuple(evaluation)
    words = enumerate_words(evaluation)
    lex = _lex_order(evaluation)
    pushed = []
    for outer in _dominating_partitions(sort_evaluation(evaluation)):
        entries = _lifted_entries(outer)
        for tab in semistandard_tableaux(outer, evaluation):
            for entry in entries:
                columns = [_normal_column(theta_column(tab, v), lex) for v in entry.vectors]
                pushed.append((tab, entry, columns))
    _check_columns(
        [entry for _, entry, _ in pushed],
        [col for *_, columns in pushed for col in columns],
        words,
        len(words),
        f"the word space of {evaluation}",
    )
    return words, lex, pushed


def eigenbasis_for_evaluation(evaluation) -> tuple[tuple, ...]:
    """Full eigenbasis of the word space of an evaluation.

    Pushes the eigenbasis of every Specht module through each embedding
    tableau with this content; yields (tableau, entry) pairs whose vectors
    jointly form an eigenbasis of the whole word space.
    """
    words, _, pushed = eigenbasis_columns(evaluation)

    def vector(column: list[int]) -> WordVector:
        return WordVector._from_ints(dict(compress(zip(words, column), column)))

    return tuple(
        (tab, replace(entry, vectors=tuple(map(vector, columns)))) for tab, entry, columns in pushed
    )


def _dominating_partitions(nu: Partition) -> list[Partition]:
    return [p for p in partitions_of(sum(nu)) if dominates(p, nu)]
