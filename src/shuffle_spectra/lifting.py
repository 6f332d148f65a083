"""Lifting operators and the recursive eigenbasis construction.

A lift maps the Specht module of a shape into the Specht module of the shape
with one extra cell in a chosen row, sending eigenvectors of the
random-to-random operator to eigenvectors one size up.  It is a closed form
built from insertions and letter replacements, with no linear solves; the
tests check it against insertion followed by orthogonal projection.

Kernel bases are nullspaces taken in word coordinates: the matrix whose
columns are the images of the Specht basis vectors under the operator, over
the words of the shape.  Composing lifts along the rows of a horizontal
strip, smallest row first, and feeding in those kernel bases of the smaller
shapes produces a complete eigenbasis of every Specht module; pushing those
through the module embeddings indexed by semistandard tableaux yields a full
eigenbasis of any word space.

Both eigenbases pass one checker, `_check_eigenbasis`, before they are
returned.  It tests the whole eigenbasis as one matrix identity: with V the
matrix whose rows are the words of the space and whose columns are the
vectors, and Lambda the diagonal matrix of their eigenvalues, it checks
r2r V == V Lambda and rank V == dim of the space, in exact arithmetic.  r2r V
needs no words-by-words matrix: each way of moving one letter is a
permutation of positions, and `words.r2r_columns` sums one row gather of V
per distinct move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np

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
from .spectrum import eig_strip, sort_evaluation
from .specht import specht_basis, theta_embedding
from .words import (
    WordVector,
    apply_sh,
    apply_theta,
    enumerate_words,
    operator_matrix,
    r2r,
    r2r_columns,
    word_to_text,
)


def normalize_vector(v: WordVector) -> WordVector:
    """Scalar normal form: integer coefficients with content one, and the
    coefficient of the lexicographically first word positive."""
    if not v:
        return v
    divisor = math.gcd(*(c.numerator for _, c in v.items()))
    multiple = math.lcm(*(c.denominator for _, c in v.items()))
    if v.coefficient(min(v.words())) < 0:
        divisor = -divisor
    return WordVector(
        (w, c.numerator * (multiple // c.denominator) // divisor) for w, c in v.items()
    )


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
    module for the output to land in the target one.
    """
    _check_lift_target(shape, row)
    if not v:
        return WordVector()

    def gamma(b: int) -> int:
        value = (part(shape, row) - row) - (part(shape, b) - b)
        if value == 0:
            raise AssertionError(f"zero gap coefficient for rows {b} and {row} of {shape}")
        return value

    terms = []
    for t in range(row):
        for chain in combinations(range(1, row), t):
            coeff = Fraction(1, math.prod(map(gamma, chain))) if chain else 1
            first = chain[0] if chain else row
            term = apply_sh(first, v)
            steps = list(chain) + [row]
            for b_from, b_to in zip(steps, steps[1:]):
                term = apply_theta(b_from, b_to, term)
            terms.extend((w, coeff * c) for w, c in term.items())
    return WordVector(terms)


def lift_chain(outer: Partition, inner: Partition, v: WordVector) -> WordVector:
    """Composite lift along the rows of outer/inner, smallest rows first.

    The weakly increasing order is what makes deferring all projections to
    the closed form valid; the composite is identically zero whenever the
    skew shape has two cells in one column.
    """
    outer, inner = check_skew(outer, inner)
    current = inner
    for row in _added_rows(outer, inner):
        v = lift(current, row, v)
        current = _check_lift_target(current, row)
    return v


@cache
def kernel_basis(shape: Partition) -> tuple[WordVector, ...]:
    """Basis of the kernel of the random-to-random operator on the Specht
    module of the shape, in the deterministic nullspace normal form.

    The nullspace is taken over the words of the shape, so every returned
    combination is annihilated exactly.  The dimension always equals the
    number of desarrangement tableaux of the shape.
    """
    shape = check_partition(shape)
    basis = specht_basis(shape).vectors
    matrix = operator_matrix(r2r, basis, enumerate_words(shape))
    vectors = []
    for coeffs in matrix.nullspace():
        v = WordVector((w, c * x) for c, u in zip(coeffs, basis) for w, x in u.items())
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

    def to_json(self) -> dict:
        return {
            "strip": {"outer": list(self.outer), "inner": list(self.inner)},
            "eigenvalue": self.eigenvalue,
            "vectors": [v.to_json() for v in self.vectors],
        }


def _check_eigenbasis(entries: list[EigenbasisEntry], words, dimension: int, space: str) -> None:
    """Raise AssertionError unless the vectors of the entries are nonzero
    eigenvectors for their entries' eigenvalues and form a basis of the span
    of words, a space of the given dimension.

    words must be all the words of one evaluation, and a vector with any
    other word fails.  V holds the vectors as columns over words and Lambda
    their eigenvalues, so column j of r2r V == V Lambda is the eigen-equation
    of vector j.  r2r V is the sum over the distinct moves sigma of r2r,
    with multiplicities m, of m times V with row w taken from row w o sigma;
    `r2r_columns` evaluates it on an object array, so nothing rounds or
    overflows.  The span check is `ExactMatrix.rank` of V.  Each message
    names the first failing vector.
    """
    columns = [(entry, index) for entry in entries for index in range(len(entry.vectors))]
    vectors = [v for entry in entries for v in entry.vectors]

    def label(j: int) -> str:
        entry, index = columns[j]
        return f"vector {index} of strip {entry.outer}/{entry.inner}"

    known = set(words)
    for j, v in enumerate(vectors):
        outside = next((w for w in v.words() if w not in known), None)
        if outside is not None:
            raise AssertionError(f"{label(j)} has word {word_to_text(outside)}, not in {space}")
    matrix = operator_matrix(lambda v: v, vectors, words)
    coords = np.array(matrix.data, dtype=object).reshape(matrix.rows, matrix.cols)
    eigenvalues = np.array([entry.eigenvalue for entry, _ in columns], dtype=object)
    failed = (r2r_columns(words, coords) != coords * eigenvalues).any(axis=0)
    for j, v in enumerate(vectors):
        if not v:
            raise AssertionError(f"zero {label(j)} in {space}")
        if failed[j]:
            raise AssertionError(f"eigen-equation failed for {label(j)} in {space}")
    if len(vectors) != dimension or matrix.rank() != dimension:
        raise AssertionError(f"eigenvectors do not span {space}")


@cache
def eigenbasis(shape: Partition) -> tuple[EigenbasisEntry, ...]:
    """Complete eigenbasis of the random-to-random operator on a Specht module.

    One entry per horizontal strip inner shape with a nonzero kernel; the
    union of all vectors has full rank, and per-strip dimensions equal the
    inner shapes' desarrangement counts.  Raises if any of that fails, since
    a failure would falsify the construction rather than the input.
    """
    shape = check_partition(shape)
    entries: list[EigenbasisEntry] = []
    for inner in sorted(horizontal_strip_inners(shape), key=lambda m: (sum(m), m)):
        kernel = kernel_basis(inner)
        if not kernel:
            continue
        vectors = tuple(normalize_vector(lift_chain(shape, inner, u)) for u in kernel)
        entries.append(EigenbasisEntry(shape, inner, eig_strip(shape, inner), vectors))
    _check_eigenbasis(
        entries,
        enumerate_words(shape),
        len(standard_tableaux(shape)),
        f"the Specht module of {shape}",
    )
    return tuple(entries)


def eigenbasis_for_evaluation(evaluation) -> tuple[tuple, ...]:
    """Full eigenbasis of the word space of an evaluation.

    Pushes the eigenbasis of every Specht module through each embedding
    tableau with this content; yields (tableau, entry) pairs whose vectors
    jointly form an eigenbasis of the whole word space.
    """
    evaluation = tuple(evaluation)
    words = enumerate_words(evaluation)
    results = []
    for outer in _dominating_partitions(sort_evaluation(evaluation)):
        for tab in semistandard_tableaux(outer, evaluation):
            for entry in eigenbasis(outer):
                pushed = (normalize_vector(theta_embedding(tab, v)) for v in entry.vectors)
                results.append((tab, replace(entry, vectors=tuple(pushed))))
    _check_eigenbasis(
        [entry for _, entry in results], words, len(words), f"the word space of {evaluation}"
    )
    return tuple(results)


def _dominating_partitions(nu: Partition) -> list[Partition]:
    return [p for p in partitions_of(sum(nu)) if dominates(p, nu)]
