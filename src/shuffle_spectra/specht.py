"""Specht submodules of word spaces.

Every tableau with entries 1..n encodes a word whose i-th letter is the row
holding i.  Antisymmetrizing that word over the column stabilizer gives the
basis vectors w_t; their span over the standard tableaux of a shape is the
Specht submodule of the words with that evaluation.

The orthogonal projection onto a Specht submodule and the coordinates of a
vector in the w_t basis share one exact Gram solve in the inner product
where words are orthonormal.  Kernels and eigenbases need neither, so the
solve runs only when these two are called.  Because each word space
contains exactly one copy of its own Specht module and the position action
permutes the word basis, the orthogonal complement is again a submodule, so
this projection agrees with the module-theoretic projection wherever this
package uses it; no character theory is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from operator import itemgetter

from .combinatorics import (
    Partition,
    Tableau,
    check_partition,
    multiset_arrangements,
    sign_of_word,
    standard_tableaux,
    tableau_shape,
)
from .linalg import ExactMatrix
from .words import Scalar, Word, WordVector, evaluation_of


def word_of_tableau(t: Tableau) -> Word:
    """Word whose i-th letter is the (1-based) row of i in the tableau."""
    entries = [x for row in t for x in row]
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise ValueError("tableau entries must be exactly 1..n")
    rows = {x: i + 1 for i, row in enumerate(t) for x in row}
    return tuple(rows[i] for i in range(1, n + 1))


def polytabloid(t: Tableau) -> WordVector:
    """Signed sum of row words over all column rearrangements of the tableau."""
    entries = [x for row in t for x in row]
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise ValueError("tableau entries must be exactly 1..n")
    n_cols = len(t[0]) if t else 0
    columns = [
        [t[i][j] for i in range(len(t)) if j < len(t[i])] for j in range(n_cols)
    ]
    column_choices = []
    for col in columns:
        k = len(col)
        choices = []
        for idx in permutations(range(k)):
            assignment = {col[idx[i]]: i + 1 for i in range(k)}  # entry -> row
            choices.append((sign_of_word(idx), assignment))
        column_choices.append(choices)
    terms: list[tuple[Word, int]] = []
    for combo in product(*column_choices):
        sign = 1
        rows: dict[int, int] = {}
        for s, assignment in combo:
            sign *= s
            rows.update(assignment)
        word = tuple(rows[i] for i in range(1, n + 1))
        terms.append((word, sign))
    if not terms:  # empty tableau
        terms = [((), 1)]
    return WordVector(terms)


@dataclass(frozen=True)
class SpechtBasis:
    shape: Partition
    tableaux: tuple[Tableau, ...]
    vectors: tuple[WordVector, ...]

    def __len__(self) -> int:
        return len(self.vectors)


@cache
def specht_basis(shape: Partition) -> SpechtBasis:
    """Basis vectors w_t over the standard tableaux, in tableau order."""
    shape = check_partition(shape)
    tableaux = standard_tableaux(shape)
    return SpechtBasis(shape, tableaux, tuple(polytabloid(t) for t in tableaux))


@cache
def gram_matrix(shape: Partition) -> ExactMatrix:
    """Gram matrix of the basis vectors in the orthonormal word inner product."""
    vectors = specht_basis(shape).vectors
    return ExactMatrix(
        [[u.inner(v) for v in vectors] for u in vectors]
    )


def _check_evaluation(shape: Partition, v: WordVector) -> None:
    for word in v.words():
        if evaluation_of(word) != shape:
            raise ValueError(
                f"word {word} has evaluation {evaluation_of(word)}, expected {shape}"
            )


def _gram_projection(shape: Partition, v: WordVector) -> tuple[tuple[Scalar, ...], WordVector]:
    """Coordinates in the w_t basis of the orthogonal projection of v, and
    the projection itself, by one Gram solve."""
    _check_evaluation(shape, v)
    basis = specht_basis(shape).vectors
    coords = gram_matrix(shape).solve([w.inner(v) for w in basis])
    if coords is None:
        raise AssertionError(f"singular Gram matrix for {shape}")
    projection = WordVector((w, c * x) for c, u in zip(coords, basis) for w, x in u.items())
    return coords, projection


def specht_coordinates(shape: Partition, v: WordVector) -> tuple[Scalar, ...] | None:
    """Coordinates of v in the w_t basis, or None when v is outside the span."""
    shape = check_partition(shape)
    if not v:
        return (0,) * len(specht_basis(shape).vectors)
    coords, projection = _gram_projection(shape, v)
    return coords if projection == v else None


def project_onto_specht(shape: Partition, v: WordVector) -> WordVector:
    """Orthogonal projection onto the Specht submodule of the shape's word space."""
    shape = check_partition(shape)
    if not v:
        return WordVector()
    return _gram_projection(shape, v)[1]


@cache
def _row_fills(t: Tableau) -> tuple[Word, ...]:
    """Every choice of one distinct arrangement per row of t, concatenated."""
    return tuple(
        sum(combo, ()) for combo in product(*(multiset_arrangements(row) for row in t))
    )


def theta_embedding(t: Tableau, v: WordVector) -> WordVector:
    """Module morphism attached to a filled tableau.

    On a word of evaluation shape(t), the occurrences of each letter r are
    rewritten, in position order, by every distinct arrangement of row r of
    the tableau, summed over all choices.  On the increasing word this is
    the row-permuted concatenation sum, and the position action extends it
    to everything else.

    Each choice is one fill of _row_fills(t), the rows' arrangements laid
    end to end, so the letters of the fill line up with the letters of the
    word sorted stably.  With rank[k] the place of position k in that
    sorted order, every image of a word is one C-level gather
    itemgetter(*rank)(fill), and the images are summed straight into one
    dict, which becomes the vector as it is when every coefficient is an
    int.
    """
    shape = tableau_shape(t)
    shape = check_partition(shape)
    if not v:
        return WordVector()
    fills = _row_fills(tuple(map(tuple, t)))
    n = sum(shape)
    base = [r for r, length in enumerate(shape, 1) for _ in range(length)]
    out: dict[Word, Scalar] = {}
    for word, coeff in v.items():
        # a word outside the evaluation, of any length, makes _check_evaluation
        # raise before its positions are sorted
        if sorted(word) != base:
            _check_evaluation(shape, v)
        order = sorted(range(n), key=word.__getitem__)
        rank = sorted(range(n), key=order.__getitem__)
        # a word of at most one letter is its own image; itemgetter(0) gives a letter
        gather = itemgetter(*rank) if n > 1 else tuple
        for fill in fills:
            image = gather(fill)
            out[image] = out.get(image, 0) + coeff
    if all(type(c) is int for _, c in v.items()):
        return WordVector._from_ints(out)
    return WordVector(out)
