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

The module morphisms theta_t, one per filled tableau t, carry the Specht
module of shape(t) into the word space of t's content.  All of theta_t but
the coefficients it is applied to is cached: per shape, one position gather
for every word of that evaluation (_position_gathers), and per tableau, the
indices of every such word's images among the words of the content
(_image_table).  The push, theta_column, reads an int column over the words
of shape(t), as lifting leaves it, and costs one list addition per image,
with no image word built or hashed; theta_embedding wraps it for
WordVectors.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from typing import Callable

from .combinatorics import (
    Partition,
    Record,
    Tableau,
    check_partition,
    multiset_arrangements,
    sign_of_word,
    standard_tableaux,
    tableau_shape,
)
from .linalg import ExactMatrix
from .words import (
    Scalar,
    Word,
    WordVector,
    _column,
    _gather,
    _lex_words,
    _word_index,
    evaluation_of,
)


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
    n = len(word_of_tableau(t))  # raises unless the entries are exactly 1..n
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


class SpechtBasis(Record):
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
def _polytabloid_terms(shape: Partition) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (index in _lex_words(shape), sign) terms of w_t for every
    standard tableau t of the shape, in tableau order.  polytabloid of the
    row-reading tableau is taken once: with the same column rearrangements,
    a word of w_t takes letter i from the position of the row-reading entry
    in the cell where t holds i, one gather per tableau."""
    n, index = sum(shape), _word_index(shape)
    reading = [tuple(range(sum(shape[:r]) + 1, sum(shape[: r + 1]) + 1)) for r in range(len(shape))]
    first, signs = zip(*polytabloid(tuple(reading)).items())
    table = []
    for t in standard_tableaux(shape):
        cells = [x for row in t for x in row]
        gather = _gather(sorted(range(n), key=cells.__getitem__))
        table.append(tuple(zip(map(index.__getitem__, map(gather, first)), signs)))
    return tuple(table)


@cache
def gram_matrix(shape: Partition) -> ExactMatrix:
    """Gram matrix of the basis vectors in the orthonormal word inner product."""
    vectors = specht_basis(shape).vectors
    return ExactMatrix(
        [[u.inner(v) for v in vectors] for u in vectors]
    )


def _gram_projection(shape: Partition, v: WordVector) -> tuple[tuple[Scalar, ...], WordVector]:
    """Coordinates in the w_t basis of the orthogonal projection of v, and
    the projection itself, by one Gram solve."""
    _column(v, shape)  # raises ValueError for a word of another evaluation
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
def _position_gathers(shape: Partition) -> tuple[Callable[[Word], Word], ...]:
    """For every word of _lex_words(shape), in order, the gather that
    lays a fill over it.

    A fill lists its letters row by row, so the letters that overwrite the
    occurrences of r sit where r sits in the word sorted stably.  With
    rank[k] the place of position k in that sorted order, the image of the
    word under a fill is itemgetter(*rank)(fill).
    """
    n = sum(shape)
    gathers = []
    for word in _lex_words(shape):
        order = sorted(range(n), key=word.__getitem__)
        rank = sorted(range(n), key=order.__getitem__)
        gathers.append(_gather(rank))
    return tuple(gathers)


@cache
def _image_table(t: Tableau) -> tuple[tuple[Word, ...], tuple[tuple[int, ...], ...]]:
    """The words of the content of t, and for the i-th word of
    _lex_words(shape(t)) the indices among them of its images under
    theta_t, one per fill.

    A fill is one choice of a distinct arrangement per row of t, the rows
    laid end to end.  Distinct fills give distinct images of one word.
    """
    fills = [sum(combo, ()) for combo in product(*(multiset_arrangements(row) for row in t))]
    content = evaluation_of(fills[0])
    index = _word_index(content)
    table = tuple(
        tuple([index[gather(fill)] for fill in fills])
        for gather in _position_gathers(tableau_shape(t))
    )
    return _lex_words(content), table


def theta_column(t: Tableau, column: list[Scalar]) -> list[Scalar]:
    """theta_t of the int column of a vector over the words of shape(t), as
    a column over the words of t's content, with or without its trailing
    zeros; t must be a tuple of tuples."""
    targets, table = _image_table(t)
    out = [0] * len(targets)
    for coeff, images in zip(column, table):
        if coeff:
            for i in images:
                out[i] += coeff
    return out


def theta_embedding(t: Tableau, v: WordVector) -> WordVector:
    """Module morphism attached to a filled tableau.

    On a word of evaluation shape(t), the occurrences of each letter r are
    rewritten, in position order, by every distinct arrangement of row r of
    the tableau, summed over all choices.  On the increasing word this is
    the row-permuted concatenation sum, and the position action extends it
    to everything else.

    theta_column pushes the column of v through the cached tables (see the
    module docstring).
    """
    t = tuple(map(tuple, t))
    out = theta_column(t, _column(v, check_partition(tableau_shape(t))))
    return WordVector(zip(_image_table(t)[0], out))
