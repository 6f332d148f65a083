"""Second definitions that the tests check the library against.

Nothing in the package calls these; they exist so that lifts, embeddings and
the position action can be checked by an independent route.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from shuffle_spectra.combinatorics import multiset_arrangements, part
from shuffle_spectra.words import (
    Permutation,
    WordVector,
    apply_sh,
    apply_theta,
    evaluation_of,
    operator_matrix,
)


def word_rank(vectors: list[WordVector]) -> int:
    """Rank of word vectors, over the words that occur in them."""
    words = sorted({w for v in vectors for w in v.words()})
    return operator_matrix(lambda v: v, vectors, words).rank()


def compose_permutations(sigma: Permutation, tau: Permutation) -> Permutation:
    """sigma after tau, so that acting by the product acts by tau last."""
    return tuple(sigma[tau[i] - 1] for i in range(len(tau)))


def chain_lift(shape, row: int, v: WordVector) -> WordVector:
    """The lift as the paper writes it: the sum over all chains
    b_1 < ... < b_t < row of the insertion of letter b_1 followed by the
    replacements b_1 -> ... -> b_t -> row, weighted by one over the product
    of the gaps of b_1, ..., b_t.  The empty chain is the plain insertion of
    the row's letter."""

    def gamma(b: int) -> int:
        return (part(shape, row) - row) - (part(shape, b) - b)

    terms = []
    for t in range(row):
        for chain in combinations(range(1, row), t):
            coeff = Fraction(1, math.prod(map(gamma, chain)))
            term = apply_sh(chain[0] if chain else row, v)
            steps = list(chain) + [row]
            for b_from, b_to in zip(steps, steps[1:]):
                term = apply_theta(b_from, b_to, term)
            terms.extend((w, coeff * c) for w, c in term.items())
    return WordVector(terms)


def theta_by_positions(t, v: WordVector) -> WordVector:
    """The embedding of a filled tableau written position by position: the
    occurrences of each letter r of a word, in position order, are
    overwritten by every distinct arrangement of row r of t, summed over
    all choices of one arrangement per row."""
    shape = tuple(len(row) for row in t)
    for word in v.words():
        if evaluation_of(word) != shape:
            raise ValueError(f"word {word} has evaluation {evaluation_of(word)}, expected {shape}")
    row_options = [multiset_arrangements(row) for row in t]
    terms = []
    for word, coeff in v.items():
        positions = [[k for k, x in enumerate(word) if x == r] for r in range(1, len(t) + 1)]
        for combo in product(*row_options):
            out = list(word)
            for r_positions, arrangement in zip(positions, combo):
                for k, letter in zip(r_positions, arrangement):
                    out[k] = letter
            terms.append((tuple(out), coeff))
    return WordVector(terms)
