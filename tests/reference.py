"""Second definitions that the tests check the library against.

Nothing in the package calls these; they exist so that lifts, embeddings and
the position action can be checked by an independent route.
"""

import math
from fractions import Fraction
from itertools import combinations

from shuffle_spectra.combinatorics import part
from shuffle_spectra.words import (
    Permutation,
    WordVector,
    apply_sh,
    apply_theta,
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
