"""Second definitions that the tests check the library against.

Nothing in the package calls these; they exist so that lifts, embeddings and
the position action can be checked by an independent route.
"""

from shuffle_spectra.words import Permutation, WordVector, operator_matrix


def word_rank(vectors: list[WordVector]) -> int:
    """Rank of word vectors, over the words that occur in them."""
    words = sorted({w for v in vectors for w in v.words()})
    return operator_matrix(lambda v: v, vectors, words).rank()


def compose_permutations(sigma: Permutation, tau: Permutation) -> Permutation:
    """sigma after tau, so that acting by the product acts by tau last."""
    return tuple(sigma[tau[i] - 1] for i in range(len(tau)))
