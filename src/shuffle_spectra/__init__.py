"""Exact spectra and eigenbases of random-to-random card shuffles.

The random-to-random shuffle removes a uniformly random card from a deck and
reinserts it at a uniformly random position.  This package computes, in
exact rational arithmetic, the complete spectrum of that Markov chain on
decks with arbitrary repetitions, together with explicit eigenbases built
recursively out of kernel vectors by lifting operators, and verifies every
prediction against brute-force diagonalization of the explicit transition
matrices.
"""

from .combinatorics import (
    desarrangement_count,
    diag,
    dominates,
    even_ascent_suffix,
    first_ascent,
    horizontal_strip_inners,
    is_desarrangement,
    is_horizontal_strip,
    kostka,
    partitions_of,
    rsk,
    semistandard_tableaux,
    standard_tableaux,
)
from .frobenius import SchurExpansion, frobenius_of_eigenspace, r2t_frobenius
from .injective import (
    boundary,
    coboundary,
    injective_words,
    laplacian,
    laplacian_spectrum,
    signed_r2r,
)
from .lifting import (
    EigenbasisEntry,
    eigenbasis,
    eigenbasis_for_evaluation,
    kernel_basis,
    lift,
    lift_chain,
    normalize_vector,
)
from .linalg import ExactMatrix, IntPolynomial
from .specht import (
    SpechtBasis,
    polytabloid,
    project_onto_specht,
    specht_basis,
    theta_embedding,
    word_of_tableau,
)
from .spectrum import (
    SpectrumReport,
    StripEigenvalue,
    eig_strip,
    eig_word,
    eig_word_trace,
    r2t_spectrum,
    second_largest,
    spectrum_for_evaluation,
)
from .words import (
    WordVector,
    apply_del,
    apply_permutation,
    apply_sh,
    apply_theta,
    enumerate_words,
    r2r,
    r2t,
    shuffle_product,
    t2r,
    transition_matrix,
    word_from_text,
    word_to_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
