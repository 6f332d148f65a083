"""Exact spectra and eigenbases of random-to-random card shuffles.

The random-to-random shuffle removes a uniformly random card from a deck and
reinserts it at a uniformly random position.  This package computes, in
exact rational arithmetic, the complete spectrum of that Markov chain on
decks with arbitrary repetitions, together with explicit eigenbases built
recursively out of kernel vectors by lifting operators, and verifies every
prediction against brute-force diagonalization of the explicit transition
matrices.

The public names below load on first use (PEP 562): importing the package
loads none of its modules, and reading a name, or importing a module such as
shuffle_spectra.cli, loads only the modules that code needs.
"""

# Each public name, by the module that defines it.
_EXPORTS = {
    "combinatorics": (
        "desarrangement_count",
        "diag",
        "dominates",
        "even_ascent_suffix",
        "first_ascent",
        "horizontal_strip_inners",
        "is_desarrangement",
        "is_horizontal_strip",
        "kostka",
        "partitions_of",
        "rsk",
        "semistandard_tableaux",
        "standard_tableaux",
    ),
    "frobenius": ("SchurExpansion", "frobenius_of_eigenspace", "r2t_frobenius"),
    "injective": (
        "boundary",
        "coboundary",
        "injective_words",
        "laplacian",
        "laplacian_spectrum",
        "signed_r2r",
    ),
    "lifting": (
        "EigenbasisEntry",
        "eigenbasis",
        "eigenbasis_for_evaluation",
        "kernel_basis",
        "lift",
        "lift_chain",
        "normalize_vector",
    ),
    "linalg": ("ExactMatrix", "IntPolynomial"),
    "specht": (
        "SpechtBasis",
        "polytabloid",
        "project_onto_specht",
        "specht_basis",
        "theta_embedding",
        "word_of_tableau",
    ),
    "spectrum": (
        "SpectrumReport",
        "StripEigenvalue",
        "eig_strip",
        "eig_word",
        "eig_word_trace",
        "r2t_spectrum",
        "second_largest",
        "spectrum_for_evaluation",
    ),
    "words": (
        "WordVector",
        "apply_del",
        "apply_permutation",
        "apply_sh",
        "apply_theta",
        "enumerate_words",
        "r2r",
        "r2t",
        "shuffle_product",
        "t2r",
        "transition_matrix",
        "word_from_text",
        "word_to_text",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
