from fractions import Fraction
from math import factorial

import pytest

from shuffle_spectra.combinatorics import desarrangement_count, partitions_of
from shuffle_spectra.frobenius import SchurExpansion, frobenius_of_eigenspace, r2t_frobenius
from shuffle_spectra.linalg import ExactMatrix
from shuffle_spectra.spectrum import r2t_spectrum, spectrum_for_evaluation
from shuffle_spectra.words import WordVector, enumerate_words, operator_matrix, r2r

from reference import matrix_sum

# character tables for sizes 3 and 4: shape -> values on conjugacy classes,
# classes listed with their sizes
S3_CLASSES = [((1, 1, 1), 1), ((2, 1), 3), ((3,), 2)]
S3_CHARACTERS = {
    (3,): (1, 1, 1),
    (2, 1): (2, 0, -1),
    (1, 1, 1): (1, -1, 1),
}
S4_CLASSES = [((1, 1, 1, 1), 1), ((2, 1, 1), 6), ((2, 2), 3), ((3, 1), 8), ((4,), 6)]
S4_CHARACTERS = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (3, 1, -1, 0, -1),
    (2, 2): (2, 0, 2, -1, 0),
    (2, 1, 1): (3, -1, -1, 0, 1),
    (1, 1, 1, 1): (1, -1, 1, 1, -1),
}


def test_worked_expansion_size6():
    expansion = frobenius_of_eigenspace(6, 9)
    assert expansion == SchurExpansion({(3, 2, 1): 1, (4, 1, 1): 2, (4, 2): 2})
    assert str(expansion) == "s[3,2,1] + 2*s[4,1,1] + 2*s[4,2]"


def test_small_expansions():
    assert frobenius_of_eigenspace(3, 9) == SchurExpansion({(3,): 1})
    assert frobenius_of_eigenspace(3, 4) == SchurExpansion({(2, 1): 1})
    assert frobenius_of_eigenspace(3, 123) == SchurExpansion()
    with pytest.raises(ValueError):
        frobenius_of_eigenspace(3, -1)


def test_kernel_expansion_collects_all_desarrangement_shapes():
    for n in range(1, 7):
        kernel = frobenius_of_eigenspace(n, 0)
        expected = SchurExpansion(
            {lam: desarrangement_count(lam) for lam in partitions_of(n)}
        )
        assert kernel == expected
        assert kernel == r2t_frobenius(n, n)


def test_r2t_expansions():
    for n in range(1, 7):
        assert r2t_frobenius(n, 0) == SchurExpansion({(n,): 1})
    # pinned by the brute-force spectrum: the matching eigenspace of the
    # size-3 chain is 3-dimensional (see test_r2t_spectrum_matches_brute_force)
    assert r2t_frobenius(3, 2) == SchurExpansion({(2, 1): 1, (1, 1, 1): 1})
    assert r2t_frobenius(3, 2).dimension() == r2t_spectrum((1, 1, 1))[1]
    assert r2t_frobenius(3, 1) == SchurExpansion()
    with pytest.raises(ValueError):
        r2t_frobenius(3, 4)


def test_dimensions_partition_the_group_algebra():
    for n in range(1, 7):
        by_eig = set()
        for lam in partitions_of(n):
            from shuffle_spectra.combinatorics import horizontal_strip_inners
            from shuffle_spectra.spectrum import eig_strip

            for mu in horizontal_strip_inners(lam):
                by_eig.add(eig_strip(lam, mu))
        total = sum(frobenius_of_eigenspace(n, e).dimension() for e in by_eig)
        assert total == factorial(n)
        r2t_total = sum(r2t_frobenius(n, j).dimension() for j in range(n + 1))
        assert r2t_total == factorial(n)


def test_dimensions_match_spectrum_multiplicities():
    for n in range(1, 7):
        report = spectrum_for_evaluation((1,) * n)
        for eig, mult in report.totals.items():
            assert frobenius_of_eigenspace(n, eig).dimension() == mult


def _relabel_matrix(sigma, words):
    def relabel(v):
        return WordVector({tuple(sigma[x - 1] for x in w): c for w, c in v.items()})

    return operator_matrix(relabel, words)


def _eigenspace_basis(n, eig):
    words = enumerate_words((1,) * n)
    matrix = matrix_sum(operator_matrix(r2r, words), ExactMatrix.identity(len(words)).scale(-eig))
    return words, matrix.nullspace()


def _restricted_trace(basis_matrix, action):
    # trace of the action restricted to the column span of basis_matrix
    gram = basis_matrix.transpose() @ basis_matrix
    moved = basis_matrix.transpose() @ (action @ basis_matrix)
    size = gram.rows
    total = Fraction(0)
    for j in range(size):
        col = gram.solve([row[j] for row in moved.data])
        total += col[j]
    return total


@pytest.mark.parametrize(
    "n,classes,characters",
    [(3, S3_CLASSES, S3_CHARACTERS), (4, S4_CLASSES, S4_CHARACTERS)],
)
def test_left_module_structure_by_characters(n, classes, characters):
    # decompose each eigenspace under card relabeling with character inner
    # products computed from explicit traces
    from itertools import permutations

    def cycle_type(sigma):
        seen, lengths = set(), []
        for start in range(1, n + 1):
            if start in seen:
                continue
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = sigma[x - 1]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    representatives = {}
    for sigma in permutations(range(1, n + 1)):
        representatives.setdefault(cycle_type(sigma), sigma)

    report = spectrum_for_evaluation((1,) * n)
    for eig in report.totals:
        words, basis = _eigenspace_basis(n, eig)
        basis_matrix = ExactMatrix.from_columns(basis)
        traces = {}
        for shape, _ in classes:
            sigma = representatives[shape]
            traces[shape] = _restricted_trace(basis_matrix, _relabel_matrix(sigma, words))
        expansion = frobenius_of_eigenspace(n, eig)
        order = factorial(n)
        for lam, chi in characters.items():
            inner = (
                sum(
                    size * traces[shape] * chi[i]
                    for i, (shape, size) in enumerate(classes)
                )
                / order
            )
            assert inner == expansion.coefficient(lam), (eig, lam)


def test_schur_expansion_text_and_json():
    e = SchurExpansion({(4, 2): 2, (3, 2, 1): 1})
    assert e.to_json() == {"4,2": 2, "3,2,1": 1}
    assert e.coefficient((9, 9)) == 0
    assert SchurExpansion().dimension() == 0
    assert str(SchurExpansion()) == "0"
