import math

import pytest

from shuffle_spectra.injective import (
    boundary,
    boundary_matrix,
    coboundary,
    injective_words,
    laplacian,
    laplacian_spectrum,
    sign_of_word,
    signed_r2r,
)
from shuffle_spectra.linalg import ExactMatrix
from shuffle_spectra.spectrum import spectrum_for_evaluation
from shuffle_spectra.words import WordVector, apply_permutation, operator_matrix, r2r


def signed_r2r_matrix(n, r):
    return operator_matrix(signed_r2r, injective_words(n, r))


def sign_twist(v):
    return WordVector({w: sign_of_word(w) * c for w, c in v.items()})


def sign_conjugated_r2r_matrix(n, r):
    return operator_matrix(lambda v: sign_twist(r2r(sign_twist(v))), injective_words(n, r))


def test_injective_word_enumeration():
    assert injective_words(3, 2) == (
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    )
    for n in range(0, 6):
        for r in range(0, n + 1):
            words = injective_words(n, r)
            assert len(words) == math.perm(n, r)
    with pytest.raises(ValueError):
        injective_words(2, 3)


def test_boundary_of_short_words():
    assert boundary(2, 2, WordVector.unit((1, 2))) == WordVector({(2,): -1, (1,): 1})
    assert boundary(3, 1, WordVector.unit((2,))) == WordVector({(): -1})
    with pytest.raises(ValueError):
        boundary(3, 0, WordVector.unit(()))
    with pytest.raises(ValueError):
        boundary(3, 2, WordVector.unit((1, 1)))


def test_boundary_squares_to_zero():
    for n in range(1, 6):
        for r in range(2, n + 1):
            composite = boundary_matrix(n, r - 1) @ boundary_matrix(n, r)
            assert all(x == 0 for row in composite.data for x in row), (n, r)


def test_coboundary_is_adjoint():
    for n in range(1, 5):
        for r in range(0, n):
            down = boundary_matrix(n, r + 1)
            sources = injective_words(n, r)
            targets = injective_words(n, r + 1)
            for i, u in enumerate(sources):
                image = coboundary(n, r, WordVector.unit(u))
                for j, v in enumerate(targets):
                    assert image.coefficient(v) == down.data[i][j]


def test_coboundary_of_empty_word():
    assert coboundary(2, 0, WordVector.unit(())) == WordVector({(1,): -1, (2,): -1})
    with pytest.raises(ValueError):
        coboundary(2, 2, WordVector.unit((1, 2)))


def test_laplacian_smallest_case():
    assert laplacian(1, 1) == type(laplacian(1, 1))([[1]])


def test_laplacian_symmetric_and_psd():
    for n in range(1, 5):
        for r in range(0, n + 1):
            lap = laplacian(n, r)
            assert lap.is_symmetric()
            spectrum = laplacian_spectrum(n, r)
            assert all(e >= 0 for e in spectrum)
            assert sum(spectrum.values()) == len(injective_words(n, r))


def test_laplacian_matches_dense_definition():
    for n in range(1, 5):
        for r in range(0, n + 1):
            size = len(injective_words(n, r))
            dense = ExactMatrix.zeros(size, size)
            if r >= 1:
                down = boundary_matrix(n, r)
                dense = dense + down.transpose() @ down
            if r < n:
                up = boundary_matrix(n, r + 1)
                dense = dense + up @ up.transpose()
            assert laplacian(n, r) == dense, (n, r)


def test_laplacian_commutes_with_boundary():
    for n in range(1, 5):
        for r in range(1, n + 1):
            down = boundary_matrix(n, r)
            assert laplacian(n, r - 1) @ down == down @ laplacian(n, r)


def test_top_laplacian_is_signed_shuffle():
    for n in range(1, 5):
        assert laplacian(n, n) == signed_r2r_matrix(n, n)


def test_signed_r2r_smallest_cases():
    assert signed_r2r(WordVector.unit((1,))) == WordVector.unit((1,))
    assert signed_r2r(WordVector.unit((1, 2))) == WordVector({(1, 2): 2, (2, 1): -2})
    with pytest.raises(ValueError):
        signed_r2r(WordVector.unit((1, 1)))


def test_sign_is_multiplicative_under_position_action():
    from itertools import permutations

    for r in range(1, 5):
        for word in injective_words(4, r):
            for tau in permutations(range(1, r + 1)):
                sign_tau = sign_of_word(tau)
                assert sign_of_word(apply_permutation(word, tau)) == sign_tau * sign_of_word(word)


def test_sign_conjugation_identity():
    for n in range(1, 5):
        for r in range(1, n + 1):
            assert sign_conjugated_r2r_matrix(n, r) == signed_r2r_matrix(n, r)


def test_signed_and_plain_operators_share_spectra():
    # conjugate operators: same characteristic polynomial; on full-length
    # words this matches the permutation shuffle spectrum
    from shuffle_spectra.linalg import IntPolynomial

    for n in range(1, 5):
        signed = signed_r2r_matrix(n, n)
        poly = signed.charpoly()
        expected = IntPolynomial.from_integer_roots(
            spectrum_for_evaluation((1,) * n).totals
        )
        assert poly == expected
