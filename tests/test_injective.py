import math
from fractions import Fraction

import pytest

from shuffle_spectra.injective import (
    _certify_integral_spectrum,
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

from reference import charpoly, eigenvalue_bound, integer_roots, is_symmetric, matrix_sum


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
            assert is_symmetric(lap)
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
                dense = matrix_sum(dense, down.transpose() @ down)
            if r < n:
                up = boundary_matrix(n, r + 1)
                dense = matrix_sum(dense, up @ up.transpose())
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
        poly = charpoly(signed)
        expected = IntPolynomial.from_integer_roots(
            spectrum_for_evaluation((1,) * n).totals
        )
        assert poly == expected


def test_top_laplacian_spectrum_at_six_is_the_shuffle_spectrum():
    # the top Laplacian is the signed r2r, conjugate to r2r by the sign
    # twist, so the strip theory gives its spectrum by an independent route
    totals = spectrum_for_evaluation((1,) * 6).totals
    spectrum = laplacian_spectrum(6, 6)
    assert spectrum == {lam: m for lam, m in totals.items() if m}
    assert list(spectrum) == sorted(spectrum)


def test_certificate_returns_the_spectrum_in_ascending_order():
    for n, r in [(1, 0), (1, 1), (3, 0), (3, 2), (4, 3), (4, 4)]:
        matrix = laplacian(n, r)
        spectrum = _certify_integral_spectrum(matrix, injective_words(n, r))
        roots, rest = integer_roots(charpoly(matrix), eigenvalue_bound(matrix))
        assert rest.degree == 0
        assert list(spectrum.items()) == list(roots.items()), (n, r)
        assert list(spectrum) == sorted(spectrum) and all(spectrum.values())


@pytest.mark.parametrize(
    "kept", [(), ((2, 1, 3, 4),), ((2, 3, 4, 1),)], ids=["none", "transposition", "cycle"]
)
def test_certificate_rejects_a_matrix_that_breaks_the_symmetry(kept):
    # one symmetric pair of entries moved, together with its images under the
    # letter relabellings in kept: still symmetric and still commuting with
    # those, no longer with all of S_4, so each generator is needed
    words = injective_words(4, 3)
    index = {w: i for i, w in enumerate(words)}
    data = [list(row) for row in laplacian(4, 3).data]
    i, j = next((i, j) for i, row in enumerate(data) for j, x in enumerate(row) if x and i < j)
    moved = {(i, j), (j, i)}
    while True:
        images = {
            (index[tuple(s[a - 1] for a in words[x])], index[tuple(s[a - 1] for a in words[y])])
            for x, y in moved
            for s in kept
        }
        if images <= moved:
            break
        moved |= images
    for i, j in moved:
        data[i][j] += 1
    changed = ExactMatrix(data)
    assert is_symmetric(changed) and len(moved) < 2 * len(words)
    with pytest.raises(AssertionError, match="does not commute"):
        _certify_integral_spectrum(changed, words)


def test_certificate_rejects_an_equivariant_matrix_with_irrational_spectrum():
    # right multiplication by (1 2) + 2 (2 3), acting on positions, commutes
    # with relabelling letters; on the standard representation of S_3 it has
    # trace 0 and determinant -3, so eigenvalues +-sqrt(3)
    sympy = pytest.importorskip("sympy")
    words = injective_words(3, 3)
    moves = [((2, 1, 3), 1), ((1, 3, 2), 2)]
    matrix = operator_matrix(
        lambda v: WordVector(
            (apply_permutation(w, tau), m * c) for w, c in v.items() for tau, m in moves
        ),
        words,
    )
    eigenvalues = sympy.Matrix(matrix.data).eigenvals()
    assert eigenvalues == {3: 1, -3: 1, sympy.sqrt(3): 2, -sympy.sqrt(3): 2}
    with pytest.raises(AssertionError, match="is not integral"):
        _certify_integral_spectrum(matrix, words)


def test_certificate_rejects_a_word_list_that_is_not_one_orbit():
    words = injective_words(3, 2)
    matrix = laplacian(3, 2)
    smaller = ExactMatrix([row[:-1] for row in matrix.data[:-1]])
    with pytest.raises(ValueError):
        _certify_integral_spectrum(smaller, words[:-1])
    with pytest.raises(ValueError):
        _certify_integral_spectrum(matrix, words[:-1] + ((1, 1),))



def test_certificate_rejects_a_non_integral_entry():
    # the one scan that finds the nonzero entries and the bound also types them
    words = injective_words(3, 2)
    data = [list(row) for row in laplacian(3, 2).data]
    data[1][4] = Fraction(1, 2)
    data[4][1] = Fraction(1, 2)
    with pytest.raises(ValueError, match="non-integral entry 1/2"):
        _certify_integral_spectrum(ExactMatrix(data), words)
