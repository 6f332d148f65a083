import re
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from shuffle_spectra.combinatorics import partitions_of
from shuffle_spectra.spectrum import (
    eig_strip,
    eig_word,
    eig_word_trace,
    r2t_spectrum,
    second_largest,
    spectrum_for_evaluation,
)
from shuffle_spectra.words import enumerate_words, transition_matrix, word_from_text

from golden_tables import FIGURE_LENGTH3, GOLDEN, GOLDEN_DIAG
from reference import charpoly, eigenvalue_bound, integer_roots

W = word_from_text


def test_eig_strip_small_table():
    assert eig_strip((3,), ()) == 9
    assert eig_strip((2, 1), (1, 1)) == 4
    assert eig_strip((2, 1), (2, 1)) == 0
    assert eig_strip((1, 1, 1), (1, 1)) == 1
    assert eig_strip((2, 2), (2, 2)) == 0


def test_eig_strip_second_eigenvalue_formula():
    for n in range(3, 10):
        assert eig_strip((n - 1, 1), (1, 1)) == (n - 2) * (n + 1)


def test_eig_strip_both_forms_agree():
    import math

    from shuffle_spectra.combinatorics import diag

    for n in range(0, 7):
        for outer in partitions_of(n):
            from shuffle_spectra.combinatorics import horizontal_strip_inners

            for inner in horizontal_strip_inners(outer):
                direct = (
                    math.comb(sum(outer) + 1, 2)
                    + diag(outer)
                    - math.comb(sum(inner) + 1, 2)
                    - diag(inner)
                )
                assert eig_strip(outer, inner) == direct


def test_spectrum_totals_for_small_evaluations():
    assert spectrum_for_evaluation((1, 1, 1)).totals == {9: 1, 4: 2, 0: 2, 1: 1}
    assert spectrum_for_evaluation((2, 2)).totals == {16: 1, 10: 1, 6: 1, 4: 1, 0: 2}
    for n in range(1, 7):
        assert spectrum_for_evaluation((n,)).totals == {n * n: 1}


def test_spectrum_dimension_counts():
    for n in range(1, 7):
        for nu in partitions_of(n):
            report = spectrum_for_evaluation(nu)
            assert report.dimension == len(enumerate_words(nu))
    assert spectrum_for_evaluation((1,) * 6).dimension == factorial(6)


def test_spectrum_accepts_rearranged_evaluations():
    report = spectrum_for_evaluation((1, 2))
    assert report.partition == (2, 1)
    assert report.evaluation == (1, 2)
    assert report.totals == spectrum_for_evaluation((2, 1)).totals


def test_spectrum_rows_match_golden_tables():
    for n, golden in GOLDEN.items():
        report = spectrum_for_evaluation((1,) * n)
        rows = [e for e in report.entries if e.multiplicity]
        assert len(rows) == len(golden), n
        for e, expected in zip(rows, golden):
            d, f, mult, outer_binom, inner_binom, eig = expected
            assert e.desarrangements == d
            assert e.kostka == f
            assert e.multiplicity == mult
            assert e.outer_binomial == outer_binom
            assert e.inner_binomial == inner_binom
            assert e.eig == eig
            assert e.diag == eig - outer_binom + inner_binom
        if n in GOLDEN_DIAG:
            assert [e.diag for e in rows] == GOLDEN_DIAG[n]


def test_eigenvalues_non_negative_and_stationary_simple():
    for n in range(1, 8):
        for nu in partitions_of(n):
            report = spectrum_for_evaluation(nu)
            assert all(e >= 0 for e in report.totals)
            assert report.totals[n * n] == 1
            for e in report.entries:
                if e.inner != e.outer and e.desarrangements:
                    assert e.eig >= 1


def test_eig_word_examples():
    assert eig_word(W("234133134")) == 22
    assert eig_word(()) == 0
    for text, _, q, q_suffix, eig in FIGURE_LENGTH3:
        trace = eig_word_trace(W(text))
        assert trace.eig == eig, text
        from shuffle_spectra.combinatorics import rsk, tableau_shape

        assert rsk(W(text))[1] == q
        assert rsk(trace.suffix)[1] == q_suffix
        assert trace.shape == tableau_shape(q)


def test_eig_word_trace_terms():
    trace = eig_word_trace(W("234133134"))
    assert (trace.head, trace.tail) == (45 + 12, 28 + 7)
    assert trace.shape == (6, 2, 1)
    assert trace.suffix_shape == (5, 1, 1)
    assert trace.suffix == W("4133134")


def test_word_eigenvalues_match_strip_multiplicities():
    for n in range(1, 6):
        for nu in partitions_of(n):
            observed = Counter(eig_word(w) for w in enumerate_words(nu))
            assert observed == Counter(spectrum_for_evaluation(nu).totals), nu


def test_second_largest():
    assert second_largest((1,) * 5) == (18, 4)
    assert second_largest((2, 2)) == (10, 1)
    assert second_largest((1, 1)) == (0, 1)
    with pytest.raises(ValueError, match="^one-row evaluations have a single eigenvalue$"):
        second_largest((4,))
    # no letters: refused up front, naming the evaluation
    for empty in [(), (0, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"evaluation {empty} has no letters")):
            second_largest(empty)


def test_second_largest_matches_spectrum_for_all_small_evaluations():
    for n in range(2, 7):
        for nu in partitions_of(n):
            if nu == (n,):
                continue
            value, mult = second_largest(nu)
            assert value == (n - 2) * (n + 1)
            assert mult == len(nu) - 1


def test_r2t_spectrum_trivial_cases():
    for n in range(1, 6):
        assert r2t_spectrum((n,)) == {n: 1}
    assert r2t_spectrum((1, 1, 1)) == {3: 1, 1: 3, 0: 2}


def test_r2t_spectrum_matches_brute_force():
    # the inner-size-to-eigenvalue convention is pinned by diagonalization
    for n in range(1, 5):
        for nu in partitions_of(n):
            tm = transition_matrix("r2t", nu)
            poly = charpoly(tm.counts)
            roots, rest = integer_roots(poly, eigenvalue_bound(tm.counts))
            assert rest.degree == 0, (nu, rest)
            assert roots == r2t_spectrum(nu), nu
            assert n - 1 not in roots


def test_probability_totals():
    report = spectrum_for_evaluation((2, 2))
    assert report.probability_totals()[Fraction(1)] == 1
    assert report.probability_totals()[Fraction(10, 16)] == 1
