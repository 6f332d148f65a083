"""Acceptance suite: one test per acceptance criterion, every check exact.

Each test prints a single PASS line with its runtime when it succeeds; any
mismatch fails the test with the offending data in the assertion message.
The heavyweight item is the exact characteristic polynomial of the 720x720
permutation transition matrix, proved by the spectral certificate in about a
second; the smaller matrices, and every Laplacian with n <= 5, also go
through the CRT charpoly of reference.py as an independent cross-check.
"""

import json
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

from shuffle_spectra.cli import main
from shuffle_spectra.combinatorics import (
    desarrangement_count,
    horizontal_strip_inners,
    is_horizontal_strip,
    partitions_of,
    sign_of_word,
    standard_tableaux,
)
from shuffle_spectra.frobenius import SchurExpansion, frobenius_of_eigenspace
from shuffle_spectra.injective import (
    injective_words,
    laplacian,
    laplacian_spectrum,
    signed_r2r,
)
from shuffle_spectra.lifting import (
    _check_lift_target,
    eigenbasis,
    kernel_basis,
    lift,
    lift_chain,
    normalize_vector,
)
from shuffle_spectra.linalg import IntPolynomial
from shuffle_spectra.specht import project_onto_specht, specht_basis
from shuffle_spectra.spectrum import (
    eig_strip,
    eig_word,
    second_largest,
    spectrum_for_evaluation,
)
from shuffle_spectra.words import (
    WordVector,
    apply_del,
    apply_sh,
    apply_theta,
    certify_r2r_spectra,
    enumerate_words,
    operator_matrix,
    r2r,
    transition_matrix,
    word_from_text,
)

from golden_tables import (
    FIGURE_LENGTH3,
    GOLDEN,
    GOLDEN_DIAG,
    R2R_COUNTS_22,
    R2T_COUNTS_22,
    WORDS_22,
)
from reference import charpoly, eigenvalue_bound, integer_roots, word_rank

W = word_from_text
LETTERS = (1, 2, 3)


def _report(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_transition_matrix_reproduction(capsys):
    started = time.perf_counter()
    payloads = {}
    for shuffle in ("r2t", "r2r"):
        code = main(["transition-matrix", "--shuffle", shuffle, "--evaluation", "2,2"])
        assert code == 0
        payloads[shuffle] = json.loads(capsys.readouterr().out)
    assert payloads["r2t"]["order"] == WORDS_22
    assert payloads["r2t"]["scale"] == "1/4"
    assert payloads["r2t"]["entries"] == R2T_COUNTS_22
    assert payloads["r2r"]["order"] == WORDS_22
    assert payloads["r2r"]["scale"] == "1/16"
    assert payloads["r2r"]["entries"] == R2R_COUNTS_22
    with capsys.disabled():
        _report(1, started, 1.0, "both 6x6 transition matrices emitted bit-exactly")


def test_criterion_02_golden_spectrum_tables():
    started = time.perf_counter()
    rows_checked = 0
    for n, golden in GOLDEN.items():
        report = spectrum_for_evaluation((1,) * n)
        rows = [e for e in report.entries if e.multiplicity]
        assert len(rows) == len(golden), f"row count differs for n={n}"
        for e, (d, f, mult, outer_binom, inner_binom, eig) in zip(rows, golden):
            assert (
                e.desarrangements,
                e.kostka,
                e.multiplicity,
                e.outer_binomial,
                e.inner_binomial,
                e.eig,
            ) == (d, f, mult, outer_binom, inner_binom, eig), (n, e)
            assert e.diag == eig - outer_binom + inner_binom
            rows_checked += 1
        if n in GOLDEN_DIAG:
            assert [e.diag for e in rows] == GOLDEN_DIAG[n]
        assert report.dimension == factorial(n)
    _report(2, started, 10.0, f"{rows_checked} strip rows match the published tables")


def _check_charpoly_matches_prediction(nu):
    report = spectrum_for_evaluation(nu)
    counts = transition_matrix("r2r", nu).counts
    poly = charpoly(counts)
    predicted = IntPolynomial.from_integer_roots(report.totals)
    assert poly == predicted, f"characteristic polynomial mismatch on {nu}"
    roots, rest = integer_roots(poly, eigenvalue_bound(counts))
    assert rest.degree == 0 and all(r >= 0 for r in roots), nu


def test_criterion_03_oracle_completeness():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for nu in partitions_of(n):
            _check_charpoly_matches_prediction(nu)
            checked += 1
    # The 720x720 case by the exact spectral certificate instead of CRT: it
    # proves the same charpoly equality (see certify_r2r_spectra).
    six = (1,) * 6
    totals = spectrum_for_evaluation(six).totals
    assert certify_r2r_spectra(6, {six: totals}) == [], "certificate rejects (1,)*6"
    assert all(type(r) is int and r >= 0 for r in totals), totals
    checked += 1
    _report(
        3,
        started,
        900.0,
        f"{checked} transition matrices factor exactly as predicted, 720x720 included",
    )


EXAMPLE_BASIS_32 = {
    11: [
        {"11122": 2, "12112": -1, "12121": -1, "21112": -1, "21121": -1, "22111": 2},
    ],
    7: [
        {
            "11212": 2,
            "11221": -2,
            "12112": 1,
            "12121": 1,
            "12211": -2,
            "21112": -3,
            "21121": 1,
            "21211": 2,
        },
    ],
    5: [
        {"11122": 1, "11212": -1, "11221": -1, "12211": 1, "21211": 1, "22111": -1},
    ],
    0: [
        {"11212": 1, "11221": -1, "12112": -1, "12211": 1, "21121": 1, "21211": -1},
        {"12112": 1, "12121": -2, "12211": 1, "21112": -1, "21121": 2, "21211": -1},
    ],
}


def test_criterion_04_eigenbasis_soundness():
    started = time.perf_counter()
    for n in range(0, 8):
        for shape in partitions_of(n):
            entries = eigenbasis(shape)
            vectors = [v for e in entries for v in e.vectors]
            assert len(vectors) == len(standard_tableaux(shape)), shape
            assert word_rank(vectors) == len(vectors), shape
            for e in entries:
                assert len(e.vectors) == desarrangement_count(e.inner), (shape, e.inner)
                assert e.eigenvalue == eig_strip(shape, e.inner)
                for v in e.vectors:
                    assert r2r(v) == e.eigenvalue * v, (shape, e.inner)
    by_eig = {e.eigenvalue: e for e in eigenbasis((3, 2))}
    for eig, expected_vectors in EXAMPLE_BASIS_32.items():
        expected = [
            normalize_vector(WordVector({W(k): c for k, c in coeffs.items()}))
            for coeffs in expected_vectors
        ]
        got = list(by_eig[eig].vectors)
        if eig != 0:
            assert got == expected, f"worked eigenvector differs at eigenvalue {eig}"
        else:
            # the kernel pair is normalized differently; compare spans exactly
            assert len(got) == len(expected) == 2
            assert word_rank(got + expected) == 2
    _report(4, started, 60.0, "eigenbases of all shapes up to size 7 verified exactly")


def test_criterion_05_kernel_dimensions():
    started = time.perf_counter()
    for n in range(0, 8):
        for shape in partitions_of(n):
            assert len(kernel_basis(shape)) == desarrangement_count(shape), shape
    assert kernel_basis((2, 1)) == (
        WordVector({W("aab"): 1, W("aba"): -2, W("baa"): 1}),
    )
    assert kernel_basis((3, 1)) == (
        WordVector({W("aaab"): 1, W("aaba"): -3, W("abaa"): 3, W("baaa"): -1}),
    )
    _report(5, started, 120.0, "kernel dimensions match desarrangement counts up to size 7")


def _all_words(max_len: int):
    for length in range(max_len + 1):
        yield from product(LETTERS, repeat=length)


def test_criterion_06_identity_suite():
    started = time.perf_counter()
    # commutator identities of insertions, deletions and replacements
    for w in _all_words(5):
        n = len(w)
        u = WordVector.unit(w)
        for a in LETTERS:
            for b in LETTERS:
                delta = (n + 1) * u if a == b else WordVector()
                assert apply_del(b, apply_sh(a, u)) - apply_sh(a, apply_del(b, u)) == (
                    apply_theta(b, a, u) + delta
                ), (w, a, b)
                assert apply_theta(a, b, apply_sh(a, u)) - apply_sh(
                    a, apply_theta(a, b, u)
                ) == apply_sh(b, u), (w, a, b)
                assert apply_del(a, apply_theta(b, a, u)) - apply_theta(
                    b, a, apply_del(a, u)
                ) == apply_del(b, u), (w, a, b)
    # both commutator forms for the full shuffle; the first tolerates any
    # replacement range covering the letters in play, the second needs the
    # range to be exactly the n letters of the working alphabet
    for w in _all_words(5):
        n = len(w)
        u = WordVector.unit(w)
        for a in LETTERS:
            lhs = r2r(apply_sh(a, u)) - apply_sh(a, r2r(u))
            first = (n + 1) * apply_sh(a, u)
            for b in range(1, max(n, max(LETTERS)) + 1):
                first = first + apply_sh(b, apply_theta(b, a, u))
            assert lhs == first, (w, a)
            if a <= n and all(x <= n for x in w):
                second = apply_sh(a, u)
                for b in range(1, n + 1):
                    second = second + apply_theta(b, a, apply_sh(b, u))
                assert lhs == second, (w, a)
    # replacements lowering the letter kill every Specht module
    for n in range(1, 6):
        for shape in partitions_of(n):
            for wt in specht_basis(shape).vectors:
                for b in range(2, len(shape) + 2):
                    for a in range(1, b):
                        assert apply_theta(b, a, wt) == WordVector(), (shape, a, b)
    # closed form equals insertion plus projection
    for n in range(1, 6):
        for shape in partitions_of(n):
            for row in range(1, len(shape) + 2):
                try:
                    _check_lift_target(shape, row)
                except ValueError:
                    continue
                for wt in specht_basis(shape).vectors:
                    target = _check_lift_target(shape, row)
                    assert lift(shape, row, wt) == project_onto_specht(
                        target, apply_sh(row, wt)
                    )
    # deferring every intermediate projection to the end changes nothing
    for n in range(1, 6):
        for outer in partitions_of(n):
            for inner in horizontal_strip_inners(outer):
                rows = []
                for i in range(1, len(outer) + 1):
                    inner_part = inner[i - 1] if i <= len(inner) else 0
                    rows.extend([i] * (outer[i - 1] - inner_part))
                for wt in specht_basis(inner).vectors:
                    raw = wt
                    for row in sorted(rows):
                        raw = apply_sh(row, raw)
                    assert lift_chain(outer, inner, wt) == project_onto_specht(
                        outer, raw
                    ), (outer, inner)
    # composites across a doubled column vanish identically
    for n in range(1, 6):
        for outer in partitions_of(n):
            for m in range(n):
                for inner in partitions_of(m):
                    if (
                        len(inner) > len(outer)
                        or any(inner[i] > outer[i] for i in range(len(inner)))
                        or is_horizontal_strip(outer, inner)
                    ):
                        continue
                    for wt in specht_basis(inner).vectors:
                        assert lift_chain(outer, inner, wt) == WordVector(), (
                            outer,
                            inner,
                        )
    # inverse-gap cancellation guarding the closed-form coefficients
    import random

    rng = random.Random(2024)
    for size in range(2, 7):
        for _ in range(25):
            xs: set[Fraction] = set()
            while len(xs) < size:
                xs.add(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
            points = list(xs)
            total = sum(_inverse_gap_product(points, k) for k in range(size))
            assert total == 0
    _report(6, started, 120.0, "operator identity suite exact on its exhaustive domains")


def _inverse_gap_product(points, k):
    term = Fraction(1)
    for j, xj in enumerate(points):
        if j != k:
            term /= points[k] - xj
    return term


def test_criterion_07_word_and_strip_spectra_agree():
    started = time.perf_counter()
    for n in range(1, 7):
        for nu in partitions_of(n):
            observed = Counter(eig_word(w) for w in enumerate_words(nu))
            assert observed == Counter(spectrum_for_evaluation(nu).totals), nu
    for text, suffix, q, q_suffix, eig in FIGURE_LENGTH3:
        from shuffle_spectra.combinatorics import even_ascent_suffix, rsk

        word = W(text)
        assert even_ascent_suffix(word) == W(suffix), text
        assert rsk(word)[1] == q, text
        assert rsk(W(suffix))[1] == q_suffix, text
        assert eig_word(word) == eig, text
    assert eig_word(W("234133134")) == 22
    _report(7, started, 30.0, "per-word eigenvalues match strip spectra up to size 6")


def test_criterion_08_second_eigenvalue_and_hook_spectra():
    started = time.perf_counter()
    for n in range(2, 7):
        for nu in partitions_of(n):
            if nu == (n,):
                continue
            assert second_largest(nu) == ((n - 2) * (n + 1), len(nu) - 1), nu
    for n in range(2, 8):
        entries = eigenbasis((n - 1, 1))
        observed = sorted(
            (e.eigenvalue, len(e.vectors)) for e in entries
        )
        expected = sorted((n * (n - 1) - j * (j - 1), 1) for j in range(2, n + 1))
        assert observed == expected, n
    _report(8, started, 120.0, "second eigenvalues and hook-shape spectra verified")


def _sign_twist(v):
    return WordVector({w: sign_of_word(w) * c for w, c in v.items()})


def test_criterion_09_injective_words_integrality():
    started = time.perf_counter()
    for n in range(1, 6):
        for r in range(0, n + 1):
            matrix = laplacian(n, r)
            roots, rest = integer_roots(charpoly(matrix), eigenvalue_bound(matrix))
            assert rest.degree == 0, f"non-integral Laplacian spectrum at n={n}, r={r}"
            assert sum(roots.values()) == len(injective_words(n, r))
            # the certified spectrum is the CRT one, key order included
            assert list(laplacian_spectrum(n, r).items()) == list(roots.items()), (n, r)
        words = injective_words(n, n)
        signed = operator_matrix(signed_r2r, words)
        assert operator_matrix(lambda v: _sign_twist(r2r(_sign_twist(v))), words) == signed, n
    _report(9, started, 60.0, "Laplacian spectra split over the integers up to n=5")


def test_criterion_10_frobenius_characteristics():
    started = time.perf_counter()
    assert frobenius_of_eigenspace(6, 9) == SchurExpansion(
        {(3, 2, 1): 1, (4, 1, 1): 2, (4, 2): 2}
    )
    for n in range(1, 7):
        report = spectrum_for_evaluation((1,) * n)
        for eig, mult in report.totals.items():
            assert frobenius_of_eigenspace(n, eig).dimension() == mult, (n, eig)
        all_eigs = {
            eig_strip(lam, mu)
            for lam in partitions_of(n)
            for mu in horizontal_strip_inners(lam)
        }
        assert sum(frobenius_of_eigenspace(n, e).dimension() for e in all_eigs) == factorial(n)
    _report(10, started, 60.0, "Schur expansions match every spectral multiplicity")
