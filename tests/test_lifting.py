import random
from dataclasses import replace
from fractions import Fraction

import pytest

from shuffle_spectra import lifting
from shuffle_spectra.combinatorics import (
    desarrangement_count,
    horizontal_strip_inners,
    is_horizontal_strip,
    partitions_of,
    standard_tableaux,
)
from shuffle_spectra.lifting import (
    _check_eigenbasis,
    _check_lift_target,
    eigenbasis,
    eigenbasis_for_evaluation,
    kernel_basis,
    lift,
    lift_chain,
    normalize_vector,
)
from shuffle_spectra.linalg import ExactMatrix
from shuffle_spectra.specht import project_onto_specht, specht_basis, specht_coordinates
from shuffle_spectra.spectrum import eig_strip, spectrum_for_evaluation
from shuffle_spectra.words import (
    WordVector,
    apply_sh,
    apply_theta,
    enumerate_words,
    evaluation_of,
    r2r,
    word_from_text,
)

from reference import chain_lift, word_rank

W = word_from_text


def valid_lift_rows(shape):
    for row in range(1, len(shape) + 2):
        try:
            _check_lift_target(shape, row)
        except ValueError:
            continue
        yield row


def test_normalize_vector():
    v = WordVector({W("ab"): Fraction(-10, 3), W("ba"): Fraction(10, 3)})
    assert normalize_vector(v) == WordVector({W("ab"): 1, W("ba"): -1})
    assert normalize_vector(WordVector()) == WordVector()


def test_kernel_bases_of_small_shapes():
    assert kernel_basis((2, 1)) == (
        WordVector({W("aab"): 1, W("aba"): -2, W("baa"): 1}),
    )
    assert kernel_basis((3, 1)) == (
        WordVector({W("aaab"): 1, W("aaba"): -3, W("abaa"): 3, W("baaa"): -1}),
    )
    for n in range(1, 6):
        assert kernel_basis((n,)) == ()
    assert len(kernel_basis(())) == 1


def test_kernel_basis_matches_specht_coordinate_nullspace():
    # reference: the nullspace of r2r in Specht coordinates, which assumes
    # r2r maps the Specht module into itself
    for n in range(0, 7):
        for shape in partitions_of(n):
            basis = specht_basis(shape).vectors
            columns = [specht_coordinates(shape, r2r(w)) for w in basis]
            assert all(col is not None for col in columns), shape
            expected = []
            for coeffs in ExactMatrix.from_columns(columns).nullspace():
                v = WordVector()
                for c, w in zip(coeffs, basis):
                    v = v + c * w
                expected.append(normalize_vector(v))
            kernel = kernel_basis(shape)
            assert kernel == tuple(expected), shape
            for v in kernel:
                assert r2r(v) == WordVector()
                assert specht_coordinates(shape, v) is not None


def test_kernel_general_hook_pattern():
    # alternating binomial pattern down the one-row-plus-one-cell shapes
    import math

    for n in range(2, 7):
        (vec,) = kernel_basis((n - 1, 1))
        expected = WordVector(
            {
                (1,) * (j - 1) + (2,) + (1,) * (n - j): (-1) ** (j - 1) * math.comb(n - 1, j - 1)
                for j in range(1, n + 1)
            }
        )
        assert vec == normalize_vector(expected), n


def test_kernel_dimensions_match_desarrangement_counts():
    for n in range(0, 7):
        for shape in partitions_of(n):
            assert len(kernel_basis(shape)) == desarrangement_count(shape), shape


def test_lift_single_insertion_row_one():
    v = WordVector({W("ab"): 1, W("ba"): -1})
    out = lift((1, 1), 1, v)
    assert out == apply_sh(1, v)
    assert r2r(out) == 4 * out


def test_lift_closed_form_coefficients():
    # one previous row: gap -2
    k21 = kernel_basis((2, 1))[0]
    manual = apply_sh(2, k21) - Fraction(1, 2) * apply_theta(1, 2, apply_sh(1, k21))
    assert lift((2, 1), 2, k21) == manual
    # two previous rows: gaps -5, -3 and the double replacement path
    for wt in specht_basis((3, 2)).vectors:
        manual = (
            apply_sh(3, wt)
            - Fraction(1, 5) * apply_theta(1, 3, apply_sh(1, wt))
            - Fraction(1, 3) * apply_theta(2, 3, apply_sh(2, wt))
            + Fraction(1, 15) * apply_theta(2, 3, apply_theta(1, 2, apply_sh(1, wt)))
        )
        assert lift((3, 2), 3, wt) == manual
    for wt in specht_basis((3, 1, 1)).vectors:
        manual = apply_sh(2, wt) - Fraction(1, 3) * apply_theta(1, 2, apply_sh(1, wt))
        assert lift((3, 1, 1), 2, wt) == manual


def test_lift_rejects_bad_rows():
    with pytest.raises(ValueError):
        lift((2, 2), 2, WordVector())  # target (2,3) is not a partition
    with pytest.raises(ValueError):
        lift((1, 1), 4, WordVector())  # row beyond the first empty one


def test_lift_of_kernel_vector_reaches_worked_eigenvector():
    k31 = kernel_basis((3, 1))[0]
    out = lift((3, 1), 2, k31)
    expected = Fraction(10, 3) * WordVector(
        {
            W("aaabb"): 1,
            W("aabab"): -1,
            W("aabba"): -1,
            W("abbaa"): 1,
            W("babaa"): 1,
            W("bbaaa"): -1,
        }
    )
    assert out == expected
    assert r2r(out) == 5 * out


def test_lift_chain_worked_values():
    k21 = kernel_basis((2, 1))[0]
    assert lift_chain((3, 2), (2, 1), k21) == WordVector(
        {
            W("aaabb"): 4,
            W("abaab"): -2,
            W("ababa"): -2,
            W("baaab"): -2,
            W("baaba"): -2,
            W("bbaaa"): 4,
        }
    )
    assert lift_chain((2, 1), (2, 1), k21) == k21  # empty chain
    # two cells in one column kill the composite
    assert lift_chain((3, 2), (1, 1), WordVector({W("ab"): 1, W("ba"): -1})) == WordVector()


def test_lift_matches_projection_form():
    for n in range(1, 5):
        for shape in partitions_of(n):
            for row in valid_lift_rows(shape):
                for wt in specht_basis(shape).vectors:
                    target = _check_lift_target(shape, row)
                    assert lift(shape, row, wt) == project_onto_specht(
                        target, apply_sh(row, wt)
                    )


def test_lift_matches_chain_sum():
    # the row recursion against the paper's sum over all chains
    for n in range(0, 6):
        for shape in partitions_of(n):
            for row in valid_lift_rows(shape):
                for wt in specht_basis(shape).vectors:
                    assert lift(shape, row, wt) == chain_lift(shape, row, wt), (shape, row)


def test_deferred_projection_matches_stepwise_lifts():
    for n in range(2, 5):
        for outer in partitions_of(n):
            for inner in horizontal_strip_inners(outer):
                if inner == outer:
                    continue
                rows = []
                for i in range(1, len(outer) + 1):
                    inner_part = inner[i - 1] if i <= len(inner) else 0
                    rows.extend([i] * (outer[i - 1] - inner_part))
                for wt in specht_basis(inner).vectors:
                    chained = lift_chain(outer, inner, wt)
                    raw = wt
                    for row in sorted(rows):
                        raw = apply_sh(row, raw)
                    assert chained == project_onto_specht(outer, raw), (outer, inner)


def test_eigenvalue_shift_under_lifting():
    for n in range(1, 5):
        for shape in partitions_of(n):
            for entry in eigenbasis(shape):
                for v in entry.vectors:
                    for row in valid_lift_rows(shape):
                        lifted = lift(shape, row, v)
                        if not lifted:
                            continue
                        part = shape[row - 1] if row <= len(shape) else 0
                        shifted = entry.eigenvalue + (n + 1) + (part + 1) - row
                        assert r2r(lifted) == shifted * lifted, (shape, row)


def test_gap_sum_identity():
    # weighted inverse-gap sums over distinct points cancel
    rng = random.Random(5)
    for size in range(2, 7):
        for _ in range(20):
            xs = set()
            while len(xs) < size:
                xs.add(Fraction(rng.randint(-30, 30), rng.randint(1, 8)))
            xs = list(xs)
            total = Fraction(0)
            for k, xk in enumerate(xs):
                term = Fraction(1)
                for j, xj in enumerate(xs):
                    if j != k:
                        term /= xk - xj
                total += term
            assert total == 0


def test_eigenbasis_of_small_shapes():
    entries = eigenbasis((3, 2))
    assert {e.eigenvalue: len(e.vectors) for e in entries} == {11: 1, 7: 1, 5: 1, 0: 2}
    assert [e.inner for e in entries] == [(2, 1), (2, 2), (3, 1), (3, 2)]
    entries = eigenbasis((3, 1, 1))
    assert {e.eigenvalue: len(e.vectors) for e in entries} == {13: 1, 9: 1, 7: 1, 3: 1, 0: 2}
    entries = eigenbasis((1,))
    assert len(entries) == 1
    assert entries[0].eigenvalue == 1
    assert entries[0].vectors == (WordVector.unit((1,)),)


def test_eigenbasis_matches_strip_eigenvalues():
    for n in range(0, 6):
        for shape in partitions_of(n):
            for entry in eigenbasis(shape):
                assert entry.eigenvalue == eig_strip(shape, entry.inner)
                assert len(entry.vectors) == desarrangement_count(entry.inner)
                assert is_horizontal_strip(shape, entry.inner)


def test_eigenbasis_spans_each_module():
    for n in range(1, 6):
        for shape in partitions_of(n):
            vectors = [v for e in eigenbasis(shape) for v in e.vectors]
            assert len(vectors) == len(standard_tableaux(shape))
            assert word_rank(vectors) == len(vectors)


def test_eigenbasis_for_evaluation_counts():
    from collections import Counter

    evaluations = [(1, 1, 1), (2, 2), (2, 1), (3,), (2, 1, 1)]
    unsorted = [(1, 2), (0, 2), (1, 2, 1), (0, 1, 0, 2)]
    for ev in evaluations + unsorted:
        counts = Counter()
        for _, entry in eigenbasis_for_evaluation(ev):
            counts[entry.eigenvalue] += len(entry.vectors)
            for v in entry.vectors:
                assert all(evaluation_of(w) == ev for w in v.words()), ev
        assert counts == Counter(spectrum_for_evaluation(ev).totals), ev


def test_eigenbasis_for_evaluation_single_row():
    pairs = eigenbasis_for_evaluation((4,))
    assert len(pairs) == 1
    _, entry = pairs[0]
    assert entry.eigenvalue == 16
    assert entry.vectors == (WordVector.unit((1, 1, 1, 1)),)


def test_eigenbasis_for_evaluation_rejects_a_pushed_non_eigenvector(monkeypatch):
    original = lifting.theta_embedding
    calls = []

    def corrupt_first(tab, v):
        pushed = original(tab, v)
        calls.append(tab)
        if len(calls) == 1:
            pushed = pushed + WordVector.unit(min(pushed.words()))
        return pushed

    monkeypatch.setattr(lifting, "theta_embedding", corrupt_first)
    with pytest.raises(AssertionError, match="eigen-equation failed"):
        eigenbasis_for_evaluation((2, 1))


def test_eigenbasis_vectors_verify_by_operator_application():
    for shape in [(2, 2), (3, 1), (2, 1, 1)]:
        for entry in eigenbasis(shape):
            for v in entry.vectors:
                assert r2r(v) == entry.eigenvalue * v
                words = set()
                for w in v.words():
                    words.add(w)
                assert all(len(w) == sum(shape) for w in words)


def check_specht_eigenbasis(shape, entries):
    _check_eigenbasis(
        entries,
        enumerate_words(shape),
        len(standard_tableaux(shape)),
        f"the Specht module of {shape}",
    )


def test_check_eigenbasis_accepts_every_eigenbasis_up_to_size_five():
    for n in range(0, 6):
        for shape in partitions_of(n):
            entries = list(eigenbasis(shape))
            # the per-vector eigen-equation is the reference for the batched check
            for entry in entries:
                for v in entry.vectors:
                    assert r2r(v) == entry.eigenvalue * v
            check_specht_eigenbasis(shape, entries)
            pairs = eigenbasis_for_evaluation(shape)
            words = enumerate_words(shape)
            _check_eigenbasis([e for _, e in pairs], words, len(words), "the word space")


def _corrupt(entries, k, **changes):
    entries = list(entries)
    entries[k] = replace(entries[k], **changes)
    return entries


def test_check_eigenbasis_rejects_and_names_the_first_failing_vector():
    shape = (3, 2)
    entries = list(eigenbasis(shape))
    assert [(e.inner, len(e.vectors)) for e in entries][-1] == ((3, 2), 2)
    v0, v1 = entries[-1].vectors
    first = min(v1.words())
    cases = [
        (
            _corrupt(entries, 1, eigenvalue=entries[1].eigenvalue + 1),
            r"eigen-equation failed for vector 0 of strip \(3, 2\)/\(2, 2\)",
        ),
        (
            _corrupt(entries, 3, vectors=(v0, v1 + WordVector.unit(first))),
            r"eigen-equation failed for vector 1 of strip \(3, 2\)/\(3, 2\)",
        ),
        (_corrupt(entries, 3, vectors=(v0, WordVector())), "zero vector 1 of strip"),
        (_corrupt(entries, 3, vectors=(v0, v0)), "eigenvectors do not span"),
        (_corrupt(entries, 3, vectors=(v0,)), "eigenvectors do not span"),
    ]
    for outside in [(1, 1, 1, 2, 3), (1, 1, 2, 2), (1, 1, 1, 2, 2, 1)]:
        cases.append(
            (
                _corrupt(entries, 3, vectors=(v0, v1 + WordVector.unit(outside))),
                "vector 1 of strip .* not in the Specht module of",
            )
        )
    for corrupted, message in cases:
        with pytest.raises(AssertionError, match=message):
            check_specht_eigenbasis(shape, corrupted)


def test_check_eigenbasis_ranks_by_eigenvalue_not_by_strip():
    # The span check adds the ranks of the blocks of one eigenvalue; a
    # vector repeated in two strips of equal eigenvalue must still fail it.
    nu = (2, 1, 1)
    words = enumerate_words(nu)
    entries = [entry for _, entry in eigenbasis_for_evaluation(nu)]
    strips = {(e.outer, e.inner): k for k, e in enumerate(entries)}
    a, b = strips[(3, 1), (2, 1)], strips[(2, 1, 1), (1, 1)]
    assert entries[a].eigenvalue == entries[b].eigenvalue == 6
    copied = (entries[a].vectors[0],) + entries[b].vectors[1:]
    # each strip alone stays independent, so only the eigenvalue block sees the repeat
    assert word_rank(list(copied)) == len(copied)
    with pytest.raises(AssertionError, match="eigenvectors do not span"):
        _check_eigenbasis(_corrupt(entries, b, vectors=copied), words, len(words), "the word space")


def test_check_eigenbasis_is_exact_beyond_64_bits():
    shape = (3, 1, 1)
    big = 2**64 + 3
    entries = [replace(e, vectors=tuple(big * v for v in e.vectors)) for e in eigenbasis(shape)]
    assert max(abs(c) for e in entries for v in e.vectors for _, c in v.items()) > 2**64
    check_specht_eigenbasis(shape, entries)
    last = entries[-1]
    v = last.vectors[0]
    # +2**64 vanishes in wrapping 64-bit arithmetic
    for bump in (1, 2**64):
        bumped = v + bump * WordVector.unit(max(v.words()))
        corrupted = _corrupt(entries, len(entries) - 1, vectors=(bumped,) + last.vectors[1:])
        with pytest.raises(AssertionError, match="eigen-equation failed for vector 0"):
            check_specht_eigenbasis(shape, corrupted)
