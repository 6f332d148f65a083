import hashlib
import json
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from shuffle_spectra import lifting, linalg, specht, words
from shuffle_spectra.combinatorics import (
    _dominating_partitions,
    desarrangement_count,
    dominates,
    horizontal_strip_inners,
    is_desarrangement,
    is_horizontal_strip,
    partitions_of,
    standard_tableaux,
)
from shuffle_spectra.lifting import (
    EigenbasisEntry,
    _check_lift_target,
    _lift_columns,
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
    _column,
    _lex_words,
    apply_sh,
    apply_theta,
    enumerate_words,
    evaluation_of,
    r2r,
    word_from_text,
)

from reference import chain_lift, check_eigenbasis as _check_eigenbasis, row_lift, word_rank

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


def test_normalize_vector_returns_a_vector_in_normal_form_as_it_is():
    v = WordVector({W("ba"): -6, W("ab"): 5, W("bb"): 3})
    assert normalize_vector(v) is v
    # each of: a common factor, a negative first coefficient, a Fraction
    for other in (2 * v, -v, WordVector({W("ab"): Fraction(5, 2), W("ba"): -3})):
        normal = normalize_vector(other)
        assert normal is not other
        assert normalize_vector(normal) is normal


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


def test_kernel_basis_applies_no_random_to_random(monkeypatch):
    # the kernel is taken through random-to-top, n images per word
    expected = kernel_basis((3, 2, 1))

    def refuse(v):
        raise AssertionError("kernel_basis applied r2r")

    monkeypatch.setattr(words, "r2r", refuse)
    if hasattr(lifting, "r2r"):
        monkeypatch.setattr(lifting, "r2r", refuse)
    assert kernel_basis.__wrapped__((3, 2, 1)) == expected


# two kernels of shapes over the word cap, recorded before the kernels moved to
# packed int columns: the SHA-256 of the JSON list of their vectors
OVER_CAP_KERNELS = {
    (2, 1, 1, 1, 1, 1, 1): "e55b38e6dcf4936318b0ba3c60d93e0ec7a888bdd27d5a01ab35650391bb1cc0",
    (3, 1, 1, 1, 1, 1): "9d6a05a3106d10529285a0b2a306590048a8aea338c5fe01a341f718d934d968",
}


@pytest.mark.parametrize("shape", list(OVER_CAP_KERNELS))
def test_kernel_over_the_word_cap_builds_no_dense_matrix(monkeypatch, shape):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel_basis built an ExactMatrix")

    # transpose builds its result without __init__, through _set_rows
    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    monkeypatch.setattr(ExactMatrix, "_set_rows", refuse)
    monkeypatch.setattr(lifting, "_kernel_columns", lifting._kernel_columns.__wrapped__)
    text = json.dumps([v.to_json() for v in kernel_basis.__wrapped__(shape)])
    assert hashlib.sha256(text.encode()).hexdigest() == OVER_CAP_KERNELS[shape]


def test_eigenbasis_of_size_eight_builds_no_dense_matrix(monkeypatch):
    # (1,)*8 spans all 40320 permutation words, far over the word cap
    def refuse(*args, **kwargs):
        raise AssertionError("eigenbasis built an ExactMatrix")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    monkeypatch.setattr(ExactMatrix, "_set_rows", refuse)
    monkeypatch.setattr(lifting, "_kernel_columns", lifting._kernel_columns.__wrapped__)
    entries = eigenbasis.__wrapped__((1,) * 8)
    assert sum(len(e.vectors) for e in entries) == len(standard_tableaux((1,) * 8))


@pytest.mark.parametrize("n", range(0, 8))
def test_the_non_desarrangement_columns_of_the_kernel_matrix_have_full_rank(n):
    # B holds the r2t images of the Specht basis over the words, one column
    # per standard tableau, from the term table and r2t gathers that
    # _kernel_columns packs; its columns at the tableaux that are not
    # desarrangement tableaux are independent, so dim ker B <= d, the
    # desarrangement count
    for shape in partitions_of(n):
        space = _lex_words(shape)
        gathers = words._move_gathers(space, words._r2t_moves(n))
        terms = specht._polytabloid_terms(shape)
        columns = [
            words._apply_moves(gathers, linalg._scatter([pairs], [1], len(space)))
            for t, pairs in zip(standard_tableaux(shape), terms)
            if not is_desarrangement(t)
        ]
        assert len(columns) == len(terms) - desarrangement_count(shape)
        assert linalg._rank(columns) == len(columns), shape


def test_kernel_falls_back_to_all_rows_when_the_row_pick_misses(monkeypatch):
    # a pick that loses one of its rows leaves a kernel too large: the exact
    # r2t check of the kernel vectors catches it, and the nullspace taken
    # again over all the distinct rows gives the same kernel
    shape = (3, 2, 1)
    expected = lifting._kernel_columns.__wrapped__(shape)
    independent, nullspace, calls = linalg._independent_rows, linalg._nullspace, []

    def drop_first(rows, p):
        return independent(rows, p)[1:]

    def spy(rows, cols):
        calls.append(len(rows))
        return nullspace(rows, cols)

    monkeypatch.setattr(linalg, "_independent_rows", drop_first)
    monkeypatch.setattr(lifting, "_nullspace", spy)
    assert lifting._kernel_columns.__wrapped__(shape) == expected
    picked, everything = calls
    assert picked < everything
    # the rows picked without the patch give the kernel at once
    monkeypatch.setattr(linalg, "_independent_rows", independent)
    calls.clear()
    assert lifting._kernel_columns.__wrapped__(shape) == expected
    assert calls == [picked + 1]


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
    with pytest.raises(ValueError, match="has evaluation"):
        lift((2, 1), 1, WordVector.unit(W("ab")))  # a word outside the evaluation (2, 1)


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


def test_lift_columns_are_integral_multiples_of_lift_chain():
    # every kernel basis lifted at once, packed, against each vector on its own
    for n in range(0, 7):
        for outer in partitions_of(n):
            words = _lex_words(outer)
            for inner in horizontal_strip_inners(outer):
                kernel = kernel_basis(inner)
                if not kernel:
                    continue
                columns, g = _lift_columns(outer, inner, [_column(u, inner) for u in kernel])
                assert g != 0
                assert len(columns) == len(kernel)
                for u, column in zip(kernel, columns):
                    assert all(type(c) is int for c in column), (outer, inner)
                    lifted = WordVector(zip(words, column))
                    exact = lift_chain(outer, inner, u)
                    assert lifted == g * exact, (outer, inner)
                    assert normalize_vector(lifted) == normalize_vector(exact), (outer, inner)


@pytest.mark.parametrize("n", range(0, 7))
def test_column_lift_of_every_kernel_vector_matches_the_chain_sum_and_row_recursion(n):
    # the packed column lift of a whole kernel basis, against the paper's
    # chain sum and the row recursion on word vectors, vector by vector
    for shape, row in ((shape, row) for shape in partitions_of(n) for row in valid_lift_rows(shape)):
        kernel = kernel_basis(shape)
        if not kernel:
            continue
        target = _check_lift_target(shape, row)
        columns, g = _lift_columns(target, shape, [_column(u, shape) for u in kernel])
        words = _lex_words(target)
        for u, column in zip(kernel, columns):
            exact = row_lift(shape, row, u)
            assert WordVector(zip(words, column)) == g * exact, (shape, row)
            assert lift(shape, row, u) == exact, (shape, row)
            assert exact == chain_lift(shape, row, u), (shape, row)


def test_column_lift_is_exact_for_coefficients_beyond_64_bits():
    # the digit width follows the bound carried through the chain, so huge
    # coefficients of either sign lift exactly next to small ones
    chains = [((3, 2), (2, 1)), ((3, 2, 1), (2, 1)), ((4, 2), (3, 1)), ((3, 1, 1), (1, 1))]
    for outer, inner in chains:
        (u, *_) = kernel_basis(inner)
        column = _column(u, inner)
        scales = [2**70, -(3**50), 1, -1]
        lifted, g = _lift_columns(outer, inner, [[s * c for c in column] for s in scales])
        exact = lift_chain(outer, inner, u)
        assert exact, (outer, inner)
        words = _lex_words(outer)
        for s, col in zip(scales, lifted):
            assert WordVector(zip(words, col)) == (s * g) * exact, (outer, inner, s)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 12).flatmap(lambda n: st.sampled_from(partitions_of(n))))
def test_dominating_partitions_are_the_dominance_filter_in_partition_order(nu):
    expected = [p for p in partitions_of(sum(nu)) if dominates(p, nu)]
    assert _dominating_partitions(nu) == expected


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


def test_eigenbasis_for_evaluation_builds_one_image_table_per_tableau():
    specht._image_table.cache_clear()
    specht._position_gathers.cache_clear()
    pairs = eigenbasis_for_evaluation((2, 2, 1, 1))
    pushes = sum(len(entry.vectors) for _, entry in pairs)
    tableaux = {tab for tab, _ in pairs}
    assert (len(tableaux), pushes) == (20, len(enumerate_words((2, 2, 1, 1))))
    info = specht._image_table.cache_info()
    assert (info.misses, info.hits) == (len(tableaux), pushes - len(tableaux))
    # one set of position gathers per shape that has a tableau
    shapes = {tuple(map(len, t)) for t in tableaux}
    assert specht._position_gathers.cache_info().misses == len(shapes)


def test_eigenbasis_for_evaluation_rejects_a_pushed_non_eigenvector(monkeypatch):
    original = lifting.theta_column
    calls = []

    def corrupt_first(tab, v):
        column = original(tab, v)
        calls.append(tab)
        if len(calls) == 1:
            # the unit of the least word of the push, added to it
            targets = specht._image_table(tab)[0]
            column[min((w, i) for i, w in enumerate(targets) if column[i])[1]] += 1
        return column

    monkeypatch.setattr(lifting, "theta_column", corrupt_first)
    with pytest.raises(AssertionError, match="eigen-equation failed"):
        eigenbasis_for_evaluation((2, 1))


def test_eigenbasis_for_evaluation_reports_a_zero_push(monkeypatch):
    # the normal form leaves a zero column as it is, for the check to name
    original = lifting.theta_column
    calls = []

    def zero_second(tab, v):
        calls.append(tab)
        return [0] * len(original(tab, v)) if len(calls) == 2 else original(tab, v)

    monkeypatch.setattr(lifting, "theta_column", zero_second)
    message = r"^zero vector 0 of strip \(2, 1\)/\(1, 1\) in the word space of \(2, 1\)$"
    with pytest.raises(AssertionError, match=message):
        eigenbasis_for_evaluation((2, 1))


def test_eigenbasis_for_evaluation_checks_the_specht_vectors_through_their_images(monkeypatch):
    # the Specht eigenbases of the word space are not checked on their own;
    # a broken lift must still fail the one check on the word space
    original = lifting._lift_columns
    calls = []

    def perturb_third(outer, inner, columns):
        lifted, scale = original(outer, inner, columns)
        calls.append((outer, inner))
        if len(calls) == 3:
            # the unit of the greatest word of the first lift, added to it
            words = _lex_words(outer)
            first = lifted[0]
            first[max((words[i], i) for i, c in enumerate(first) if c)[1]] += 1
        return lifted, scale

    monkeypatch.setattr(lifting, "_lift_columns", perturb_third)
    with pytest.raises(
        AssertionError,
        match=r"eigen-equation failed for vector \d+ of strip .* in the word space of \(2, 1, 1\)",
    ):
        eigenbasis_for_evaluation((2, 1, 1))
    assert len(calls) >= 3


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([(2, 1, 1), (1, 2, 1), (3, 1), (2, 0, 2)]),
    st.lists(st.integers(-4, 4), min_size=12, max_size=12),
    st.sampled_from([1, -1, 2, -6, 2**70, -(3**50)]),
)
@example((2, 1, 1), [0] * 12, 5)
@example((3, 1), [0] * 12, -1)
@example((2, 1, 1), [0] * 11 + [-3], 2)
def test_normal_column_is_normalize_vector_on_int_columns(nu, entries, scale):
    # a column of either sign with a common factor, or the zero column
    words = _lex_words(nu)
    column = [scale * c for c in entries[: len(words)]]
    normal = lifting._normal_column(list(column))
    assert all(type(c) is int for c in normal)
    assert WordVector(zip(words, normal)) == normalize_vector(WordVector(zip(words, column)))
    if not any(column):
        assert normal == column


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


def _replaced(entry, **changes):
    """A new entry with the fields of entry, the named ones changed."""
    fields = {
        "outer": entry.outer,
        "inner": entry.inner,
        "eigenvalue": entry.eigenvalue,
        "vectors": entry.vectors,
    }
    return EigenbasisEntry(*(fields | changes).values())


def _corrupt(entries, k, **changes):
    entries = list(entries)
    entries[k] = _replaced(entries[k], **changes)
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
    entries = [_replaced(e, vectors=tuple(big * v for v in e.vectors)) for e in eigenbasis(shape)]
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


@cache
def _word_space_eigenvectors(nu):
    return [(v, e.eigenvalue) for _, e in eigenbasis_for_evaluation(nu) for v in e.vectors]


def _claimed_column(nu, kind, scale, delta, seed):
    """A vector over the words of nu and the eigenvalue claimed for it, times scale.

    eigen: an eigenvector of the word space, its eigenvalue moved by delta.
    constant: every word once, claimed for (1 + delta) * n**2; r2r maps it
    to n**2 times itself, so delta == -2 makes every digit of the packed
    difference 2 * max |V| * n**2, the most the packing has room for.
    random: entries in [-3, 3], claimed for an eigenvalue in [-n**2, n**2].
    """
    words = enumerate_words(nu)
    n = sum(nu)
    if kind == "eigen":
        pairs = _word_space_eigenvectors(nu)
        v, lam = pairs[seed % len(pairs)]
        lam += delta
    elif kind == "constant":
        v, lam = WordVector((w, 1) for w in words), (1 + delta) * n * n
    else:
        rng = random.Random(seed)
        v = WordVector((w, rng.randint(-3, 3)) for w in words)
        lam = rng.randint(-n * n, n * n)
    return scale * v, lam


claimed_columns = st.tuples(
    st.sampled_from(["eigen", "constant", "random"]),
    st.one_of(
        st.integers(-3, 3),
        st.sampled_from([2**64, -(2**64) - 3, 2**130, Fraction(1, 3), Fraction(-5, 2)]),
    ),
    st.integers(-2, 2),
    st.integers(0, 2**16),
)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([(1, 1), (2, 1), (2, 2), (2, 1, 1), (3, 1)]),
    st.lists(claimed_columns, min_size=1, max_size=6),
)
@example((2, 2), [("constant", 2**64, -2, 0)])
@example((1, 1), [("constant", 1, -2, 0), ("eigen", 1, 1, 0)])
@example((2, 1), [("eigen", 2**130, 1, 0), ("random", 1, 0, 5), ("eigen", 1, 2, 1)])
@example((2, 1), [("eigen", 2**130, 0, 0), ("eigen", Fraction(-5, 2), 0, 1), ("eigen", 3, 0, 2)])
@example((2, 1), [("eigen", 1, 0, 0), ("eigen", -(2**64) - 3, 0, 0), ("eigen", 1, 0, 2)])
def test_packed_check_agrees_with_a_per_vector_check(nu, columns):
    # one strip per vector, so the message names the vector by its strip
    words = enumerate_words(nu)
    claims = [_claimed_column(nu, *column) for column in columns]
    entries = [EigenbasisEntry((j,), (), lam, (v,)) for j, (v, lam) in enumerate(claims)]
    first = next((j for j, (v, lam) in enumerate(claims) if not v or r2r(v) != lam * v), None)
    if first is not None:
        what = "zero" if not claims[first][0] else "eigen-equation failed for"
        expected = f"{what} vector 0 of strip ({first},)/() in the word space"
    elif len(claims) == len(words) and word_rank([v for v, _ in claims]) == len(words):
        expected = None
    else:
        expected = "eigenvectors do not span the word space"
    try:
        _check_eigenbasis(entries, words, len(words), "the word space")
    except AssertionError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_check_eigenbasis_without_vectors_fails_the_span():
    words = enumerate_words((2, 1))
    with pytest.raises(AssertionError, match="eigenvectors do not span the word space"):
        _check_eigenbasis([], words, len(words), "the word space")
