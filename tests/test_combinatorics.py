import itertools
import re
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from shuffle_spectra import combinatorics
from shuffle_spectra.combinatorics import (
    check_partition,
    desarrangement_count,
    diag,
    dominates,
    entry_positions,
    even_ascent_suffix,
    first_ascent,
    horizontal_strip_inners,
    is_desarrangement,
    is_horizontal_strip,
    is_partition,
    kostka,
    multiset_arrangements,
    partitions_of,
    rsk,
    semistandard_tableaux,
    smallest_ascent,
    standard_tableaux,
    tableau_shape,
)
from shuffle_spectra.words import word_from_text

from golden_tables import FIGURE_LENGTH3
from reference import is_standard, tableau_content

words_st = st.lists(st.integers(min_value=1, max_value=4), max_size=8).map(tuple)


def test_diag_examples():
    assert diag((4, 2, 2, 1), (3, 2, 1)) == -1
    assert diag((3, 2), (3, 2)) == 0
    assert diag((2, 1)) == 0
    assert diag((2, 1), (1, 1)) == 1


def test_horizontal_strip_detection():
    assert not is_horizontal_strip((3, 2), (1, 1))
    assert is_horizontal_strip((3, 1), (2,))
    assert is_horizontal_strip((2, 2), (2, 2))


def test_strip_inners_match_brute_force():
    def sub_partitions(outer):
        out = []
        for n in range(sum(outer) + 1):
            for p in partitions_of(n):
                if len(p) <= len(outer) and all(p[i] <= outer[i] for i in range(len(p))):
                    out.append(p)
        return out

    for outer in [p for n in range(7) for p in partitions_of(n)]:
        expected = sorted(
            mu for mu in sub_partitions(outer) if is_horizontal_strip(outer, mu)
        )
        assert list(horizontal_strip_inners(outer)) == expected


def test_strip_inners_examples():
    assert set(horizontal_strip_inners((3, 2))) == {
        (2,), (3,), (2, 1), (2, 2), (3, 1), (3, 2),
    }
    assert horizontal_strip_inners((1,)) == ((), (1,))
    # the column condition forces the first part to stay full
    assert set(horizontal_strip_inners((2, 2))) == {(2,), (2, 1), (2, 2)}


def test_dominance():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    for p in partitions_of(5):
        assert dominates(p, p)
    with pytest.raises(ValueError):
        dominates((2,), (1, 1, 1))


def test_standard_tableaux_counts():
    assert len(standard_tableaux((3,))) == 1
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((3, 2))) == 5
    for shape in partitions_of(5):
        for t in standard_tableaux(shape):
            assert is_standard(t) and tableau_shape(t) == shape


def test_standard_tableaux_reading_order():
    tabs = standard_tableaux((2, 2))
    assert tabs == (((1, 2), (3, 4)), ((1, 3), (2, 4)))


def test_kostka_examples():
    assert kostka((3, 1), (1, 1, 1, 1)) == 3
    for nu in partitions_of(5):
        if len(nu) >= 2:
            assert kostka((4, 1), nu) == len(nu) - 1
        assert kostka(nu, nu) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))


def test_kostka_positive_iff_dominates():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                assert (kostka(lam, nu) > 0) == dominates(lam, nu)


def test_semistandard_content():
    for t in semistandard_tableaux((3, 2), (2, 2, 1)):
        assert tableau_content(t) == (2, 2, 1)


def test_desarrangement_small_cases():
    assert is_desarrangement(())
    assert not is_desarrangement(((1,),))
    size4 = [
        tableau_shape(t)
        for shape in partitions_of(4)
        for t in standard_tableaux(shape)
        if is_desarrangement(t)
    ]
    assert sorted(size4) == sorted([(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])


def test_desarrangement_counts():
    for n in range(1, 8):
        assert desarrangement_count((n,)) == 0
    assert desarrangement_count((1, 1)) == 1
    assert desarrangement_count((2, 2)) == 1
    assert desarrangement_count(()) == 1


def _desarrangement_by_column_run(t) -> bool:
    # some even prefix 1..2r fills the top of the first column and 2r+1
    # does not continue it
    n = sum(tableau_shape(t))
    column = [t[i][0] for i in range(len(t))]
    for r in range(n // 2 + 1):
        if all(i < len(column) and column[i] == i + 1 for i in range(2 * r)):
            if 2 * r + 1 > n or (2 * r + 1) not in column:
                return True
    return False


def _desarrangement_by_corner_entry(t) -> bool:
    n = sum(tableau_shape(t))
    if t and len(t[0]) >= 2:
        return t[0][1] % 2 == 1
    return n % 2 == 0


def test_desarrangement_characterizations_agree():
    for n in range(8):
        for shape in partitions_of(n):
            for t in standard_tableaux(shape):
                expected = is_desarrangement(t)
                assert _desarrangement_by_column_run(t) == expected, t
                assert _desarrangement_by_corner_entry(t) == expected, t


def test_standard_count_equals_strip_desarrangement_sum():
    # the numerical shadow of the strip decomposition of standard tableaux
    for n in range(8):
        for shape in partitions_of(n):
            total = sum(
                desarrangement_count(mu) for mu in horizontal_strip_inners(shape)
            )
            assert total == len(standard_tableaux(shape))


def test_rsk_worked_example():
    p, q = rsk(word_from_text("234133134"))
    assert p == ((1, 1, 3, 3, 3, 4), (2, 3), (4,))
    assert q == ((1, 2, 3, 6, 8, 9), (4, 5), (7,))
    p2, q2 = rsk(word_from_text("4133134"))
    assert tableau_shape(q2) == (5, 1, 1)
    assert [row[0] for row in q2] == [1, 2, 5]
    assert p2 == ((1, 1, 3, 3, 4), (3,), (4,))


def test_rsk_weakly_increasing_word():
    w = (1, 1, 2, 3, 3)
    p, q = rsk(w)
    assert p == (w,) and q == ((1, 2, 3, 4, 5),)


@settings(deadline=None, max_examples=150)
@given(words_st)
def test_rsk_shapes_agree(w):
    p, q = rsk(w)
    assert tableau_shape(p) == tableau_shape(q)
    assert is_standard(q)
    assert tableau_content(p) == tuple(
        w.count(v) for v in range(1, (max(w) if w else 0) + 1)
    )


def test_rsk_bijection_on_permutations():
    from itertools import permutations

    for n in range(1, 6):
        images = set()
        for w in permutations(range(1, n + 1)):
            images.add(rsk(w))
        assert len(images) == factorial(n)
        expected = sum(len(standard_tableaux(s)) ** 2 for s in partitions_of(n))
        assert len(images) == expected
    assert sum(len(standard_tableaux(s)) ** 2 for s in partitions_of(6)) == factorial(6)


@settings(deadline=None, max_examples=150)
@given(words_st.filter(bool))
def test_recording_tableau_tracks_word_ascents(w):
    _, q = rsk(w)
    assert first_ascent(w) == smallest_ascent(q)


def test_first_ascent_examples():
    assert first_ascent(word_from_text("4133134")) == 2
    assert first_ascent((5, 4, 3, 2, 1)) == 5
    assert first_ascent((1, 1)) == 1
    with pytest.raises(ValueError):
        first_ascent(())


def test_even_ascent_suffix_examples():
    assert even_ascent_suffix(word_from_text("234133134")) == word_from_text("4133134")
    assert even_ascent_suffix((1, 1, 1)) == ()
    assert even_ascent_suffix((2, 1, 1)) == (2, 1, 1)
    for text, suffix, *_ in FIGURE_LENGTH3:
        assert even_ascent_suffix(word_from_text(text)) == word_from_text(suffix)


def test_entry_positions_roundtrip():
    t = ((1, 3), (2,))
    assert entry_positions(t) == {1: (1, 1), 3: (1, 2), 2: (2, 1)}


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=7))
@example([])
@example([3, 1, 2, 1])
@example([2, 2, 2])
def test_multiset_arrangements_are_the_sorted_distinct_permutations(values):
    assert multiset_arrangements(values) == sorted(set(itertools.permutations(values)))


def test_multiset_arrangements_of_a_long_row_walk_no_permutations(monkeypatch):
    # a row of twelve 1s and one 2 has 13! orderings but only 13 distinct ones
    def refuse(*args):
        raise AssertionError("itertools.permutations called")

    monkeypatch.setattr(itertools, "permutations", refuse)
    monkeypatch.setattr(combinatorics, "permutations", refuse, raising=False)
    expected = [(1,) * k + (2,) + (1,) * (12 - k) for k in range(12, -1, -1)]
    assert multiset_arrangements((1,) * 12 + (2,)) == expected


def test_bool_parts_are_not_a_partition():
    # bool is a subclass of int, but True is no part
    for parts in [(True,), (2, True), (False,)]:
        assert not is_partition(parts)
        with pytest.raises(ValueError, match="not a partition"):
            check_partition(parts)

    class Part(int):
        pass

    assert check_partition((Part(2), 1)) == (2, 1)


def test_tableau_contents_must_be_counts():
    # the content of a tableau is an evaluation: non-negative int counts, by
    # the one rule that words and the CLI use; (True, 2) and (1.0, 2.0) equal
    # (1, 2), so they are refused even once its tableaux are cached
    assert semistandard_tableaux((2, 1), (1, 2)) == (((1, 2), (2,)),)
    assert kostka((2, 1), [1, 2, 0]) == 1
    for content in [(1.5, 0.5, 1), (True, 2), (1.0, 2.0), (2, False, 1), (-1, 4), ("1", 2)]:
        with pytest.raises(ValueError, match=re.escape(f"bad evaluation: {content}")):
            semistandard_tableaux((2, 1), content)
        with pytest.raises(ValueError, match=re.escape(f"bad evaluation: {content}")):
            kostka((2, 1), content)
    with pytest.raises(ValueError, match=re.escape("bad evaluation: (1.5, 0.5)")):
        kostka((2,), (1.5, 0.5))
    with pytest.raises(ValueError, match="not a partition"):
        kostka((True, 2), (1, 2))
