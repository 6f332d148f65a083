import random
import re
from fractions import Fraction
from math import factorial

import pytest

from shuffle_spectra.combinatorics import (
    kostka,
    partitions_of,
    semistandard_tableaux,
    standard_tableaux,
)
from shuffle_spectra.specht import (
    gram_matrix,
    polytabloid,
    project_onto_specht,
    specht_basis,
    specht_coordinates,
    theta_embedding,
    word_of_tableau,
)
from shuffle_spectra.words import (
    WordVector,
    apply_permutation,
    apply_sh,
    apply_theta,
    enumerate_words,
    r2r,
    word_from_text,
)

from reference import theta_by_positions, word_rank

W = word_from_text


def test_word_of_tableau_examples():
    t = ((2, 8, 6, 7), (5, 3), (1, 4))
    assert word_of_tableau(t) == W("cabcbaaa")
    assert word_of_tableau(((1, 2, 3),)) == (1, 1, 1)
    with pytest.raises(ValueError):
        word_of_tableau(((1, 1), (2,)))


def test_word_of_tableau_intertwines_position_action():
    # relabeling the tableau against a permutation matches the right action
    t = ((2, 8, 6, 7), (5, 3), (1, 4))
    s = ((5, 3, 7, 1), (6, 8), (2, 4))  # s = sigma^{-1}(t)
    sigma = (7, 1, 8, 4, 2, 5, 6, 3)
    assert apply_permutation(word_of_tableau(t), sigma) == word_of_tableau(s)


def test_polytabloids_of_small_shapes():
    assert polytabloid(((1,), (2,))) == WordVector({W("ab"): 1, W("ba"): -1})
    assert polytabloid(((1, 2), (3,))) == WordVector({W("aab"): 1, W("baa"): -1})
    assert polytabloid(((1, 3), (2,))) == WordVector({W("aba"): 1, W("baa"): -1})
    assert polytabloid(((1, 2), (3, 4))) == WordVector(
        {W("aabb"): 1, W("abba"): -1, W("baab"): -1, W("bbaa"): 1}
    )
    assert polytabloid(((1, 3), (2, 4))) == WordVector(
        {W("abab"): 1, W("abba"): -1, W("baab"): -1, W("baba"): 1}
    )
    assert polytabloid(((1, 2, 3),)) == WordVector.unit((1, 1, 1))


def test_specht_basis_sizes():
    assert len(specht_basis((3,))) == 1
    assert len(specht_basis((2, 1))) == 2
    assert len(specht_basis((3, 2))) == 5


def test_gram_matrices_nonsingular():
    for n in range(0, 7):
        for shape in partitions_of(n):
            g = gram_matrix(shape)
            assert g.rank() == len(standard_tableaux(shape)), shape


def test_youngs_rule_dimension_count():
    for n in range(1, 7):
        for nu in partitions_of(n):
            total = sum(
                kostka(lam, nu) * len(standard_tableaux(lam))
                for lam in partitions_of(n)
            )
            assert total == len(enumerate_words(nu)), nu
    assert sum(
        kostka(lam, (1,) * 6) * len(standard_tableaux(lam)) for lam in partitions_of(6)
    ) == factorial(6)


def test_projection_reproduces_worked_decomposition():
    kernel = WordVector({W("aab"): 1, W("aba"): -2, W("baa"): 1})
    v = apply_sh(2, kernel)
    proj = project_onto_specht((2, 2), v)
    assert proj == WordVector(
        {W("aabb"): 2, W("abab"): -1, W("abba"): -1, W("baab"): -1, W("baba"): -1, W("bbaa"): 2}
    )
    assert specht_coordinates((2, 2), proj) == (Fraction(2), Fraction(-1))
    # the complement is orthogonal to the module
    for w in specht_basis((2, 2)).vectors:
        assert w.inner(v - proj) == 0


def test_projection_is_idempotent_and_kills_orthogonal_complement():
    rng = random.Random(7)
    for shape in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]:
        words = enumerate_words(shape)
        v = WordVector({w: rng.randint(-4, 4) for w in words})
        proj = project_onto_specht(shape, v)
        assert project_onto_specht(shape, proj) == proj
        assert project_onto_specht(shape, v - proj) == WordVector()
        for w in specht_basis(shape).vectors:
            assert w.inner(v - proj) == 0


def test_projection_commutes_with_shuffle_operator():
    rng = random.Random(11)
    for n in range(2, 6):
        for shape in partitions_of(n):
            words = enumerate_words(shape)
            v = WordVector({w: rng.randint(-3, 3) for w in words})
            assert project_onto_specht(shape, r2r(v)) == r2r(
                project_onto_specht(shape, v)
            ), shape


def test_specht_modules_are_shuffle_stable():
    for n in range(1, 6):
        for shape in partitions_of(n):
            for w in specht_basis(shape).vectors:
                image = r2r(w)
                assert project_onto_specht(shape, image) == image


def test_theta_embedding_worked_example():
    t = ((2, 1, 1), (3, 2))
    out = theta_embedding(t, WordVector.unit(W("11122")))
    assert out == WordVector(
        {
            W("21132"): 1,
            W("12132"): 1,
            W("11232"): 1,
            W("21123"): 1,
            W("12123"): 1,
            W("11223"): 1,
        }
    )


def test_theta_embedding_special_cases():
    # single replacement move agrees with the letter replacement operator
    t = ((1, 1, 2), (2,))
    assert theta_embedding(t, WordVector.unit(W("1112"))) == apply_theta(1, 2, W("1112"))
    # row-constant fillings act as the identity
    t = ((1, 1, 1), (2, 2))
    v = WordVector({W("11212"): 3, W("21121"): -1})
    assert theta_embedding(t, v) == v
    with pytest.raises(ValueError):
        theta_embedding(t, WordVector.unit(W("1112")))


def _compositions(n):
    """Every sequence of positive parts summing to n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(6))
def test_theta_embedding_matches_the_per_position_definition(n):
    # every semistandard tableau of every shape of size n, on every word of
    # the shape and on three combinations of all of them: one with int
    # coefficients, one with Fractions, some of them integral, and one that
    # gives every other word an int and the rest a Fraction
    rng = random.Random(n)
    for shape in partitions_of(n):
        words = enumerate_words(shape)
        combination = WordVector((w, rng.choice([-3, -2, -1, 1, 2, 3])) for w in words)
        fractions = WordVector(
            (w, Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3]))) for w in words
        )
        mixed = WordVector(
            (w, rng.choice([-2, 1, 3]) if i % 2 else Fraction(rng.choice([-1, 5]), 2))
            for i, w in enumerate(words)
        )
        assert len(words) < 2 or {type(c) for _, c in mixed.items()} == {int, Fraction}
        tableaux = [t for nu in _compositions(n) for t in semistandard_tableaux(shape, nu)]
        assert tableaux, shape
        for t in tableaux:
            for w in words:
                unit = WordVector.unit(w)
                assert theta_embedding(t, unit) == theta_by_positions(t, unit), (t, w)
            for v in [combination, fractions, mixed]:
                pushed = theta_embedding(t, v)
                assert pushed == theta_by_positions(t, v), (t, v)
                # an integral coefficient is a plain int, as WordVector keeps it
                assert all(type(c) is int or c.denominator > 1 for _, c in pushed.items())


def test_theta_embedding_rejects_words_outside_the_evaluation():
    t = ((1, 1, 2), (2,))
    # too short, too long, a letter outside the shape, the wrong multiplicities
    for bad in ["112", "11122", "1113", "2212"]:
        for v in [WordVector.unit(W(bad)), WordVector({W("1112"): 1, W(bad): 2})]:
            with pytest.raises(ValueError, match=re.escape(f"word {W(bad)} has evaluation")):
                theta_embedding(t, v)
            with pytest.raises(ValueError):
                theta_by_positions(t, v)


def test_theta_embedding_is_module_morphism():
    # commutes with the position action on a spot check
    t = ((2, 1, 1), (3, 2))
    sigma = (3, 1, 4, 2, 5)
    base = W("11122")
    lhs = theta_embedding(t, WordVector.unit(apply_permutation(base, sigma)))
    rhs = WordVector(
        {apply_permutation(w, sigma): c for w, c in theta_embedding(t, WordVector.unit(base)).items()}
    )
    assert lhs == rhs


def test_embedded_copies_fill_the_word_space():
    # images of the Specht bases under all embeddings span each word space
    for nu in [(2, 1), (2, 2), (1, 1, 1)]:
        vectors = []
        for lam in partitions_of(sum(nu)):
            for t in semistandard_tableaux(lam, nu):
                for w in specht_basis(lam).vectors:
                    vectors.append(theta_embedding(t, w))
        assert word_rank(vectors) == len(enumerate_words(nu))
