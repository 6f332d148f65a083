import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import pytest

from shuffle_spectra.injective import boundary, coboundary, laplacian, signed_r2r
from shuffle_spectra.lifting import eigenbasis, kernel_basis, normalize_vector
from shuffle_spectra.linalg import ExactMatrix
from shuffle_spectra.words import (
    WordVector,
    apply_del,
    apply_permutation,
    apply_sh,
    apply_theta,
    check_evaluation,
    check_word,
    enumerate_words,
    operator_matrix,
    _apply_moves,
    _move_gathers,
    _r2t_moves,
    _t2r_moves,
    r2r,
    r2t,
    shuffle_product,
    t2r,
    transition_matrix,
    word_from_text,
    word_to_text,
)
from shuffle_spectra.combinatorics import partitions_of

from golden_tables import R2R_COUNTS_22, R2T_COUNTS_22, WORDS_22
from reference import compose_permutations, is_symmetric, r2r_columns

W = word_from_text


def all_words(alphabet: int, max_len: int):
    for length in range(max_len + 1):
        yield from product(range(1, alphabet + 1), repeat=length)


def test_word_text_roundtrip():
    assert word_to_text((1, 1, 2, 2)) == "1122"
    assert word_to_text((1, 12, 3)) == "[1,12,3]"
    assert word_from_text("[1,12,3]") == (1, 12, 3)
    assert word_from_text("abc") == (1, 2, 3)
    assert word_from_text("") == ()
    with pytest.raises(ValueError):
        word_from_text("a!b")


def test_wordvector_algebra():
    v = WordVector({(1, 2): Fraction(1, 2), (2, 1): -1})
    assert (2 * v).coefficient((1, 2)) == 1
    assert (v - v) == WordVector()
    assert not (v - v)
    assert v.inner(WordVector.unit((2, 1))) == -1
    json_form = v.to_json()
    assert WordVector.from_json(json_form) == v


def _coefficient_types(v):
    return {type(c) for _, c in v.items()}


def _entry_types(m):
    return {type(x) for row in m.data for x in row}


def test_integral_coefficients_are_stored_as_int():
    half = Fraction(1, 2)
    w = W("ab")
    assert _coefficient_types(WordVector({w: Fraction(2), W("ba"): 3})) == {int}
    assert _coefficient_types(WordVector([(w, half), (w, half)])) == {int}
    assert _coefficient_types(WordVector({w: half}) + WordVector({w: half})) == {int}
    assert _coefficient_types(2 * WordVector({w: half, W("ba"): 1})) == {int}
    assert _coefficient_types(WordVector({w: 4}) / 2) == {int}
    assert _coefficient_types(WordVector.from_json({"12": "6/3"})) == {int}
    assert _coefficient_types(WordVector.unit(w)) == {int}
    assert type(WordVector.unit(w).coefficient(W("ba"))) is int
    assert type(WordVector.unit(w).inner(WordVector.unit(w))) is int
    # a genuine denominator stays a Fraction
    assert WordVector({w: half, W("ba"): 1}).coefficient(w) == half
    assert _coefficient_types(WordVector({w: half, W("ba"): 1})) == {Fraction, int}
    for v in [r2r(WordVector.unit(W("1122"))), r2t(W("123")), t2r(W("123"))]:
        assert _coefficient_types(v) == {int}
    # matrices follow the same rule
    assert ExactMatrix([[Fraction(4, 2), 3]]).data == ((2, 3),)
    assert _entry_types(ExactMatrix([[Fraction(4, 2), 3]])) == {int}
    tm = transition_matrix("r2r", (2, 1))
    assert _entry_types(tm.counts) == {int}
    assert _entry_types(laplacian(3, 2)) == {int}
    assert Fraction in _entry_types(tm.matrix)


def test_normalize_vector_returns_int_coefficients():
    v = WordVector({W("12"): Fraction(-2, 3), W("21"): Fraction(4, 9)})
    assert normalize_vector(v) == WordVector({W("12"): 3, W("21"): -2})
    assert _coefficient_types(normalize_vector(v)) == {int}
    for shape in [(2, 1), (3, 2), (2, 2, 1)]:
        for u in kernel_basis(shape):
            assert _coefficient_types(u) == {int}
        for entry in eigenbasis(shape):
            for u in entry.vectors:
                assert _coefficient_types(u) == {int}


def test_int_and_fraction_coefficients_print_alike():
    as_int = WordVector({W("12"): 2, W("21"): -1})
    as_fraction = {W("12"): Fraction(2), W("21"): Fraction(-1)}
    assert as_int.to_json() == {word_to_text(w): str(c) for w, c in as_fraction.items()}
    assert repr(as_int) == "WordVector(2*12 + -1*21)"
    assert repr(as_int) == repr(WordVector(as_fraction))
    assert as_int.to_json() == WordVector(as_fraction).to_json()
    assert as_int == WordVector(as_fraction)


def test_enumerate_words_deck_order():
    assert [word_to_text(w) for w in enumerate_words((2, 2))] == WORDS_22
    assert enumerate_words((1,)) == ((1,),)
    assert len(enumerate_words((1, 1, 1))) == 6
    assert enumerate_words((0, 2)) == ((2, 2),)


def test_enumerate_words_checks_its_input_before_the_cache():
    # a list is turned into the tuple key, and each space is built once
    assert enumerate_words([2, 1]) is enumerate_words((2, 1))
    for bad in [(-1,), [1, -2], (1.0,), ("2",)]:
        with pytest.raises(ValueError, match="bad evaluation"):
            enumerate_words(bad)


def test_enumerate_words_of_a_long_evaluation_does_not_recurse():
    # one recursion level per letter passed the interpreter's recursion limit
    words = enumerate_words((1100, 1))
    assert len(words) == 1101
    assert words[0] == (1,) * 1100 + (2,)
    assert words[-1] == (2,) + (1,) * 1100


def test_insertion_deletion_replacement_examples():
    aaba = W("aaba")
    assert apply_sh(1, aaba) == WordVector({W("aaaba"): 3, W("aabaa"): 2})
    assert apply_sh(1, WordVector({W("ab"): 1, W("ba"): -1})) == WordVector(
        {W("aab"): 2, W("baa"): -2}
    )
    assert apply_sh(1, ()) == WordVector.unit((1,))
    assert apply_del(1, aaba) == WordVector({W("aba"): 2, W("aab"): 1})
    assert apply_del(2, aaba) == WordVector.unit(W("aaa"))
    assert apply_del(3, aaba) == WordVector()
    assert apply_theta(1, 2, W("aaab")) == WordVector(
        {W("baab"): 1, W("abab"): 1, W("aabb"): 1}
    )
    assert apply_theta(1, 1, aaba) == 3 * WordVector.unit(aaba)
    assert apply_theta(2, 1, W("aaa")) == WordVector()


def test_shuffle_product():
    assert shuffle_product(W("ab"), ()) == WordVector.unit(W("ab"))
    assert shuffle_product((1,), (1,)) == WordVector({(1, 1): 2})
    for w in all_words(3, 5):
        for a in (1, 2, 3):
            assert shuffle_product(w, (a,)) == apply_sh(a, w)


def test_position_action():
    w = W("cabcbaaa")
    sigma = (7, 1, 8, 4, 2, 5, 6, 3)
    tau = (2, 6, 3, 4, 7, 1, 5, 8)
    assert apply_permutation(w, sigma) == W("acacabab")
    assert apply_permutation(w, tuple(range(1, 9))) == w
    product_perm = compose_permutations(sigma, tau)
    assert product_perm == (1, 5, 8, 4, 6, 7, 2, 3)
    assert apply_permutation(apply_permutation(w, sigma), tau) == apply_permutation(
        w, product_perm
    )
    assert apply_permutation(w, product_perm) == W("cbacaaab")
    with pytest.raises(ValueError):
        apply_permutation((1, 2), (1, 2, 3))


def test_shuffle_operator_examples():
    assert r2r(WordVector.unit((1,))) == WordVector.unit((1,))
    image = r2r(WordVector.unit(W("1122")))
    coeffs = [image.coefficient(w) for w in enumerate_words((2, 2))]
    assert coeffs == [8, 4, 2, 2, 0, 0]
    assert t2r(WordVector.unit((1, 2, 3, 4))) == WordVector(
        {(1, 2, 3, 4): 1, (1, 2, 4, 3): 1, (1, 4, 2, 3): 1, (4, 1, 2, 3): 1}
    )
    assert r2r(WordVector()) == WordVector()
    with pytest.raises(ValueError):
        r2r(WordVector({(1,): 1, (1, 2): 1}))


def _cycle(n, first, last):
    """One-line form of the cycle sending first -> first+step -> ... -> last -> first."""
    step = 1 if first <= last else -1
    image = list(range(1, n + 1))
    lo, hi = min(first, last), max(first, last)
    for x in range(lo, hi + 1):
        image[x - 1] = first if x == last else x + step
    return tuple(image)


def r2r_via_group_algebra(word):
    """Random-to-random evaluated by its group-algebra element.

    Expands the sum of cycle permutations explicitly, as an independent
    cross-check of r2r.
    """
    n = len(word)
    terms = [(word, Fraction(n))]
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v:
                terms.append((apply_permutation(word, _cycle(n, u, v)), Fraction(1)))
    return WordVector(terms)


def test_r2r_expansions_agree():
    for w in all_words(3, 4):
        assert r2r_via_group_algebra(w) == r2r(WordVector.unit(w)), w
    for w in permutations((1, 2, 3, 4, 5)):
        assert r2r_via_group_algebra(w) == r2r(WordVector.unit(w))
    assert r2r_via_group_algebra((1, 2)) == WordVector({(1, 2): 2, (2, 1): 2})


def test_r2r_with_a_fractional_coefficient_matches_group_algebra():
    v = WordVector({W("1122"): Fraction(1, 2), W("2112"): 1, W("1212"): Fraction(-3, 4)})
    expected = WordVector(
        (u, c * x) for w, c in v.items() for u, x in r2r_via_group_algebra(w).items()
    )
    assert r2r(v) == expected
    assert Fraction in _coefficient_types(r2r(v))


def compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_the_single_card_tables_compose_to_the_r2r_moves():
    for n in range(9):
        # each table lists n distinct moves, the inverses of the other's: the
        # table of r2t holds the moves of t2r, to a random position, and back
        position = tuple(range(n))
        to_random, to_top = _r2t_moves(n), _t2r_moves(n)
        assert len(set(to_random)) == len(to_random) == n == len(set(to_top)) == len(to_top)
        assert {tuple(sorted(position, key=s.__getitem__)) for s in to_random} == set(to_top)
        # (w o sigma) o tau, sigma a move of r2t and tau of t2r, over all
        # pairs is r2r of the position word
        composed = Counter(tuple(s[t[i]] for i in position) for s in to_top for t in to_random)
        assert composed == dict(r2r(position).items())
        if n:
            assert len(composed) == 1 + (n - 1) ** 2
            assert sum(composed.values()) == n * n
            assert composed[position] == n


def test_apply_moves_over_an_empty_table_gives_a_zero_column():
    # words of length 0: each table is empty, and r2r(()) is zero
    gathers = _move_gathers([()], _r2t_moves(0), _t2r_moves(0))
    assert gathers == [[], []]
    for tables in (gathers[:1], gathers):
        for column in ([3], [Fraction(1, 2)]):
            assert _apply_moves(tables, column) == [0]
    assert r2r(()) == WordVector()


def test_r2r_columns_matches_r2r_column_by_column():
    # the per-vector r2r is the reference for the batched move-table form
    rng = random.Random(8)
    for n in range(0, 6):
        for nu in compositions(n):
            words = enumerate_words(nu)
            vectors = [WordVector.unit(w) for w in words]
            vectors.append(WordVector((w, rng.randint(-5, 5)) for w in words))
            vectors.append(WordVector((w, Fraction(rng.randint(-5, 5), 3)) for w in words))
            columns = [[v.coefficient(w) for w in words] for v in vectors]
            images = r2r_columns(words, columns)
            assert len(images) == len(columns)
            for j, v in enumerate(vectors):
                assert len(images[j]) == len(words)
                assert WordVector(zip(words, images[j])) == r2r(v), (nu, j)
            # any order of the words gives the same images
            shuffled = list(range(len(words)))
            rng.shuffle(shuffled)
            again = r2r_columns(
                [words[i] for i in shuffled], [[col[i] for i in shuffled] for col in columns]
            )
            assert again == [[image[i] for i in shuffled] for image in images]


def test_shuffle_compositions():
    for w in all_words(3, 5):
        u = WordVector.unit(w)
        assert r2r(u) == t2r(r2t(u)), w


def test_transition_matrices_reproduce_worked_example():
    tm = transition_matrix("r2t", (2, 2))
    assert [[int(x) for x in row] for row in tm.counts.data] == R2T_COUNTS_22
    assert tm.scale == Fraction(1, 4)
    tm = transition_matrix("r2r", (2, 2))
    assert [[int(x) for x in row] for row in tm.counts.data] == R2R_COUNTS_22
    assert tm.scale == Fraction(1, 16)
    assert transition_matrix("r2r", (1,)).matrix == ExactMatrix([[1]])


def test_transition_matrices_are_stochastic_and_r2r_symmetric():
    for n in range(1, 5):
        for nu in partitions_of(n):
            for shuffle in ("r2r", "r2t", "t2r"):
                tm = transition_matrix(shuffle, nu)
                for row in tm.matrix.data:
                    assert sum(row) == 1
            tm = transition_matrix("r2r", nu)
            assert is_symmetric(tm.counts)
            # symmetrization: the two one-sided matrices are transposes and
            # their composition is the two-sided shuffle
            one_sided = transition_matrix("r2t", nu).counts
            assert one_sided.transpose() == transition_matrix("t2r", nu).counts
            assert one_sided @ one_sided.transpose() == tm.counts


def test_insertion_and_deletion_are_adjoint():
    # matrix of insertion equals the transpose of the matrix of deletion
    for length in range(0, 4):
        sources = [w for w in all_words(3, length) if len(w) == length]
        targets = [w for w in all_words(3, length + 1) if len(w) == length + 1]
        for letter in (1, 2, 3):
            for w in sources:
                image = apply_sh(letter, w)
                for u in targets:
                    assert image.coefficient(u) == apply_del(letter, u).coefficient(w)


def test_insertions_and_deletions_commute():
    for w in all_words(3, 4):
        u = WordVector.unit(w)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert apply_sh(a, apply_sh(b, u)) == apply_sh(b, apply_sh(a, u))
                assert apply_del(a, apply_del(b, u)) == apply_del(b, apply_del(a, u))


def test_operator_kernels_of_both_shuffles_agree():
    for n in range(1, 6):
        for nu in partitions_of(n):
            words = enumerate_words(nu)
            null_r2r = operator_matrix(r2r, words).nullspace()
            null_r2t = operator_matrix(r2t, words).nullspace()
            assert null_r2r == null_r2t, nu


# -- the nine word operators, extended linearly -------------------------------

_INJECTIVE_3 = tuple(permutations(range(1, 5), 3))
_OPERATORS = {
    # name: (operator on word vectors, the words its inputs are drawn from)
    "apply_sh": (partial(apply_sh, 2), enumerate_words((2, 1, 1))),
    "apply_del": (partial(apply_del, 1), enumerate_words((2, 1, 1))),
    "apply_theta": (partial(apply_theta, 1, 2), enumerate_words((2, 1, 1))),
    "r2t": (r2t, enumerate_words((2, 1, 1))),
    "t2r": (t2r, enumerate_words((2, 1, 1))),
    "r2r": (r2r, enumerate_words((2, 1, 1))),
    "boundary": (partial(boundary, 4, 3), _INJECTIVE_3),
    "coboundary": (partial(coboundary, 4, 2), tuple(permutations(range(1, 5), 2))),
    "signed_r2r": (signed_r2r, _INJECTIVE_3),
}


def _random_vector(rng, words, count):
    tops, bottoms = [-3, -2, -1, 1, 2, 5], [1, 2, 3]
    picked = rng.sample(words, count)
    return WordVector({w: Fraction(rng.choice(tops), rng.choice(bottoms)) for w in picked})


@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_word_operators_are_linear_with_exact_cancellation(name):
    op, words = _OPERATORS[name]
    rng = random.Random(name)
    for _ in range(10):
        a = Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 2, 7]))
        b = Fraction(rng.choice([-1, 2]), 3)
        u = _random_vector(rng, list(words), 6)
        # w cancels a * u on two of its words, so a * u + b * w drops them
        dropped = list(u.words())[:2]
        rest = [x for x in words if x not in dropped]
        cancel = WordVector({x: -a * u.coefficient(x) / b for x in dropped})
        w = _random_vector(rng, rest, 4) + cancel
        combined = a * u + b * w
        assert not any(combined.coefficient(x) for x in dropped)
        assert op(combined) == a * op(u) + b * op(w)
        assert op(u - u) == WordVector() == op(WordVector())
        # a word and its unit vector have one image
        if name not in ("boundary", "coboundary", "signed_r2r"):
            assert op(words[0]) == op(WordVector.unit(words[0]))


@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_word_operators_store_integral_images_as_int(name):
    op, words = _OPERATORS[name]
    assert _coefficient_types(op(WordVector({w: i - 5 for i, w in enumerate(words)}))) == {int}
    # halves that meet on one image word can sum to an integral coefficient
    rng = random.Random(name)
    image = op(WordVector({w: Fraction(rng.choice([1, 2, 3]), 2) for w in words}))
    assert int in _coefficient_types(image)
    for _, c in image.items():
        assert c and (type(c) is int or c.denominator > 1)


def test_bool_letters_and_counts_are_refused():
    # bool is a subclass of int, but True is no letter and no count: a word
    # holding it would print its letter as True
    with pytest.raises(ValueError, match=re.escape("letters must be positive integers: (True, 2)")):
        check_word((True, 2))
    with pytest.raises(ValueError, match=re.escape("bad evaluation: (True, 1)")):
        check_evaluation((True, 1))
    with pytest.raises(ValueError, match=re.escape("bad evaluation: (2, False)")):
        enumerate_words((2, False))
    with pytest.raises(ValueError, match=re.escape("letters must be positive integers: (True,)")):
        apply_sh(True, WordVector.unit((2,)))

    class Letter(int):
        pass

    assert check_word((Letter(1), 2)) == (1, 2)
    assert check_evaluation((Letter(1), 0)) == (1, 0)


def test_word_operators_reject_their_bad_inputs():
    unit = WordVector.unit
    with pytest.raises(ValueError, match="mixed word lengths"):
        r2r(WordVector({(1, 2): 1, (1,): 1}))
    with pytest.raises(ValueError, match="repeated letters"):
        signed_r2r(unit((1, 2, 1)))
    for bad in [unit((1, 1)), unit((1, 2, 3))]:
        with pytest.raises(ValueError, match="not an injective word"):
            boundary(4, 2, bad)
        with pytest.raises(ValueError, match="not an injective word"):
            coboundary(4, 2, bad)
    # letters outside 1..n, named in the message
    for op, word in product((boundary, coboundary), [(1, 5), (0, 2)]):
        message = f"{word} is not an injective word of length 2 over 1..4"
        with pytest.raises(ValueError, match=re.escape(message)):
            op(4, 2, unit(word))
    # letter arguments, checked once per call, so on the zero vector too
    for call, letters in [
        (partial(apply_sh, 0, unit((1, 2))), (0,)),
        (partial(apply_sh, 1.5, unit((1,))), (1.5,)),
        (partial(apply_sh, 0, WordVector()), (0,)),
        (partial(apply_del, -1, unit((1, 2))), (-1,)),
        (partial(apply_del, 0, WordVector()), (0,)),
        (partial(apply_theta, 1, 0, unit((1, 2))), (1, 0)),
        (partial(apply_theta, 0, 1, unit((1, 2))), (0, 1)),
        (partial(apply_theta, 2, 2.0, WordVector()), (2, 2.0)),
    ]:
        message = f"letters must be positive integers: {letters}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    assert apply_theta(1, 1, unit((1, 2, 1))) == 2 * unit((1, 2, 1))
    for r in (0, 5):
        with pytest.raises(ValueError, match="boundary needs"):
            boundary(4, r, WordVector())
    for r in (-1, 4):
        with pytest.raises(ValueError, match="coboundary needs"):
            coboundary(4, r, WordVector())
