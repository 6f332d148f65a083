import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shuffle_spectra.linalg import ExactMatrix, IntPolynomial, _prime_stream, _rank_mod

from golden_tables import R2R_COUNTS_22
from reference import charpoly


def test_nullspace_identity_is_empty():
    assert ExactMatrix.identity(2).nullspace() == ()


def test_nullspace_forced_line():
    assert ExactMatrix([[1, -1]]).nullspace() == ((Fraction(1), Fraction(1)),)


def test_nullspace_reduced_normal_form():
    m = ExactMatrix([[1, 2, 3], [0, 0, 1]])
    basis = m.nullspace()
    assert basis == ((Fraction(-2), Fraction(1), Fraction(0)),)


def test_nullspace_deterministic():
    m = ExactMatrix([[2, 4, 6], [1, 2, 3]])
    assert m.nullspace() == ExactMatrix([[2, 4, 6], [1, 2, 3]]).nullspace()


def test_rank_trivial():
    assert ExactMatrix.zeros(3, 3).rank() == 0
    assert ExactMatrix.identity(3).rank() == 3


def test_rank_of_shifted_transition_counts():
    # the 16-eigenspace of the worked 6x6 shuffle matrix is one-dimensional
    m = ExactMatrix(R2R_COUNTS_22) - ExactMatrix.identity(6).scale(16)
    assert m.rank() == 5
    assert len(m.nullspace()) == 1


def test_charpoly_trivial():
    assert charpoly(ExactMatrix([[5]])) == IntPolynomial((-5, 1))
    assert charpoly(ExactMatrix.identity(2)) == IntPolynomial((1, -2, 1))
    assert charpoly(ExactMatrix([])) == IntPolynomial((1,))


def test_charpoly_of_worked_shuffle_matrix():
    cp = charpoly(ExactMatrix(R2R_COUNTS_22))
    assert cp == IntPolynomial.from_integer_roots({16: 1, 10: 1, 6: 1, 4: 1, 0: 2})


def test_charpoly_rejects_bad_input():
    with pytest.raises(ValueError):
        charpoly(ExactMatrix([[1, 2]]))
    with pytest.raises(ValueError):
        charpoly(ExactMatrix([[Fraction(1, 2)]]))


def test_charpoly_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1234)
    for _ in range(15):
        n = rng.randint(1, 8)
        data = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        mine = charpoly(ExactMatrix(data))
        theirs = [int(c) for c in sympy.Matrix(data).charpoly().all_coeffs()[::-1]]
        assert list(mine.coefficients) == theirs


def test_charpoly_multiplicative_on_block_diagonals():
    rng = random.Random(99)
    for _ in range(10):
        a_n, b_n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(a_n)] for _ in range(a_n)]
        b = [[rng.randint(-5, 5) for _ in range(b_n)] for _ in range(b_n)]
        block = [
            row + [0] * b_n for row in a
        ] + [[0] * a_n + row for row in b]
        assert (
            charpoly(ExactMatrix(block))
            == charpoly(ExactMatrix(a)) * charpoly(ExactMatrix(b))
        )


def test_faddeev_charpoly_matches_the_crt_reference():
    # ExactMatrix.charpoly is the library's own small-matrix route
    rng = random.Random(4321)
    for _ in range(20):
        n = rng.randint(0, 9)
        m = ExactMatrix([[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)])
        assert m.charpoly() == charpoly(m)
    assert ExactMatrix(R2R_COUNTS_22).charpoly() == charpoly(ExactMatrix(R2R_COUNTS_22))
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]]).charpoly()
    with pytest.raises(ValueError):
        ExactMatrix([[Fraction(1, 2)]]).charpoly()


def test_solve_identity_and_inconsistent():
    assert ExactMatrix.identity(2).solve([3, 4]) == (Fraction(3), Fraction(4))
    assert ExactMatrix([[1, 1], [1, 1]]).solve([1, 0]) is None
    assert ExactMatrix([[1, 1], [1, 1]]).solve([2, 2]) == (Fraction(2), Fraction(0))


rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)
)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_rank_plus_nullity_is_column_count(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    m = ExactMatrix(entries)
    assert m.rank() + len(m.nullspace()) == m.cols
    for v in m.nullspace():
        assert all(x == 0 for x in m.multiply_vector(v))


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.data(),
)
def test_rank_matches_sympy(rows, cols, dependent, data):
    sympy = pytest.importorskip("sympy")
    entries = data.draw(
        st.lists(
            st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if dependent:
        # append a combination of the drawn rows, so rank deficiency is common
        a, b = data.draw(rationals), data.draw(rationals)
        entries.append([a * x + b * y for x, y in zip(entries[0], entries[-1])])
    theirs = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in entries]
    ).rank()
    assert ExactMatrix(entries).rank() == theirs


def _sympy_matrix(sympy, rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_nullspace_and_solve_match_sympy(rows, cols, dependent, consistent, data):
    sympy = pytest.importorskip("sympy")
    row = st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=cols, max_size=cols)
    entries = data.draw(st.lists(row, min_size=rows, max_size=rows))
    if dependent:
        a, b = data.draw(rationals), data.draw(rationals)
        entries[data.draw(st.integers(0, rows - 1))] = [
            a * x + b * y for x, y in zip(entries[0], entries[-1])
        ]
    m = ExactMatrix(entries)
    theirs = _sympy_matrix(sympy, entries)
    # the same reduced normal form, entry for entry
    expected = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in theirs.nullspace()]
    assert list(m.nullspace()) == expected

    if consistent:
        y = data.draw(st.lists(rationals, min_size=cols, max_size=cols))
        rhs = list(m.multiply_vector(y))
    else:
        rhs = data.draw(st.lists(rationals, min_size=rows, max_size=rows))
    x = m.solve(rhs)
    augmented = theirs.row_join(_sympy_matrix(sympy, [[v] for v in rhs]))
    assert (x is None) == (augmented.rank() > theirs.rank())
    if x is not None:
        assert list(m.multiply_vector(x)) == rhs
        pivots = set(theirs.rref()[1])
        assert all(x[c] == 0 for c in range(cols) if c not in pivots)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.data(),
)
def test_int_and_fraction_entries_agree(rows, cols, dependent, data):
    # integral entries given as int and as Fraction(x) build the same matrix
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))
    entries = data.draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    if dependent:
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        entries.append([a * x + b * y for x, y in zip(entries[0], entries[-1])])
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=len(entries), max_size=len(entries)))
    as_int = ExactMatrix(entries)
    as_fraction = ExactMatrix([[Fraction(x) for x in row] for row in entries])
    assert as_int.data == as_fraction.data
    for m in (as_int, as_fraction, as_int.transpose().transpose()):
        assert all(type(x) is int for row in m.data for x in row)
    assert as_fraction.transpose().data == tuple(zip(*as_int.data))
    assert as_int.rank() == as_fraction.rank()
    assert as_int.nullspace() == as_fraction.nullspace()
    assert as_int.solve(rhs) == as_fraction.solve([Fraction(x) for x in rhs])


def test_rank_mod_matches_exact_elimination():
    # Entries lie in [-3, 3] and the shorter side is at most 6, so by
    # Hadamard's bound every minor is at most (3 * 6**0.5)**6 = 54**3 < p in
    # absolute value: a minor vanishes mod p only if it vanishes, and the
    # rank mod p is the exact rank.
    p = next(_prime_stream())
    assert 54**3 < p
    rng = random.Random(12)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (5, 5), (6, 6), (9, 3), (3, 9), (12, 6), (6, 12)]
    for rows, cols in shapes:
        for _ in range(10):
            data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for i in range(1, rows):
                # repeated, negated and zero rows make most of these singular
                if rng.random() < 0.3:
                    data[i] = [rng.choice((-1, 0, 1)) * x for x in data[rng.randrange(i)]]
            expected = len(ExactMatrix(data)._echelon()[1])
            assert _rank_mod(data, p) == expected, data
            assert _rank_mod([list(col) for col in zip(*data)], p) == expected, data


def test_rank_falls_back_when_singular_modulo_the_certificate_prime():
    p = next(_prime_stream())
    for data, expected in [
        ([[1, 0], [0, p]], 2),
        ([[p, 0, 0], [0, 1, 1]], 2),
        ([[1, 2, 3], [2, 4, 6 + p]], 2),
        ([[p, p], [p, p]], 1),
    ]:
        m = ExactMatrix(data)
        assert _rank_mod(m._integerized_rows(), p) < min(m.rows, m.cols)
        assert m.rank() == expected


def test_integer_roots_extraction():
    poly = IntPolynomial.from_integer_roots({3: 2, -1: 1}) * IntPolynomial((1, 0, 1))
    roots, rest = poly.integer_roots(bound=5)
    assert roots == {-1: 1, 3: 2}
    assert rest == IntPolynomial((1, 0, 1))


def test_polynomial_evaluation_and_degree():
    p = IntPolynomial((-5, 1))
    assert p(5) == 0 and p(0) == -5 and p.degree == 1
    assert IntPolynomial(()).is_zero()
