import math
import random
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from shuffle_spectra import linalg
from shuffle_spectra.linalg import (
    ExactMatrix,
    IntPolynomial,
    _RANK_PRIME,
    _annihilating_krylov,
    _clear_denominators,
    _echelon,
    _independent_rows,
    _multiplicities,
    _nullspace,
    _rank,
    _rank_mod,
)

from golden_tables import R2R_COUNTS_22
from reference import (
    charpoly,
    integer_roots,
    matrix_sum,
    multiply_vector,
    poly_product,
    prime_stream,
)


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
    m = matrix_sum(ExactMatrix(R2R_COUNTS_22), ExactMatrix.identity(6).scale(-16))
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
        assert charpoly(ExactMatrix(block)) == poly_product(
            charpoly(ExactMatrix(a)), charpoly(ExactMatrix(b))
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
        assert all(x == 0 for x in multiply_vector(m, v))


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
        rhs = list(multiply_vector(m, y))
    else:
        rhs = data.draw(st.lists(rationals, min_size=rows, max_size=rows))
    x = m.solve(rhs)
    augmented = theirs.row_join(_sympy_matrix(sympy, [[v] for v in rhs]))
    assert (x is None) == (augmented.rank() > theirs.rank())
    if x is not None:
        assert list(multiply_vector(m, x)) == rhs
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
    p = _RANK_PRIME
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
            expected = len(_echelon(data)[1])
            assert _rank_mod(data, p) == expected, data
            assert _rank_mod([list(col) for col in zip(*data)], p) == expected, data


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([2, 3, _RANK_PRIME]), st.integers(0, 6), st.integers(0, 6), st.data())
def test_lazy_rank_mod_counts_the_pivots_of_a_matrix_of_known_rank(p, rows, cols, data):
    # r ones on the diagonal, moved by unimodular row and column additions,
    # keep rank r over the rationals and modulo every prime; adding p * K
    # puts entries at and above p and below zero without changing it mod p
    r = data.draw(st.integers(0, min(rows, cols)))
    m = [[int(i == j < r) for j in range(cols)] for i in range(rows)]
    for axis, a, b, c in data.draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3)))
    ):
        size = rows if axis else cols
        if a != b and max(a, b) < size:
            if axis:
                m[a] = [x + c * y for x, y in zip(m[a], m[b])]
            else:
                m = [row[:a] + [row[a] + c * row[b]] + row[a + 1 :] for row in m]
    expected = len(_echelon(m)[1])
    assert expected == r
    row_of_k = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    k = data.draw(st.lists(row_of_k, min_size=rows, max_size=rows))
    lifted = [[x + p * y for x, y in zip(row, krow)] for row, krow in zip(m, k)]
    before = [list(row) for row in lifted]
    assert _rank_mod(lifted, p) == expected
    assert lifted == before
    assert _rank_mod([list(col) for col in zip(*lifted)], p) == expected
    # the certified rank of the lifted matrix is its exact rank
    assert _rank(lifted) == len(_echelon(lifted)[1])


def _rank_modulo(rows, p):
    """Rank mod p by plain Gaussian elimination on reduced entries."""
    m, rank = [[x % p for x in row] for row in rows], 0
    for col in range(len(m[0]) if m else 0):
        k = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if k is None:
            continue
        m[rank], m[k] = m[k], m[rank]
        inverse = pow(m[rank][col], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] * inverse
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=cols,
                max_size=cols,
            ),
            max_size=7,
        )
    )
)
# independent over the rationals, dependent mod p: the determinant is p
@example([[(1, 0), (1, 0)], [(1, 0), (1, 1)]])
# a row that is zero mod p only
@example([[(0, 1), (0, -2)], [(2, 0), (1, 0)]])
def test_independent_rows_are_a_basis_mod_p_checked_against_echelon(pairs):
    # entries x + p * y, so some rows are dependent only modulo p
    p = _RANK_PRIME
    rows = [[x + p * y for x, y in row] for row in pairs]
    cols = len(pairs[0]) if pairs else 0
    picked = _independent_rows(rows, p)
    assert picked == sorted(set(picked))
    chosen = [rows[i] for i in picked]
    # a basis of the rows mod p, and independent over the rationals
    assert _rank_modulo(chosen, p) == len(picked) == _rank_modulo(rows, p)
    assert len(_echelon(chosen)[1]) == len(picked)
    exact = len(_echelon(rows)[1])
    assert len(picked) <= exact
    # the kernel of the picked rows contains the kernel of all rows, and is
    # that kernel exactly when no rank is lost mod p
    full, shortcut = _nullspace(rows, cols), _nullspace(rows, cols, pick=True)
    assert len(shortcut) == cols - len(picked)
    assert all(not sum(map(mul, row, v)) for row in chosen for v in shortcut)
    if len(picked) == exact:
        assert shortcut == full
    else:
        assert any(sum(map(mul, row, v)) for row in rows for v in shortcut)


# The largest prime below 2**32, the largest that 64-bit lanes take: one
# pivot of it can bring a lane to p * (p - 1), just below 2**64, so its lane
# capacity is 1 and a second pivot without the lanewise reduction carries.
_LANE_PRIME = 4294967291


def test_lane_capacity_bounds_every_lane_below_two_to_the_64():
    for p in [2, 3, _RANK_PRIME, _LANE_PRIME]:
        r = linalg._lane_capacity(p)
        assert (p - 1) + r * (p - 1) ** 2 < 2**64 <= (p - 1) + (r + 1) * (p - 1) ** 2
    assert linalg._lane_capacity(_RANK_PRIME) == 4096
    assert linalg._lane_capacity(_LANE_PRIME) == 1


def test_rank_mod_reduces_a_lane_before_it_carries():
    # the third row is minus the sum of the other two; modulo _LANE_PRIME
    # its last lane reaches (p - 2) + 2 * (p - 1)**2 > 2**64 over two pivots
    # unless it is reduced after the first
    rows = [[1, 0, 1], [0, 1, 1], [-1, -1, -2]]
    assert _rank_mod(rows, _LANE_PRIME) == 2
    assert _rank_mod([list(col) for col in zip(*rows)], _LANE_PRIME) == 2


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([2, 3, _RANK_PRIME, _LANE_PRIME]),
    st.sampled_from([1, 2]),
    st.integers(0, 7),
    st.integers(0, 7),
    st.data(),
)
def test_rank_mod_reduces_its_lanes_past_the_lane_capacity(p, cap, rows, cols, data):
    # a matrix of rank r modulo every prime, as in the lazy test above but
    # with its r ones in any rows and columns, so that the last lanes carry
    # pivots too, plus p * K for K up to about 10**30 in size and of either
    # sign; with the capacity cut to 1 or 2 pivots the lanewise reduction runs
    r = data.draw(st.integers(0, min(rows, cols)))
    row_order = data.draw(st.permutations(range(rows)))
    col_order = data.draw(st.permutations(range(cols)))
    m = [[int(row_order[i] == col_order[j] < r) for j in range(cols)] for i in range(rows)]
    index = st.integers(0, 6)
    for axis, a, b, c in data.draw(
        st.lists(st.tuples(st.booleans(), index, index, st.integers(-9, 9)))
    ):
        size = rows if axis else cols
        if a != b and max(a, b) < size:
            if axis:
                m[a] = [x + c * y for x, y in zip(m[a], m[b])]
            else:
                m = [row[:a] + [row[a] + c * row[b]] + row[a + 1 :] for row in m]
    k = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    lifted = [[x + p * data.draw(k) for x in row] for row in m]
    expected = len(_echelon(m)[1])
    assert expected == r
    capacity = linalg._lane_capacity
    with mock.patch.object(linalg, "_lane_capacity", lambda q: min(cap, capacity(q))):
        assert _rank_mod(lifted, p) == expected
        assert _rank_mod([list(col) for col in zip(*lifted)], p) == expected


@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(st.integers(-(2**70), 2**70), rationals)), st.lists(st.integers()))
def test_clear_denominators_gives_ints_in_the_same_ratios(values, ints):
    cleared = _clear_denominators(values)
    assert len(cleared) == len(values) and all(type(x) is int for x in cleared)
    scale = math.lcm(*(Fraction(x).denominator for x in values))
    assert scale > 0
    assert list(cleared) == [x * scale for x in values]
    # all-int input comes back as it is
    assert _clear_denominators(ints) is ints


def test_rank_falls_back_when_singular_modulo_the_certificate_prime():
    p = _RANK_PRIME
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
    poly = poly_product(IntPolynomial.from_integer_roots({3: 2, -1: 1}), IntPolynomial((1, 0, 1)))
    roots, rest = integer_roots(poly, 5)
    assert roots == {-1: 1, 3: 2}
    assert rest == IntPolynomial((1, 0, 1))


def test_polynomial_evaluation_and_degree():
    p = IntPolynomial((-5, 1))
    assert p(5) == 0 and p(0) == -5 and p.degree == 1
    assert IntPolynomial(()).is_zero()


def test_rank_prime_is_the_first_prime_of_the_reference_stream():
    assert _RANK_PRIME == next(prime_stream())
    assert _RANK_PRIME < 1 << 26


def test_rank_prime_is_the_largest_prime_below_two_to_the_26():
    sympy = pytest.importorskip("sympy")
    assert _RANK_PRIME == sympy.prevprime(1 << 26)


polynomials = st.lists(st.integers(-50, 50), max_size=8).map(IntPolynomial)


@settings(deadline=None, max_examples=100)
@given(polynomials, st.integers(-12, 12))
def test_divide_root_undoes_multiplication_by_a_linear_factor(poly, r):
    quotient, remainder = poly.divide_root(r)
    assert remainder == poly(r)
    product = list(poly_product(quotient, IntPolynomial((-r, 1))).coefficients) or [0]
    product[0] += remainder
    assert IntPolynomial(product) == poly
    assert IntPolynomial(()).divide_root(r) == (IntPolynomial(()), 0)


@settings(deadline=None, max_examples=60)
@given(
    st.dictionaries(st.integers(-9, 9), st.integers(1, 3), max_size=5),
    st.integers(1, 20),
    st.integers(-3, 3).filter(bool),
)
def test_integer_roots_recovers_every_root_and_the_cofactor(roots, c, lead):
    # x^2 + c has no integer root
    cofactor = IntPolynomial((c * lead, 0, lead))
    found, rest = integer_roots(poly_product(IntPolynomial.from_integer_roots(roots), cofactor), 9)
    assert found == roots
    assert rest == cofactor


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-20, 20), unique=True, max_size=8), st.data())
def test_multiplicities_recover_the_map_from_its_power_sums(roots, data):
    mults = data.draw(st.lists(st.integers(0, 6), min_size=len(roots), max_size=len(roots)))
    traces = [sum(m * lam**k for lam, m in zip(roots, mults)) for k in range(len(roots))]
    expected = {lam: m for lam, m in zip(roots, mults) if m}
    assert _multiplicities(roots, traces) == expected
    assert list(_multiplicities(roots, traces)) == list(expected)
    if roots:
        k = data.draw(st.integers(0, len(roots) - 1))
        traces[k] += data.draw(st.sampled_from([-1, 1]))
        assert _multiplicities(roots, traces) != expected


def test_multiplicities_refuse_a_fractional_solution():
    # m_0 + m_1 = 1 and m_1 = 1/2
    assert _multiplicities([0, 2], [1, 1]) is None


def test_annihilating_krylov_needs_every_eigenvalue():
    diagonal = [3, -1, 3, 0, 5]

    def step(u):
        return [d * x for d, x in zip(diagonal, u)]

    start = [1, 2, 0, 1, -1]
    krylov = _annihilating_krylov(step, start, [5, 0, -1, 3])
    assert krylov == [[d**k * x for d, x in zip(diagonal, start)] for k in range(5)]
    assert _annihilating_krylov(step, start, [5, 0, -1, 3, 7]) is not None
    for left_out in (5, 0, -1, 3):
        assert _annihilating_krylov(step, start, [x for x in (5, 0, -1, 3) if x != left_out]) is None
    # a start vector without the 5 component needs no 5
    assert _annihilating_krylov(step, [1, 0, 0, 0, 0], [3]) == [[1, 0, 0, 0, 0], [3, 0, 0, 0, 0]]
