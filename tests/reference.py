"""Second definitions that the tests check the library against.

Nothing in the package calls these; they exist so that tableaux, lifts,
embeddings, eigenbases, the position action and every proved spectrum can
be checked by an independent route, with the matrix and polynomial
arithmetic that only these checks need.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from shuffle_spectra.combinatorics import is_partition, multiset_arrangements, part, tableau_shape
from shuffle_spectra.lifting import _check_columns
from shuffle_spectra.linalg import ExactMatrix, IntPolynomial, _clear_denominators, _entry
from shuffle_spectra.words import (
    Permutation,
    WordVector,
    _apply_moves,
    _move_gathers,
    _r2t_moves,
    _t2r_moves,
    apply_sh,
    apply_theta,
    evaluation_of,
    operator_matrix,
    word_to_text,
)


def is_standard(t) -> bool:
    """Whether t is a standard tableau: entries 1..n, increasing along rows
    and down columns, on a partition shape."""
    shape = tableau_shape(t)
    if not is_partition(shape) and shape != ():
        return False
    n = sum(shape)
    entries = [x for row in t for x in row]
    if sorted(entries) != list(range(1, n + 1)):
        return False
    for row in t:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(t) - 1):
        if any(t[i][j] >= t[i + 1][j] for j in range(len(t[i + 1]))):
            return False
    return True


def tableau_content(t) -> tuple[int, ...]:
    """The multiplicity of each entry 1..max of t."""
    entries = [x for row in t for x in row]
    top = max(entries) if entries else 0
    return tuple(entries.count(v) for v in range(1, top + 1))


def semistandard_by_arrangement(shape, content) -> list:
    """Semistandard tableaux of the shape with the given content, by brute
    force: every arrangement of the content's letters over the cells, row
    after row, kept when its rows weakly increase and its columns strictly
    increase, sorted by reading word."""
    letters = [k for k, count in enumerate(content, start=1) for _ in range(count)]
    starts = [sum(shape[:i]) for i in range(len(shape) + 1)]
    found = []
    for word in set(permutations(letters)):
        t = tuple(word[a:b] for a, b in zip(starts, starts[1:]))
        rows_ok = all(row[j] <= row[j + 1] for row in t for j in range(len(row) - 1))
        columns_ok = all(
            t[i][j] < t[i + 1][j] for i in range(len(t) - 1) for j in range(len(t[i + 1]))
        )
        if rows_ok and columns_ok:
            found.append(t)
    return sorted(found, key=lambda t: tuple(x for row in t for x in row))


def word_rank(vectors: list[WordVector]) -> int:
    """Rank of word vectors, over the words that occur in them."""
    words = sorted({w for v in vectors for w in v.words()})
    return operator_matrix(lambda v: v, vectors, words).rank()


def r2r_columns(words, columns) -> list[list]:
    """r2r applied to every column of a matrix over words, exactly.

    Each column is a list whose entry i is the coefficient of words[i], and
    words must be all the words of one evaluation, in any order.  Column j
    of the result holds the coefficients of r2r of column j, t2r after r2t:
    one _apply_moves of each single-card table per column, the r2t table
    first; no words-by-words matrix is built.
    """
    n = len(words[0])
    r2t_pass, t2r_pass = _move_gathers(tuple(words), _r2t_moves(n), _t2r_moves(n))
    return [_apply_moves([t2r_pass], _apply_moves([r2t_pass], col)) for col in columns]


def matrix_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Entrywise sum of two matrices of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return ExactMatrix([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.data, b.data)])


def multiply_vector(matrix: ExactMatrix, v) -> tuple:
    """matrix times the column v, with integral entries as ints."""
    if len(v) != matrix.cols:
        raise ValueError("shape mismatch")
    return tuple(_entry(sum(a * b for a, b in zip(row, v))) for row in matrix.data)


def sparse_columns(matrix: ExactMatrix) -> list[dict]:
    """The columns of a matrix in the form of words.operator_columns: column
    j maps each row index i with a nonzero entry to that entry."""
    return [{i: x for i, x in enumerate(col) if x} for col in zip(*matrix.data)]


def is_symmetric(matrix: ExactMatrix) -> bool:
    """Whether the matrix is square and equal to its transpose."""
    return matrix.rows == matrix.cols and matrix.transpose() == matrix


def poly_product(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """The product of two integer polynomials."""
    if p.is_zero() or q.is_zero():
        return IntPolynomial(())
    out = [0] * (len(p.coefficients) + len(q.coefficients) - 1)
    for i, a in enumerate(p.coefficients):
        for j, b in enumerate(q.coefficients):
            out[i + j] += a * b
    return IntPolynomial(out)


def integer_roots(poly: IntPolynomial, bound: int) -> tuple[dict[int, int], IntPolynomial]:
    """All integer roots of poly in [-bound, bound] with multiplicities,
    and the rootless cofactor.

    The bound must cover every root (a Gershgorin bound for a
    characteristic polynomial, say); the cofactor is constant exactly when
    the polynomial splits over the integers within it.
    """
    if poly.is_zero():
        raise ValueError("the zero polynomial has every root")
    roots: dict[int, int] = {}
    for r in range(-bound, bound + 1):
        while poly.degree > 0:
            quotient, remainder = poly.divide_root(r)
            if remainder:
                break
            poly = quotient
            roots[r] = roots.get(r, 0) + 1
    return roots, poly


def eigenvalue_bound(matrix: ExactMatrix) -> int:
    """Integer Gershgorin bound: every eigenvalue has |z| <= bound."""
    if matrix.rows == 0:
        return 0
    return max(math.ceil(sum(abs(x) for x in row)) for row in matrix.data)


def compose_permutations(sigma: Permutation, tau: Permutation) -> Permutation:
    """sigma after tau, so that acting by the product acts by tau last."""
    return tuple(sigma[tau[i] - 1] for i in range(len(tau)))


def chain_lift(shape, row: int, v: WordVector) -> WordVector:
    """The lift as the paper writes it: the sum over all chains
    b_1 < ... < b_t < row of the insertion of letter b_1 followed by the
    replacements b_1 -> ... -> b_t -> row, weighted by one over the product
    of the gaps of b_1, ..., b_t.  The empty chain is the plain insertion of
    the row's letter."""

    def gamma(b: int) -> int:
        return (part(shape, row) - row) - (part(shape, b) - b)

    terms = []
    for t in range(row):
        for chain in combinations(range(1, row), t):
            coeff = Fraction(1, math.prod(map(gamma, chain)))
            term = apply_sh(chain[0] if chain else row, v)
            steps = list(chain) + [row]
            for b_from, b_to in zip(steps, steps[1:]):
                term = apply_theta(b_from, b_to, term)
            terms.extend((w, coeff * c) for w, c in term.items())
    return WordVector(terms)


def row_lift(shape, row: int, v: WordVector) -> WordVector:
    """The lift by its recursion over the rows, on word vectors: lifted_b is
    the product of the gaps above b times sh_b(v), plus, for every a < b,
    the product of the gaps from a to b times theta_{a->b}(lifted_a); the
    lift is lifted_row over the product of all the gaps."""
    gaps = [(part(shape, row) - row) - (part(shape, b) - b) for b in range(1, row)]
    lifted = []
    for b in range(1, row + 1):
        terms = [(w, math.prod(gaps[: b - 1]) * c) for w, c in apply_sh(b, v).items()]
        for a in range(1, b):
            weight = math.prod(gaps[a : b - 1])
            terms.extend((w, weight * c) for w, c in apply_theta(a, b, lifted[a - 1]).items())
        lifted.append(WordVector(terms))
    return lifted[-1] / math.prod(gaps)


def check_eigenbasis(entries, words, dimension: int, space: str) -> None:
    """Raise AssertionError unless the vectors of the entries are nonzero
    eigenvectors for their entries' eigenvalues and form a basis of the span
    of words, a space of the given dimension.

    The word-vector entry point of lifting._check_columns: words must be all
    the words of one evaluation, and a vector with any other word fails.
    Each vector becomes an int column over words, its Fraction coefficients
    cleared by linalg._clear_denominators, which changes neither its
    eigen-equation nor any rank.
    """
    index = {w: i for i, w in enumerate(words)}
    strips = []
    for entry in entries:
        columns = []
        for j, v in enumerate(entry.vectors):
            col = [0] * len(words)
            for w, c in v.items():
                if w not in index:
                    label = f"vector {j} of strip {entry.outer}/{entry.inner}"
                    raise AssertionError(f"{label} has word {word_to_text(w)}, not in {space}")
                col[index[w]] = c
            columns.append(_clear_denominators(col))
        strips.append((entry.outer, entry.inner, entry.eigenvalue, columns))
    _check_columns(strips, words, dimension, space)


def theta_by_positions(t, v: WordVector) -> WordVector:
    """The embedding of a filled tableau written position by position: the
    occurrences of each letter r of a word, in position order, are
    overwritten by every distinct arrangement of row r of t, summed over
    all choices of one arrangement per row."""
    shape = tuple(len(row) for row in t)
    for word in v.words():
        if evaluation_of(word) != shape:
            raise ValueError(f"word {word} has evaluation {evaluation_of(word)}, expected {shape}")
    row_options = [multiset_arrangements(row) for row in t]
    terms = []
    for word, coeff in v.items():
        positions = [[k for k, x in enumerate(word) if x == r] for r in range(1, len(t) + 1)]
        for combo in product(*row_options):
            out = list(word)
            for r_positions, arrangement in zip(positions, combo):
                for k, letter in zip(r_positions, arrangement):
                    out[k] = letter
            terms.append((tuple(out), coeff))
    return WordVector(terms)


# The CRT charpoly works modulo the primes below this cap, largest first.
PRIME_CAP = 1 << 26
# A dot product of this many products of two residues below PRIME_CAP stays
# inside the int64 arithmetic of _charpoly_mod.
_CHARPOLY_MAX_DIM = (1 << 63) // (PRIME_CAP * PRIME_CAP)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which decides
    every n below 2**64."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream():
    """The odd primes below PRIME_CAP, largest first."""
    p = PRIME_CAP - 1
    while p > 2:
        if is_prime(p):
            yield p
        p -= 2


def charpoly(matrix: ExactMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - M) of a square integer matrix.

    Computed modulo a batch of word-sized primes (Hessenberg reduction
    followed by the standard minor recurrence) and recombined by CRT under
    a rigorous coefficient bound, so the result is exact even for the
    factorial-sized matrices the package produces.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    a = matrix.to_int_rows()
    n = len(a)
    if n == 0:
        return IntPolynomial((1,))
    if n > _CHARPOLY_MAX_DIM:
        raise ValueError(f"matrix too large for modular charpoly ({n} > {_CHARPOLY_MAX_DIM})")
    radius = max(sum(abs(x) for x in row) for row in a)
    # every eigenvalue z has |z| <= radius, so the coefficient of x^(n-k)
    # is bounded by C(n,k) * radius^k
    bound = max(math.comb(n, k) * radius**k for k in range(n + 1))
    target = 2 * bound + 1

    if max(abs(x) for row in a for x in row) < (1 << 62):
        arr = np.array(a, dtype=np.int64)
    else:
        arr = np.array(a, dtype=object)
    modulus = 1
    combined = [0] * (n + 1)
    for p in prime_stream():
        residues = _charpoly_mod(arr, p)
        if modulus == 1:
            combined = [int(r) for r in residues]
        else:
            inv = pow(modulus % p, p - 2, p)
            for i in range(n + 1):
                delta = (int(residues[i]) - combined[i]) % p
                combined[i] += modulus * ((delta * inv) % p)
        modulus *= p
        if modulus >= target:
            break
    half = modulus // 2
    return IntPolynomial(c - modulus if c > half else c for c in combined)


def _charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial mod p, lowest degree first, of a numpy array.

    Reduction commutes with taking the characteristic polynomial, so no
    prime is ever "unlucky" here.
    """
    n = a.shape[0]
    h = (a % p).astype(np.int64)
    # similarity reduction to upper Hessenberg form
    for k in range(n - 2):
        col = h[k + 1 :, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + k + 1
        if piv != k + 1:
            h[[k + 1, piv], :] = h[[piv, k + 1], :]
            h[:, [k + 1, piv]] = h[:, [piv, k + 1]]
        inv = pow(int(h[k + 1, k]), p - 2, p)
        mult = (h[k + 2 :, k] * inv) % p
        h[k + 2 :, :] = (h[k + 2 :, :] - mult[:, None] * h[k + 1, :]) % p
        h[:, k + 1] = (h[:, k + 1] + h[:, k + 2 :] @ mult) % p
    # minor recurrence on the Hessenberg form; polys[k] holds the
    # characteristic polynomial of the leading k x k block
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    prods = np.zeros(0, dtype=np.int64)  # prods[i] = h[i+1,i] * ... * h[k-1,k-2]
    for k in range(1, n + 1):
        if k >= 2:
            s = int(h[k - 1, k - 2])
            prods = np.concatenate([(prods * s) % p, np.array([s], dtype=np.int64)])
        hkk = int(h[k - 1, k - 1])
        new = np.zeros(n + 1, dtype=np.int64)
        new[1 : k + 1] = polys[k - 1, 0:k]
        new[0:k] = (new[0:k] - hkk * polys[k - 1, 0:k]) % p
        if k >= 2:
            weights = (h[0 : k - 1, k - 1] * prods[: k - 1]) % p
            new[0:k] = (new[0:k] - weights @ polys[0 : k - 1, 0:k]) % p
        polys[k, :] = new % p
    return polys[n, :]
