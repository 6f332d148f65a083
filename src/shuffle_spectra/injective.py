"""The chain complex of injective words and its Laplacians.

Injective words over {1..n} carry signed deletion maps whose squares vanish;
the Laplacians built from them and their adjoints are symmetric integer
matrices with integral spectra.  At full length the Laplacian coincides with
a signed variant of the random-to-random operator, conjugate to the plain
one by the sign-of-sorting involution, which is how the integrality of the
Laplacian spectra follows from the shuffle spectrum.

Boundary and coboundary act directly on word vectors, and every matrix here
is words.operator_matrix of an operator: the Laplacian is the matrix of
v -> coboundary(boundary(v)) + boundary(coboundary(v)), assembled one basis
word at a time with no dense matrix products.

Convention at the bottom of the complex: the empty word is the unique basis
element in degree zero, deleting the only letter of a word picks up the sign
of position one, and the out-of-range maps are zero, so the extreme
Laplacians use their single surviving term.

laplacian_spectrum proves each spectrum integral without a characteristic
polynomial: the Laplacian commutes with relabelling the letters, and the
symmetric group acts transitively on the words, so the Krylov sequence of a
single word decides annihilation and every multiplicity, in plain ints
(see _certify_integral_spectrum).
"""

from __future__ import annotations

import math
from functools import cache, partial
from itertools import permutations, repeat
from operator import add, mul
from typing import Sequence

from .combinatorics import sign_of_word  # noqa: F401  (re-exported)
from .linalg import ExactMatrix
from .words import Word, WordVector, operator_matrix


@cache
def injective_words(n: int, r: int) -> tuple[Word, ...]:
    """Duplicate-free words of length r over {1..n}, lexicographically."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    return tuple(sorted(permutations(range(1, n + 1), r)))


def _check_injective(v: WordVector, r: int) -> None:
    for word in v.words():
        if len(word) != r or len(set(word)) != r:
            raise ValueError(f"{word} is not an injective word of length {r}")


def boundary(n: int, r: int, v: WordVector) -> WordVector:
    """Signed deletion: position j removed with sign (-1)^j, summed over j."""
    if not 1 <= r <= n:
        raise ValueError(f"boundary needs 1 <= r <= n, got r={r}, n={n}")
    _check_injective(v, r)
    terms = []
    for word, coeff in v.items():
        for j in range(r):
            sign = -1 if (j + 1) % 2 else 1
            terms.append((word[:j] + word[j + 1 :], sign * coeff))
    return WordVector(terms)


@cache
def boundary_matrix(n: int, r: int) -> ExactMatrix:
    """Matrix of the boundary map in column convention (targets x sources)."""
    return operator_matrix(
        partial(boundary, n, r), injective_words(n, r), injective_words(n, r - 1)
    )


def coboundary(n: int, r: int, v: WordVector) -> WordVector:
    """Adjoint of the boundary one degree up, in the orthonormal word basis.

    Inserting a missing letter at position j is undone only by deleting
    position j, so it carries that deletion's sign.
    """
    if not 0 <= r < n:
        raise ValueError(f"coboundary needs 0 <= r < n, got r={r}, n={n}")
    _check_injective(v, r)
    terms = []
    for word, coeff in v.items():
        for letter in range(1, n + 1):
            if letter in word:
                continue
            for j in range(r + 1):
                sign = -1 if (j + 1) % 2 else 1
                terms.append((word[:j] + (letter,) + word[j:], sign * coeff))
    return WordVector(terms)


@cache
def laplacian(n: int, r: int) -> ExactMatrix:
    """Laplacian on injective words of length r, a symmetric integer matrix."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")

    def apply(v: WordVector) -> WordVector:
        out = WordVector()
        if r >= 1:
            out = out + coboundary(n, r - 1, boundary(n, r, v))
        if r < n:
            out = out + boundary(n, r + 1, coboundary(n, r, v))
        return out

    return operator_matrix(apply, injective_words(n, r))


def signed_r2r(v: WordVector) -> WordVector:
    """Signed random-to-random operator on injective words.

    A letter moved from position u to position v picks up the sign of the
    rotation between them; the unmoved term appears with weight r.
    """
    terms = []
    for word, coeff in v.items():
        r = len(word)
        if len(set(word)) != r:
            raise ValueError(f"{word} has repeated letters")
        terms.append((word, r * coeff))
        for u in range(r):
            letter = word[u]
            rest = word[:u] + word[u + 1 :]
            for k in range(r):
                if k == u:
                    continue
                sign = -1 if (k - u) % 2 else 1
                terms.append((rest[:k] + (letter,) + rest[k:], sign * coeff))
    return WordVector(terms)


def laplacian_spectrum(n: int, r: int) -> dict[int, int]:
    """Integer spectrum of the Laplacian with multiplicities, ascending.

    Raises AssertionError if the spectrum is not integral, which would
    falsify the integrality statement.
    """
    return _certify_integral_spectrum(laplacian(n, r), injective_words(n, r))


def _certify_integral_spectrum(matrix: ExactMatrix, words: Sequence[Word]) -> dict[int, int]:
    """Prove that an integer matrix on the injective words of one length has
    an integral spectrum, and return it: {eigenvalue: multiplicity} over the
    eigenvalues that occur, in ascending order.

    words indexes the rows and columns and must be every injective word of
    length r over {1..n}, for n its largest letter.  The symmetric group S_n
    acts on them by relabelling letters, transitively.  Let N = len(words),
    R = matrix.eigenvalue_bound(), w0 = words[0] and p = prod (x - lam) over
    -R <= lam <= R.  Three exact checks, in plain ints:

    1. Equivariance: M[s w][s u] == M[w][u] at every nonzero entry, for s the
       transposition (1 2) and the cycle (1 2 ... n).  Relabelling is a
       bijection on entries, so zeros go to zeros too, and M commutes with
       the action of all of S_n.
    2. Annihilation: p(M) e_w0 == 0, from the Krylov vectors M^k e_w0.  By 1,
       p(M) e_{s w0} = s p(M) e_w0 = 0 for every s, and the words s w0 are
       all the words, so p(M) = 0: M is diagonalizable and its eigenvalues
       are integers in [-R, R].
    3. Multiplicities: with q = p / (x - lam), P = q(M) / q(lam) is the
       projection onto the lam-eigenspace, and by 1 its diagonal is
       constant, so m_lam = tr P = N * sum q[k] c_k / q(lam), where
       c_k = (M^k e_w0)[w0].  The division is exact; a remainder raises.

    Raises ValueError on a word list of the wrong form and AssertionError
    when a check fails.
    """
    n = max((max(w) for w in words if w), default=0)
    r = len(words[0]) if words else 0
    size = len(words)
    if (matrix.rows, matrix.cols) != (size, size) or sorted(words) != list(injective_words(n, r)):
        raise ValueError("words must be every injective word of one length, one per row")
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in matrix.to_int_rows()]

    index = {w: i for i, w in enumerate(words)}
    relabellings = [(0, *range(2, n + 1), 1)] + ([(0, 2, 1, *range(3, n + 1))] if n > 1 else [])
    for s in relabellings:
        image = [index[tuple(s[a] for a in w)] for w in words]
        for i, row in enumerate(rows):
            target = matrix.data[image[i]]
            if any(target[image[j]] != x for j, x in row):
                raise AssertionError(f"Laplacian for n={n}, r={r} does not commute with S_{n}")

    bound = matrix.eigenvalue_bound()
    spectrum = range(-bound, bound + 1)
    poly = [1]
    for lam in spectrum:
        poly = [hi - lam * lo for hi, lo in zip([0] + poly, poly + [0])]
    # krylov runs through M^k e_w0, total adds up p(M) e_w0, diagonal[k] = c_k
    krylov = [1] + [0] * (size - 1)
    total = [0] * size
    diagonal = []
    for k, c in enumerate(poly):
        if k:
            krylov = [sum(x * krylov[j] for j, x in row) for row in rows]
        total = list(map(add, total, map(mul, repeat(c), krylov)))
        diagonal.append(krylov[0])
    if any(total):
        raise AssertionError(f"Laplacian spectrum for n={n}, r={r} is not integral")

    out = {}
    for lam in spectrum:
        # q = p / (x - lam) by synthetic division, highest degree first
        quotient, carry = [], 0
        for c in reversed(poly[1:]):
            carry = c + lam * carry
            quotient.append(carry)
        mult, remainder = divmod(
            size * sum(map(mul, reversed(quotient), diagonal)),
            math.prod(lam - mu for mu in spectrum if mu != lam),
        )
        if remainder:
            raise AssertionError(
                f"Laplacian for n={n}, r={r}: multiplicity of {lam} is not an integer"
            )
        if mult:
            out[lam] = mult
    return out
