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
"""

from __future__ import annotations

from functools import cache, partial
from itertools import permutations

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
    """Integer spectrum of the Laplacian with multiplicities.

    Raises if the characteristic polynomial fails to split over the
    integers, which would falsify the integrality statement.
    """
    matrix = laplacian(n, r)
    poly = matrix.charpoly()
    roots, remainder = poly.integer_roots(bound=matrix.eigenvalue_bound())
    if remainder.degree != 0:
        raise AssertionError(f"Laplacian spectrum for n={n}, r={r} is not integral")
    return roots
