"""The chain complex of injective words and its Laplacians.

Injective words over {1..n} carry signed deletion maps whose squares vanish;
the Laplacians built from them and their adjoints are symmetric integer
matrices with integral spectra.  At full length the Laplacian coincides with
a signed variant of the random-to-random operator, conjugate to the plain
one by the sign-of-sorting involution, which is how the integrality of the
Laplacian spectra follows from the shuffle spectrum.

Convention at the bottom of the complex: the empty word is the unique basis
element in degree zero, deleting the only letter of a word picks up the sign
of position one, and the out-of-range maps are zero, so the extreme
Laplacians use their single surviving term.

Boundary, coboundary and signed_r2r are maps on single words, extended to
word vectors by the one rule of words, _extend; the Laplacian step
v -> coboundary(boundary(v)) + boundary(coboundary(v)) composes the first
two.  laplacian and boundary_matrix densify their words.operator_columns;
laplacian_spectrum proves each spectrum integral from the sparse columns of
the step, with no matrix and no characteristic polynomial (see
_certify_integral_spectrum).  The Laplacian commutes with relabelling
letters, which acts transitively on the words, so the Krylov sequence of one
word decides annihilation and every multiplicity through the Krylov core of
linalg, in plain ints.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import permutations
from typing import Sequence

from .combinatorics import sign_of_word  # noqa: F401  (re-exported)
from .linalg import ExactMatrix, _annihilating_krylov, _multiplicities, _scatter
from .words import Word, WordVector, _extend, operator_columns, operator_matrix


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

    def images(word):
        for j in range(r):
            yield word[:j] + word[j + 1 :], -1 if (j + 1) % 2 else 1

    return _extend(images, v)


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

    def images(word):
        for letter in range(1, n + 1):
            if letter not in word:
                for j in range(r + 1):
                    yield word[:j] + (letter,) + word[j:], -1 if (j + 1) % 2 else 1

    return _extend(images, v)


def _laplacian_step(n: int, r: int, v: WordVector) -> WordVector:
    """The Laplacian on injective words of length r, applied to one vector."""
    out = WordVector()
    if r >= 1:
        out = out + coboundary(n, r - 1, boundary(n, r, v))
    if r < n:
        out = out + boundary(n, r + 1, coboundary(n, r, v))
    return out


def laplacian(n: int, r: int) -> ExactMatrix:
    """Laplacian on injective words of length r, a symmetric integer matrix."""
    return operator_matrix(partial(_laplacian_step, n, r), injective_words(n, r))


def _signed_r2r_images(word: Word):
    r = len(word)
    if len(set(word)) != r:
        raise ValueError(f"{word} has repeated letters")
    yield word, r
    for u in range(r):
        letter, rest = word[u : u + 1], word[:u] + word[u + 1 :]
        for k in range(r):
            if k != u:
                yield rest[:k] + letter + rest[k:], -1 if (k - u) % 2 else 1


def signed_r2r(v: WordVector) -> WordVector:
    """Signed random-to-random operator on injective words.

    A letter moved from position u to position v picks up the sign of the
    rotation between them; the unmoved term appears with weight r.
    """
    return _extend(_signed_r2r_images, v)


def laplacian_spectrum(n: int, r: int) -> dict[int, int]:
    """Integer spectrum of the Laplacian with multiplicities, ascending.

    Raises AssertionError if the spectrum is not integral, which would
    falsify the integrality statement.
    """
    words = injective_words(n, r)
    columns = operator_columns(partial(_laplacian_step, n, r), words)
    return _certify_integral_spectrum(columns, words)


def _certify_integral_spectrum(columns: list[dict], words: Sequence[Word]) -> dict[int, int]:
    """Prove that an integer matrix on the injective words of one length has
    an integral spectrum, and return it: {eigenvalue: multiplicity} over the
    eigenvalues that occur, in ascending order.

    The matrix M comes as sparse columns, columns[j][i] = M[i][j] for the
    nonzero entries, as words.operator_columns gives them.  words indexes
    the rows and columns and must be every injective word of length r over
    {1..n}, for n its largest letter; S_n acts on them by relabelling
    letters, transitively.  Let N = len(words), R the largest absolute
    column sum (a Gershgorin bound on every eigenvalue of the transpose, so
    of M), w0 = words[0] and p = prod (x - lam) over -R <= lam <= R.  An
    entry that is not an int raises ValueError.  Three exact checks follow,
    in plain ints:

    1. Equivariance: column s w is column w relabelled by s, for s the
       transposition (1 2) and the cycle (1 2 ... n).  These generate S_n,
       so M commutes with the action of all of S_n.
    2. Annihilation: p(M) e_w0 == 0, from the Krylov vectors M^k e_w0, each
       a linalg._scatter of the columns (linalg._annihilating_krylov).  By 1,
       p(M) e_{s w0} = s p(M) e_w0 = 0 for every s, and the words s w0 are
       all the words, so p(M) = 0: M is diagonalizable and its eigenvalues
       are integers in [-R, R].
    3. Multiplicities: by 1, every diagonal entry of M^k equals
       (M^k e_w0)[w0], so tr(M^k) = N (M^k e_w0)[w0], and these traces for
       the k below 2R + 1 fix every multiplicity (linalg._multiplicities).
       A multiplicity that is not an integer raises.

    Rows in place of columns give the same verdict: M and its transpose share
    the spectrum, and each commutes with the relabellings when the other
    does.  Raises ValueError on a word list of the wrong form or a row index
    outside it, and AssertionError when a check fails.
    """
    n = max((max(w) for w in words if w), default=0)
    r = len(words[0]) if words else 0
    size = len(words)
    inside = all(not col or 0 <= min(col) <= max(col) < size for col in columns)
    if len(columns) != size or not inside or sorted(words) != list(injective_words(n, r)):
        raise ValueError("words must be every injective word of one length, one per row")
    bad = next((x for col in columns for x in col.values() if type(x) is not int), None)
    if bad is not None:
        raise ValueError(f"non-integral entry {bad}")
    bound = max((sum(map(abs, col.values())) for col in columns), default=0)

    index = {w: i for i, w in enumerate(words)}
    relabellings = [(0, *range(2, n + 1), 1)] + ([(0, 2, 1, *range(3, n + 1))] if n > 1 else [])
    for s in relabellings:
        image = [index[tuple(s[a] for a in w)] for w in words]
        for j, col in enumerate(columns):
            if columns[image[j]] != {image[i]: x for i, x in col.items()}:
                raise AssertionError(f"Laplacian for n={n}, r={r} does not commute with S_{n}")

    step = partial(_scatter, [col.items() for col in columns], size=size)
    spectrum = range(-bound, bound + 1)
    krylov = _annihilating_krylov(step, [1] + [0] * (size - 1), spectrum)
    if krylov is None:
        raise AssertionError(f"Laplacian spectrum for n={n}, r={r} is not integral")
    out = _multiplicities(spectrum, [size * u[0] for u in krylov[:-1]])
    if out is None:
        raise AssertionError(f"Laplacian for n={n}, r={r}: a multiplicity is not an integer")
    return out
