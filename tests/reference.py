"""Second definitions that the tests check the library against.

Nothing in the package calls these; they exist so that lifts, embeddings,
the position action and every proved spectrum can be checked by an
independent route.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from shuffle_spectra.combinatorics import multiset_arrangements, part
from shuffle_spectra.linalg import ExactMatrix, IntPolynomial, _PRIME_CAP, _prime_stream
from shuffle_spectra.words import (
    Permutation,
    WordVector,
    apply_sh,
    apply_theta,
    evaluation_of,
    operator_matrix,
)


def word_rank(vectors: list[WordVector]) -> int:
    """Rank of word vectors, over the words that occur in them."""
    words = sorted({w for v in vectors for w in v.words()})
    return operator_matrix(lambda v: v, vectors, words).rank()


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


# A dot product of this many products of two residues below _PRIME_CAP stays
# inside the int64 arithmetic of _charpoly_mod.
_CHARPOLY_MAX_DIM = (1 << 63) // (_PRIME_CAP * _PRIME_CAP)


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
    for p in _prime_stream():
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
