"""Integral Laplacian spectra on the complex of injective words.

Words without repeated letters form a chain complex under signed deletion.
Its Laplacians are symmetric integer matrices; at full length the Laplacian
is a signed twin of the random-to-random operator, conjugate to it by the
sign-of-sorting involution, so its spectrum is the (integral!) shuffle
spectrum.
"""

from shuffle_spectra import (
    WordVector,
    injective_words,
    laplacian,
    laplacian_spectrum,
    r2r,
    signed_r2r,
    spectrum_for_evaluation,
)
from shuffle_spectra.combinatorics import sign_of_word
from shuffle_spectra.words import operator_matrix


def sign_twist(v):
    """The sign-of-sorting involution: each word scaled by its sign."""
    return WordVector({w: sign_of_word(w) * c for w, c in v.items()})


n = 4
for r in range(n + 1):
    spec = laplacian_spectrum(n, r)
    dim = len(injective_words(n, r))
    print(f"Lambda_{r} on {dim:>2} words: spectrum {dict(sorted(spec.items(), reverse=True))}")

# full length: the Laplacian equals the signed shuffle operator...
words = injective_words(n, n)
signed = operator_matrix(signed_r2r, words)
assert laplacian(n, n) == signed
# ...which is an explicit conjugate of the plain one
assert operator_matrix(lambda v: sign_twist(r2r(sign_twist(v))), words) == signed

# hence the top spectrum is the permutation shuffle spectrum
top = laplacian_spectrum(n, n)
assert top == spectrum_for_evaluation((1,) * n).totals
print(f"\nLambda_{n} spectrum equals the shuffle spectrum on permutations of {n}")
