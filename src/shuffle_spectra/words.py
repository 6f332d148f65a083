"""Words, word vectors, and the shuffling operators that act on them.

A word is a tuple of 1-based letter indices; a deck of cards is a word whose
last position is the top card.  WordVector is a sparse, integer-first linear
combination of words: eigenvectors, operator images and kernel elements all
live here.  A coefficient is stored as a plain int whenever it is integral
and as a Fraction only where a denominator really arises, so the normalized
eigenvectors and every operator image of them stay in int arithmetic.

The three shuffles act unnormalized (integer coefficients); probability
normalization by 1/n or 1/n^2 happens only when building transition
matrices.  Random-to-random is also one table of position moves,
_r2r_moves, and _apply_moves, the only code that applies it to vectors,
gathers a plain list of coefficients over one word space once per move; the
eigenbasis check of lifting applies it once to a whole matrix of vectors
packed into one int per word.  Without building any matrix,
certify_r2r_spectra proves, in exact integers, that the r2r counts have a
predicted spectrum.  Its own part is the move check of r2r against
the table, word by word, and the traces read off the permutation words
through the position permutations that fix each word; annihilation and
multiplicities are the Krylov core of linalg.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import chain, permutations, product, repeat
from operator import add, itemgetter, mul

from .combinatorics import Record, multiset_arrangements
from .linalg import ExactMatrix, Scalar, _annihilating_krylov, _multiplicities

Word = tuple[int, ...]
Permutation = tuple[int, ...]


def check_word(word) -> Word:
    word = tuple(word)
    if any(not isinstance(x, int) or x < 1 for x in word):
        raise ValueError(f"letters must be positive integers: {word}")
    return word


def evaluation_of(word: Word) -> tuple[int, ...]:
    """Letter multiplicities (nu_1, nu_2, ...) up to the largest letter."""
    word = check_word(word)
    top = max(word) if word else 0
    return tuple(word.count(v) for v in range(1, top + 1))


def word_to_text(word: Word) -> str:
    """Digit string when all letters fit in one digit, else a bracketed list."""
    return _word_text(tuple(word))


@cache
def _word_text(word: Word) -> str:
    # JSON output renders each word once per vector that holds it.
    if all(x <= 9 for x in word):
        return "".join(str(x) for x in word)
    return "[" + ",".join(str(x) for x in word) + "]"


def word_from_text(text: str) -> Word:
    """Inverse of word_to_text; also accepts letters a, b, c, ... for 1, 2, 3, ..."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unbalanced brackets in {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return check_word(tuple(int(tok) for tok in inner.split(",")))
    letters = []
    for ch in text:
        if ch.isdigit():
            letters.append(int(ch))
        elif "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        else:
            raise ValueError(f"cannot read letter {ch!r} in {text!r}")
    return check_word(tuple(letters))


class WordVector:
    """Sparse exact linear combination of words, integer-first.

    Zero coefficients are never stored, and an integral coefficient is always
    a plain int (a Fraction with denominator 1 is turned back into one), so
    equality is structural equality of the underlying term maps.  Since
    str(2) == str(Fraction(2)) and 2 == Fraction(2), the int form changes no
    printed output.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data: dict[Word, Scalar] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        fractional = False
        for word, coeff in items:
            if type(coeff) is not int:
                coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
                fractional = True
            if coeff:
                word = tuple(word)
                total = data.get(word, 0) + coeff
                if total:
                    data[word] = total
                else:
                    data.pop(word, None)
        if fractional:
            for word, coeff in data.items():
                if type(coeff) is not int and coeff.denominator == 1:
                    data[word] = coeff.numerator
        self._terms = data

    @classmethod
    def _from_ints(cls, terms: dict[Word, int]) -> "WordVector":
        """The vector of a term map that the caller built and hands over: tuple
        words, each once, with int coefficients.  Only the zeros are dropped."""
        out = cls.__new__(cls)
        out._terms = {w: c for w, c in terms.items() if c}
        return out

    @classmethod
    def unit(cls, word) -> "WordVector":
        return cls({tuple(word): 1})

    def items(self):
        return self._terms.items()

    def words(self):
        return self._terms.keys()

    def coefficient(self, word) -> Scalar:
        return self._terms.get(tuple(word), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, WordVector) and self._terms == other._terms

    def __add__(self, other: "WordVector") -> "WordVector":
        return WordVector(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "WordVector") -> "WordVector":
        return self + (-1) * other

    def __neg__(self) -> "WordVector":
        return (-1) * self

    def __rmul__(self, scalar) -> "WordVector":
        if type(scalar) is not int:
            scalar = Fraction(scalar)
        if not scalar:
            return WordVector()
        return WordVector({w: c * scalar for w, c in self._terms.items()})

    def __truediv__(self, scalar) -> "WordVector":
        return Fraction(1, scalar) * self

    def inner(self, other: "WordVector") -> Scalar:
        """Inner product in which the words form an orthonormal basis."""
        small, big = (
            (self._terms, other._terms)
            if len(self._terms) <= len(other._terms)
            else (other._terms, self._terms)
        )
        return sum(c * big[w] for w, c in small.items() if w in big)

    def common_length(self) -> int:
        lengths = {len(w) for w in self._terms}
        if len(lengths) > 1:
            raise ValueError(f"mixed word lengths {sorted(lengths)}")
        return lengths.pop() if lengths else 0

    def __repr__(self) -> str:
        if not self._terms:
            return "WordVector(0)"
        bits = []
        for word in sorted(self._terms):
            c = self._terms[word]
            text = word_to_text(word) if word else "()"
            bits.append(f"{c}*{text}")
        return "WordVector(" + " + ".join(bits) + ")"

    def to_json(self) -> dict[str, str]:
        return {_word_text(w): str(c) for w, c in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, data: dict[str, str]) -> "WordVector":
        return cls({word_from_text(w): Fraction(c) for w, c in data.items()})


def _as_vector(v) -> WordVector:
    if isinstance(v, WordVector):
        return v
    return WordVector.unit(v)


# -- elementary operators -----------------------------------------------------


def apply_sh(letter: int, v) -> WordVector:
    """Insert the given letter into every position, summed over positions."""
    v = _as_vector(v)
    terms: list[tuple[Word, Scalar]] = []
    for word, coeff in v.items():
        for j in range(len(word) + 1):
            terms.append((word[:j] + (letter,) + word[j:], coeff))
    return WordVector(terms)


def apply_del(letter: int, v) -> WordVector:
    """Delete one occurrence of the letter, summed over occurrences."""
    v = _as_vector(v)
    terms: list[tuple[Word, Scalar]] = []
    for word, coeff in v.items():
        for j, x in enumerate(word):
            if x == letter:
                terms.append((word[:j] + word[j + 1 :], coeff))
    return WordVector(terms)


def apply_theta(i: int, j: int, v) -> WordVector:
    """Replace one occurrence of letter i by letter j, summed over occurrences.

    With i == j this is multiplication by the letter count, which is needed
    by several operator identities.
    """
    v = _as_vector(v)
    terms: list[tuple[Word, Scalar]] = []
    for word, coeff in v.items():
        for k, x in enumerate(word):
            if x == i:
                terms.append((word[:k] + (j,) + word[k + 1 :], coeff))
    return WordVector(terms)


@cache
def _shuffle_words(u: Word, w: Word) -> tuple[tuple[Word, int], ...]:
    if not u:
        return ((w, 1),)
    if not w:
        return ((u, 1),)
    counts: dict[Word, int] = {}
    for rest, c in _shuffle_words(u[:-1], w):
        counts[rest + (u[-1],)] = counts.get(rest + (u[-1],), 0) + c
    for rest, c in _shuffle_words(u, w[:-1]):
        counts[rest + (w[-1],)] = counts.get(rest + (w[-1],), 0) + c
    return tuple(counts.items())


def shuffle_product(u, w) -> WordVector:
    """Sum of all interleavings of two words, with multiplicity."""
    return WordVector(_shuffle_words(check_word(u), check_word(w)))


def apply_permutation(word: Word, sigma: Permutation) -> Word:
    """Right position action: position i of the result holds letter sigma(i) of the input."""
    word, sigma = check_word(word), tuple(sigma)
    if len(word) != len(sigma):
        raise ValueError("word length and permutation degree differ")
    if sorted(sigma) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation: {sigma}")
    return tuple(word[sigma[i] - 1] for i in range(len(word)))


# -- the three shuffles -------------------------------------------------------


def r2t(v) -> WordVector:
    """Random-to-top, unnormalized: every letter moved to the end in turn."""
    v = _as_vector(v)
    terms: list[tuple[Word, Scalar]] = []
    for word, coeff in v.items():
        for j in range(len(word)):
            terms.append((word[:j] + word[j + 1 :] + (word[j],), coeff))
    return WordVector(terms)


def t2r(v) -> WordVector:
    """Top-to-random, unnormalized: the last letter reinserted everywhere."""
    v = _as_vector(v)
    terms: list[tuple[Word, Scalar]] = []
    for word, coeff in v.items():
        if word:
            rest, letter = word[:-1], word[-1:]
            for j in range(len(word)):
                terms.append((rest[:j] + letter + rest[j:], coeff))
    return WordVector(terms)


def r2r(v) -> WordVector:
    """Random-to-random, unnormalized: delete a letter, reinsert it anywhere.

    Equals the letter-wise sum of insertions composed with deletions, and
    also the composition of the other two shuffles.  The images are summed
    straight into one dict, which with int coefficients stays in int
    arithmetic throughout.
    """
    v = _as_vector(v)
    v.common_length()
    out: dict[Word, Scalar] = {}
    for word, coeff in v.items():
        n = len(word)
        for j in range(n):
            letter = word[j : j + 1]
            rest = word[:j] + word[j + 1 :]
            for k in range(n):
                u = rest[:k] + letter + rest[k:]
                out[u] = out.get(u, 0) + coeff
    return WordVector(out)


@cache
def _r2r_moves(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The distinct moves of r2r on words of length n, with multiplicities.

    Deleting the letter at position j and reinserting it at k sends a word u
    to u o sigma, where (u o sigma)[i] = u[sigma[i]] with 0-based positions.
    The n moves with j == k are the identity and the two moves between
    neighbouring positions coincide, which leaves 1 + (n - 1)**2 moves.
    """
    positions = tuple(range(n))
    counts: dict[tuple[int, ...], int] = {}
    for j in range(n):
        rest = positions[:j] + positions[j + 1 :]
        for k in range(n):
            sigma = rest[:k] + (j,) + rest[k:]
            counts[sigma] = counts.get(sigma, 0) + 1
    return tuple(counts.items())


@cache
def _r2t_moves(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The inverses of the moves of r2t on words of length n: the last
    letter moved to position j, sigma = (0, ..., j - 1, n - 1, j, ..., n - 2)."""
    return tuple(((*range(j), n - 1, *range(j, n - 1)), 1) for j in range(n))


def _gather(indices):
    """itemgetter(*indices), which gathers a tuple; a sequence of at most one
    entry is its own image, so tuple, as itemgetter(0) gives a bare entry."""
    return itemgetter(*indices) if len(indices) > 1 else tuple


def _move_gathers(words, moves=None) -> list[tuple[list[int], int]]:
    """For each move (sigma, m) of the table (default _r2r_moves), the index
    in words of w o sigma for every w.

    words must be all the words of one evaluation, in any order; this is the
    one place where a move table is applied to a list of words.
    """
    index = {w: i for i, w in enumerate(words)}
    gathers = []
    for sigma, m in _r2r_moves(len(words[0])) if moves is None else moves:
        image = _gather(sigma)
        gathers.append(([index[image(w)] for w in words], m))
    return gathers


def _apply_moves(gathers, column: list) -> list:
    """r2r of one column over words, given gathers = _move_gathers(words),
    or r2t given the inverse moves _r2t_moves.

    Entry i of column is the coefficient of words[i].  The r2r moves are
    closed under inverses (delete at j and insert at k undoes delete at k
    and insert at j), so the coefficient of w in r2r(v) is the sum over the
    moves of m * v[w o sigma]: one C-level gather of the column per move,
    summed per word, with the moves of equal multiplicity added up first.
    Entries stay Python ints or Fractions, so nothing can overflow.
    """
    images: dict[int, list[tuple]] = {}
    for rows, m in gathers:
        images.setdefault(m, []).append(_gather(rows)(column))
    out = [0] * len(column)
    for m, terms in images.items():
        out = list(map(add, out, map(mul, repeat(m), map(sum, zip(*terms)))))
    return out


# -- word enumeration and transition matrices ---------------------------------


def enumerate_words(evaluation) -> tuple[Word, ...]:
    """All words with the given evaluation, in deck order.

    Words are sorted by their reversal, descending, which reads decks from
    bottom card to top card.  Each word space is built once per process and
    the same tuple returned after.
    """
    evaluation = tuple(evaluation)
    if any(not isinstance(x, int) or x < 0 for x in evaluation):
        raise ValueError(f"bad evaluation: {evaluation}")
    return _enumerate_words(evaluation)


@cache
def _enumerate_words(evaluation: tuple[int, ...]) -> tuple[Word, ...]:
    # one eigenbasis --evaluation command asks for the same word spaces dozens of times
    letters = [i + 1 for i, mult in enumerate(evaluation) for _ in range(mult)]
    words = multiset_arrangements(letters)
    return tuple(sorted(words, key=lambda w: tuple(reversed(w)), reverse=True))


@cache
def _word_index(evaluation: tuple[int, ...]) -> dict[Word, int]:
    """The index of every word in enumerate_words(evaluation)."""
    return {w: i for i, w in enumerate(enumerate_words(evaluation))}


def _column(v: WordVector, evaluation: tuple[int, ...]) -> list[Scalar]:
    """The coefficients of v over enumerate_words(evaluation), in order."""
    index = _word_index(evaluation)
    column = [0] * len(index)
    for w, c in v.items():
        if w not in index:
            raise ValueError(f"word {w} has evaluation {evaluation_of(w)}, expected {evaluation}")
        column[index[w]] = c
    return column


@cache
def _lex_order(evaluation: tuple[int, ...]) -> tuple[int, ...]:
    """Indices of the words of enumerate_words(evaluation) in lexicographic
    word order, the order of sorted word vectors."""
    words = enumerate_words(evaluation)
    return tuple(sorted(range(len(words)), key=words.__getitem__))


SHUFFLES = {
    "r2r": (r2r, 2),
    "r2t": (r2t, 1),
    "t2r": (t2r, 1),
}


class TransitionMatrix(Record):
    """Transition matrix of a shuffle on the words of one evaluation.

    counts holds the integer one-step transition weights; the probability
    matrix is counts scaled by `scale` (1/n for the one-sided shuffles,
    1/n^2 for random-to-random).  Entry (w, u) is the weight of moving from
    deck w to deck u.
    """

    shuffle: str
    evaluation: tuple[int, ...]
    order: tuple[Word, ...]
    scale: Fraction
    counts: ExactMatrix

    @property
    def matrix(self) -> ExactMatrix:
        return self.counts.scale(self.scale)

    def to_json(self) -> dict:
        return {
            "schema": "shuffle-spectra/transition-matrix/1",
            "shuffle": self.shuffle,
            "evaluation": list(self.evaluation),
            "order": [word_to_text(w) for w in self.order],
            "scale": str(self.scale),
            "entries": [list(row) for row in self.counts.data],
        }


def transition_matrix(shuffle: str, evaluation) -> TransitionMatrix:
    """One-step transition matrix over enumerate_words(evaluation)."""
    if shuffle not in SHUFFLES:
        raise ValueError(f"unknown shuffle {shuffle!r}")
    op, power = SHUFFLES[shuffle]
    words = enumerate_words(evaluation)
    n = sum(evaluation)
    counts = operator_matrix(op, words).transpose()
    scale = Fraction(1, n**power) if n else Fraction(1)
    return TransitionMatrix(shuffle, tuple(evaluation), words, scale, counts)


def certify_r2r_spectra(n: int, predicted) -> list[tuple[int, ...]]:
    """Prove that each r2r counts matrix has exactly its predicted spectrum.

    predicted maps evaluations of size n, the permutation deck (1,)*n among
    them, to {eigenvalue: multiplicity}.  The claim for an evaluation nu is
    that transition_matrix("r2r", nu).counts has characteristic polynomial
    prod (x - lam)^m over its map.  Returns the evaluations whose claim is
    not proved, in the order given; an empty list proves every claim.  A
    failed check on the permutation deck proves nothing and returns only
    (1,)*n.  Only r2r, the move table and the (lam, m) pairs are used, in
    exact arithmetic, and no matrix is built.

    Random-to-random is x = sum m sigma in the group algebra of position
    permutations, over the moves (sigma, m) of _r2r_moves(n).  Let M be the
    counts on the n! permutation words, e the identity word, S the
    eigenvalues with a nonzero multiplicity predicted for M, d = |S|, and
    p = prod over S of (x - lam).

    1. Moves: for every nu, (1,)*n included, and every word w of
       enumerate_words(nu), r2r(w) == sum m e_{w o sigma}.  Row w of the
       counts M_nu is r2r(w) over enumerate_words(nu), so M_nu is x acting
       on the words of nu, and M is x acting on the regular representation.
    2. Annihilation: e p(M) = 0, from the Krylov vectors e M^k, each one
       _apply_moves of the one before (linalg._annihilating_krylov).  By 1,
       e p(M) is p(x) written in permutation words, so p(x) = 0 and
       p(M_nu) = 0 for every nu: each M_nu is diagonalizable with its
       spectrum inside S.
    3. Multiplicities: by 1, the diagonal entry of M_nu^k at a word w is the
       coefficient of w in w x^k, the sum of (e M^k)[sigma] over the
       position permutations sigma with w o sigma == w; summed over the
       words of nu, that is tr(M_nu^k).  The Vandermonde matrix on S is
       invertible, so the traces for k < d fix every multiplicity
       (linalg._multiplicities), and the claim holds iff those are its
       nonzero (lam, m) pairs.
    """
    top = (1,) * n
    if top not in predicted or any(sum(nu) != n for nu in predicted):
        raise ValueError(f"predictions must cover {top} and have size {n}")
    perms = enumerate_words(top)
    index = {w: i for i, w in enumerate(perms)}
    spectrum = [lam for lam, m in predicted[top].items() if m]

    # row w of M is r2r(w), so powers[k] = e M^k holds the coefficients of r2r^k(e)
    gathers = _move_gathers(perms)
    identity = [0] * len(perms)
    identity[index[tuple(range(1, n + 1))]] = 1
    powers = _annihilating_krylov(partial(_apply_moves, gathers), identity, spectrum)
    if powers is None:
        return [top]

    failures = []
    for nu, totals in predicted.items():
        order = enumerate_words(nu)
        weight = _fixing_permutations(order, index)
        traces = [sum(power[s] * c for s, c in weight.items()) for power in powers[:-1]]
        if not (
            _follows_moves(order, gathers if nu == top else _move_gathers(order))
            and _multiplicities(spectrum, traces) == {lam: m for lam, m in totals.items() if m}
        ):
            failures.append(nu)
    return [top] if top in failures else failures


def _follows_moves(order, gathers) -> bool:
    """r2r(w) == sum m e_{w o sigma} for every word w of order, given
    gathers = _move_gathers(order).

    The move image of w is summed into a plain dict of positive counts and
    compared with the terms of r2r(w), which hold no zeros either.
    """
    for i, w in enumerate(order):
        image: dict[Word, int] = {}
        for targets, m in gathers:
            u = order[targets[i]]
            image[u] = image.get(u, 0) + m
        if r2r(w).items() != image.items():
            return False
    return True


def _fixing_permutations(order, index) -> dict[int, int]:
    """Number of words x in order with x o sigma == x, keyed by index[sigma].

    sigma runs over the position permutations, written as words, that only
    exchange positions holding equal letters of x.
    """
    weight: dict[int, int] = {}
    for x in order:
        groups = [[i for i, y in enumerate(x) if y == b] for b in set(x)]
        for images in product(*(permutations(g) for g in groups)):
            sigma = [0] * len(x)
            for g, img in zip(groups, images):
                for i, j in zip(g, img):
                    sigma[i] = j + 1
            k = index[tuple(sigma)]
            weight[k] = weight.get(k, 0) + 1
    return weight


def operator_columns(op, sources, targets=None) -> list[dict[int, Scalar]]:
    """Sparse matrix of a word-vector operator in column convention.

    Column j maps the index in targets (default: sources, which must then
    be words) of each word of op(sources[j]) to its nonzero coefficient.
    No other code indexes operator images (lifting packs word vectors).
    """
    sources = tuple(sources)
    index = {w: i for i, w in enumerate(sources if targets is None else targets)}
    return [{index[u]: c for u, c in op(_as_vector(w)).items()} for w in sources]


def operator_matrix(op, sources, targets=None) -> ExactMatrix:
    """operator_columns densified, so matrix kernels are operator kernels."""
    sources = tuple(sources)
    targets = sources if targets is None else tuple(targets)
    columns = [[0] * len(targets) for _ in sources]
    for col, sparse in zip(columns, operator_columns(op, sources, targets)):
        for i, c in sparse.items():
            col[i] = c
    return ExactMatrix.from_columns(columns)
