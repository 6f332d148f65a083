"""Words, word vectors, and the shuffling operators that act on them.

A word is a tuple of 1-based letter indices; a deck of cards is a word whose
last position is the top card.  WordVector is a sparse, integer-first linear
combination of words: eigenvectors, operator images and kernel elements all
live here.  A coefficient is stored as a plain int whenever it is integral
and as a Fraction only where a denominator really arises, so the normalized
eigenvectors and every operator image of them stay in int arithmetic.

Every operator on word vectors, here and in injective, is a map on single
words extended linearly by one rule, _extend: inserting, deleting or
replacing a letter, the three shuffles, the boundary maps and signed_r2r.
The three shuffles act unnormalized (integer coefficients); probability
normalization by 1/n or 1/n^2 happens only when building transition
matrices.  Random-to-top and top-to-random are also tables of n
single-card position moves, _r2t_moves and _t2r_moves, and _apply_moves,
the only code that applies a table to vectors, gathers a plain list of
coefficients over one word space once per move.  Random-to-random is
top-to-random after random-to-top, so on columns it is the two tables in
turn; the eigenbasis check of lifting applies them once to a whole matrix
of vectors packed into one int per word.  Without building any matrix,
certify_r2r_spectra proves, in exact integers, that the r2r counts have a
predicted spectrum.  Its own part is the move check of r2r against the two
tables composed, word by word, and the traces read off the permutation
words through the position permutations that fix each word; annihilation
and multiplicities are the Krylov core of linalg.

Every int column of the package lists its coefficients over the words of
one evaluation in lexicographic order, the order they print in: the tuple
_lex_words.  Deck order, enumerate_words, only orders transition matrices.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import chain, permutations, product
from operator import itemgetter

from .combinatorics import Record, check_evaluation, check_word, multiset_arrangements
from .linalg import ExactMatrix, Scalar, _annihilating_krylov, _multiplicities

Word = tuple[int, ...]
Permutation = tuple[int, ...]


def evaluation_of(word: Word) -> tuple[int, ...]:
    """Letter multiplicities (nu_1, nu_2, ...) up to the largest letter."""
    word = check_word(word)
    top = max(word) if word else 0
    return tuple(word.count(v) for v in range(1, top + 1))


def word_to_text(word: Word) -> str:
    """Digit string when all letters fit in one digit, else a bracketed list."""
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
        return {word_to_text(w): str(c) for w, c in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, data: dict[str, str]) -> "WordVector":
        return cls({word_from_text(w): Fraction(c) for w, c in data.items()})


def _as_vector(v) -> WordVector:
    if isinstance(v, WordVector):
        return v
    return WordVector.unit(v)


def _extend(images, v) -> WordVector:
    """The linear extension to v, a word vector or a word, of the word map
    images: images(word) yields (image word, weight) pairs, a word any number
    of times.  Every coeff * weight is summed into one dict, in int arithmetic
    for int coefficients; WordVector drops the zeros and keeps ints as ints."""
    out: dict[Word, Scalar] = {}
    for word, coeff in _as_vector(v).items():
        for u, weight in images(word):
            out[u] = out.get(u, 0) + weight * coeff
    return WordVector(out)


# -- elementary operators -----------------------------------------------------


def _inserted(letter: int, word: Word):
    for j in range(len(word) + 1):
        yield word[:j] + (letter,) + word[j:], 1


def apply_sh(letter: int, v) -> WordVector:
    """Insert the given letter into every position, summed over positions."""
    check_word((letter,))
    return _extend(partial(_inserted, letter), v)


def _replaced(letter: int, put: Word, word: Word):
    """word with one occurrence of letter replaced by put, for each one."""
    for k, x in enumerate(word):
        if x == letter:
            yield word[:k] + put + word[k + 1 :], 1


def apply_del(letter: int, v) -> WordVector:
    """Delete one occurrence of the letter, summed over occurrences."""
    check_word((letter,))
    return _extend(partial(_replaced, letter, ()), v)


def apply_theta(i: int, j: int, v) -> WordVector:
    """Replace one occurrence of letter i by letter j, summed over occurrences.

    With i == j this is multiplication by the letter count, which is needed
    by several operator identities.
    """
    check_word((i, j))
    return _extend(partial(_replaced, i, (j,)), v)


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


def _r2t_images(word: Word):
    for j in range(len(word)):
        yield word[:j] + word[j + 1 :] + (word[j],), 1


def _t2r_images(word: Word):
    if word:
        yield from _inserted(word[-1], word[:-1])


def _r2r_images(word: Word):
    for j in range(len(word)):
        yield from _inserted(word[j], word[:j] + word[j + 1 :])


def r2t(v) -> WordVector:
    """Random-to-top, unnormalized: every letter moved to the end in turn."""
    return _extend(_r2t_images, v)


def t2r(v) -> WordVector:
    """Top-to-random, unnormalized: the last letter reinserted everywhere."""
    return _extend(_t2r_images, v)


def r2r(v) -> WordVector:
    """Random-to-random, unnormalized: delete a letter, reinsert it anywhere.

    Equals the letter-wise sum of insertions composed with deletions, and
    also the composition of the other two shuffles.  The words of v must
    have one length.
    """
    v = _as_vector(v)
    v.common_length()
    return _extend(_r2r_images, v)


@cache
def _r2t_moves(n: int) -> tuple[tuple[int, ...], ...]:
    """The n moves of t2r on words of length n, the inverses of those of r2t,
    so that _apply_moves applies r2t: the last letter moved to position j, as
    t2r of the position word gives them, sigma = (0, ..., j - 1, n - 1, j,
    ..., n - 2).  A word w goes to w o sigma, (w o sigma)[i] = w[sigma[i]]."""
    return tuple(t2r(tuple(range(n))).words())


@cache
def _t2r_moves(n: int) -> tuple[tuple[int, ...], ...]:
    """The n moves of r2t on words of length n, the inverses of those of t2r,
    so that _apply_moves applies t2r: the letter at position j moved to the
    end, as r2t of the position word gives them."""
    return tuple(r2t(tuple(range(n))).words())


def _gather(indices):
    """itemgetter(*indices), which gathers a tuple; a sequence of at most one
    entry is its own image, so tuple, as itemgetter(0) gives a bare entry."""
    return itemgetter(*indices) if len(indices) > 1 else tuple


def _move_gathers(words, *tables) -> list[list[list[int]]]:
    """For each table of moves, and each move sigma in it, the index in words
    of w o sigma for every w.

    words must be all the words of one evaluation, in any order; this is the
    one place where a move table is applied to a list of words.
    """
    index = {w: i for i, w in enumerate(words)}
    return [[[index[image(w)] for w in words] for image in map(_gather, t)] for t in tables]


def _apply_moves(gathers, column: list) -> list:
    """One column over words under each table of gathers =
    _move_gathers(words, *tables) in turn: r2t for the table _r2t_moves(n),
    t2r for _t2r_moves(n), and r2r for both, in that order.

    Entry i of column is the coefficient of words[i].  A table lists the
    inverses of the moves of its shuffle, so the coefficient of w in the
    image of v is the sum over the table of v[w o sigma]: one C-level gather
    of the column per move, summed per word.  An empty table, at n = 0, maps
    every column to zeros.  Entries stay Python ints or Fractions, so
    nothing can overflow.
    """
    for table in gathers:
        images = [_gather(rows)(column) for rows in table]
        column = list(map(sum, zip(*images))) if images else [0] * len(column)
    return column


# -- word enumeration and transition matrices ---------------------------------


def enumerate_words(evaluation) -> tuple[Word, ...]:
    """All words with the given evaluation, in deck order.

    Words are sorted by their reversal, descending, which reads decks from
    bottom card to top card.  Each word space is built once per process and
    the same tuple returned after.
    """
    return _enumerate_words(check_evaluation(evaluation))


@cache
def _enumerate_words(evaluation: tuple[int, ...]) -> tuple[Word, ...]:
    return tuple(sorted(_lex_words(evaluation), key=lambda w: w[::-1], reverse=True))


@cache
def _lex_words(evaluation: tuple[int, ...]) -> tuple[Word, ...]:
    """The words of a checked evaluation in lexicographic order."""
    # one eigenbasis --evaluation command asks for the same word spaces dozens of times
    letters = [i + 1 for i, mult in enumerate(evaluation) for _ in range(mult)]
    return tuple(multiset_arrangements(letters))


@cache
def _word_index(evaluation: tuple[int, ...]) -> dict[Word, int]:
    """The index of every word in _lex_words(evaluation)."""
    return {w: i for i, w in enumerate(_lex_words(evaluation))}


def _column(v: WordVector, evaluation: tuple[int, ...]) -> list[Scalar]:
    """The coefficients of v over _lex_words(evaluation), in order."""
    index = _word_index(evaluation)
    column = [0] * len(index)
    for w, c in v.items():
        if w not in index:
            raise ValueError(f"word {w} has evaluation {evaluation_of(w)}, expected {evaluation}")
        column[index[w]] = c
    return column


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
    (1,)*n.  Only r2r, the two move tables and the (lam, m) pairs are used,
    in exact arithmetic, and no matrix is built.

    Random-to-random is x = (sum of the t2r moves)(sum of the r2t moves) in
    the group algebra of position permutations, t2r after r2t: the moves
    sigma of r2t are the table _t2r_moves(n), those tau of t2r the table
    _r2t_moves(n), each the inverses of the other.  Let M be the counts on
    the n! permutation words, e the identity word, S the eigenvalues with a
    nonzero multiplicity predicted for M, d = |S|, and p = prod over S of
    (x - lam).

    1. Moves: for every nu, (1,)*n included, and every word w of nu,
       r2r(w) == sum over the n * n pairs of e_{(w o sigma) o tau}.  Row w
       of the counts M_nu is r2r(w) over enumerate_words(nu), so M_nu is x
       acting on the words of nu, and M is x acting on the regular
       representation.
    2. Annihilation: e p(M) = 0, from the Krylov vectors e M^k, each one
       _apply_moves of the one before (linalg._annihilating_krylov).  As
       each table lists the inverses of the other's moves, _apply_moves of
       _r2t_moves, then of _t2r_moves, sends each w to the sum over the
       pairs of e_{(w o sigma) o tau}, so by 1 it is r2r, v -> v M.  By 1,
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
    perms = _lex_words(top)
    spectrum = [lam for lam, m in predicted[top].items() if m]
    tables = _r2t_moves(n), _t2r_moves(n)

    # row w of M is r2r(w), so powers[k] = e M^k holds the coefficients of
    # r2r^k(e); e, the identity word, is the first permutation word
    gathers = _move_gathers(perms, *tables)
    identity = [1] + [0] * (len(perms) - 1)
    powers = _annihilating_krylov(partial(_apply_moves, gathers), identity, spectrum)
    if powers is None:
        return [top]

    failures = []
    for nu, totals in predicted.items():
        order = _lex_words(check_evaluation(nu))
        weight = _fixing_permutations(order, _word_index(top))
        traces = [sum(power[s] * c for s, c in weight.items()) for power in powers[:-1]]
        if not (
            _follows_moves(order, gathers if nu == top else _move_gathers(order, *tables))
            and _multiplicities(spectrum, traces) == {lam: m for lam, m in totals.items() if m}
        ):
            failures.append(nu)
    return [top] if top in failures else failures


def _follows_moves(order, gathers) -> bool:
    """r2r(w) == sum of e_{(w o sigma) o tau} for every word w of order, over
    the moves sigma of r2t and tau of t2r, given gathers =
    _move_gathers(order, _r2t_moves(n), _t2r_moves(n)): the second holds
    the index of w o sigma, and the first that of u o tau.

    The n * n images of w are counted by a Counter, all counts positive,
    and compared with the terms of r2r(w), which hold no zeros either.
    """
    to_random, to_top = gathers
    for i, w in enumerate(order):
        image = Counter(order[second[first[i]]] for first in to_top for second in to_random)
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
