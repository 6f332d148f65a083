"""Lifting operators and the recursive eigenbasis construction.

A lift maps the Specht module of a shape into the Specht module of the shape
with one extra cell in a chosen row, sending eigenvectors of the
random-to-random operator to eigenvectors one size up.  It is a closed form,
a sum over chains of rows evaluated by one integer recursion over the rows;
the tests check it against the chain sum itself and against insertion
followed by orthogonal projection.

The recursion runs on int columns over the words of one evaluation: sh_b
and theta_{a->b} are 0/1 maps between word spaces, each a cached table of n
per-position gathers (_lift_gathers), so an image is n C-level gathers,
summed.  All kernel vectors of one inner shape go through their chain of
lifts together, packed into one int per word with signed digits (Kronecker
substitution).  lifted_b sums g_b sh_b(v) and w_ab theta_{a->b}(lifted_a)
over a < b, and an image sums at most n entries, so if M and M_a bound the
entries of v and lifted_a, M_b <= |g_b| n M + sum over a of |w_ab| n M_a.

Kernel bases are nullspaces of B, the images of the Specht basis vectors
under random-to-top over the words of the shape, taken on int columns
(_kernel_columns).  Random-to-random is top-to-random after random-to-top,
the transpose of random-to-top in the word basis, so both have one kernel,
and random-to-top costs n images per word where random-to-random costs n^2.
The basis, packed one int per word, goes through n position gathers, and
the distinct rows of B up to sign are the distinct absolute values of those
ints.  The nullspace of rows among them picked independent modulo a prime
contains ker B; random-to-top of every one of its vectors, packed, must be
exactly zero, else it is taken again over all the distinct rows.

Composing lifts along the rows of a horizontal strip, smallest row first,
and feeding in those kernel bases of the smaller shapes produces a complete
eigenbasis of every Specht module; each lift is kept as an integer multiple,
which the scalar normal form of an eigenvector cannot tell apart, so no
eigenvector costs a division.  Pushing those through the module embeddings
indexed by semistandard tableaux yields a full eigenbasis of any word space.

Both eigenbases pass one check core, `_check_columns`, as strips (outer,
inner, eigenvalue, columns) of int columns: with V the matrix of their
vectors over the words of the space and Lambda that of their eigenvalues,
r2r V == V Lambda and rank V == dim of the space, exactly, on the rows of V
packed into one int each by one int.from_bytes of their biased digits.
Each EigenbasisEntry is built once, with its vectors, from a checked strip.

The eigenbasis of a word space is checked once, on the word space.  Its
Specht eigenbases are not checked on their own: theta_t is injective on a
Specht module and commutes with r2r, and every Specht module pushed has a
tableau, so a broken eigen-equation or a lost rank there shows in the images.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import repeat
from operator import add, itemgetter, mul, sub

from .combinatorics import (
    Partition,
    Record,
    _dominating_partitions,
    _strip_inners,
    check_partition,
    check_skew,
    desarrangement_count,
    part,
    semistandard_tableaux,
    standard_tableaux,
)
from .linalg import _clear_denominators, _nullspace, _picked_rows, _rank, _scatter
from .spectrum import eig_strip, sort_evaluation
from .specht import _polytabloid_terms, theta_column
from .words import (
    WordVector,
    _apply_moves,
    _column,
    _lex_words,
    _move_gathers,
    _r2t_moves,
    _t2r_moves,
    _word_index,
    check_evaluation,
    evaluation_of,
)

def normalize_vector(v: WordVector) -> WordVector:
    """Scalar normal form: integer coefficients with content one, and the
    coefficient of the lexicographically first word positive, by
    _normal_column.  A vector already in normal form comes back as it is."""
    words = sorted(v.words())
    coeffs = [v.coefficient(w) for w in words]
    # _clear_denominators hands a list of ints back as it is, and
    # _normal_column a column in normal form
    column = _normal_column(_clear_denominators(coeffs))
    return v if column is coeffs else WordVector._from_ints(dict(zip(words, column)))


def _digit_bytes(bound: int) -> int:
    """The least nbytes with 2**(8 * nbytes - 1) > bound: the bytes of a signed
    digit of absolute value at most bound."""
    return bound.bit_length() // 8 + 1


def _normal_column(column: list[int]) -> list[int]:
    """The scalar normal form of an int column: content one, and its first
    nonzero entry, at the first word, positive.  A column in normal form comes
    back as it is, and a zero column stays zero, for the check to report."""
    divisor = math.gcd(*column)
    if not divisor:
        return column
    if next(filter(None, column)) < 0:
        divisor = -divisor
    return column if divisor == 1 else [c // divisor for c in column]


def _added_rows(outer: Partition, inner: Partition) -> list[int]:
    """Rows gaining a cell, weakly increasing, with multiplicity."""
    outer, inner = check_skew(outer, inner)
    return [i for i in range(1, len(outer) + 1) for _ in range(outer[i - 1] - part(inner, i))]


def _check_lift_target(shape: Partition, row: int) -> Partition:
    shape = check_partition(shape)
    if row < 1 or row > len(shape) + 1:
        raise ValueError(f"cannot add a cell in row {row} of {shape}")
    target = list(shape) + [0] * (row - len(shape))
    target[row - 1] += 1
    if not (row == 1 or target[row - 2] >= target[row - 1]):
        raise ValueError(f"{shape} plus a cell in row {row} is not a partition")
    return tuple(target)


def lift(shape: Partition, row: int, v: WordVector) -> WordVector:
    """Closed-form lift of v from the Specht module of shape into the Specht
    module with one more cell in the given row.

    Sums, over all chains b_1 < ... < b_t < row, the insertion of letter b_1
    followed by the replacements b_1 -> b_2 -> ... -> row, weighted by the
    inverse gaps of the adjusted part lengths; the empty chain is the plain
    insertion of the row's letter.  The input must lie in the source Specht
    module for the output to land in the target one.  The sum is evaluated
    row by row in integers, on the column of v (_lift_columns), with one
    division at the end.
    """
    return lift_chain(_check_lift_target(shape, row), shape, v)


def lift_chain(outer: Partition, inner: Partition, v: WordVector) -> WordVector:
    """Composite lift along the rows of outer/inner, smallest rows first.

    The weakly increasing order is what makes deferring all projections to
    the closed form valid; the composite is identically zero whenever the
    skew shape has two cells in one column.  It divides once, at the end.
    The words of v must have the evaluation inner: this and lift are the
    WordVector form of _lift_columns, which the eigenbases call.
    """
    outer, inner = check_skew(outer, inner)
    column = _column(v, inner)
    # lift d * v in ints, d the lcm of the denominators
    d = math.lcm(*(c.denominator for c in column))
    (lifted,), scale = _lift_columns(outer, inner, [[int(c * d) for c in column]])
    return WordVector(zip(_lex_words(outer), lifted)) / (scale * d)


@cache
def _lift_gathers(shape: Partition, a: int, b: int) -> tuple[itemgetter, ...]:
    """Per-position gathers of sh_b (a == 0) or theta_{a->b}, from the words
    of shape + e_a to those of shape + e_b: gather j reads, for each target
    word w with w[j] == b, the index of w with position j removed (sh_b) or
    set to a (theta), and at every other word, and once more at its end,
    the index of a trailing 0.  The gathers of a column followed by one 0
    sum to its image in the same form; put replaces b at position j."""
    put, word = (a,) if a else (), _lex_words(shape)[0]
    index = _word_index(evaluation_of(word + put))
    targets, end = _lex_words(evaluation_of(word + (b,))), len(index)
    return tuple(
        itemgetter(*[index[w[:j] + put + w[j + 1 :]] if w[j] == b else end for w in targets], end)
        for j in range(len(targets[0]))
    )


def _lift_columns(outer: Partition, inner: Partition, columns: list[list[int]]) -> tuple[list, int]:
    """([g * lift_chain(outer, inner, u) for u in columns], g) for int
    columns over the words of inner, lifted to the words of outer, with g
    the product of the gaps along the chain, never zero as every gap is
    negative.  The columns are lifted packed, under the module's bound."""
    steps, shape = [], inner
    bound = max(max(map(abs, col)) for col in columns)
    for row in _added_rows(outer, inner):
        # gap of each row b above row; at most b - row < 0, as part(shape, b) >= part(shape, row)
        gaps = [(part(shape, row) - row) - (part(shape, b) - b) for b in range(1, row)]
        # weights[b - 1][a]: the weight of sh_b(v) (a == 0) or theta_{a->b}(lifted_a) in lifted_b
        weights = [[math.prod(gaps[a : b - 1]) for a in range(b)] for b in range(1, row + 1)]
        sizes = [bound]
        for ws in weights:
            sizes.append((sum(shape) + 1) * sum(abs(w) * m for w, m in zip(ws, sizes)))
        bound = sizes[-1]
        steps.append((shape, weights))
        shape = _check_lift_target(shape, row)
    nbytes = _digit_bytes(bound)
    rows, bias = _biased_rows(columns, nbytes)
    packed = [r - bias for r in rows] + [0]
    for shape, weights in steps:
        lifted = [packed]
        for b, ws in enumerate(weights, 1):
            images = []
            for a, (w, x) in enumerate(zip(ws, lifted)):
                x = x if w == 1 else list(map(mul, x, repeat(w)))
                images.extend(gather(x) for gather in _lift_gathers(shape, a, b))
            lifted.append(list(map(sum, zip(*images))))
        packed = lifted[-1]
    lifted = list(map(list, zip(*_digits(packed[:-1], nbytes, len(columns)))))
    return lifted, math.prod(weights[-1][0] for _, weights in steps)


@cache
def kernel_basis(shape: Partition) -> tuple[WordVector, ...]:
    """Basis of the kernel of the random-to-random operator on the Specht
    module of the shape, in the deterministic nullspace normal form.

    It is the kernel of random-to-top over the words (_kernel_columns): the
    nullspace of distinct rows picked modulo a prime, checked exactly, else
    of all distinct rows.  r2r = t2r o r2t with t2r the transpose of r2t, so
    r2r(v) = 0 gives |r2t(v)|^2 = <v, r2r(v)> = 0, and the reduced basis
    depends only on the subspace.  Its dimension is checked against the
    desarrangement count, and `eigenbasis` checks it again against r2r.
    """
    shape = check_partition(shape)
    return _vectors(_lex_words(shape), _kernel_columns(shape))


def _kernel_rows(terms, null, n: int, size: int) -> tuple[list[int], int]:
    """(rows, nbytes): each nullspace vector c, cleared of denominators, as
    sum over j of c[j] w_j packed one int per word, nbytes bytes per digit,
    scattered from terms = _polytabloid_terms of the shape:
    max(n, 1) * sum |c[j]| bounds each entry and each of its r2t image."""
    null = [_clear_denominators(c) for c in null]
    nbytes = _digit_bytes(max(n, 1) * max((sum(map(abs, c)) for c in null), default=0))
    coeffs = [sum(c[j] << (8 * nbytes * i) for i, c in enumerate(null)) for j in range(len(terms))]
    return _scatter(terms, coeffs, size), nbytes


@cache
def _kernel_columns(shape: Partition) -> tuple[list[int], ...]:
    """kernel_basis(shape) as normalized int columns, by the row pick and
    exact check of the module docstring; |B| <= n."""
    words, terms, n = _lex_words(shape), _polytabloid_terms(shape), sum(shape)
    gathers, nbytes = _move_gathers(words, _r2t_moves(n)), _digit_bytes(n)
    basis = _scatter(terms, [1 << (8 * nbytes * j) for j in range(len(terms))], len(words))
    distinct = [x for x in dict.fromkeys(map(abs, _apply_moves(gathers, basis))) if x]
    rows = _digits(distinct, nbytes, len(terms))
    for some in (_picked_rows(rows), rows):
        null = _nullspace(some, len(terms))
        packed, nbytes = _kernel_rows(terms, null, n, len(words))
        if not any(_apply_moves(gathers, packed)):
            break
    else:
        raise AssertionError(f"r2t does not annihilate the kernel of {shape}")
    columns = tuple(_normal_column(list(c)) for c in zip(*_digits(packed, nbytes, len(null))))
    if len(columns) != (expected := desarrangement_count(shape)):
        raise AssertionError(f"kernel of {shape} has dimension {len(columns)}, expected {expected}")
    return columns


class EigenbasisEntry(Record):
    """Eigenvectors contributed by one horizontal strip.

    vectors are normalized lifts of the kernel basis of the inner shape, in
    the order of that basis.  Every vector satisfies r2r(v) = eigenvalue * v
    exactly.  It is built once, from a checked strip of int columns.
    """

    outer: Partition
    inner: Partition
    eigenvalue: int
    vectors: tuple[WordVector, ...]


def _biased_rows(columns: list[list[int]], nbytes: int) -> tuple[list[int], int]:
    """(rows, bias): row i sums (columns[j][i] + half) * 2**(8 * nbytes * j)
    over j, half = 2**(8 * nbytes - 1) being above every |entry|, and bias
    sums half alone; each row is read at once from nbytes bytes per entry."""
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * len(columns), "little")
    # map stops at the end of the row, so the endless repeats serve every row
    halves, sizes, order = repeat(half), repeat(nbytes), repeat("little")
    rows = zip(*columns)
    data = (b"".join(map(int.to_bytes, map(add, row, halves), sizes, order)) for row in rows)
    return [int.from_bytes(row, "little") for row in data], bias


def _digits(packed: list[int], nbytes: int, count: int) -> list:
    """The count signed digits of nbytes bytes, lowest first, of each int of
    packed, all below half = 2**(8 * nbytes - 1) in absolute value: biased by
    half (_biased_rows), a digit with its top bit flipped is itself in two's
    complement."""
    bias = int.from_bytes((1 << (8 * nbytes - 1)).to_bytes(nbytes, "little") * count, "little")
    data = [((p + bias) ^ bias).to_bytes(nbytes * count, "little") for p in packed]
    at = range(0, nbytes * count, nbytes)
    return [[int.from_bytes(r[i : i + nbytes], "little", signed=True) for i in at] for r in data]


def _check_columns(strips, words, dimension: int, space: str) -> None:
    """Raise AssertionError unless the int columns of the (outer, inner,
    eigenvalue, columns) strips are nonzero eigenvectors for their strips'
    eigenvalues and form a basis of the span of words, a space of the given
    dimension.

    words must be all the words of one evaluation, and each column lists the
    coefficients of one vector over them.  V holds the columns and Lambda
    their eigenvalues.  With n the word length and
    B = max |V| * max(n**2, max |Lambda|, 1), every entry of r2r V, of V and
    of V Lambda is at most B in absolute value: r2r is t2r after r2t, each
    entry a sum of n entries of r2t V, themselves sums of n entries of V.
    Each row w of V is packed into P[w] = sum over j of V[w][j] * 2**(b*j),
    and of V Lambda into S[w], where 2**b > 2B and b is a whole number of
    bytes.  _biased_rows packs the digits plus 2**(b-1) in linear time, and
    S[w] is the sum, over the eigenvalues lam, of lam times the digits of
    lam's columns, masked out of that biased row, less their bias.
    `_apply_moves` of the tables of r2t and then of t2r maps P to the packed
    rows of r2r V, so D = r2r P - S packs the digits d_j of
    r2r V - V Lambda, each with |d_j| <= 2B < 2**b.  A packed int with such
    digits is zero only when every digit is, and its lowest set bit lies in
    the digit of its first nonzero one: D == 0 is every eigen-equation, and
    the first failing vector is the least (lowest set bit of d) // b over
    the nonzero entries d of D.  Once every eigen-equation holds, vectors of
    distinct eigenvalues are independent, so rank V is the sum of the ranks
    of its blocks of one eigenvalue each, by linalg._rank.  Everything runs
    in plain ints, so nothing rounds or overflows.  Each message names the
    first failing vector.
    """
    columns = [col for *_, cols in strips for col in cols]
    labels = [f"vector {j} of strip {o}/{i}" for o, i, _, c in strips for j in range(len(c))]
    blocks: dict[int, list[int]] = {}  # the vectors of each eigenvalue
    for j, lam in enumerate(lam for _, _, lam, cols in strips for _ in cols):
        blocks.setdefault(lam, []).append(j)
    n = len(words[0])
    top = max((max(map(abs, col)) for col in columns), default=0)
    nbytes = _digit_bytes(2 * top * max([n * n, 1, *map(abs, blocks)]))
    b = 8 * nbytes
    # the rows of V packed, and those of V Lambda from their biased digits, of
    # one eigenvalue at a time; with no vectors, every word packs to 0
    biased, bias = _biased_rows(columns, nbytes)
    masks = [sum(((1 << b) - 1) << (b * j) for j in js) for js in blocks.values()]
    parts = [(lam, m, bias & m) for lam, m in zip(blocks, masks)]
    packed = [q - bias for q in biased] or [0] * len(words)
    scaled = [sum(lam * ((q & m) - o) for lam, m, o in parts) for q in biased] or packed
    image = _apply_moves(_move_gathers(words, _r2t_moves(n), _t2r_moves(n)), packed)
    failing = min(
        (((d & -d).bit_length() - 1) // b for d in map(sub, image, scaled) if d),
        default=len(columns),
    )
    zero = next((j for j, col in enumerate(columns) if not any(col)), len(columns))
    if zero < failing:
        raise AssertionError(f"zero {labels[zero]} in {space}")
    if failing < len(columns):
        raise AssertionError(f"eigen-equation failed for {labels[failing]} in {space}")
    ranks = (_rank([columns[j] for j in js]) for js in blocks.values())
    if len(columns) != dimension or sum(ranks) != dimension:
        raise AssertionError(f"eigenvectors do not span {space}")


def _lifted_entries(shape: Partition) -> list[tuple]:
    """The strips of eigenbasis(shape), unchecked: one (outer, inner,
    eigenvalue, columns) strip per inner shape with a nonzero kernel, the
    columns the normal forms of the lifts of its kernel basis."""
    strips = []
    for inner in _strip_inners(shape):
        kernel = _kernel_columns(inner)
        if kernel:
            # the normal form is the same for every nonzero multiple, so the
            # integral lift needs no division
            lifted = [_normal_column(col) for col in _lift_columns(shape, inner, kernel)[0]]
            strips.append((shape, inner, eig_strip(shape, inner), lifted))
    return strips


def _vectors(words, columns) -> tuple[WordVector, ...]:
    """The vectors of int columns over words, their terms in word order."""
    return tuple(WordVector._from_ints(dict(zip(words, col))) for col in columns)


@cache
def eigenbasis(shape: Partition) -> tuple[EigenbasisEntry, ...]:
    """Complete eigenbasis of the random-to-random operator on a Specht module.

    One entry per horizontal strip inner shape with a nonzero kernel; the
    union of all vectors has full rank, and per-strip dimensions equal the
    inner shapes' desarrangement counts.  Raises if any of that fails, since
    a failure would falsify the construction rather than the input.
    """
    words, strips = specht_eigenbasis_columns(shape)
    return tuple(EigenbasisEntry(o, i, lam, _vectors(words, c)) for o, i, lam, c in strips)


def specht_eigenbasis_columns(shape: Partition):
    """The eigenbasis of eigenbasis(shape) as checked int columns: the words
    of the shape and the strips of _lifted_entries."""
    shape = check_partition(shape)
    words, strips = _lex_words(shape), _lifted_entries(shape)
    _check_columns(strips, words, len(standard_tableaux(shape)), f"the Specht module of {shape}")
    return words, strips


def eigenbasis_columns(evaluation):
    """The eigenbasis of eigenbasis_for_evaluation as checked int columns.

    Returns the words of the evaluation and one (tableau, strip) pair per
    tableau and Specht strip, the strip (outer, inner, eigenvalue, columns)
    with the normal forms of its pushes.
    """
    evaluation = check_evaluation(evaluation)
    words, pushed = _lex_words(evaluation), []
    for outer in _dominating_partitions(sort_evaluation(evaluation)):
        strips = _lifted_entries(outer)
        for tab in semistandard_tableaux(outer, evaluation):
            for *head, cols in strips:
                pushes = [_normal_column(theta_column(tab, c)) for c in cols]
                pushed.append((tab, (*head, pushes)))
    space = f"the word space of {evaluation}"
    _check_columns([strip for _, strip in pushed], words, len(words), space)
    return words, pushed


def eigenbasis_for_evaluation(evaluation) -> tuple[tuple, ...]:
    """Full eigenbasis of the word space of an evaluation.

    Pushes the eigenbasis of every Specht module through each embedding
    tableau with this content; yields (tableau, entry) pairs whose vectors
    jointly form an eigenbasis of the whole word space.
    """
    words, pushed = eigenbasis_columns(evaluation)
    return tuple(
        (tab, EigenbasisEntry(o, i, lam, _vectors(words, c))) for tab, (o, i, lam, c) in pushed
    )

