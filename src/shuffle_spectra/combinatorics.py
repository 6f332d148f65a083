"""Partitions, skew shapes, tableaux and the RSK correspondence.

Partitions are tuples of weakly decreasing positive ints (the empty tuple is
the empty partition).  Tableaux are tuples of row tuples.  All enumeration
orders are deterministic: partitions are listed in descending lexicographic
order, standard tableaux by their row reading word, so downstream output is
reproducible run to run.  Record, the frozen base of the package's result
types, and check_word and check_evaluation, the one rule for letters and
for letter counts, live here because every other module imports this one.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Word = tuple[int, ...]


class _RecordType(type):
    """Gives each Record class one slot per annotated field, in order.

    The annotations are read from the class body's namespace, where
    `from __future__ import annotations` keeps them on every Python version.
    """

    def __new__(mcs, name, bases, namespace):
        namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        return super().__new__(mcs, name, bases, namespace)


class Record(metaclass=_RecordType):
    """Frozen record of the fields annotated on its class, in their order.

    A record is built from its fields positionally, equals a record of the
    same class with equal fields, hashes as the tuple of its fields, shows as
    Name(field=value, ...) and rejects assignment: a frozen dataclass that
    imports nothing.
    """

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}"
            )
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def check_word(word) -> Word:
    word = tuple(word)
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in word):
        raise ValueError(f"letters must be positive integers: {word}")
    return word


def check_evaluation(evaluation) -> tuple[int, ...]:
    evaluation = tuple(evaluation)
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in evaluation):
        raise ValueError(f"bad evaluation: {evaluation}")
    return evaluation


def is_partition(parts) -> bool:
    parts = tuple(parts)
    positive = all(isinstance(p, int) and not isinstance(p, bool) and p > 0 for p in parts)
    return positive and all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        raise ValueError("negative size")
    if n == 0:
        return ((),)

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for head in range(min(remaining, largest), 0, -1):
            for tail in rec(remaining - head, head):
                yield (head,) + tail

    return tuple(rec(n, n))


def part(p: Partition, i: int) -> int:
    """i-th part (1-based), with missing parts read as 0."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def contains(outer: Partition, inner: Partition) -> bool:
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def check_skew(outer, inner) -> tuple[Partition, Partition]:
    outer, inner = check_partition(outer), check_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"{inner} does not fit inside {outer}")
    return outer, inner


def skew_cells(outer: Partition, inner: Partition) -> list[tuple[int, int]]:
    """Cells of outer/inner in 1-based matrix coordinates."""
    outer, inner = check_skew(outer, inner)
    return [
        (i + 1, j + 1)
        for i in range(len(outer))
        for j in range(part(inner, i + 1), outer[i])
    ]


def diag(outer: Partition, inner: Partition = ()) -> int:
    """Sum of the diagonal index j - i over the cells of outer/inner."""
    return sum(j - i for i, j in skew_cells(outer, inner))


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """True iff no column holds two cells of outer/inner."""
    columns = [j for _, j in skew_cells(outer, inner)]
    return len(columns) == len(set(columns))


def horizontal_strip_inners(outer: Partition) -> tuple[Partition, ...]:
    """All inner shapes mu with outer/mu a horizontal strip, lex sorted.

    The one-cell-per-column condition pins each part of mu between the part
    below it in outer and that part's own outer value.
    """
    outer = check_partition(outer)

    def rec(i: int):
        if i == len(outer):
            yield ()
            return
        lo = part(outer, i + 2)
        for v in range(lo, outer[i] + 1):
            if v == 0:
                yield ()
            else:
                for tail in rec(i + 1):
                    yield (v,) + tail

    return tuple(sorted(rec(0)))


def _strip_inners(outer: Partition) -> list[Partition]:
    """horizontal_strip_inners(outer) by size, then lexicographically: the
    order of the spectrum tables and of the eigenbasis entries."""
    return sorted(horizontal_strip_inners(outer), key=lambda m: (sum(m), m))


def dominates(a: Partition, b: Partition) -> bool:
    """Dominance order: every prefix sum of a weakly exceeds that of b."""
    a, b = check_partition(a), check_partition(b)
    if sum(a) != sum(b):
        raise ValueError("dominance compares partitions of equal size")
    total_a = total_b = 0
    for i in range(max(len(a), len(b))):
        total_a += part(a, i + 1)
        total_b += part(b, i + 1)
        if total_a < total_b:
            return False
    return True


def _dominating_partitions(nu: Partition) -> list[Partition]:
    """The partitions that dominate nu, in the order of partitions_of: the
    closure of nu under moving one cell to an earlier row where the result
    is a partition, as every cover of the dominance order is such a move."""
    found, todo = {nu}, [nu]
    while todo:
        p = todo.pop()
        for j, i in combinations(range(len(p)), 2):
            q = [*p[:j], p[j] + 1, *p[j + 1 : i], p[i] - 1, *p[i + 1 :]]
            q = tuple(q if q[-1] else q[:-1])
            if is_partition(q) and q not in found:
                found.add(q)
                todo.append(q)
    return sorted(found, reverse=True)


# -- tableaux ---------------------------------------------------------------


def tableau_shape(t: Tableau) -> Partition:
    return tuple(len(row) for row in t)


@cache
def standard_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of the shape, ordered by row reading word."""
    shape = check_partition(shape)
    n = sum(shape)
    results: list[Tableau] = []
    rows: list[list[int]] = [[] for _ in shape]

    def place(k: int):
        if k > n:
            results.append(tuple(tuple(row) for row in rows))
            return
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            j = len(row)
            if i > 0 and len(rows[i - 1]) <= j:
                continue
            row.append(k)
            place(k + 1)
            row.pop()

    place(1)
    return tuple(sorted(results, key=lambda t: tuple(x for row in t for x in row)))


def entry_positions(t: Tableau) -> dict[int, tuple[int, int]]:
    """Entry -> (row, column), 1-based."""
    return {
        t[i][j]: (i + 1, j + 1) for i in range(len(t)) for j in range(len(t[i]))
    }


def smallest_ascent(t: Tableau) -> int:
    """Smallest ascent of a standard tableau.

    An entry i is an ascent when i is the largest entry or i + 1 sits weakly
    north (and therefore east) of i.  The largest entry always qualifies, so
    nonempty tableaux always have one; the empty tableau returns 0.
    """
    n = sum(tableau_shape(t))
    if n == 0:
        return 0
    pos = entry_positions(t)
    for i in range(1, n):
        if pos[i + 1][0] <= pos[i][0]:
            return i
    return n


def is_desarrangement(t: Tableau) -> bool:
    """True iff the smallest ascent is even (vacuously for the empty tableau)."""
    return smallest_ascent(t) % 2 == 0


@cache
def desarrangement_count(shape: Partition) -> int:
    return sum(1 for t in standard_tableaux(shape) if is_desarrangement(t))


def multiset_arrangements(values) -> list[tuple[int, ...]]:
    """Distinct orderings of a multiset, each exactly once, sorted: each is
    the next permutation of the one before, so the work follows their
    number, not the factorial of the length, and nothing recurses."""
    word = sorted(values)
    out = [tuple(word)]
    while True:
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]
        out.append(tuple(word))


def semistandard_tableaux(shape: Partition, content) -> tuple[Tableau, ...]:
    """Semistandard tableaux of the shape whose entry multiplicities are content.

    content[i] is the multiplicity of the letter i + 1; trailing zeros are
    allowed.  Deterministic order: lexicographic on row reading words.
    Checked before the cache, which (True, 2) or (1.0, 2) would hit as (1, 2).
    """
    return _semistandard_tableaux(check_partition(shape), check_evaluation(content))


@cache
def _semistandard_tableaux(shape: Partition, content: tuple[int, ...]) -> tuple[Tableau, ...]:
    if sum(shape) != sum(content):
        raise ValueError("shape size and content size differ")
    n_letters = len(content)
    remaining = list(content)
    rows: list[list[int]] = [[] for _ in shape]
    results: list[Tableau] = []
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]

    def place(idx: int):
        if idx == len(cells):
            results.append(tuple(tuple(row) for row in rows))
            return
        i, j = cells[idx]
        lo = rows[i][j - 1] if j > 0 else 1
        for v in range(lo, n_letters + 1):
            if remaining[v - 1] == 0:
                continue
            if i > 0 and rows[i - 1][j] >= v:
                continue
            rows[i].append(v)
            remaining[v - 1] -= 1
            place(idx + 1)
            remaining[v - 1] += 1
            rows[i].pop()

    place(0)
    return tuple(results)


def kostka(shape: Partition, content) -> int:
    """Number of semistandard tableaux of the shape with the given content."""
    return len(semistandard_tableaux(shape, content))


# -- RSK correspondence ------------------------------------------------------


def rsk(word: Word) -> tuple[Tableau, Tableau]:
    """Insertion and recording tableaux of a word, by row insertion.

    Each letter is inserted into the first row, bumping the first entry
    strictly greater than it down to the next row; the recording tableau
    marks the order in which cells appear.
    """
    p: list[list[int]] = []
    q: list[list[int]] = []
    for step, letter in enumerate(word, start=1):
        value = letter
        row = 0
        while True:
            if row == len(p):
                p.append([value])
                q.append([step])
                break
            bump = next((j for j, x in enumerate(p[row]) if x > value), None)
            if bump is None:
                p[row].append(value)
                q[row].append(step)
                break
            p[row][bump], value = value, p[row][bump]
            row += 1
    return tuple(tuple(r) for r in p), tuple(tuple(r) for r in q)


def first_ascent(word: Word) -> int:
    """Smallest weak-ascent position; the final position always qualifies."""
    if not word:
        raise ValueError("empty word has no ascent")
    for i in range(len(word) - 1):
        if word[i] <= word[i + 1]:
            return i + 1
    return len(word)


def even_ascent_suffix(word: Word) -> Word:
    """Longest suffix whose first ascent is even (possibly the empty word)."""
    word = tuple(word)
    for start in range(len(word)):
        if first_ascent(word[start:]) % 2 == 0:
            return word[start:]
    return ()


def sign_of_word(word: Word) -> int:
    """Sign of the permutation that sorts the word increasingly."""
    if len(set(word)) != len(word):
        raise ValueError(f"{word} has repeated letters")
    inversions = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1
