"""Eigenvalues of the random-to-random shuffle, without diagonalizing anything.

The spectrum on words of a given evaluation is indexed by horizontal strips
outer/inner: the integer eigenvalue attached to a strip is

    eig(outer/inner) = C(|outer|+1, 2) - C(|inner|+1, 2) + diag(outer/inner)

scaled so that the probability eigenvalue is eig / n^2.  A strip contributes
multiplicity kostka(outer, evaluation) * desarrangement_count(inner); the two
excluded inner shapes (single rows, odd single columns) carry no
desarrangement tableaux, so they drop out of the sum on their own.

A second description reads an eigenvalue straight off a word through its RSK
recording tableau and the longest suffix whose first ascent is even; both
descriptions produce the same multiset and the tests enforce that.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import (
    Partition,
    Record,
    _dominating_partitions,
    check_partition,
    check_skew,
    desarrangement_count,
    diag,
    even_ascent_suffix,
    horizontal_strip_inners,
    kostka,
    rsk,
    tableau_shape,
)
from .words import Word, check_word


def eig_strip(outer: Partition, inner: Partition) -> int:
    """Integer eigenvalue statistic of a skew shape."""
    outer, inner = check_skew(outer, inner)
    return (
        math.comb(sum(outer) + 1, 2)
        - math.comb(sum(inner) + 1, 2)
        + diag(outer, inner)
    )


class StripEigenvalue(Record):
    """One horizontal strip row of a spectrum table."""

    outer: Partition
    inner: Partition
    eig: int
    kostka: int
    desarrangements: int

    @property
    def multiplicity(self) -> int:
        return self.kostka * self.desarrangements

    @property
    def outer_binomial(self) -> int:
        return math.comb(sum(self.outer) + 1, 2)

    @property
    def inner_binomial(self) -> int:
        return math.comb(sum(self.inner) + 1, 2)

    @property
    def diag(self) -> int:
        return diag(self.outer, self.inner)


class SpectrumReport(Record):
    """Complete spectrum of the shuffle on the words of one evaluation.

    entries lists every horizontal strip outer/inner with outer dominating
    the sorted evaluation, including strips whose multiplicity is zero;
    totals maps each eigenvalue to its total multiplicity.
    """

    evaluation: tuple[int, ...]
    partition: Partition
    entries: tuple[StripEigenvalue, ...]
    totals: dict[int, int]

    @property
    def size(self) -> int:
        return sum(self.partition)

    @property
    def dimension(self) -> int:
        return sum(self.totals.values())

    def probability_totals(self) -> dict[Fraction, int]:
        n2 = self.size**2
        return {Fraction(e, n2) if n2 else Fraction(0): m for e, m in self.totals.items()}


def sort_evaluation(evaluation) -> Partition:
    """Partition obtained by dropping zeros and sorting; rearranged
    evaluations index isomorphic word spaces."""
    parts = tuple(sorted((x for x in evaluation if x), reverse=True))
    return check_partition(parts)


def spectrum_for_evaluation(evaluation) -> SpectrumReport:
    """Predicted spectrum on words with the given evaluation."""
    evaluation = tuple(evaluation)
    nu = sort_evaluation(evaluation)
    entries: list[StripEigenvalue] = []
    totals: dict[int, int] = {}
    for outer in _dominating_partitions(nu):
        k = kostka(outer, nu)
        for inner in sorted(horizontal_strip_inners(outer), key=lambda m: (sum(m), m)):
            d = desarrangement_count(inner)
            entry = StripEigenvalue(outer, inner, eig_strip(outer, inner), k, d)
            entries.append(entry)
            if entry.multiplicity:
                totals[entry.eig] = totals.get(entry.eig, 0) + entry.multiplicity
    return SpectrumReport(evaluation, nu, tuple(entries), totals)


def eig_word(word: Word) -> int:
    """Eigenvalue attached to a single word via its recording tableau."""
    return eig_word_trace(word).eig


class WordEigTrace(Record):
    """Intermediate data of the per-word eigenvalue computation."""

    word: Word
    suffix: Word
    shape: Partition
    suffix_shape: Partition
    head: int  # C(len+1, 2) + diag of the recording shape
    tail: int  # same for the suffix

    @property
    def eig(self) -> int:
        return self.head - self.tail


def eig_word_trace(word: Word) -> WordEigTrace:
    word = check_word(word)
    suffix = even_ascent_suffix(word)
    shape = tableau_shape(rsk(word)[1])
    suffix_shape = tableau_shape(rsk(suffix)[1])
    head = math.comb(len(word) + 1, 2) + diag(shape)
    tail = math.comb(len(suffix) + 1, 2) + diag(suffix_shape)
    return WordEigTrace(word, suffix, shape, suffix_shape, head, tail)


def second_largest(evaluation) -> tuple[int, int]:
    """Second largest eigenvalue and its multiplicity, (n-2)(n+1) with
    multiplicity one less than the number of parts.

    Cross-checked against the full strip spectrum on every call; rejects the
    one-row evaluation, whose spectrum is a single point.
    """
    nu = sort_evaluation(evaluation)
    n = sum(nu)
    if nu == (n,):
        raise ValueError("one-row evaluations have a single eigenvalue")
    value, multiplicity = (n - 2) * (n + 1), len(nu) - 1
    report = spectrum_for_evaluation(nu)
    non_top = {e: m for e, m in report.totals.items() if e != n * n}
    observed = max(non_top)
    if (observed, non_top[observed]) != (value, multiplicity):
        raise AssertionError(
            f"strip spectrum disagrees with the closed form for {nu}: "
            f"{(observed, non_top[observed])} vs {(value, multiplicity)}"
        )
    return value, multiplicity


def r2t_spectrum(evaluation) -> dict[int, int]:
    """Predicted spectrum of the n-scaled random-to-top shuffle.

    A horizontal strip outer/inner contributes its
    kostka * desarrangement_count weight to the eigenvalue n - |inner|, so
    the kernel collects the strips with inner = outer and the stationary
    eigenvalue n comes from the empty inner shape alone.  For evaluations
    with repeated letters this weighting is a prediction, not a theorem; the
    test suite pins it against brute-force characteristic polynomials.
    """
    report = spectrum_for_evaluation(evaluation)
    totals: dict[int, int] = {}
    for entry in report.entries:
        if entry.multiplicity:
            j = report.size - sum(entry.inner)
            totals[j] = totals.get(j, 0) + entry.multiplicity
    return totals
