"""Frobenius characteristics of eigenspaces, as formal Schur expansions.

On decks with all cards distinct, each eigenspace of the random-to-random
shuffle is stable under relabeling the cards, so it decomposes into
irreducibles; the decomposition is read off the horizontal strips directly,
and both expansions here are one walk over the strips of size n
(_strip_expansion), the eigenvalue or the inner size picking the strips.
Schur functions are purely formal here: an expansion is a partition-indexed
coefficient map, and the only arithmetic ever done with one is summing
dimensions.
"""

from __future__ import annotations

from functools import lru_cache

from .combinatorics import (
    Partition,
    check_sizes,
    desarrangement_count,
    horizontal_strip_inners,
    partitions_of,
    standard_tableaux,
)
from .spectrum import eig_strip


class SchurExpansion:
    """Formal non-negative integer combination of Schur symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        data: dict[Partition, int] = {}
        for shape, coeff in items:
            coeff = int(coeff)
            if coeff < 0:
                raise ValueError("Schur coefficients here are non-negative")
            if coeff:
                shape = tuple(shape)
                data[shape] = data.get(shape, 0) + coeff
        self.terms = data

    def __eq__(self, other) -> bool:
        return isinstance(other, SchurExpansion) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, shape) -> int:
        return self.terms.get(tuple(shape), 0)

    def dimension(self) -> int:
        """Dimension of the module the expansion describes."""
        return sum(
            coeff * len(standard_tableaux(shape)) for shape, coeff in self.terms.items()
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for shape in sorted(self.terms):
            coeff = self.terms[shape]
            symbol = "s[" + ",".join(str(x) for x in shape) + "]"
            bits.append(symbol if coeff == 1 else f"{coeff}*{symbol}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"SchurExpansion({self})"

    def to_json(self) -> dict[str, int]:
        return {
            ",".join(str(x) for x in shape): coeff
            for shape, coeff in sorted(self.terms.items())
        }


@lru_cache(maxsize=None, typed=True)
def frobenius_of_eigenspace(n: int, eig: int) -> SchurExpansion:
    """Schur expansion of the eigenspace of the n^2-scaled eigenvalue.

    Sums desarrangement_count(inner) * s_outer over the horizontal strips of
    size n whose statistic equals eig; empty when no strip matches.
    """
    check_sizes(n=n, eig=eig)
    if eig < 0:
        raise ValueError("eigenvalues are non-negative")
    return _strip_expansion(n, lambda outer, inner: eig_strip(outer, inner) == eig)


@lru_cache(maxsize=None, typed=True)
def r2t_frobenius(n: int, j: int) -> SchurExpansion:
    """Schur expansion attached to the strips with inner size j.

    This describes the random-to-top eigenspace of n-scaled eigenvalue
    n - j; in particular j = n gives the shared kernel of both shuffles and
    j = 0 the stationary line.
    """
    check_sizes(n=n, j=j)
    if not 0 <= j <= n:
        raise ValueError("inner size out of range")
    return _strip_expansion(n, lambda outer, inner: sum(inner) == j)


def _strip_expansion(n: int, keep) -> SchurExpansion:
    """Sum of desarrangement_count(inner) * s_outer over the horizontal strips
    outer/inner with outer of size n for which keep(outer, inner) holds."""
    return SchurExpansion(
        (outer, desarrangement_count(inner))
        for outer in partitions_of(n)
        for inner in horizontal_strip_inners(outer)
        if keep(outer, inner)
    )
