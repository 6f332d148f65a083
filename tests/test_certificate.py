"""The spectral certificate accepts exactly the true random-to-random spectra.

Every check runs against the CRT characteristic polynomial or against a
deliberately wrong claim: a shifted eigenvalue, one unit of multiplicity
moved, an eigenvalue outside the permutation spectrum, one perturbed entry
of a counts matrix, or a word outside the evaluation.  The certificate reads
the counts only through words.r2r: entry (i, j) of the counts of nu is the
coefficient of order[j] in r2r(order[i]), with order = enumerate_words(nu),
so each fault is injected into r2r.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffle_spectra import words
from shuffle_spectra.combinatorics import partitions_of
from shuffle_spectra.linalg import ExactMatrix, IntPolynomial
from shuffle_spectra.spectrum import spectrum_for_evaluation
from shuffle_spectra.words import WordVector, certify_r2r_spectra

from reference import charpoly, multiply_vector

EVALUATIONS = [nu for n in range(1, 6) for nu in partitions_of(n)]
_r2r = words.r2r


def _spectrum(nu) -> dict[int, int]:
    return dict(spectrum_for_evaluation(nu).totals)


def _certify(nu, totals) -> list:
    """Certify the claim `totals` for nu next to the true claim for (1,)*n."""
    n = sum(nu)
    claims = {(1,) * n: _spectrum((1,) * n), nu: totals}
    return certify_r2r_spectra(n, claims)


def _moved(totals, source, target) -> dict[int, int]:
    out = dict(totals)
    out[source] -= 1
    out[target] = out.get(target, 0) + 1
    return out


def _shifted(totals, eigenvalue) -> dict[int, int]:
    out = dict(totals)
    m = out.pop(eigenvalue)
    out[eigenvalue + 1] = out.get(eigenvalue + 1, 0) + m
    return out


def _outside(nu) -> list[int]:
    """A gap of the permutation spectrum S and the integer above max(S)."""
    s = _spectrum((1,) * sum(nu))
    return sorted({next(x for x in range(max(s) + 2) if x not in s), max(s) + 1})


def _wrong_claims(nu):
    """(kind, claim) pairs for nu, none of them its true spectrum."""
    totals = _spectrum(nu)
    support = sorted(totals)
    everything = sorted(_spectrum((1,) * sum(nu)))
    for lam in support:
        yield "shifted", _shifted(totals, lam)
        others = [x for x in everything if x != lam]
        if others:
            yield "moved", _moved(totals, lam, others[0])
    for x in _outside(nu):
        yield "outside", _moved(totals, support[-1], x)


def _perturbed(extra):
    """words.r2r, except that r2r(w) gains the vector extra[w] for each word w in extra."""

    def r2r(v):
        v = v if isinstance(v, WordVector) else WordVector.unit(v)
        out = _r2r(v)
        for w, c in v.items():
            if w in extra:
                out = out + c * extra[w]
        return out

    return r2r


def _entry_moved(nu, i, j, delta):
    """words.r2r with entry (i, j) of nu's counts moved by delta."""
    order = words.enumerate_words(nu)
    return _perturbed({order[i]: delta * WordVector.unit(order[j])})


@pytest.mark.parametrize("n", range(8))
def test_certificate_accepts_every_predicted_spectrum(n):
    claims = {nu: _spectrum(nu) for nu in partitions_of(n)}
    assert certify_r2r_spectra(n, claims) == []


@pytest.mark.parametrize("nu", EVALUATIONS, ids=str)
def test_certificate_rejects_wrong_spectra(nu):
    kinds = set()
    for kind, claim in _wrong_claims(nu):
        assert _certify(nu, claim) == [nu], (kind, claim)
        kinds.add(kind)
    assert kinds == ({"shifted", "outside"} if nu == (1,) else {"shifted", "moved", "outside"})


@pytest.mark.parametrize("nu", EVALUATIONS, ids=str)
def test_certificate_rejects_one_perturbed_entry(nu, monkeypatch):
    size = len(words.enumerate_words(nu))
    for i, j in {(0, size - 1), (size - 1, 0), (size // 2, size // 2)}:
        monkeypatch.setattr(words, "r2r", _entry_moved(nu, i, j, 1))
        assert _certify(nu, _spectrum(nu)) == [nu], (i, j)


@pytest.mark.parametrize("nu", EVALUATIONS, ids=str)
def test_certificate_accepts_exactly_when_the_charpoly_matches(nu):
    poly = charpoly(words.transition_matrix("r2r", nu).counts)
    claims = [_spectrum(nu)] + [claim for _, claim in _wrong_claims(nu)]
    verdicts = [
        (_certify(nu, claim) == [], poly == IntPolynomial.from_integer_roots(claim))
        for claim in claims
    ]
    assert all(accepted == equal for accepted, equal in verdicts), verdicts
    assert verdicts[0] == (True, True)


def test_a_failed_permutation_check_names_only_the_permutation_deck():
    claims = {nu: _spectrum(nu) for nu in partitions_of(4)}
    claims[(1, 1, 1, 1)] = _shifted(claims[(1, 1, 1, 1)], 0)
    assert certify_r2r_spectra(4, claims) == [(1, 1, 1, 1)]
    with pytest.raises(ValueError):
        certify_r2r_spectra(4, {(2, 2): _spectrum((2, 2))})


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_certificate_rejects_random_perturbations(data):
    nu = data.draw(st.sampled_from([nu for nu in EVALUATIONS if sum(nu) <= 4]))
    size = len(words.enumerate_words(nu))
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "r2r", _entry_moved(nu, i, j, delta))
        assert _certify(nu, _spectrum(nu)) == [nu]
    claim = data.draw(st.sampled_from([claim for _, claim in _wrong_claims(nu)]))
    assert _certify(nu, claim) == [nu]


# Each wrong claim below passes every check of the certificate but one, so
# each proves that one check necessary.


def test_move_check_catches_a_change_invisible_from_the_identity_word(monkeypatch):
    # M' = M + c c^T + d d^T, where d is c with letters 1 and 2 swapped and
    # both are integral and orthogonal to every e M^k and every s(e) M^k.
    # The powers of the identity word e cannot see the change, and M' still
    # commutes with the swap s of 1 and 2; but its trace, and so its
    # characteristic polynomial, is larger.  The move check rejects the r2r
    # whose counts are M': the image of a word is not its move image.
    top = (1, 1, 1, 1)
    tm = words.transition_matrix("r2r", top)
    index = {w: i for i, w in enumerate(tm.order)}
    swapped = [index[tuple({1: 2, 2: 1}.get(x, x) for x in w)] for w in tm.order]
    powers = []
    for start in [(1, 2, 3, 4), (2, 1, 3, 4)]:
        powers.append([1 if w == start else 0 for w in tm.order])
        for _ in tm.order:
            powers.append(list(multiply_vector(tm.counts.transpose(), powers[-1])))
    c = ExactMatrix(powers).nullspace()[0]
    c = [int(x * math.lcm(*(Fraction(y).denominator for y in c))) for x in c]
    d = [c[k] for k in swapped]
    changed = ExactMatrix(
        [
            [m + c[i] * c[j] + d[i] * d[j] for j, m in enumerate(row)]
            for i, row in enumerate(tm.counts.data)
        ]
    )
    totals = _spectrum(top)
    assert charpoly(changed) != IntPolynomial.from_integer_roots(totals)
    extra = {
        w: WordVector((u, c[i] * c[j] + d[i] * d[j]) for j, u in enumerate(tm.order))
        for i, w in enumerate(tm.order)
    }
    monkeypatch.setattr(words, "r2r", _perturbed(extra))
    assert words.operator_matrix(words.r2r, tm.order).transpose() == changed
    assert certify_r2r_spectra(4, {top: totals}) == [top]


def test_spectrum_check_catches_an_eigenvalue_with_matching_traces():
    # Adding the divided-difference weights of S + {x} to the true
    # multiplicities leaves every power trace below |S| unchanged.
    nu = (2, 2)
    s = sorted(_spectrum((1, 1, 1, 1)))
    x = _outside(nu)[0]
    points = s + [x]
    weights = [
        Fraction(1, math.prod(p - q for q in points if q != p)) for p in points
    ]
    scale = math.lcm(*(w.denominator for w in weights))
    claim = _spectrum(nu)
    for p, w in zip(points, weights):
        claim[p] = claim.get(p, 0) + int(w * scale)
    for k in range(len(s)):
        assert sum(m * lam**k for lam, m in claim.items()) == sum(
            m * lam**k for lam, m in _spectrum(nu).items()
        )
    assert _certify(nu, claim) == [nu]


def test_move_check_catches_a_wrong_row_for_a_word_outside_the_evaluation(monkeypatch):
    # r2r of a word of (2, 1) gains the word 111, which is not a word of
    # (2, 1).  The powers and the traces come from the move table, so the
    # true claim passes every other check; the move check rejects it, since
    # the image of that word is not its move image.
    nu = (2, 1)
    word = words.enumerate_words(nu)[0]
    monkeypatch.setattr(words, "r2r", _perturbed({word: WordVector.unit((1, 1, 1))}))
    assert _certify(nu, _spectrum(nu)) == [nu]


@pytest.mark.parametrize("n", range(7))
def test_each_transition_matrix_row_is_the_move_image_of_its_word(n):
    # The certificate proves its claims for r2r; this ties them to the
    # matrices that transition_matrix builds and the CLI prints.
    for nu in partitions_of(n):
        tm = words.transition_matrix("r2r", nu)
        assert tm.order == words.enumerate_words(nu)
        # the table of t2r lists the r2t moves and that of r2t the t2r moves,
        # so the image of a word is reached through the second, then the first
        tables = words._r2t_moves(n), words._t2r_moves(n)
        to_random, to_top = words._move_gathers(tm.order, *tables)
        for w, row in enumerate(tm.counts.data):
            image = [0] * len(tm.order)
            for first in to_top:
                for second in to_random:
                    image[second[first[w]]] += 1
            assert tuple(image) == row, (nu, tm.order[w])


def test_certificate_builds_no_matrix(monkeypatch):
    claims = {nu: _spectrum(nu) for nu in partitions_of(6)}

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate built a matrix")

    monkeypatch.setattr(words, "transition_matrix", refuse)
    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    assert certify_r2r_spectra(6, claims) == []
