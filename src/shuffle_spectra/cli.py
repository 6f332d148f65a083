"""Command-line interface.

Every computation in the package is reachable from here: spectrum tables,
per-word eigenvalues, transition matrices, eigenbases, kernels, Schur
expansions, Laplacians, and a self-contained verification run.  Without
building a transition matrix, that run checks r2r word by word against the
table of its position moves, proves exactly that each r2r counts matrix of
one size has the characteristic polynomial the horizontal strips predict
(see words.certify_r2r_spectra), and checks every eigenbasis of that size.
laplacian --spectrum proves its spectrum the same way
(injective.laplacian_spectrum): both proofs share the Krylov core of linalg,
and what each keeps of its own is the move check and fixing-permutation
traces for r2r, the relabelling check for the Laplacian.  Every vector of an
eigenbasis or a kernel is printed from its checked int columns (lifting), and
every spectrum format from one tuple of values per strip (_spectrum_values).

Exit codes: 0 on success, 1 when any exact check fails, 2 on usage errors.
A failed library check (an eigen-equation, a span or a kernel dimension)
prints ``verification failed: ...`` to stderr and nothing to stdout; a
``verify`` run prints its mismatch report to stdout.  The environment
variable R2R_MAX_N (default 6) caps the size of brute-force verification
runs.  Before any work, eigenbasis, kernel, transition-matrix and laplacian
refuse (exit 2) more than linalg._MAX_DIM words or injective words, and
eigenvalues and frobenius refuse a size n over _MAX_STRIP_N.

Start-up is most of a typical command's time, so csv, frobenius, injective,
lifting and spectrum are imported only by the commands that use them: laplacian
loads neither the eigenbasis modules (lifting, specht) nor spectrum.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from typing import TYPE_CHECKING

from .combinatorics import partitions_of, standard_tableaux
from .linalg import _MAX_DIM
from .words import (
    _lex_words,
    certify_r2r_spectra,
    transition_matrix,
    word_from_text,
    word_to_text,
)

if TYPE_CHECKING:
    from .spectrum import SpectrumReport

SCHEMA_PREFIX = "shuffle-spectra"

# Largest n for eigenvalues and frobenius.  On a 2-core Xeon, eigenvalues --n
# takes about 2 s at n = 10, 5 s at 11 and 25 s at 12; frobenius --n 14, 20 s.
_MAX_STRIP_N = 10


def _parse_evaluation(text: str, parser: argparse.ArgumentParser, option: str):
    counts = []
    for token in text.split(","):
        token = token.strip()
        if not token.isdecimal():
            parser.error(f"{option}: bad token {token!r} in {text!r}")
        counts.append(int(token))
    if sum(counts) == 0:
        # option is --evaluation or --partition, which names what text describes
        parser.error(f"{option}: {option.lstrip('-')} {text!r} describes no letters")
    return tuple(counts)


def _parse_partition(text: str, parser: argparse.ArgumentParser, option: str):
    parts = _parse_evaluation(text, parser, option)
    if any(p <= 0 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        parser.error(f"{option}: parts must be weakly decreasing and positive in {text!r}")
    return parts


def _over_max_dim(steps) -> bool:
    """True once the running product of the (numerator, denominator) steps,
    each division exact, passes _MAX_DIM: a huge count stops early."""
    count = 1
    for numerator, denominator in steps:
        count = count * numerator // denominator
        if count > _MAX_DIM:
            return True
    return False


def _refuse_many_words(command: str, evaluation, parser: argparse.ArgumentParser) -> None:
    """Exit 2, before any work, when the evaluation has over _MAX_DIM words:
    the multinomial, a product of binomials C(t, k), one per count k with t
    the running total, each step C(t, j) = C(t, j - 1) * (t - j + 1) / j."""
    if _over_max_dim(
        (t - j + 1, j)
        for k, t in zip(evaluation, accumulate(evaluation))
        for j in range(1, min(k, t - k) + 1)
    ):
        parser.error(
            f"{command}: evaluation {_partition_text(evaluation)} has more than {_MAX_DIM} words"
        )


def _refuse_large_n(command: str, n: int, parser: argparse.ArgumentParser) -> None:
    if n > _MAX_STRIP_N:
        parser.error(f"{command}: n={n} is over the limit {_MAX_STRIP_N}")


def _partition_text(p) -> str:
    return ",".join(str(x) for x in p) if p else "-"


class _Members(list):
    """The members of a nonempty JSON object, each rendered as '"key": value'."""


def _write_json(payload, out) -> None:
    """json.dumps(payload, indent=2) and a newline, written piece by piece.

    An indent makes json use its pure-Python encoder, so each container that
    holds no container goes through the C encoder in one call instead, with
    a line break and the indent of its items as the item separator.  Only
    containers of containers are walked here, and a _Members object is
    joined with that separator as it is.
    """
    _write_json_value(payload, out, "\n")
    out.write("\n")


def _write_json_value(value, out, newline: str) -> None:
    # newline is a line break and the indent of value's own line
    if type(value) is _Members:
        inner = newline + "  "
        out.write("{" + inner + ("," + inner).join(value) + newline + "}")
        return
    containers = (dict, list, tuple)
    if not isinstance(value, containers) or not value:
        out.write(json.dumps(value))
        return
    inner = newline + "  "
    is_dict = isinstance(value, dict)
    if not any(isinstance(x, containers) for x in (value.values() if is_dict else value)):
        text = json.dumps(value, separators=("," + inner, ": "))
        out.write(text[0] + inner + text[1:-1] + newline + text[-1])
        return
    out.write("{" if is_dict else "[")
    for i, (key, x) in enumerate(value.items() if is_dict else enumerate(value)):
        out.write(("," if i else "") + inner)
        if is_dict:
            # json writes a key that is not a str as the JSON text of its value
            out.write(json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ")
        _write_json_value(x, out, inner)
    out.write(newline + ("}" if is_dict else "]"))


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# -- eigenvalues ----------------------------------------------------------


# the fields of a spectrum entry in output order, each a StripEigenvalue
# attribute; the table joins outer and inner in one column
_SPECTRUM_FIELDS = tuple(
    "outer inner desarrangements kostka multiplicity outer_binomial inner_binomial diag eig".split()
)


def _spectrum_values(report: SpectrumReport, probability: bool):
    """The values of each entry of nonzero multiplicity in _SPECTRUM_FIELDS
    order, the last, with probability and n > 0, the text of eig / n**2."""
    n2, values = report.size**2, attrgetter(*_SPECTRUM_FIELDS)
    for e in report.entries:
        if e.multiplicity:
            *head, eig = values(e)
            yield (*head, str(Fraction(eig, n2)) if probability and n2 else eig)


def _spectrum_json(report: SpectrumReport, probability: bool) -> dict:
    return {
        "schema": f"{SCHEMA_PREFIX}/spectrum/1",
        "evaluation": list(report.evaluation),
        "partition": list(report.partition),
        "dimension": report.dimension,
        "totals": {str(k): v for k, v in sorted(report.totals.items(), reverse=True)},
        "entries": [
            dict(zip(_SPECTRUM_FIELDS, (list(o), list(i), *rest)))
            for o, i, *rest in _spectrum_values(report, probability)
        ],
    }


def _emit_spectrum(report: SpectrumReport, fmt: str, probability: bool, out) -> None:
    if fmt == "json":
        _write_json(_spectrum_json(report, probability), out)
        return
    values = _spectrum_values(report, probability)
    rows = [[_partition_text(o), _partition_text(i), *map(str, rest)] for o, i, *rest in values]
    if fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerows([_SPECTRUM_FIELDS, *rows])
        return
    kostka = "f^lambda" if report.partition == (1,) * report.size else "K"
    headers = ["lambda/mu", "d^mu", kostka, "mult", "C(|lambda|+1,2)", "C(|mu|+1,2)", "diag", "eig"]
    out.write(f"evaluation {_partition_text(report.evaluation)}")
    out.write(f"  (n = {report.size}, dimension {report.dimension})\n")
    out.write(_render_table(headers, [[f"{o}/{i}", *rest] for o, i, *rest in rows]))
    out.write("\n")


def cmd_eigenvalues(args, parser) -> int:
    if args.evaluation is None and args.n is None:
        parser.error("eigenvalues: provide --n or --evaluation")
    if args.n is not None and args.n < 0:
        parser.error(f"eigenvalues: --n must be non-negative, got {args.n}")
    from .spectrum import spectrum_for_evaluation

    out = sys.stdout
    if args.evaluation is not None:
        evaluation = _parse_evaluation(args.evaluation, parser, "--evaluation")
        _refuse_large_n("eigenvalues", sum(evaluation), parser)
        _emit_spectrum(spectrum_for_evaluation(evaluation), args.format, args.probability, out)
        return 0
    _refuse_large_n("eigenvalues", args.n, parser)
    reports = [spectrum_for_evaluation(nu) for nu in partitions_of(args.n)]
    if args.format == "json":
        payload = {
            "schema": f"{SCHEMA_PREFIX}/spectrum-family/1",
            "n": args.n,
            "tables": [_spectrum_json(r, args.probability) for r in reports],
        }
        _write_json(payload, out)
        return 0
    for i, report in enumerate(reports):
        if i:
            out.write("\n")
        _emit_spectrum(report, args.format, args.probability, out)
    return 0


# -- eig-word -------------------------------------------------------------


def cmd_eig_word(args, parser) -> int:
    try:
        word = word_from_text(args.word) if args.word else ()
    except ValueError as exc:
        parser.error(f"eig-word: {exc}")
    from .spectrum import eig_word_trace

    trace = eig_word_trace(word)
    if args.format == "json":
        payload = {
            "schema": f"{SCHEMA_PREFIX}/eig-word/1",
            "word": word_to_text(trace.word),
            "suffix": word_to_text(trace.suffix),
            "shape": list(trace.shape),
            "suffix_shape": list(trace.suffix_shape),
            "head": trace.head,
            "tail": trace.tail,
            "eig": trace.eig,
        }
        _write_json(payload, sys.stdout)
        return 0
    n, s = len(trace.word), len(trace.suffix)
    head_binom = n * (n + 1) // 2
    tail_binom = s * (s + 1) // 2
    print(f"word    {word_to_text(trace.word) if trace.word else '-'}")
    print(f"suffix  {word_to_text(trace.suffix) if trace.suffix else '-'}")
    print(f"shapes  {_partition_text(trace.shape)} / {_partition_text(trace.suffix_shape)}")
    print(
        f"eig     [{head_binom} + {trace.head - head_binom}]"
        f" - [{tail_binom} + {trace.tail - tail_binom}] = {trace.eig}"
    )
    return 0


# -- transition matrices --------------------------------------------------


def cmd_transition_matrix(args, parser) -> int:
    evaluation = _parse_evaluation(args.evaluation, parser, "--evaluation")
    _refuse_many_words("transition-matrix", evaluation, parser)
    tm = transition_matrix(args.shuffle, evaluation)
    if args.format == "json":
        _write_json(tm.to_json(), sys.stdout)
        return 0
    labels = [word_to_text(w) for w in tm.order]
    headers = [f"{args.shuffle} x {tm.scale}"] + labels
    rows = [
        [labels[i]] + [str(x) for x in tm.counts.row(i)]
        for i in range(len(labels))
    ]
    print(_render_table(headers, rows))
    return 0


# -- eigenbasis and kernel ------------------------------------------------


def _column_members(words):
    """The renderer of a checked int column over words, never zero: the JSON
    object of its vector, a '"word": "coefficient"' member per nonzero entry."""
    keys = [json.dumps(word_to_text(w)) + ': "' for w in words]
    return lambda col: _Members([f'{k}{c}"' for k, c in zip(keys, col) if c])


def _strip_json(members, outer, inner, eigenvalue, columns) -> dict:
    return {
        "strip": {"outer": list(outer), "inner": list(inner)},
        "eigenvalue": eigenvalue,
        "vectors": list(map(members, columns)),
    }


def cmd_eigenbasis(args, parser) -> int:
    if (args.partition is None) == (args.evaluation is None):
        parser.error("eigenbasis: provide exactly one of --partition / --evaluation")
    from .lifting import eigenbasis_columns, specht_eigenbasis_columns

    if args.partition is not None:
        shape = _parse_partition(args.partition, parser, "--partition")
        _refuse_many_words("eigenbasis", shape, parser)
        words, strips = specht_eigenbasis_columns(shape)
        members = _column_members(words)
        payload = {
            "schema": f"{SCHEMA_PREFIX}/eigenbasis/1",
            "partition": list(shape),
            "dimension": len(standard_tableaux(shape)),
            "entries": [_strip_json(members, *strip) for strip in strips],
        }
    else:
        evaluation = _parse_evaluation(args.evaluation, parser, "--evaluation")
        _refuse_many_words("eigenbasis", evaluation, parser)
        words, pushed = eigenbasis_columns(evaluation)
        members = _column_members(words)
        payload = {
            "schema": f"{SCHEMA_PREFIX}/eigenbasis-evaluation/1",
            "evaluation": list(evaluation),
            "entries": [
                {"embedding": [list(row) for row in tab], **_strip_json(members, *strip)}
                for tab, strip in pushed
            ],
        }
    _write_json(payload, sys.stdout)
    return 0


def cmd_kernel(args, parser) -> int:
    shape = _parse_partition(args.partition, parser, "--partition")
    _refuse_many_words("kernel", shape, parser)
    from .lifting import _kernel_columns

    columns = _kernel_columns(shape)
    payload = {
        "schema": f"{SCHEMA_PREFIX}/kernel/1",
        "partition": list(shape),
        "dimension": len(columns),
        "vectors": list(map(_column_members(_lex_words(shape)), columns)),
    }
    _write_json(payload, sys.stdout)
    return 0


# -- frobenius ------------------------------------------------------------


def cmd_frobenius(args, parser) -> int:
    if args.n < 0 or args.eigenvalue < 0:
        parser.error("frobenius: --n and --eigenvalue must be non-negative")
    _refuse_large_n("frobenius", args.n, parser)
    from .frobenius import frobenius_of_eigenspace

    expansion = frobenius_of_eigenspace(args.n, args.eigenvalue)
    if args.format == "json":
        payload = {
            "schema": f"{SCHEMA_PREFIX}/frobenius/1",
            "n": args.n,
            "eigenvalue": args.eigenvalue,
            "dimension": expansion.dimension(),
            "terms": expansion.to_json(),
        }
        _write_json(payload, sys.stdout)
        return 0
    print(expansion)
    return 0


# -- laplacian ------------------------------------------------------------


def cmd_laplacian(args, parser) -> int:
    if not 0 <= args.r <= args.n:
        parser.error(f"laplacian: need 0 <= r <= n, got r={args.r}, n={args.n}")
    # n!/(n-r)! injective words
    if _over_max_dim((k, 1) for k in range(args.n - args.r + 1, args.n + 1)):
        mode = "--spectrum" if args.spectrum else "the matrix"
        parser.error(f"laplacian: {mode} needs at most {_MAX_DIM} injective words")
    from .injective import laplacian, laplacian_spectrum

    if args.spectrum:
        spectrum = laplacian_spectrum(args.n, args.r)
        payload = {
            "schema": f"{SCHEMA_PREFIX}/laplacian-spectrum/1",
            "n": args.n,
            "r": args.r,
            "spectrum": {str(k): v for k, v in sorted(spectrum.items(), reverse=True)},
        }
    else:
        matrix = laplacian(args.n, args.r)
        payload = {
            "schema": f"{SCHEMA_PREFIX}/laplacian/1",
            "n": args.n,
            "r": args.r,
            "entries": [list(row) for row in matrix.data],
        }
    _write_json(payload, sys.stdout)
    return 0


# -- verify ---------------------------------------------------------------


def _verify_size(n: int, failures: list[str]) -> None:
    from .lifting import specht_eigenbasis_columns
    from .spectrum import spectrum_for_evaluation

    reports = {nu: spectrum_for_evaluation(nu) for nu in partitions_of(n)}
    predicted = {nu: report.totals for nu, report in reports.items()}
    for nu in certify_r2r_spectra(n, predicted):
        failures.append(f"charpoly mismatch on evaluation {nu}: predicted roots {predicted[nu]}")
    for shape in partitions_of(n):
        # the columns are checked for every kernel dimension, eigen-equation and span
        got = {}
        for _, _, eigenvalue, columns in specht_eigenbasis_columns(shape)[1]:
            got[eigenvalue] = got.get(eigenvalue, 0) + len(columns)
        want = {}
        for e in reports[shape].entries:
            if e.outer == shape and e.multiplicity:
                want[e.eig] = want.get(e.eig, 0) + e.desarrangements
        if got != want:
            failures.append(f"eigenbasis of {shape}: {got} != predicted {want}")


def cmd_verify(args, parser) -> int:
    text = os.environ.get("R2R_MAX_N", "6")
    try:
        cap = int(text)
    except ValueError:
        parser.error(f"verify: R2R_MAX_N must be an integer, got {text!r}")
    if args.n < 0:
        parser.error(f"verify: --n must be non-negative, got {args.n}")
    if args.n > cap:
        parser.error(
            f"verify: n={args.n} exceeds the brute-force cap {cap}; raise R2R_MAX_N to override"
        )
    failures: list[str] = []
    try:
        _verify_size(args.n, failures)
    except AssertionError as exc:
        failures.append(str(exc))
    if failures:
        print(f"verify n={args.n}: FAIL")
        for line in failures:
            print(f"  mismatch: {line}")
        return 1
    print(f"verify n={args.n}: OK")
    print(f"  charpoly factorizations match for all {len(partitions_of(args.n))} evaluations")
    print("  eigenbasis eigen-equations and kernel dimensions check out")
    return 0


# -- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffle-spectra",
        description="Exact spectra and eigenbases of random-to-random shuffles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigenvalues", help="spectrum tables indexed by horizontal strips")
    p.add_argument("--n", type=int, help="emit one table per partition of n")
    p.add_argument("--evaluation", help="comma-separated evaluation, e.g. 2,2")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument(
        "--probability",
        action="store_true",
        help="report exact probability eigenvalues eig/n^2 instead of integers",
    )
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("eig-word", help="eigenvalue attached to one word")
    p.add_argument("word", nargs="?", default="", help="digits or letters, e.g. 234133134")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_eig_word)

    p = sub.add_parser("transition-matrix", help="one-step transition matrix")
    p.add_argument("--shuffle", choices=("r2r", "r2t", "t2r"), required=True)
    p.add_argument("--evaluation", required=True)
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.set_defaults(func=cmd_transition_matrix)

    p = sub.add_parser("eigenbasis", help="explicit eigenbasis of a Specht module or word space")
    p.add_argument("--partition")
    p.add_argument("--evaluation")
    p.add_argument(
        "--verify",
        action="store_true",
        help="kept for compatibility; every eigen-equation and span is always checked",
    )
    p.set_defaults(func=cmd_eigenbasis)

    p = sub.add_parser("kernel", help="kernel basis of a Specht module")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("frobenius", help="Schur expansion of an eigenspace on permutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eigenvalue", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("laplacian", help="Laplacian of the complex of injective words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--spectrum", action="store_true", help="emit the integer spectrum instead")
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("verify", help="run the brute-force oracle suite at one size")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at exit fails no more, and exit 1 as on any EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
