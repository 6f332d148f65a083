"""Run one shuffle-spectra CLI command with timing wrappers around each layer.

Usage: python3 perfbench/traced.py <cli arguments>   (with src/ on PYTHONPATH)

The command runs exactly as `python3 -m shuffle_spectra.cli` would: same
stdout, same exit code.  Before it starts, the public functions of each module
are wrapped so that every call records a span (name, parent, start, end).
Spans stay in memory; when the command returns, they and the per-layer
metrics computed from them are written to stderr as one JSON line, the last
one: {"metrics": {...}, "spans": [[name, parent index, start, end], ...]},
with times in seconds from the first span's start and -1 for no parent.

Only layer boundaries are wrapped.  Hot inner code such as WordVector
arithmetic is not, so the wrappers cost little next to the work they time.
The r2r calls that `transition_matrix` makes through the SHUFFLES table are
not wrapped either; they count as its own time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from shuffle_spectra import cli, injective, lifting, specht, spectrum, words
from shuffle_spectra.linalg import ExactMatrix


def _vector_count(result) -> int:
    """Vectors returned by kernel_basis, eigenbasis or eigenbasis_for_evaluation."""
    total = 0
    for item in result:
        if isinstance(item, words.WordVector):
            total += 1
        else:
            entry = item[1] if isinstance(item, tuple) else item
            total += len(entry.vectors)
    return total


# Module-level functions that are layer boundaries: (module, function name).
FUNCTIONS = [
    (spectrum, "spectrum_for_evaluation"),
    (words, "transition_matrix"),
    (words, "r2r"),
    (specht, "specht_basis"),
    (specht, "gram_matrix"),
    (specht, "specht_coordinates"),
    (specht, "theta_embedding"),
    (lifting, "kernel_basis"),
    (lifting, "lift_chain"),
    (lifting, "normalize_vector"),
    (lifting, "eigenbasis"),
    (lifting, "eigenbasis_for_evaluation"),
    (injective, "boundary_matrix"),
    (injective, "laplacian"),
    (injective, "laplacian_spectrum"),
]

# ExactMatrix methods, patched on the class, and the span name of each.
METHODS = {
    "charpoly": "linalg.charpoly",
    "solve": "linalg.solve",
    "nullspace": "linalg.nullspace",
    "rank": "linalg.rank",
    "__matmul__": "linalg.matmul",
}

# functools caches whose hit and miss counts are reported.
CACHES = {
    "lifting.kernel_basis": lifting.kernel_basis,
    "lifting.eigenbasis": lifting.eigenbasis,
    "specht.specht_basis": specht.specht_basis,
    "specht.gram_matrix": specht.gram_matrix,
}

# Counters read off a call's arguments and result: span name -> fn(args, result).
SIZES = {
    "words.transition_matrix": lambda a, r: {"cells": r.counts.rows * r.counts.cols},
    "words.r2r": lambda a, r: {
        "terms": len(a[0]) if isinstance(a[0], words.WordVector) else 1
    },
    "linalg.charpoly": lambda a, r: {"dim": a[0].rows},
    "linalg.matmul": lambda a, r: {"mults": a[0].rows * a[0].cols * a[1].cols},
    "lifting.kernel_basis": lambda a, r: {"vectors": _vector_count(r)},
    "lifting.eigenbasis": lambda a, r: {"vectors": _vector_count(r)},
    "lifting.eigenbasis_for_evaluation": lambda a, r: {"vectors": _vector_count(r)},
    "injective.laplacian": lambda a, r: {"dim": r.rows},
}


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[1]}.{attr}"


class Tracer:
    """Records one span per wrapped call, with the index of its parent span."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sizes: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self.sizes.append({})
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if name in SIZES:
                self.sizes[index] = SIZES[name](args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Spans nest on one thread, so the children of a span cover disjoint
        parts of its interval and their durations add up.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= duration
        totals: dict[str, float] = {}
        for name, value in zip(self.names, own):
            totals[name] = totals.get(name, 0.0) + value
        return totals


def install(tracer: Tracer):
    """Wrap every layer boundary; returns the wrapped cli.main."""
    modules = [m for name, m in sys.modules.items() if name.startswith("shuffle_spectra")]
    for module, attr in FUNCTIONS:
        original = getattr(module, attr)
        wrapped = tracer.wrap(_span_name(module, attr), original)
        # Replace the function in every module that imported it by name.
        for m in modules:
            for key, value in vars(m).items():
                if value is original:
                    setattr(m, key, wrapped)
    for attr, name in METHODS.items():
        setattr(ExactMatrix, attr, tracer.wrap(name, getattr(ExactMatrix, attr)))
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced command, by name."""
    own = tracer.self_times()
    metrics = {"cli.self_s": own.get("cli.main", 0.0)}
    for module, attr in FUNCTIONS:
        name = _span_name(module, attr)
        metrics[f"{name}_s"] = own.get(name, 0.0)
    for name in METHODS.values():
        metrics[f"{name}_s"] = own.get(name, 0.0)

    def calls(name):
        return sum(1 for n in tracer.names if n == name)

    def sizes(name, key):
        return [s[key] for n, s in zip(tracer.names, tracer.sizes) if n == name]

    metrics["words.transition_matrix_cells"] = sum(sizes("words.transition_matrix", "cells"))
    metrics["words.r2r_calls"] = calls("words.r2r")
    metrics["words.r2r_terms"] = sum(sizes("words.r2r", "terms"))
    metrics["linalg.charpoly_calls"] = calls("linalg.charpoly")
    metrics["linalg.charpoly_dim_max"] = max(sizes("linalg.charpoly", "dim"), default=0)
    metrics["linalg.solve_calls"] = calls("linalg.solve")
    metrics["linalg.rank_calls"] = calls("linalg.rank")
    metrics["linalg.matmul_mults"] = sum(sizes("linalg.matmul", "mults"))
    metrics["specht.specht_coordinates_calls"] = calls("specht.specht_coordinates")
    metrics["injective.laplacian_dim"] = max(sizes("injective.laplacian", "dim"), default=0)
    for name, cached in CACHES.items():
        info = cached.cache_info()
        metrics[f"{name}_hits"] = info.hits
        metrics[f"{name}_misses"] = info.misses
    # Vectors the lifting layer hands to its callers: lifting spans whose
    # parent is not itself a lifting span.
    metrics["lifting.vectors_out"] = sum(
        size.get("vectors", 0)
        for parent, size in zip(tracer.parents, tracer.sizes)
        if parent < 0 or not tracer.names[parent].startswith("lifting.")
    )
    return metrics


def spans(tracer: Tracer) -> list[list]:
    origin = tracer.starts[0] if tracer.starts else 0.0
    return [
        [name, parent, start - origin, end - origin]
        for name, parent, start, end in zip(tracer.names, tracer.parents, tracer.starts, tracer.ends)
    ]


def main(argv: list[str]) -> int:
    tracer = Tracer()
    traced_main = install(tracer)
    code = traced_main(argv)
    sys.stdout.flush()
    print(json.dumps({"metrics": layer_metrics(tracer), "spans": spans(tracer)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
