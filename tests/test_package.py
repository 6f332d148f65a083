import ast
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import shuffle_spectra
from shuffle_spectra.linalg import ExactMatrix


def package_trees():
    package = Path(shuffle_spectra.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so library invariants must raise
    # real exceptions; the CLI reports those as failed checks.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _floating(node) -> bool:
    if isinstance(node, ast.Constant):
        # float literals, and dtype names such as "float64"
        return isinstance(node.value, (float, complex)) or (
            isinstance(node.value, str) and node.value.startswith("float")
        )
    if isinstance(node, ast.Name):
        # float(x), astype(float), dtype=float
        return node.id in ("float", "complex")
    if isinstance(node, ast.Attribute):
        # np.float64, np.linalg.*
        return node.attr.startswith("float") or node.attr == "linalg"
    return False


def test_the_exact_core_has_no_floating_point():
    # every printed claim rests on exact arithmetic, so no float may enter
    # the package
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if _floating(node)
    ]
    assert found == []


def test_the_exact_core_lint_sees_floating_point():
    source = "\n".join(
        [
            "import numpy as np",
            "x = float(1)",
            "y = 0.5",
            "z = a.astype(float)",
            "w = np.float64",
            "v = np.linalg.eigvals(m)",
            "u = a.astype('float32') + 1 // 2",
        ]
    )
    hits = [node for node in ast.walk(ast.parse(source)) if _floating(node)]
    assert {node.lineno for node in hits} == {2, 3, 4, 5, 6, 7}


def test_the_benchmark_tracer_still_finds_every_layer():
    # perfbench/traced.py wraps functions by name from outside the package;
    # moving or renaming one of them would break `perfbench/run.py --trace 1`.
    # The source is compiled here rather than imported, so no bytecode cache
    # is written next to it.
    path = Path(__file__).parents[1] / "perfbench" / "traced.py"
    traced = types.ModuleType("traced")
    exec(compile(path.read_text(), str(path), "exec"), traced.__dict__)
    missing = [
        f"{module.__name__}.{name}"
        for module, name in traced.FUNCTIONS
        if not callable(getattr(module, name, None))
    ]
    missing += [
        f"ExactMatrix.{name}" for name in traced.METHODS if not hasattr(ExactMatrix, name)
    ]
    assert traced.FUNCTIONS and traced.METHODS
    assert missing == []


def _fresh_python(script: str) -> str:
    """Run script in a fresh interpreter that imports this package; return
    its stdout."""
    src = str(Path(shuffle_spectra.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _run_cli(argv: list[str]) -> list[str]:
    """Run the CLI in a fresh interpreter; return its stdout lines, the last
    one saying whether numpy was imported."""
    script = "\n".join(
        [
            "import sys",
            "from shuffle_spectra.cli import main",
            f"code = main({argv!r})",
            "print('numpy' in sys.modules)",
            "sys.exit(code)",
        ]
    )
    return _fresh_python(script).splitlines()


@pytest.mark.parametrize(
    "argv, first",
    [
        # the r2r certificate, eigenbasis checks and mod-p ranks are plain ints
        (["verify", "--n", "5"], "verify n=5: OK"),
        # so is the Laplacian spectrum certificate
        (["laplacian", "--n", "4", "--r", "3", "--spectrum"], "{"),
    ],
)
def test_no_command_imports_numpy(argv, first):
    lines = _run_cli(argv)
    assert lines[0] == first
    assert lines[-1] == "False"


def _imports_of(tree, top: str) -> list[int]:
    """Line numbers of the statements in tree that import the module top or
    a submodule of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == top for m in modules):
            lines.append(node.lineno)
    return lines


def test_the_package_has_no_numpy_import():
    found = [
        f"{name}:{line}" for name, tree in package_trees() for line in _imports_of(tree, "numpy")
    ]
    assert found == []
    source = "import os\nimport numpy as np\ndef f():\n    from numpy.linalg import eig\n"
    assert _imports_of(ast.parse(source), "numpy") == [2, 4]


_RANK_INTERNALS = {"_rank_mod", "_RANK_PRIME", "_echelon", "_independent_rows"}


def _rank_internal_uses(tree) -> list[int]:
    """Line numbers of the imports in tree of a rank internal of linalg, and
    of the attribute reads of one."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            continue
        if names & _RANK_INTERNALS:
            lines.append(node.lineno)
    return lines


def test_only_linalg_reaches_its_rank_internals():
    # every other module ranks through linalg._rank, so the certificate and
    # the elimination stay in one place
    found = [
        f"{name}:{line}"
        for name, tree in package_trees()
        if name != "linalg.py"
        for line in _rank_internal_uses(tree)
    ]
    assert found == []
    source = "from .linalg import _RANK_PRIME, _rank\nimport x\ny = linalg._echelon(m)\n"
    assert _rank_internal_uses(ast.parse(source)) == [1, 3]


def _fresh_modules(script: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running script."""
    return set(_fresh_python(script + "\nimport sys\nprint(*sys.modules)").split())


def test_importing_the_cli_loads_only_what_every_command_needs():
    # start-up is most of a typical command's time; modules that site hooks
    # load in a bare interpreter do not count
    loaded = _fresh_modules("import shuffle_spectra.cli") - _fresh_modules("pass")
    assert "shuffle_spectra.cli" in loaded
    unused = {"dataclasses", "inspect", "csv"}
    unused |= {"shuffle_spectra.injective", "shuffle_spectra.frobenius"}
    unused |= {"shuffle_spectra.lifting", "shuffle_spectra.specht", "shuffle_spectra.spectrum"}
    assert loaded & unused == set()
    # nor does any module of the package, loaded or not
    found = [
        f"{name}:{line}"
        for name, tree in package_trees()
        for line in _imports_of(tree, "dataclasses")
    ]
    assert found == []


def test_the_laplacian_command_loads_no_eigenbasis_module():
    # the Laplacian and its certificate need words and linalg only
    argv = ["laplacian", "--n", "3", "--r", "2", "--spectrum"]
    loaded = _fresh_modules(f"from shuffle_spectra.cli import main\nassert main({argv!r}) == 0")
    assert "shuffle_spectra.injective" in loaded
    eigenbasis = {"shuffle_spectra.lifting", "shuffle_spectra.specht", "shuffle_spectra.spectrum"}
    assert loaded & eigenbasis == set()

def test_every_public_name_is_its_home_modules_object():
    # the package resolves its names on first use; each must be the object
    # its defining module holds, and dir() must list them all
    for name in shuffle_spectra.__all__:
        value = getattr(shuffle_spectra, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"shuffle_spectra.{name}"]
        else:
            assert value.__module__.startswith("shuffle_spectra.")
            assert getattr(sys.modules[value.__module__], name) is value
    assert set(shuffle_spectra.__all__) <= set(dir(shuffle_spectra))
    assert {"words", "eigenbasis", "SpectrumReport"} <= set(shuffle_spectra.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        shuffle_spectra.nonsense


def _records():
    """One record of each frozen record class, with its field names in order."""
    from shuffle_spectra import (
        eig_word_trace,
        eigenbasis,
        specht_basis,
        spectrum_for_evaluation,
        transition_matrix,
    )

    report = spectrum_for_evaluation((1,))
    return [
        (transition_matrix("r2t", (1, 1)), ("shuffle", "evaluation", "order", "scale", "counts")),
        (eigenbasis((2, 1))[0], ("outer", "inner", "eigenvalue", "vectors")),
        (specht_basis((2, 1)), ("shape", "tableaux", "vectors")),
        (report.entries[0], ("outer", "inner", "eig", "kostka", "desarrangements")),
        (report, ("evaluation", "partition", "entries", "totals")),
        (eig_word_trace((2, 1, 1)), ("word", "suffix", "shape", "suffix_shape", "head", "tail")),
    ]


def test_records_show_as_their_fields():
    # the reprs the frozen dataclasses gave
    assert [repr(record) for record, _ in _records()] == [
        "TransitionMatrix(shuffle='r2t', evaluation=(1, 1), order=((1, 2), (2, 1)),"
        " scale=Fraction(1, 2), counts=ExactMatrix(2x2))",
        "EigenbasisEntry(outer=(2, 1), inner=(1, 1), eigenvalue=4,"
        " vectors=(WordVector(1*112 + -1*211),))",
        "SpechtBasis(shape=(2, 1), tableaux=(((1, 2), (3,)), ((1, 3), (2,))),"
        " vectors=(WordVector(1*112 + -1*211), WordVector(1*121 + -1*211)))",
        "StripEigenvalue(outer=(1,), inner=(), eig=1, kostka=1, desarrangements=1)",
        "SpectrumReport(evaluation=(1,), partition=(1,),"
        " entries=(StripEigenvalue(outer=(1,), inner=(), eig=1, kostka=1, desarrangements=1),"
        " StripEigenvalue(outer=(1,), inner=(1,), eig=0, kostka=1, desarrangements=0)),"
        " totals={1: 1})",
        "WordEigTrace(word=(2, 1, 1), suffix=(2, 1, 1), shape=(2, 1), suffix_shape=(2, 1),"
        " head=6, tail=6)",
    ]


def test_records_are_frozen_values_of_their_fields():
    hashed = []
    for record, fields in _records():
        cls, values = type(record), tuple(getattr(record, f) for f in fields)
        twin = cls(*values)
        assert twin == record and twin is not record
        assert not isinstance(record, tuple) and record != values
        try:
            expected = hash(values)
        except TypeError:
            # a dict or WordVector field leaves the record unhashable, as it
            # left the dataclass
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(twin) == hash(record) == expected
            hashed.append(cls.__name__)
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(record, fields[-1])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, fields[0]) == values[0]
    assert hashed == ["TransitionMatrix", "StripEigenvalue", "WordEigTrace"]
    # records of different classes with equal fields differ
    classes = {type(record).__name__: type(record) for record, _ in _records()}
    five = (1, 2, 3, 4, 5)
    assert classes["TransitionMatrix"](*five) != classes["StripEigenvalue"](*five)
    assert classes["EigenbasisEntry"](*five[:4]) != classes["SpectrumReport"](*five[:4])
    assert classes["EigenbasisEntry"](*five[:4]) == classes["EigenbasisEntry"](*five[:4])


def test_sizes_are_ints_and_not_bools():
    # a cache keyed on 1 would answer True and 1.0 as 1, so each entry point
    # refuses them even once the answer for 1 is cached
    from shuffle_spectra import combinatorics, frobenius, injective

    entry_points = [
        (combinatorics.partitions_of, (1,), "n"),
        (frobenius.frobenius_of_eigenspace, (3, 9), "n eig"),
        (frobenius.r2t_frobenius, (3, 1), "n j"),
        (injective.injective_words, (3, 1), "n r"),
        (injective.boundary_matrix, (3, 1), "n r"),
        (injective.laplacian, (3, 1), "n r"),
        (injective.laplacian_spectrum, (3, 1), "n r"),
    ]
    for fn, sizes, names in entry_points:
        fn(*sizes)
        for k, name in enumerate(names.split()):
            for bad in (True, float(sizes[k]), 1.5, "3", None):
                args = [*sizes[:k], bad, *sizes[k + 1 :]]
                message = re.escape(f"size {name} must be an int, got {bad!r}")
                with pytest.raises(ValueError, match=message):
                    fn(*args)
    unit = shuffle_spectra.WordVector.unit
    for bad in (3.0, True):
        with pytest.raises(ValueError, match="size n must be an int"):
            injective.boundary(bad, 1, unit((1,)))
        with pytest.raises(ValueError, match="size n must be an int"):
            injective.coboundary(bad, 0, unit(()))
    assert injective.laplacian_spectrum(1, 1) == {1: 1}
