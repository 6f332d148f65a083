import ast
import os
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
    src = str(Path(shuffle_spectra.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


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


def _numpy_imports(tree) -> list[int]:
    """Line numbers of the statements in tree that import numpy or a submodule."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "numpy" for m in modules):
            lines.append(node.lineno)
    return lines


def test_the_package_has_no_numpy_import():
    found = [f"{name}:{line}" for name, tree in package_trees() for line in _numpy_imports(tree)]
    assert found == []
    source = "import os\nimport numpy as np\ndef f():\n    from numpy.linalg import eig\n"
    assert _numpy_imports(ast.parse(source)) == [2, 4]


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
