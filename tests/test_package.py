import ast
from pathlib import Path

import shuffle_spectra


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
    # the package, numpy code included
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
