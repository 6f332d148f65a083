import ast
from pathlib import Path

import shuffle_spectra


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so library invariants must raise
    # real exceptions; the CLI reports those as failed checks.
    package = Path(shuffle_spectra.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
