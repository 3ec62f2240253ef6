import ast
from pathlib import Path

import paircodes

SRC = Path(paircodes.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check must raise instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
