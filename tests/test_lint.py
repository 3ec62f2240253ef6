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


def test_every_error_class_is_raised():
    # An error class nothing raises is dead, or a second name for another.
    defined = {"PairCodeError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in defined
                for base in node.bases):
            defined.add(node.name)
    defined.discard("PairCodeError")
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(defined - raised) == []
