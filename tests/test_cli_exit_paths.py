"""The CLI's exit codes have one owner (the ``cli`` docstring): commands
raise, and ``_JsonErrors.main`` turns exceptions into exit codes 2 and 3.
The one command that calls ``_fail`` itself is ``order``, whose failed
``--check`` exits 1."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "wonderful" / "cli.py"


def _callers_of_fail(tree):
    """The qualified name of the function around each ``_fail`` call."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "_fail":
                out.append(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    return out


def test_only_the_error_owner_and_order_call_fail():
    callers = _callers_of_fail(ast.parse(CLI.read_text(encoding="utf-8")))
    assert "_JsonErrors.main" in callers and "order" in callers
    assert set(callers) == {"_JsonErrors.main", "order"}, callers
