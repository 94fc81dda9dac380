"""The library asks a space one question: may the points collide?  FM is
XD_bracket with D empty, so past ``GeometryConfig``'s own checks (in
``geometry.py``) no module tells the two apart.  Every comparison with a
``Space`` member in the other library modules names ``XD_UPPER``.
``certify.py`` picks its fixtures by space and is exempt; a default such as
the CLI's ``Space.XD_BRACKET`` is not a comparison."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wonderful"
EXEMPT = {"geometry.py", "certify.py"}


def _other_space_comparisons(source):
    """The line of each comparison that names a ``Space`` member other than ``XD_UPPER``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for part in ast.walk(node):
                if (isinstance(part, ast.Attribute) and isinstance(part.value, ast.Name)
                        and part.value.id == "Space" and part.attr != "XD_UPPER"):
                    out.append(node.lineno)
    return sorted(out)


def test_every_space_comparison_asks_whether_points_collide():
    found = {path.name: _other_space_comparisons(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT}
    assert {name: lines for name, lines in found.items() if lines} == {}
