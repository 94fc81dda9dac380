"""Every public top-level function and class of the library modules has a
caller outside the tests: some module in ``src/``, ``benchmark/`` or
``demos/`` names it.  A helper that only tests reach restates the model
without being part of it, so it is deleted with its tests' claims moved to
what the library does use.  The CLI, ``certify`` (the slow routes) and the
package's re-exports are callers, not candidates; an import or an
``__all__`` entry is not a use.  The names the benchmark's tracer patches
are exempt: the tracer looks them up by string, and dropping one is a change
to the benchmark."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wonderful"
NOT_CANDIDATES = {"cli.py", "certify.py", "__init__.py"}


def _traced_top_level():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", ROOT / "benchmark" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = set()
    for name in module.TRACED:
        layer, _, qualname = name.partition(".")
        out.add((layer, qualname.split(".")[0]))
    return out


def _references():
    used = set()
    for folder in ("src", "benchmark", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_public_helper_has_a_caller_outside_the_tests():
    exempt = _traced_top_level()
    used = _references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in NOT_CANDIDATES:
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if (path.stem, node.name) not in exempt and node.name not in used:
                unused.append("%s.%s" % (path.stem, node.name))
    assert not unused, "reached by tests only: " + ", ".join(unused)
