"""Every public top-level function and class of the library modules, and
every public method of a public class, has a caller outside the tests: some
module in ``src/``, ``benchmark/`` or ``demos/`` names it.  A helper that
only tests reach restates the model without being part of it, so it is
deleted with its tests' claims moved to what the library does use.  The
CLI, ``certify`` (the slow routes) and the package's re-exports are callers,
not candidates; an import or an ``__all__`` entry is not a use.  Dunders are
the language's to call and are skipped.  The names the benchmark's tracer
patches are exempt, a traced method with its class: the tracer looks them
up by string, and dropping one is a change to the benchmark."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wonderful"
NOT_CANDIDATES = {"cli.py", "certify.py", "__init__.py"}


def _traced():
    """(module, qualname) of every traced name and of the class of a traced method."""
    spec = importlib.util.spec_from_file_location("benchmark_tracer", ROOT / "benchmark" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = set()
    for name in module.TRACED:
        layer, _, qualname = name.partition(".")
        out.add((layer, qualname))
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


def _public_definitions(path):
    """(qualname, name) of each public top-level function and class of the
    module, and of each public method of its public classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item.name


def test_every_public_helper_has_a_caller_outside_the_tests():
    exempt = _traced()
    used = _references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in NOT_CANDIDATES:
            continue
        for qualname, name in _public_definitions(path):
            if (path.stem, qualname) not in exempt and name not in used:
                unused.append("%s.%s" % (path.stem, qualname))
    assert not unused, "reached by tests only: " + ", ".join(unused)
