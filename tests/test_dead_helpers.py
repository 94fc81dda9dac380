"""Every public top-level function and class of the library modules, and
every public method of a public class, has a caller outside the tests: some
module in ``src/``, ``benchmark/`` or ``demos/`` names it.  A helper that
only tests reach restates the model without being part of it, so it is
deleted with its tests' claims moved to what the library does use.  The
CLI, ``certify`` (the slow routes) and the package's re-exports are callers,
not candidates; an import or an ``__all__`` entry is not a use.  Dunders are
the language's to call and are skipped.  The names the benchmark's tracer
patches are exempt, a traced method with its class: the tracer looks them
up by string, and dropping one is a change to the benchmark.

Nor do any of those functions or methods take a parameter named
``bound``: each budget is one library constant that every call applies.
The ignored ``divisor_bound`` is another name and stays until the
benchmark stops passing it.

And every defaulted parameter of those functions and methods is passed by
some call in ``src/``, ``benchmark/`` or ``demos/``: by keyword, by
position (after ``self`` for a method), or through a ``*`` or ``**``
spread.  A call is matched on the name it calls, as a name or an
attribute.  A default that no caller overrides is a constant dressed as a
knob, so the parameter goes and its value moves into the body."""

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
    """(qualname, node) of each public top-level function and class of the
    module, and of each public method of its public classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item


def test_every_public_helper_has_a_caller_outside_the_tests():
    exempt = _traced()
    used = _references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in NOT_CANDIDATES:
            continue
        for qualname, node in _public_definitions(path):
            if (path.stem, qualname) not in exempt and node.name not in used:
                unused.append("%s.%s" % (path.stem, qualname))
    assert not unused, "reached by tests only: " + ", ".join(unused)


def test_no_public_function_takes_a_bound():
    # a budget is the library's own constant (``nested.FACE_BOUND``,
    # ``nested.ORDER_CHECK_BOUND``), not a knob each caller may set or forget
    knobs = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in NOT_CANDIDATES:
            continue
        for qualname, node in _public_definitions(path):
            if isinstance(node, ast.FunctionDef):
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(a.arg == "bound" for a in arguments):
                    knobs.append("%s.%s" % (path.stem, qualname))
    assert not knobs, "a bound parameter: " + ", ".join(knobs)


def _calls():
    """For each called name: the keywords its calls pass, with "*" when one
    spreads ``*`` or ``**`` (it may pass anything), and the most positional
    arguments one call passes."""
    keywords, positions = {}, {}
    for folder in ("src", "benchmark", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    passed = keywords.setdefault(name, set())
                    passed.update(k.arg or "*" for k in node.keywords)
                    if any(isinstance(a, ast.Starred) for a in node.args):
                        passed.add("*")
                    positions[name] = max(positions.get(name, 0), len(node.args))
    return keywords, positions


def test_every_defaulted_parameter_is_passed_by_some_caller():
    keywords, positions = _calls()
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in NOT_CANDIDATES:
            continue
        for qualname, node in _public_definitions(path):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if "." in qualname and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
                positional = positional[1:]  # self or cls
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            passed = keywords.get(node.name, set())
            for name in defaulted:
                by_position = name in positional and positions.get(node.name, 0) > positional.index(name)
                if not (by_position or name in passed or "*" in passed):
                    unpassed.append("%s.%s(%s)" % (path.stem, qualname, name))
    assert not unpassed, "a default no caller overrides: " + ", ".join(unpassed)
