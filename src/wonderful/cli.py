"""Command line front end.

Every command is a thin adapter over the library: parse a configuration
(file plus flag overrides), call one library entry point, render the result.
JSON is the canonical machine format (compact separators, deterministic
order); tables are human renderings of the same data.  Exit codes, the
contract of every command:

* 0: an answer, on stdout;
* 1: a failed check: ``order --check``, or ``certify`` and a blocked
  ``rewrite``, whose report on stdout is their answer; an interrupt
  (Ctrl-C); or a stdout pipe closed by its reader, after what it read;
* 2: a ``ValueError`` (``ConfigError`` among them) or a usage error, in
  argparse's words;
* 3: a ``BudgetError``, an enumeration or check refused past its budget.

Every other non-zero exit prints nothing on stdout and one
``{"error": ...}`` line on stderr.  Commands raise; ``_JsonErrors.main``
alone turns exceptions into exit codes, so exits 2 and 3 come only through
it, and ``order --check`` is the one command that calls ``_fail`` itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .geometry import MAX_COMPONENTS, Component, ConfigError, GeometryConfig, Space, load_config
from .labels import split_top_level
from .loci import divisor_labels, parse_center
from .nested import (
    BudgetError,
    count_divisors,
    divisor_keys,
    f_vector,
    face_rows,
    make_nested_set,
)
from .orders import SCHEMES, BlowupSequence, check_order, generate_order, swap_rewrite, two_block_order
from .symmetry import orbits
from .trees import fiber_tree, to_dot

ORDER_SOURCES = SCHEMES + ("two_block",)
# Centers ``order`` and ``rewrite`` may generate, and divisors ``divisors``
# may list, judged by the divisor count (it bounds every scheme): at k=1 n=14
# (32 752) an order prints in ~0.15 s, the divisors in ~0.02 s.
ORDER_CENTER_BOUND = 1 << 15
# PIPE_BUF on Linux: a pipe takes a write this long whole or not at all, so a closed pipe
# raises even in unbuffered stdout (``-u``), which drops what a longer write leaves over.
PIECE = 4096


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _echo(*lines):
    """Write the lines to stdout, each ending in a newline, in pieces of PIECE characters."""
    text = "".join([line + "\n" for line in lines])
    for start in range(0, len(text), PIECE):
        sys.stdout.write(text[start:start + PIECE])


def _fail(code: int, message: str):
    sys.stderr.write(_dump({"error": message}) + "\n")
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    def format_help(self):
        return "U" + super().format_help()[1:]  # every help page opens "Usage:"

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def count(text: str) -> int:
    """A nonnegative integer; argparse names this type when the text is not one."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


CONFIG_OPTIONS = (
    ("--config", dict(dest="config_path", metavar="PATH", help="Configuration JSON file.")),
    ("--n", dict(dest="n_points", metavar="N", type=int, help="Number of labeled points.")),
    ("--dim-x", dict(type=int, help="Dimension of the ambient variety.")),
    ("--components", dict(dest="n_point_components", metavar="K", type=count,
                          help="Shorthand: this many point components c1, c2, ...")),
    ("--component", dict(dest="component_specs", metavar="NAME:DIM", action="append",
                         help="One component as name:dim; repeatable.")),
    ("--space", dict(choices=[s.value for s in Space])),
)


def build_config(config_path, n_points, dim_x, n_point_components, component_specs, space) -> GeometryConfig:
    if config_path:
        base = load_config(config_path)
        n = n_points if n_points is not None else base.n
        d = dim_x if dim_x is not None else base.dim_x
        comps = base.components
        sp = Space(space) if space else base.space
    else:
        if n_points is None:
            raise ConfigError("--n is required without --config")
        n = n_points
        d = dim_x if dim_x is not None else 1
        comps = ()
        sp = Space(space) if space else Space.XD_BRACKET
    if component_specs and n_point_components is not None:
        raise ConfigError("--components and --component exclude each other")
    if component_specs:
        parsed = []
        for spec in component_specs:
            name, _, dim_text = spec.partition(":")  # no colon leaves dim_text empty
            try:
                dim = int(dim_text)
            except ValueError:
                raise ConfigError("--component expects name:dim with an integer dim, got %r" % spec) from None
            parsed.append(Component(name, dim))
        comps = tuple(parsed)
    elif n_point_components is not None:
        # one past the cap is as refused as a million
        comps = tuple(Component("c%d" % (i + 1), 0) for i in range(min(n_point_components, MAX_COMPONENTS + 1)))
    return GeometryConfig(n, d, comps, sp)


PARSER = _Parser(prog="wonderful", allow_abbrev=False, description="Combinatorics of wonderful compactifications of "
                 "configuration spaces relative to a subvariety.")
_subcommands = PARSER.add_subparsers(prog="wonderful", metavar="command", required=True)
COMMANDS = _subcommands.choices  # command name -> its parser, filled in by @_command


def _command(*options, config=True):
    """Register the function as the command of its name, less ``_cmd``: its
    options, (flag, keywords) pairs after CONFIG_OPTIONS unless ``config`` is
    false, fill its parameters.  With ``prog`` given, no usage is formatted."""
    def register(fn):
        name = fn.__name__.removesuffix("_cmd")
        parser = _subcommands.add_parser(name, prog="wonderful " + name, allow_abbrev=False, help=fn.__doc__,
                                         description=fn.__doc__)
        for flag, kwargs in (CONFIG_OPTIONS if config else ()) + options:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(run=fn)
        return fn
    return register


def _format(*choices, default="table"):
    return "--format", dict(dest="fmt", choices=choices, default=default)


class _JsonErrors:
    """The one owner of the exit-code contract (module docstring).  With
    ``standalone_mode=False`` a usage error (``argparse.ArgumentError``) or
    ``KeyboardInterrupt`` is raised to the caller.  ``main(args, prog_name,
    standalone_mode)`` is the call of ``click.testing.CliRunner``; usage text
    names ``wonderful`` whatever ``prog_name`` says.  ``main()`` parses ``sys.argv``."""

    name = "wonderful"

    def __call__(self):
        return self.main()

    def main(self, args=None, prog_name=None, standalone_mode=True):
        try:
            args = sys.argv[1:] if args is None else list(args)
            command = COMMANDS.get(args[0]) if args else None  # straight to the command's parser
            options = vars(command.parse_args(args[1:]) if command else PARSER.parse_args(args))
            try:
                options.pop("run")(**options)
            finally:
                sys.stdout.flush()
        except BudgetError as exc:
            _fail(3, str(exc))
        except ValueError as exc:
            _fail(2, str(exc))
        except argparse.ArgumentError as exc:
            if not standalone_mode:
                raise
            _fail(2, str(exc))
        except KeyboardInterrupt:
            if not standalone_mode:
                raise
            _fail(1, "aborted")
        except BrokenPipeError:
            # as the Python docs' note on SIGPIPE does: the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            _fail(1, "stdout closed")


main = _JsonErrors()


@_command(_format("table", "json"))
def divisors(fmt, **cfg):
    """List the boundary divisors."""
    g = build_config(**cfg)
    _refuse_past_center_bound(g)
    labels = divisor_labels(divisor_keys(g))
    if fmt == "json":
        _echo(_dump({"count": len(labels), "divisors": labels}))
    else:
        _echo(*labels, "total %d" % len(labels))


@_command(("--max-size", dict(type=count)),
          ("--fvector", dict(dest="want_fvector", action="store_true", help="Print only the face counts.")),
          _format("table", "json", "csv"))
def nested(max_size, want_fvector, fmt, **cfg):
    """Enumerate nested sets (the boundary stratification poset)."""
    if fmt == "csv" and not want_fvector:
        raise ValueError("--format csv prints face counts only; add --fvector")
    g = build_config(**cfg)
    if want_fvector:
        _render_fvector(f_vector(g, max_size=max_size), fmt)
    else:
        _echo_faces(g, fmt, "nested_sets", max_size=max_size)


def _echo_faces(g, fmt, key, **walk):
    """Print the faces of ``face_rows`` (never none) in one write: JSON
    quotes each label once, tables print them bare, one face per line."""
    rows = face_rows(g, json.dumps if fmt == "json" else str, **walk)
    if fmt == "json":
        _echo('{"count":%d,"%s":[[' % (len(rows), key) + "],[".join(rows) + "]]}")
    else:
        _echo("".join(["{%s}\n" % r for r in rows]) + "total %d" % len(rows))


def _render_fvector(fv, fmt):
    if fmt == "json":
        _echo(_dump({"fvector": list(fv)}))
    elif fmt == "csv":
        _echo(",".join("f%d" % i for i in range(len(fv))), ",".join(str(v) for v in fv))
    else:
        _echo(",".join(str(v) for v in fv))


@_command(_format("table", "json", "csv"))
def fvector(fmt, **cfg):
    """Face counts of the nested-set complex."""
    _render_fvector(f_vector(build_config(**cfg)), fmt)


@_command(_format("table", "json"))
def facets(fmt, **cfg):
    """Maximal nested sets (deepest strata)."""
    _echo_faces(build_config(**cfg), fmt, "facets", maximal=True)


@_command(("--scheme", dict(choices=SCHEMES, required=True)),
          ("--check", dict(action="store_true", help="Also validate the generated order.")),
          _format("json", "table", default="json"))
def order(scheme, check, fmt, **cfg):
    """Generate a blowup order."""
    seq = _generate(build_config(**cfg), scheme)
    failure = check_order(seq, scheme) if check else None
    if failure:
        _fail(1, failure)
    if fmt == "json":
        _echo(_dump(seq.labels()))
    else:
        _echo(*seq.labels())


def _refuse_past_center_bound(g):
    """Raise BudgetError past ORDER_CENTER_BOUND divisors, before building any."""
    if count_divisors(g) > ORDER_CENTER_BOUND:
        raise BudgetError("refusing an order of more than %d centers (%d predicted)"
                          % (ORDER_CENTER_BOUND, count_divisors(g)))


def _generate(g, scheme) -> BlowupSequence:
    """The order of a scheme or the two-block order, within the center bound."""
    _refuse_past_center_bound(g)
    return two_block_order(g) if scheme == "two_block" else generate_order(g, scheme)


def _sequence_from(g, text) -> BlowupSequence:
    if text in ORDER_SOURCES:
        return _generate(g, text)
    labels = _parse_label_array(text)
    return BlowupSequence(g, tuple(parse_center(t, g.n) for t in labels))


def _parse_label_array(text: str) -> list[str]:
    """A JSON array of labels, or the relaxed unquoted form [D:c1:{1},...]."""
    try:
        data = json.loads(text)
        if isinstance(data, list) and all(isinstance(x, str) for x in data):
            return data
    except json.JSONDecodeError:
        pass
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError("expected a JSON array of labels, got %r" % text)
    body = t[1:-1].strip()
    return [item.strip('"') for item in split_top_level(body)] if body else []


@_command(("--source", dict(required=True,
                            help="Scheme name (%s) or JSON array of labels." % "|".join(ORDER_SOURCES))),
          ("--target", dict(required=True, help="Scheme name or JSON array of labels.")))
def rewrite(source, target, **cfg):
    """Rewrite one blowup order into another by certified adjacent swaps."""
    g = build_config(**cfg)
    seq = _sequence_from(g, source)
    result = swap_rewrite(seq, _sequence_from(g, target))
    # one write, each distinct label and certificate quoted once, as in _echo_faces
    q = {t: json.dumps(t) for t in {*seq.labels(), *(s.certificate for s in result.swaps)}}
    swaps = ",".join([f'{{"position":{p},"left":{q[a]},"right":{q[b]},"certificate":{q[c]}}}'
                      for p, a, b, c in result.swaps])
    blocking = "" if result.ok else ',"blocking":[%s,%s]' % tuple(map(q.get, result.blocking))
    _echo('{"ok":%s,"swaps":[%s]%s}' % (_dump(result.ok), swaps, blocking))
    if not result.ok:
        sys.exit(1)


@_command(("--nested", dict(dest="nested_literal", metavar="LABELS", required=True,
                            help="Nested set as an array of divisor labels.")),
          _format("dot", "json", default="json"))
def fiber(nested_literal, fmt, **cfg):
    """Dual graph of the universal-family fiber over a boundary stratum."""
    g = build_config(**cfg)
    ns = make_nested_set(g, (parse_center(text, g.n) for text in _parse_label_array(nested_literal)))
    tree = fiber_tree(ns)
    if fmt == "dot":
        _echo(to_dot(tree).removesuffix("\n"))
    else:
        _echo(_dump(
            {
                "vertices": [
                    {"id": v.vid, "label": v.label(), "marks": list(tree.marks_on(v.vid))}
                    for v in tree.vertices
                ],
                "edges": [[tree.parents[v.vid], v.vid] for v in tree.vertices[1:]],
                "stable": True,  # fiber_tree raises on an unstable tree
                "nested": list(ns.labels()),
            }
        ))


@_command(("--kind", dict(choices=("divisors", "nested"), default="divisors")),
          ("--size", dict(type=count, help="Cardinality for kind=nested.")),
          _format("table", "json"))
def orbits_cmd(kind, size, fmt, **cfg):
    """Orbits of the symmetric-group action."""
    if kind == "divisors" and size is not None:
        raise ValueError("--size applies to --kind nested only")
    rows = []
    for orbit in orbits(build_config(**cfg), kind, size):
        rep = orbit.representative
        rep_text = str(rep) if kind == "divisors" else "{" + ",".join(rep.labels()) + "}"
        rows.append({"representative": rep_text, "size": orbit.size, "stabilizer_order": orbit.stabilizer_order})
    if fmt == "json":
        _echo(_dump(rows))
    else:
        _echo(*["%s size=%d stabilizer=%d" % (row["representative"], row["size"], row["stabilizer_order"])
                for row in rows], "orbits %d" % len(rows))


@_command(_format("table", "json"), config=False)
def certify_cmd(fmt):
    """Run the cross-validation suite and report each check."""
    from .certify import run_all  # imported here: no other command needs the cross-checks

    results = run_all()
    if fmt == "json":
        _echo(_dump([{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]))
    else:
        _echo(*["%s %s: %s" % ("ok  " if r.ok else "FAIL", r.name, r.detail) for r in results])
    if not all(r.ok for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
