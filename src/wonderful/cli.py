"""Command line front end.

Every command is a thin adapter over the library: parse a configuration
(file plus flag overrides), call one library entry point, render the result.
JSON is the canonical machine format (compact separators, deterministic
order); tables are human renderings of the same data.  Exit codes: 0 ok,
2 bad configuration or arguments, 3 enumeration or check budget exceeded,
1 failed certification or order check.
"""

from __future__ import annotations

import json
import sys

import click

from .geometry import Component, ConfigError, GeometryConfig, Space, load_config
from .labels import split_top_level
from .loci import parse_center
from .nested import (
    BudgetError,
    count_divisors,
    divisors_for,
    f_vector,
    face_rows,
    make_nested_set,
)
from .orders import (
    SCHEMES,
    BlowupSequence,
    generate_order,
    swap_rewrite,
    two_block_order,
    validate_building_set_order,
    validate_inclusion_order,
)
from .symmetry import orbits
from .trees import fiber_tree, is_stable, to_dot

ORDER_SOURCES = SCHEMES + ("two_block",)
# Steps ``order --check`` may spend on a generated order, and swaps
# ``rewrite`` may make; times for one thread of a 2-vCPU Xeon.  Inclusion:
# one mask test per pair of centers; k=3 n=6 takes 30 135 and ~3 ms, k=2 n=9
# 1 160 526.  Reshuffled: containment tests between the centers, then
# intersections; k=2 n=6 takes 45 404 steps and ~0.8 s, k=3 n=6 217 719.
# Swaps from the two-block order: k=1 n=8 takes 20 052 and ~40 ms.
ORDER_CHECK_BOUND = 1 << 16
# Centers ``order`` and ``rewrite`` may generate, and divisors ``divisors``
# may list, judged by the divisor count (it bounds every scheme): k=1 n=14
# (32 752) prints in ~0.7 s.
ORDER_CENTER_BOUND = 1 << 15


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _echo_json(data):
    click.echo(_dump(data))


def _fail(code: int, message: str):
    click.echo(_dump({"error": message}), err=True)
    sys.exit(code)


config_options = [
    click.option("--config", "config_path", type=click.Path(), default=None, help="Configuration JSON file."),
    click.option("--n", "n_points", type=int, default=None, help="Number of labeled points."),
    click.option("--dim-x", type=int, default=None, help="Dimension of the ambient variety."),
    click.option("--components", "n_point_components", type=click.IntRange(min=0), default=None,
                 help="Shorthand: this many point components c1, c2, ..."),
    click.option("--component", "component_specs", multiple=True,
                 help="One component as name:dim; repeatable."),
    click.option("--space", type=click.Choice([s.value for s in Space]), default=None),
]


def with_config(fn):
    for opt in reversed(config_options):
        fn = opt(fn)
    return fn


def build_config(config_path, n_points, dim_x, n_point_components, component_specs, space) -> GeometryConfig:
    try:
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
            comps = tuple(Component("c%d" % (i + 1), 0) for i in range(n_point_components))
        return GeometryConfig(n, d, comps, sp)
    except (ConfigError, ValueError, OSError) as exc:
        _fail(2, str(exc))


class _JsonErrors(click.Group):
    """Reports click's own usage errors, like every other error, as one JSON
    line on stderr.  A caller that passes ``standalone_mode=False`` handles
    click's exceptions itself and gets them unchanged."""

    def main(self, *args, standalone_mode=True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            _fail(exc.exit_code, exc.format_message())
        except click.Abort:
            _fail(1, "aborted")


@click.group(cls=_JsonErrors)
def main():
    """Combinatorics of wonderful compactifications of configuration spaces
    relative to a subvariety."""


@main.command()
@with_config
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def divisors(fmt, **cfg):
    """List the boundary divisors."""
    g = build_config(**cfg)
    _refuse_past_center_bound(g)
    ds = divisors_for(g)
    if fmt == "json":
        _echo_json({"count": count_divisors(g), "divisors": [str(d) for d in ds]})
    else:
        for d in ds:
            click.echo(str(d))
        click.echo("total %d" % count_divisors(g))


@main.command()
@with_config
@click.option("--max-size", type=click.IntRange(min=0), default=None)
@click.option("--fvector", "want_fvector", is_flag=True, help="Print only the face counts.")
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]), default="table")
def nested(max_size, want_fvector, fmt, **cfg):
    """Enumerate nested sets (the boundary stratification poset)."""
    if fmt == "csv" and not want_fvector:
        _fail(2, "--format csv prints face counts only; add --fvector")
    g = build_config(**cfg)
    if want_fvector:
        _render_fvector(f_vector(g, max_size=max_size), fmt)
    else:
        _echo_faces(g, fmt, "nested_sets", max_size=max_size)


def _echo_faces(g, fmt, key, **walk):
    """Print the faces of ``face_rows`` (never none) in one write: JSON
    quotes each label once, tables print them bare, one face per line."""
    try:
        rows = face_rows(g, json.dumps if fmt == "json" else str, **walk)
    except BudgetError as exc:
        _fail(3, str(exc))
    if fmt == "json":
        click.echo('{"count":%d,"%s":[[' % (len(rows), key) + "],[".join(rows) + "]]}")
    else:
        click.echo("".join(["{%s}\n" % r for r in rows]) + "total %d" % len(rows))


def _render_fvector(fv, fmt):
    if fmt == "json":
        _echo_json({"fvector": list(fv)})
    elif fmt == "csv":
        click.echo(",".join("f%d" % i for i in range(len(fv))))
        click.echo(",".join(str(v) for v in fv))
    else:
        click.echo(",".join(str(v) for v in fv))


@main.command()
@with_config
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]), default="table")
def fvector(fmt, **cfg):
    """Face counts of the nested-set complex."""
    _render_fvector(f_vector(build_config(**cfg)), fmt)


@main.command()
@with_config
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def facets(fmt, **cfg):
    """Maximal nested sets (deepest strata)."""
    _echo_faces(build_config(**cfg), fmt, "facets", maximal=True)


@main.command()
@with_config
@click.option("--scheme", type=click.Choice(list(SCHEMES)), required=True)
@click.option("--check/--no-check", default=False, help="Also validate the generated order.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
def order(scheme, check, fmt, **cfg):
    """Generate a blowup order."""
    g = build_config(**cfg)
    try:
        seq = _generate(g, scheme)
    except ValueError as exc:
        _fail(2, str(exc))
    if check:
        _check_order(g, scheme, seq)
    if fmt == "json":
        _echo_json(seq.labels())
    else:
        for label in seq.labels():
            click.echo(label)


def _check_order(g, scheme, seq):
    """Validate a generated order the way its scheme is justified: inclusion
    by the containment rule, reshuffled by its building-set prefixes, and
    interleaved by certified swaps from the two-block order."""
    try:
        if scheme == "inclusion":
            if not validate_inclusion_order(seq, ORDER_CHECK_BOUND).ok:
                _fail(1, "generated inclusion order failed validation")
        elif scheme == "reshuffled":
            if not validate_building_set_order(seq, ORDER_CHECK_BOUND):
                _fail(1, "generated reshuffled order failed validation: a prefix is not a building set")
        else:
            res = swap_rewrite(two_block_order(g), seq, ORDER_CHECK_BOUND)
            if not res.ok:
                _fail(1, "generated interleaved order failed validation: %s and %s do not commute"
                         " on the way from the two-block order" % res.blocking)
    except BudgetError as exc:
        _fail(3, str(exc))


def _refuse_past_center_bound(g):
    """Exit 3 past ORDER_CENTER_BOUND divisors, before building any."""
    if count_divisors(g) > ORDER_CENTER_BOUND:
        _fail(3, "refusing an order of more than %d centers (%d predicted)" % (ORDER_CENTER_BOUND, count_divisors(g)))


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


@main.command()
@with_config
@click.option("--source", required=True, help="Scheme name (%s) or JSON array of labels." % "|".join(ORDER_SOURCES))
@click.option("--target", required=True, help="Scheme name or JSON array of labels.")
def rewrite(source, target, **cfg):
    """Rewrite one blowup order into another by certified adjacent swaps."""
    g = build_config(**cfg)
    try:
        seq = _sequence_from(g, source)
        tgt = _sequence_from(g, target)
        result = swap_rewrite(seq, tgt, ORDER_CHECK_BOUND)
    except ValueError as exc:
        _fail(2, str(exc))
    except BudgetError as exc:
        _fail(3, str(exc))
    # one write, each distinct label and certificate quoted once, as in _echo_faces
    q = {t: json.dumps(t) for t in {*seq.labels(), *(s.certificate for s in result.swaps)}}
    swaps = ",".join([f'{{"position":{p},"left":{q[a]},"right":{q[b]},"certificate":{q[c]}}}'
                      for p, a, b, c in result.swaps])
    blocking = "" if result.ok else ',"blocking":[%s,%s]' % tuple(map(q.get, result.blocking))
    click.echo('{"ok":%s,"swaps":[%s]%s}' % (_dump(result.ok), swaps, blocking))
    if not result.ok:
        sys.exit(1)


@main.command()
@with_config
@click.option("--nested", "nested_literal", required=True, help="Nested set as an array of divisor labels.")
@click.option("--format", "fmt", type=click.Choice(["dot", "json"]), default="json")
def fiber(nested_literal, fmt, **cfg):
    """Dual graph of the universal-family fiber over a boundary stratum."""
    g = build_config(**cfg)
    try:
        seen = set()
        for text in _parse_label_array(nested_literal):
            d = parse_center(text, g.n)
            if d in seen:
                raise ValueError("repeated divisor %s in nested set" % d)
            seen.add(d)
        ns = make_nested_set(g, seen)
        tree = fiber_tree(g, ns)
    except ValueError as exc:
        _fail(2, str(exc))
    if fmt == "dot":
        click.echo(to_dot(tree), nl=False)
    else:
        _echo_json(
            {
                "vertices": [
                    {"id": v.vid, "label": v.label(), "marks": list(tree.marks_on(v.vid))}
                    for v in tree.vertices
                ],
                "edges": [[tree.parents[v.vid], v.vid] for v in tree.vertices[1:]],
                "stable": is_stable(tree).ok,
                "nested": list(ns.labels()),
            }
        )


@main.command("orbits")
@with_config
@click.option("--kind", type=click.Choice(["divisors", "nested"]), default="divisors")
@click.option("--size", type=int, default=None, help="Cardinality for kind=nested.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def orbits_cmd(kind, size, fmt, **cfg):
    """Orbits of the symmetric-group action."""
    if kind == "divisors" and size is not None:
        _fail(2, "--size applies to --kind nested only")
    g = build_config(**cfg)
    try:
        out = orbits(g, kind, size)
    except (ValueError, BudgetError) as exc:
        _fail(2 if isinstance(exc, ValueError) else 3, str(exc))
    rows = []
    for orbit in out:
        rep = orbit.representative
        rep_text = str(rep) if not hasattr(rep, "labels") else "{" + ",".join(rep.labels()) + "}"
        rows.append({"representative": rep_text, "size": orbit.size, "stabilizer_order": orbit.stabilizer_order})
    if fmt == "json":
        _echo_json(rows)
    else:
        for row in rows:
            click.echo("%s size=%d stabilizer=%d" % (row["representative"], row["size"], row["stabilizer_order"]))
        click.echo("orbits %d" % len(rows))


@main.command("certify")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def certify_cmd(fmt):
    """Run the cross-validation suite and report each check."""
    from .certify import run_all  # imported here: no other command needs the cross-checks

    results = run_all()
    if fmt == "json":
        _echo_json([{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results])
    else:
        for r in results:
            click.echo("%s %s: %s" % ("ok  " if r.ok else "FAIL", r.name, r.detail))
    if not all(r.ok for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
