"""Ambient data for the configuration spaces.

A configuration fixes the number of labeled points n, the dimension of the
ambient nonsingular variety X, the list of irreducible components D_c of the
nonsingular subvariety D (each of dimension strictly below dim X, hence
pairwise disjoint), and which space is meant:

* ``XD_upper``   -- points may collide but must stay off D,
* ``XD_bracket`` -- points distinct and off D,
* ``FM``         -- D empty, the Fulton-MacPherson space X[n].

Only the integers matter downstream; no coordinates are ever computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from .labels import MAX_POINTS


class ConfigError(ValueError):
    """A configuration violating the geometric preconditions."""


class Space(Enum):
    XD_UPPER = "XD_upper"
    XD_BRACKET = "XD_bracket"
    FM = "FM"


@dataclass(frozen=True)
class Component:
    name: str
    dim: int


@dataclass(frozen=True)
class GeometryConfig:
    n: int
    dim_x: int
    components: tuple[Component, ...] = ()
    space: Space = Space.XD_BRACKET

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_POINTS:
            raise ConfigError("n must be an integer in [1, %d], got %r" % (MAX_POINTS, self.n))
        if not isinstance(self.dim_x, int) or self.dim_x < 1:
            raise ConfigError("dim_X must be a positive integer, got %r" % (self.dim_x,))
        names = set()
        for comp in self.components:
            if not comp.name:
                raise ConfigError("component names must be nonempty")
            if comp.name in names:
                raise ConfigError("duplicate component name %r" % comp.name)
            names.add(comp.name)
            if not isinstance(comp.dim, int) or not 0 <= comp.dim < self.dim_x:
                raise ConfigError(
                    "component %r must satisfy 0 <= dim < dim_X = %d, got %r"
                    % (comp.name, self.dim_x, comp.dim)
                )
        if self.space is Space.FM and self.components:
            raise ConfigError("space FM admits no components")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def intersections(self) -> dict:
        """Memo of ``loci.intersect`` in this geometry, keyed on pairs of
        locus codes.  Not a field: it takes no part in equality, hashing or
        JSON, and no two configuration objects share one, because the
        canonical form of an intersection depends on the component
        dimensions."""
        return {}

    def component_dim(self, c: int) -> int:
        """Dimension of the c-th component, 1-based."""
        if not 1 <= c <= len(self.components):
            raise ConfigError("no component with index %d" % c)
        return self.components[c - 1].dim

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dim_X": self.dim_x,
            "components": [{"name": c.name, "dim": c.dim} for c in self.components],
            "space": self.space.value,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def config_from_json_dict(data: dict) -> GeometryConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    allowed = {"n", "dim_X", "components", "space"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError("unknown configuration keys: %s" % ", ".join(sorted(unknown)))
    for key in ("n", "dim_X"):
        if key not in data:
            raise ConfigError("missing configuration key %r" % key)
    comps = []
    for entry in data.get("components", []):
        if not isinstance(entry, dict) or set(entry) - {"name", "dim"}:
            raise ConfigError("component entries must be {name, dim} objects")
        comps.append(Component(entry.get("name", ""), entry.get("dim", -1)))
    space_text = data.get("space", Space.XD_BRACKET.value)
    try:
        space = Space(space_text)
    except ValueError:
        raise ConfigError(
            "space must be one of %s" % ", ".join(s.value for s in Space)
        ) from None
    return GeometryConfig(data["n"], data["dim_X"], tuple(comps), space)


def load_config(path: str) -> GeometryConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON in %s: %s" % (path, exc)) from None
    return config_from_json_dict(data)


def point_components(k: int, dim_x: int = 1, space: Space = Space.XD_BRACKET,
                     n: int = 1) -> GeometryConfig:
    """Convenience: n points in a dim_x ambient with k point components c1..ck."""
    comps = tuple(Component("c%d" % (i + 1), 0) for i in range(k))
    return GeometryConfig(n, dim_x, comps, space)


def extended_config(g: GeometryConfig) -> GeometryConfig:
    """The same geometry with one extra labeled point (universal-family bookkeeping)."""
    return replace(g, n=g.n + 1)
