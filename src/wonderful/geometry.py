"""Ambient data for the configuration spaces.

A configuration fixes the number of labeled points n, the dimension of the
ambient nonsingular variety X, the list of irreducible components D_c of the
nonsingular subvariety D (each of dimension strictly below dim X, hence
pairwise disjoint), and which ``Space`` is meant.  FM is ``XD_bracket``
with D empty, so past the checks of ``GeometryConfig`` the library asks a
space one question: may the points collide?  Only the integers matter
downstream; no coordinates are ever computed.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .labels import MAX_POINTS, Frozen


# Components are built one by one before any budget is read, and ``orbits
# --kind divisors``, which has no budget, prints n rows per component; as
# ``labels.MAX_POINTS`` caps n, this cap keeps both small.
MAX_COMPONENTS = 64


class ConfigError(ValueError):
    """A configuration violating the geometric preconditions."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is not a count


class Space(Enum):
    """``XD_upper``: points may collide, off D; ``XD_bracket``: points distinct
    and off D; ``FM``: Fulton-MacPherson's X[n], ``XD_bracket`` with D empty.
    The library asks only whether points may collide; FM is kept as stored."""

    XD_UPPER = "XD_upper"
    XD_BRACKET = "XD_bracket"
    FM = "FM"


class Component(NamedTuple):
    name: str
    dim: int


class GeometryConfig(Frozen):
    _fields = ("n", "dim_x", "components", "space")

    def __init__(self, n: int, dim_x: int, components: tuple[Component, ...] = (), space: Space = Space.XD_BRACKET):
        if not _is_int(n) or not 1 <= n <= MAX_POINTS:
            raise ConfigError("n must be an integer in [1, %d], got %r" % (MAX_POINTS, n))
        if not _is_int(dim_x) or dim_x < 1:
            raise ConfigError("dim_X must be a positive integer, got %r" % (dim_x,))
        if len(components) > MAX_COMPONENTS:
            raise ConfigError("a configuration has at most %d components" % MAX_COMPONENTS)
        names = set()
        for comp in components:
            if not isinstance(comp.name, str) or not comp.name:
                raise ConfigError("component names must be nonempty strings")
            if comp.name in names:
                raise ConfigError("duplicate component name %r" % comp.name)
            names.add(comp.name)
            if not _is_int(comp.dim) or not 0 <= comp.dim < dim_x:
                raise ConfigError(
                    "component %r must satisfy 0 <= dim < dim_X = %d, got %r"
                    % (comp.name, dim_x, comp.dim)
                )
        if space is Space.FM and components:
            raise ConfigError("space FM admits no components")
        self.__dict__.update(n=n, dim_x=dim_x, components=components, space=space)

    def __eq__(self, other):
        return ((self.n, self.dim_x, self.components, self.space)
                == (other.n, other.dim_x, other.components, other.space)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.n, self.dim_x, self.components, self.space))

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

    @cached_property
    def divisor_graph(self) -> dict:
        """Memo of ``nested.divisor_keys`` ("keys"), the compatibility rows over
        them ("rows") and ``nested.divisors_for`` ("divisors").  Not a field either."""
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
    entries = data.get("components", [])
    if not isinstance(entries, list):
        raise ConfigError("components must be a list of {name, dim} objects")
    comps = []
    for entry in entries:
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON in %s: %s" % (path, exc)) from None
    return config_from_json_dict(data)


def point_components(k: int, n: int, space: Space = Space.XD_BRACKET) -> GeometryConfig:
    """Convenience: n points on a curve X with k point components c1..ck."""
    comps = tuple(Component("c%d" % (i + 1), 0) for i in range(k))
    return GeometryConfig(n, 1, comps, space)
