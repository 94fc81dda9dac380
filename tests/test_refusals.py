"""Refusals of outside input that no other test reaches, one case per
``raise``: each asserts the exception type and a stable part of the
message.  They guard what users hand in, so they are tested rather than
left for a later simplification to mistake for dead code."""

import pytest

from wonderful.building import BuildingSet, building_set_for, factors_of_locus
from wonderful.geometry import (
    Component,
    ConfigError,
    GeometryConfig,
    Space,
    config_from_json_dict,
    load_config,
    point_components,
)
from wonderful.labels import parse_blocks, split_top_level
from wonderful.loci import Diagonal, DLocus, Locus, parse_center
from wonderful.orders import BlowupSequence, two_block_order
from wonderful.symmetry import Permutation, act, orbits
from wonderful.trees import DegenerationTree, Vertex, VertexKind

G2 = GeometryConfig(2, 1, (Component("c1", 0),))
ROOT, SCREEN = Vertex(0, VertexKind.ROOT), Vertex(1, VertexKind.SCREEN)


def _level(vid, depth=1):
    return Vertex(vid, VertexKind.DLEVEL, 1, depth)


def _tree(vertices, parents, markings=(0, 0)):
    return DegenerationTree(G2, tuple(vertices), tuple(parents), tuple(markings))


def _load(tmp_path, text=None):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    return load_config(str(path))


CASES = {
    "building-duplicate-member": (
        lambda _: BuildingSet(G2, (DLocus(2, 1, 1), DLocus(2, 1, 1))),
        ValueError, "duplicate building-set member D:c1:{1}"),
    "building-factors-of-empty": (
        lambda _: factors_of_locus(building_set_for(G2)[0], Locus.empty(2)),
        ValueError, "G-factors are only defined for nonempty intersections"),
    "geometry-dim-x": (
        lambda _: GeometryConfig(1, 0), ConfigError, "dim_X must be a positive integer, got 0"),
    "geometry-duplicate-name": (
        lambda _: GeometryConfig(1, 2, (Component("a", 0), Component("a", 1))),
        ConfigError, "duplicate component name 'a'"),
    "geometry-component-index": (
        lambda _: G2.component_dim(2), ConfigError, "no component with index 2"),
    "config-not-an-object": (
        lambda _: config_from_json_dict([1]), ConfigError, "configuration must be a JSON object"),
    "config-missing-key": (
        lambda _: config_from_json_dict({"n": 2}), ConfigError, "missing configuration key 'dim_X'"),
    "config-component-entry": (
        lambda _: config_from_json_dict({"n": 2, "dim_X": 1, "components": [{"name": "a", "dim": 0, "x": 1}]}),
        ConfigError, "component entries must be {name, dim} objects"),
    "config-component-count": (
        lambda _: config_from_json_dict({"n": 1, "dim_X": 1, "components": [{"name": "c%d" % i, "dim": 0}
                                                                            for i in range(65)]}),
        ConfigError, "a configuration has at most 64 components"),
    "config-space": (
        lambda _: config_from_json_dict({"n": 2, "dim_X": 1, "space": "XD"}),
        ConfigError, "space must be one of XD_upper, XD_bracket, FM"),
    "config-file-missing": (
        lambda tmp: _load(tmp), ConfigError, "config.json"),
    "config-file-invalid-json": (
        lambda tmp: _load(tmp, "{"), ConfigError, "invalid JSON in"),
    "labels-unbalanced": (
        lambda _: split_top_level("{1,2"), ValueError, "unbalanced braces in '{1,2'"),
    "labels-partition-literal": (
        lambda _: parse_blocks("1,2", 2), ValueError, "partition literal must look like"),
    "dlocus-empty-subset": (
        lambda _: DLocus(2, 1, 0), ValueError, "D_{c,S} needs a nonempty S"),
    "dlocus-population": (
        lambda _: DLocus(2, 1, 0b100), ValueError, "subset exceeds population 2"),
    "center-label": (
        lambda _: parse_center("D:x1:{1}", 2), ValueError, "bad D-locus label"),
    "center-component-index": (
        lambda _: parse_center("D:cx:{1}", 2), ValueError, "bad component index in"),
    "sequence-repeat": (
        lambda _: BlowupSequence(G2, (DLocus(2, 1, 1), DLocus(2, 1, 1))),
        ValueError, "repeated center D:c1:{1} in blowup sequence"),
    "two-block-space": (
        lambda _: two_block_order(point_components(1, n=2, space=Space.XD_UPPER)),
        ValueError, "the two-block order requires the space of distinct points"),
    "permutation-bijection": (
        lambda _: Permutation((1, 1)), ValueError, "are not a bijection of {1..2}"),
    "act-diagonal-degree": (
        lambda _: act(Permutation((1, 2)), Diagonal.simple(3, 0b11)),
        ValueError, "permutation degree 2 does not match population 3"),
    "act-tree-degree": (
        lambda _: act(Permutation((1,)), _tree([ROOT], [None])),
        ValueError, "permutation degree 1 does not match population 2"),
    "act-type": (
        lambda _: act(Permutation((1,)), 5), TypeError, "cannot act on 5"),
    "orbit-kind": (
        lambda _: orbits(G2, "strata"), ValueError, "unknown orbit kind 'strata'"),
    "tree-markings": (
        lambda _: _tree([ROOT], [None], (0,)), ValueError, "markings must place every one of the 2 points"),
    "tree-vertex-ids": (
        lambda _: _tree([ROOT, Vertex(2, VertexKind.SCREEN)], [None, 0]),
        ValueError, "vertex ids must match positions"),
    "tree-second-root": (
        lambda _: _tree([ROOT, Vertex(1, VertexKind.ROOT)], [None, 0]),
        ValueError, "only vertex 0 may be the root"),
    "tree-level-depth": (
        lambda _: _tree([ROOT, _level(1, 0)], [None, 0]),
        ValueError, "expansion levels need a component and a depth >= 1"),
    "tree-two-chains": (
        lambda _: _tree([ROOT, _level(1), _level(2)], [None, 0, 0]),
        ValueError, "one expansion chain per component"),
    "tree-parent-order": (
        lambda _: _tree([ROOT, SCREEN], [None, None]),
        ValueError, "vertex 1 needs a parent listed before it"),
    "tree-level-off-root": (
        lambda _: _tree([ROOT, SCREEN, _level(2)], [None, 0, 1]),
        ValueError, "depth-1 expansion levels attach to the root"),
    "tree-missing-vertex": (
        lambda _: _tree([ROOT], [None], (0, 3)), ValueError, "marking 2 placed on a missing vertex"),
}


@pytest.mark.parametrize("case", CASES)
def test_outside_input_is_refused(case, tmp_path):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert type(caught.value) is error and fragment in str(caught.value)
