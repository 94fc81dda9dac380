"""Outside-in tracing of the ``wonderful`` layers.

``Tracer.install`` replaces each traced function with a wrapper in every
``wonderful`` module that holds it, since modules bind with ``from .loci
import intersect`` and the like.  A *span* function records a span (request,
id, parent, name, start, end) for every call that is not inside a leaf.  A
*leaf* function is hot: it is only counted, except that one top-level leaf
call in ``SAMPLE_EVERY`` (drawn by a seeded generator) opens a sampling
window in which every traced call is timed exclusively.  Scaled up by
``SAMPLE_EVERY``, the windows estimate each leaf's self time, and the
enclosing span's self time drops by the same estimate.

A span's self time is its duration minus its child spans and minus the leaf
time estimated inside it; a layer's self time adds these over the layer's
functions.  A traced name the package no longer has is reported in
``absent`` and its metrics are left out.
"""

from __future__ import annotations

import importlib
import random
import sys
from collections import Counter, defaultdict
from time import perf_counter

SAMPLE_EVERY = 16

LAYERS = ("labels", "loci", "building", "nested", "orders", "symmetry", "trees", "cli")

SPAN, LEAF = "span", "leaf"

# layer.qualname -> kind; the qualname is looked up in wonderful.<layer>.
# Functions without metrics of their own are traced so that their time is
# charged to their own layer rather than to the caller's.
TRACED = {
    "labels.subset_relation": LEAF,
    "labels.Partition.meet": LEAF,
    "loci.intersect": LEAF,
    "loci.contains_locus": LEAF,
    "loci.make_locus": LEAF,
    "loci.center_to_locus": LEAF,
    "loci.pair_position": LEAF,
    "loci.intersect_all": LEAF,
    "loci.meets_transversally": LEAF,
    "loci.contains": LEAF,
    "loci.check_separation": LEAF,
    "building.building_set_for": SPAN,
    "building.g_factors": SPAN,
    "building.factors_of_locus": SPAN,
    "building.is_nested_flag_oracle": SPAN,
    "building.is_building_set": SPAN,
    "nested.pair_compatible": LEAF,
    "nested.is_nested": LEAF,
    "nested.divisors_for": SPAN,
    "nested.make_nested_set": SPAN,
    "nested.enumerate_nested_sets": SPAN,
    "nested.f_vector": SPAN,
    "nested.maximal_nested_sets": SPAN,
    "orders.generate_order": SPAN,
    "orders.two_block_order": SPAN,
    "orders.validate_inclusion_order": SPAN,
    "orders.validate_building_set_order": SPAN,
    "orders.swap_certificate": SPAN,
    "orders.swap_rewrite": SPAN,
    "symmetry.act": LEAF,
    "symmetry.orbits": SPAN,
    "symmetry.stabilizer": SPAN,
    "trees.fiber_tree": SPAN,
    "trees.tree_to_nested": SPAN,
    "trees.is_stable": SPAN,
    "trees.to_dot": SPAN,
}


class Tracer:
    def __init__(self, seed: int):
        self.calls: Counter = Counter()
        self.leaf_self: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [sid, leaf_estimate, name]
        self.request = 0
        self.in_leaf = False
        self.window: list[float] | None = None  # child-time accumulators
        self._draw = random.Random(seed).random
        self.absent: list[str] = []
        # observations made on arguments and results
        self.intersect_pairs: set = set()
        self.intersect_nonempty = 0
        self.pair_accepted = 0
        self.faces_out = 0
        self.facets_out = 0
        self.faces_scanned = 0
        self._cache_start = None
        self._center_cache = None

    # -- wrapping ------------------------------------------------------------

    def install(self):
        observers = {
            "loci.intersect": self._observe_intersect,
            "nested.pair_compatible": self._observe_pair,
            "nested.enumerate_nested_sets": self._observe_faces,
            "nested.maximal_nested_sets": self._observe_facets,
        }
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "wonderful" or name.startswith("wonderful."))]
        for name, kind in TRACED.items():
            layer, _, qualname = name.partition(".")
            try:
                owner = importlib.import_module("wonderful." + layer)
            except ImportError:
                self.absent.append(name)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, kind is SPAN, observers.get(name))
            if path:  # a method: patch the class
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
            if name == "loci.center_to_locus" and hasattr(original, "cache_info"):
                self._center_cache = original
                self._cache_start = original.cache_info()

    def _wrap(self, name, fn, is_span, observe):
        st = self

        def wrapper(*args, **kwargs):
            st.calls[name] += 1
            if st.in_leaf:
                result = fn(*args, **kwargs)
            elif st.window is not None:
                result = st._timed(name, fn, args, kwargs)
            elif is_span:
                result = st._span(name, fn, args, kwargs)
            elif st._draw() * SAMPLE_EVERY < 1.0:
                result = st._sampled(name, fn, args, kwargs)
            else:
                st.in_leaf = True
                try:
                    result = fn(*args, **kwargs)
                finally:
                    st.in_leaf = False
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _span(self, name, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        frame = [sid, 0.0, name]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[sid] = (self.request, sid, parent, name, start, end, frame[1])

    def _timed(self, name, fn, args, kwargs):
        acc = self.window
        acc.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self.leaf_self[name] += (took - acc.pop()) * SAMPLE_EVERY
            acc[-1] += took

    def _sampled(self, name, fn, args, kwargs):
        self.window = [0.0]
        try:
            return self._timed(name, fn, args, kwargs)
        finally:
            estimate = self.window[0] * SAMPLE_EVERY
            self.window = None
            if self.stack:
                self.stack[-1][1] += estimate

    def request_span(self, name, fn):
        """Run one request of the stream under its own span."""
        self.request += 1
        return self._span(name, fn, (), {})

    # -- observers -----------------------------------------------------------

    def _observe_intersect(self, args, result):
        self.intersect_pairs.add(args[1:3])
        self.intersect_nonempty += not result.is_empty

    def _observe_pair(self, args, result):
        self.pair_accepted += bool(result)

    def _observe_faces(self, args, result):
        self.faces_out += len(result)
        if any(frame[2] == "nested.maximal_nested_sets" for frame in self.stack):
            self.faces_scanned += len(result)

    def _observe_facets(self, args, result):
        self.facets_out += len(result)

    # -- metrics -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per traced name (spans and leaf estimates) and per layer."""
        spans = self.span_records()
        child = defaultdict(float)
        for span in spans:
            if span[2] is not None:
                child[span[2]] += span[5] - span[4]
        out: defaultdict = defaultdict(float)
        for rid, sid, parent, name, start, end, leaf in spans:
            own = end - start - child[sid] - leaf
            out[name] += own
            out[name.partition(".")[0]] += own
        for name, est in self.leaf_self.items():
            out[name] += est
            out[name.partition(".")[0]] += est
        return dict(out)

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        calls = self.calls
        m = {"%s.self_s" % layer: selfs.get(layer, 0.0) for layer in LAYERS}
        for name in ("nested.enumerate_nested_sets", "nested.maximal_nested_sets",
                     "loci.intersect", "loci.contains_locus",
                     "building.is_nested_flag_oracle", "building.factors_of_locus",
                     "building.is_building_set", "orders.swap_certificate",
                     "orders.swap_rewrite", "orders.validate_inclusion_order",
                     "orders.validate_building_set_order", "symmetry.orbits",
                     "trees.fiber_tree", "trees.tree_to_nested"):
            m[name + ".self_s"] = selfs.get(name, 0.0)
        for name in ("nested.pair_compatible", "nested.is_nested", "loci.intersect",
                     "loci.contains_locus", "loci.make_locus", "loci.pair_position",
                     "building.is_nested_flag_oracle", "building.factors_of_locus",
                     "building.is_building_set", "labels.subset_relation",
                     "labels.Partition.meet", "orders.swap_certificate", "symmetry.act",
                     "trees.fiber_tree"):
            m[name + ".calls"] = calls[name]
        n_pairs = calls["nested.pair_compatible"]
        n_inter = calls["loci.intersect"]
        m["nested.pair_compatible.accept_ratio"] = self.pair_accepted / n_pairs if n_pairs else 0.0
        m["nested.faces_out"] = self.faces_out
        m["nested.facet_ratio"] = (self.facets_out / self.faces_scanned
                                   if self.faces_scanned else 0.0)
        m["loci.intersect.distinct_ratio"] = len(self.intersect_pairs) / n_inter if n_inter else 0.0
        m["loci.intersect.nonempty_ratio"] = self.intersect_nonempty / n_inter if n_inter else 0.0
        if self._center_cache is not None:
            info, start = self._center_cache.cache_info(), self._cache_start
            hits, misses = info.hits - start.hits, info.misses - start.misses
            m["loci.center_to_locus.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        else:
            self.absent.append("loci.center_to_locus.cache_info")
        for name in self.absent:
            m = {k: v for k, v in m.items() if not k.startswith(name + ".")}
        return m

    def span_records(self):
        return [s for s in self.spans if s is not None]
