"""The three request streams and their answer checks.

A workload has ``setup(wonderful)``, the timed part of a cold start that
builds the configurations, and ``requests(rng)``, which draws the stream: a
list of ``(kind, call, check)``.  ``call()`` is one request into a public
entry point of ``wonderful`` and ``check(result)`` returns an error message
or None.  The seed fixes the order of the stream and the random instances in
it; the count of every request class is fixed, so the work per pass stays
comparable across seeds.  Expected answers are computed before the stream
runs, so the benchmark's own memory stays the same during a pass, and checks
never call ``wonderful``.  A workload whose ``cli`` flag is set answers
each request with the CLI's (exit code, stdout).

Request counts are chosen so that the median and the 90th percentile of a
pass each fall inside one class of repeated, similar requests.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from math import factorial
from pathlib import Path

import reference as ref

DIGESTS = Path(__file__).with_name("session_digests.json")


def budget(g) -> dict:
    """Keyword arguments that lift the enumeration budget for ``g``; the one
    place that knows how the library spells its budget."""
    return {"divisor_bound": 1 << 30}


def _mismatch(what, want, got):
    return None if want == got else "%s: expected %s, got %s" % (what, want, got)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def faces_digest(faces) -> tuple[int, str]:
    """Count and digest of a collection of faces given as label sequences."""
    rows = sorted(",".join(sorted(f, key=lambda t: ref.sort_key(ref.parse_label(t))))
                  for f in faces)
    return len(rows), digest("\n".join(rows))


def _local_faces(faces):
    return [[ref.label(d) for d in f] for f in faces]


# -- complex ------------------------------------------------------------------

M06, M07, M08 = (3, 3, ref.BRACKET), (3, 4, ref.BRACKET), (3, 5, ref.BRACKET)
FM5, FM6 = (0, 5, ref.FM), (0, 6, ref.FM)
K1N4, K1N6U = (1, 4, ref.BRACKET), (1, 6, ref.UPPER)
K2N3, K2N4, K2N5 = (2, 3, ref.BRACKET), (2, 4, ref.BRACKET), (2, 5, ref.BRACKET)

# (operation, configuration, copies per pass); "upto:s" enumerates the faces
# of size <= s.  Nine big queries run once; FM(6) faces up to size 3 hold
# the 90th percentile and the M0,6 f-vector the median.
COMPLEX = (
    [("fvector", M08, 1), ("fvector", K2N5, 1)]
    + [(op, cfg, 1) for cfg in (M07, FM6, K1N6U) for op in ("fvector", "facets")]
    + [("facets", K2N4, 1), ("upto:3", FM6, 10)]
    + [("fvector", K2N4, 1), ("upto:3", M07, 1), ("upto:2", K2N5, 1)]
    + [("facets", M06, 6), ("fvector", FM5, 6), ("facets", FM5, 6), ("fvector", K1N4, 6),
       ("facets", K1N4, 6)]
    + [("fvector", M06, 30)]
    + [("upto:2", cfg, 15) for cfg in (M06, FM5, K1N4)]
    + [("fvector", K2N3, 3), ("facets", K2N3, 2)]
)


class Complex:
    """Deep nested-set enumeration through the library."""

    cli = False

    def setup(self, wonderful):
        self.w = wonderful
        space = {s.value: s for s in wonderful.Space}
        self.configs = {
            cfg: wonderful.point_components(cfg[0], n=cfg[1], space=space[cfg[2]])
            for _, cfg, _ in COMPLEX
        }
        return self

    def requests(self, rng):
        anchors = ref.anchor_failures()
        expected = {(op, cfg): self._expected(op, cfg) for op, cfg, _ in COMPLEX}
        ref.complex_of.cache_clear()
        stream = []
        for op, cfg, copies in COMPLEX:
            stream += [self._request(op, cfg, expected[op, cfg], anchors) for _ in range(copies)]
        rng.shuffle(stream)
        return stream

    @staticmethod
    def _expected(op, cfg):
        if op == "fvector":
            return ref.f_vector(*cfg)
        if op == "facets":
            return faces_digest(_local_faces(ref.complex_of(*cfg, keep_facets=True)[1]))
        upto = int(op.partition(":")[2])
        return faces_digest(_local_faces(ref.complex_of(*cfg, keep_upto=upto)[2]))

    def _request(self, op, cfg, want, anchors):
        g, w = self.configs[cfg], self.w
        kind = "%s %s" % (op, "/".join(map(str, cfg)))
        if op == "fvector":
            call = lambda: w.f_vector(g, **budget(g))  # noqa: E731
            answer = tuple
        else:
            if op == "facets":
                call = lambda: w.maximal_nested_sets(g, **budget(g))  # noqa: E731
            else:
                size = int(op.partition(":")[2])
                call = lambda: w.enumerate_nested_sets(g, max_size=size, **budget(g))  # noqa: E731
            answer = lambda r: faces_digest(ns.labels() for ns in r)  # noqa: E731

        def check(result):
            if anchors:
                return "%s: reference misses its anchors: %s" % (kind, "; ".join(anchors))
            return _mismatch(kind, want, answer(result))
        return kind, call, check


# -- oracle -------------------------------------------------------------------

ORACLE_CONFIGS = ((2, 3), (1, 4), (2, 4))
FLAG_PER_SIZE = 50      # per configuration and sub-collection size 0..8
FACTORS_PER_SIZE = 10   # per configuration and size 1..6
ORDER_CONFIGS = ((1, 5), (2, 4))


class Oracle:
    """The flag-search oracle, G-factors and building-set order checks on the
    stage-one building sets of colliding points on point components."""

    cli = False

    def setup(self, wonderful):
        self.w = wonderful
        upper = wonderful.Space.XD_UPPER
        self.stage_one = {
            (k, n): wonderful.building_set_for(wonderful.point_components(k, n=n, space=upper))[0]
            for k, n in ORACLE_CONFIGS
        }
        self.order_geometry = {
            (k, n): wonderful.point_components(k, n=n, space=upper) for k, n in ORDER_CONFIGS
        }
        return self

    def requests(self, rng):
        stream = []
        for (k, n), bs in self.stage_one.items():
            members = list(bs.members)
            for size in range(9):
                for i in range(FLAG_PER_SIZE):
                    sub = _nested_draw(rng, members, n, size) if i % 2 else rng.sample(members, size)
                    stream.append(self._flag(k, n, bs, sub))
            for size in range(1, 7):
                for _ in range(FACTORS_PER_SIZE):
                    stream.append(self._factors(k, n, bs, _meeting_draw(rng, members, k, n, size)))
        for cfg, g in self.order_geometry.items():
            stream.append(self._order(cfg, g))
        rng.shuffle(stream)
        return stream

    def _flag(self, k, n, bs, sub):
        want = ref.is_nested(_pairs(sub))
        return ("flag k=%d n=%d |C|=%d" % (k, n, len(sub)),
                lambda: self.w.is_nested_flag_oracle(bs, sub),
                lambda r: _mismatch("flag oracle on %s" % _pairs(sub), want, r))

    def _factors(self, k, n, bs, sub):
        want = ref.g_factors(_pairs(sub))
        return ("g_factors k=%d n=%d |C|=%d" % (k, n, len(sub)),
                lambda: self.w.g_factors(bs, sub),
                lambda r: _mismatch("G-factors of %s" % _pairs(sub), want, tuple(sorted(_pairs(r)))))

    def _order(self, cfg, g):
        w = self.w
        return ("reshuffled order k=%d n=%d" % cfg,
                lambda: w.validate_building_set_order(w.generate_order(g, "reshuffled")),
                lambda r: _mismatch("reshuffled order validates", True, r))


def _pairs(centers):
    return [(c.component, c.subset) for c in centers]


def _nested_draw(rng, members, n, size):
    """A random sub-collection that the pairwise rule calls nested, when one
    of this size exists; otherwise an arbitrary one.  Nested collections are
    chains per component on disjoint supports, so none has more than n
    members."""
    while size <= n:
        chosen = []
        for m in rng.sample(members, len(members)):
            if len(chosen) == size:
                break
            if all(ref.compatible((m.component, m.subset), p) for p in _pairs(chosen)):
                chosen.append(m)
        if len(chosen) == size:
            return chosen
    return rng.sample(members, size)


def _meeting_draw(rng, members, k, n, size):
    """A random sub-collection with nonempty intersection: hand each point to
    at most one component and draw from the members that respect it."""
    while True:
        owner = [rng.randint(0, k) for _ in range(n)]
        pool = [m for m in members
                if all(owner[i] == m.component for i in range(n) if m.subset >> i & 1)]
        if len(pool) >= size:
            return rng.sample(pool, size)


# -- session ------------------------------------------------------------------

# (argv, copies per pass); fiber requests are drawn from every nested set of
# FIBER_CONFIG.  Fibers hold the median, orbits of n=6 the 90th percentile.
SESSION = (
    [("rewrite --source two_block --target interleaved --n 6 --components 2", 2),
     ("rewrite --source two_block --target interleaved --n 7 --components 1", 2),
     ("order --scheme inclusion --check --n 6 --components 3", 2),
     ("orbits --kind divisors --format json --n 6 --components 1", 10),
     ("orbits --kind divisors --format json --n 7 --components 1", 2),
     ("orbits --kind nested --size 2 --format json --n 4 --components 1", 3),
     ("orbits --kind nested --size 3 --format json --n 4 --components 1", 3),
     ("nested --max-size 2 --format json --n 7 --components 3", 2),
     ("nested --max-size 2 --format json --n 6 --components 2", 2)]
    + [("divisors --format json --n %d --components %d" % (n, k), 1)
       for n in (3, 4, 5, 6, 7) for k in (1, 2, 3)]
    + [("fvector --format json --n 3 --components 3", 4),
       ("fvector --format json --n 5 --space FM", 3),
       ("fvector --format json --n 4 --components 1", 3),
       ("facets --format json --n 3 --components 3", 2),
       ("facets --format json --n 3 --components 2", 2),
       ("facets --format json --n 4 --space FM", 2)]
)
FIBER_REQUESTS = 120
FIBER_CONFIG = (2, 4, ref.BRACKET)


def fiber_argv(face) -> str:
    labels = [ref.label(d) for d in sorted(face, key=ref.sort_key)]
    return "fiber --n %d --components %d --nested %s" % (
        FIBER_CONFIG[1], FIBER_CONFIG[0], json.dumps(labels, separators=(",", ":")))


def fiber_pool() -> list[str]:
    """Every nonempty nested set of the fiber configuration, as argv text."""
    faces = ref.complex_of(*FIBER_CONFIG, keep_upto=1 << 30)[2]
    return sorted((fiber_argv(f) for f in faces if f), key=lambda a: (len(a), a))


def session_universe() -> list[str]:
    """Every argv a session stream can hold."""
    return [argv for argv, _ in SESSION] + fiber_pool()


def run_cli(main, argv: str):
    """One in-process CLI invocation: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main.main(args=argv.split(" "), prog_name="wonderful", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue()


class Session:
    """A seeded interactive CLI session, in-process through the click group."""

    cli = True

    def setup(self, wonderful):
        import wonderful.cli
        self.main = wonderful.cli.main
        return self

    def requests(self, rng):
        digests = json.loads(DIGESTS.read_text())
        pool = fiber_pool()
        ref.complex_of.cache_clear()
        argvs = [argv for argv, copies in SESSION for _ in range(copies)]
        argvs += [rng.choice(pool) for _ in range(FIBER_REQUESTS)]
        rng.shuffle(argvs)
        return [(argv.split(" ", 1)[0], self._call(argv), self._checker(argv, digests.get(argv)))
                for argv in argvs]

    def _call(self, argv):
        return lambda: run_cli(self.main, argv)

    def _checker(self, argv, recorded):
        want = session_expect(argv)

        def check(result):
            code, out = result
            if code != 0:
                return "%s: exit code %s" % (argv, code)
            if recorded != digest(out):
                return "%s: stdout digest %s, recorded %s" % (argv, digest(out), recorded)
            return _mismatch(argv, want, session_answer(argv, json.loads(out)))
        return check


def _options(argv: str) -> dict:
    parts = argv.split(" ")
    return {p[2:]: (parts[i + 1] if i + 1 < len(parts) and not parts[i + 1].startswith("--")
                    else "")
            for i, p in enumerate(parts) if p.startswith("--")}


def _config(argv: str):
    o = _options(argv)
    return int(o.get("components") or 0), int(o["n"]), o.get("space") or ref.BRACKET, o


@lru_cache(maxsize=None)
def session_expect(argv: str):
    """The reference's view of the answer to one session request."""
    command = argv.split(" ", 1)[0]
    k, n, space, o = _config(argv)
    if command == "rewrite":
        return True, ref.interleaved_order(k, n)
    if command == "order":
        return sorted(ref.label(d) for d in ref.divisors(k, n, space)), True
    if command == "orbits":
        total = (ref.divisor_count(k, n, space) if o["kind"] == "divisors"
                 else ref.f_vector(k, n, space)[int(o["size"])])
        return True, total
    if command == "nested":
        upto_two = sum(ref.complex_of(k, n, space, max_size=2)[0])
        return upto_two, upto_two
    if command == "divisors":
        return sorted(ref.label(d) for d in ref.divisors(k, n, space))
    if command == "fvector":
        return list(ref.f_vector(k, n, space))
    if command == "facets":
        return faces_digest(_local_faces(ref.complex_of(k, n, space, keep_facets=True)[1]))
    if command == "fiber":
        return sorted(json.loads(o["nested"])), True, True
    raise ValueError("no reference for %s" % argv)


def session_answer(argv: str, data):
    """The same view of the answer the CLI printed, with structural checks:
    rewrite swaps replay from the source order, orbit sizes divide n!, and a
    fiber reads back its own nested set."""
    command = argv.split(" ", 1)[0]
    k, n, space, o = _config(argv)
    if command == "rewrite":
        return data["ok"], ref.replay_swaps(ref.two_block_order(k, n), data["swaps"])
    if command == "order":
        return sorted(data), ref.inclusion_order_ok(data)
    if command == "orbits":
        whole = factorial(n)
        divides = all(whole % row["size"] == 0 and row["size"] * row["stabilizer_order"] == whole
                      for row in data)
        return divides, sum(row["size"] for row in data)
    if command == "nested":
        return data["count"], len(set(map(tuple, data["nested_sets"])))
    if command == "divisors":
        return sorted(data["divisors"]) if data["count"] == len(data["divisors"]) else None
    if command == "fvector":
        return data["fvector"]
    if command == "facets":
        return faces_digest(data["facets"]) if data["count"] == len(data["facets"]) else None
    if command == "fiber":
        tree_ok = len(data["edges"]) == len(data["vertices"]) - 1
        return sorted(data["nested"]), data["stable"], tree_ok
    raise ValueError("no check for %s" % argv)


WORKLOADS = {"complex": Complex, "oracle": Oracle, "session": Session}
