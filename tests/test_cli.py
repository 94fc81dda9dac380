import argparse
import ast
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from click.testing import CliRunner

from wonderful import certify, cli, nested, orders
from wonderful.cli import main
from wonderful.geometry import GeometryConfig, Space, point_components
from wonderful.loci import Diagonal, DLocus, parse_center
from wonderful.nested import (
    BudgetError,
    count_divisors,
    divisors_for,
    enumerate_nested_sets,
    f_vector,
    maximal_nested_sets,
)
from wonderful.orders import BlowupSequence, RewriteResult, generate_order, swap_rewrite, two_block_order


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def m0n5_config(tmp_path):
    path = tmp_path / "m0n5.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "dim_X": 1,
                "components": [
                    {"name": "c1", "dim": 0},
                    {"name": "c2", "dim": 0},
                    {"name": "c3", "dim": 0},
                ],
                "space": "XD_bracket",
            }
        )
    )
    return str(path)


def test_order_interleaved_golden(runner):
    result = runner.invoke(main, ["order", "--scheme", "interleaved", "--n", "2", "--components", "1"])
    assert result.exit_code == 0
    assert result.output == '["D:c1:{1}","D:c1:{1,2}","D:c1:{2}","Delta:{1,2}"]\n'


def test_nested_fvector_golden(runner, m0n5_config):
    result = runner.invoke(main, ["nested", "--config", m0n5_config, "--fvector"])
    assert result.exit_code == 0
    assert result.output == "1,10,15\n"


def test_fvector_csv_header(runner, m0n5_config):
    result = runner.invoke(main, ["fvector", "--config", m0n5_config, "--format", "csv"])
    assert result.output == "f0,f1,f2\n1,10,15\n"


def test_fiber_dot_golden(runner):
    result = runner.invoke(
        main,
        ["fiber", "--n", "3", "--components", "1", "--nested", "[D:c1:{1,2}]", "--format", "dot"],
    )
    assert result.exit_code == 0
    assert result.output == (
        "digraph fiber {\n"
        '  v0 [label="Root marks={3}"];\n'
        '  v1 [label="D(c1,1) marks={1,2}"];\n'
        "  v0 -> v1;\n"
        "}\n"
    )


def test_fiber_accepts_json_array_too(runner):
    relaxed = runner.invoke(
        main, ["fiber", "--n", "3", "--components", "1", "--nested", "[D:c1:{1,2}]"]
    )
    quoted = runner.invoke(
        main, ["fiber", "--n", "3", "--components", "1", "--nested", '["D:c1:{1,2}"]']
    )
    assert relaxed.output == quoted.output
    payload = json.loads(quoted.output)
    assert payload["stable"] is True
    assert payload["nested"] == ["D:c1:{1,2}"]


def test_divisors_matches_library(runner, m0n5_config):
    result = runner.invoke(main, ["divisors", "--config", m0n5_config, "--format", "json"])
    payload = json.loads(result.output)
    g = point_components(3, n=2)
    assert payload["count"] == count_divisors(g)
    assert len(payload["divisors"]) == 10


def test_nested_json_matches_library(runner, m0n5_config):
    result = runner.invoke(main, ["nested", "--config", m0n5_config, "--format", "json"])
    payload = json.loads(result.output)
    g = point_components(3, n=2)
    assert payload["count"] == len(enumerate_nested_sets(g))
    assert payload["nested_sets"][0] == []


def test_facets_count(runner, m0n5_config):
    result = runner.invoke(main, ["facets", "--config", m0n5_config, "--format", "json"])
    assert json.loads(result.output)["count"] == 15


def test_rewrite_two_block_to_interleaved(runner):
    result = runner.invoke(
        main,
        ["rewrite", "--n", "3", "--components", "1", "--source", "two_block", "--target", "interleaved"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert len(payload["swaps"]) == 4
    assert all(s["certificate"] for s in payload["swaps"])


def test_rewrite_blocked_reports_pair(runner):
    result = runner.invoke(
        main,
        [
            "rewrite", "--n", "3", "--components", "0", "--space", "FM",
            "--source", '["Delta:{1,2}","Delta:{1,2,3}"]',
            "--target", '["Delta:{1,2,3}","Delta:{1,2}"]',
        ],
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["ok"] is False and set(payload["blocking"]) == {"Delta:{1,2}", "Delta:{1,2,3}"}


def _rewrite_payload(source, target) -> str:
    """The ``rewrite`` stdout that the JSON encoder gives for the result."""
    result = swap_rewrite(source, target)
    payload = {"ok": result.ok, "swaps": [step._asdict() for step in result.swaps]}
    if not result.ok:
        payload["blocking"] = list(result.blocking)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def test_rewrite_json_matches_the_encoder(runner):
    g = point_components(2, n=3)
    result = runner.invoke(main, ["rewrite", "--n", "3", "--components", "2",
                                  "--source", "two_block", "--target", "interleaved"])
    assert result.exit_code == 0
    assert result.stdout == _rewrite_payload(two_block_order(g), generate_order(g, "interleaved"))
    result = runner.invoke(main, ["rewrite", "--n", "3", "--components", "2",
                                  "--source", "interleaved", "--target", "inclusion"])
    assert result.exit_code == 1
    assert result.stdout == _rewrite_payload(generate_order(g, "interleaved"), generate_order(g, "inclusion"))
    labels = ["Delta:{1,2,3,4}", "Delta:{1,2,3}", "Delta:{{1,2},{3,4}}", "Delta:{2,3,4}", "Delta:{1,4}"]
    target = labels[:1] + labels[:0:-1]
    result = runner.invoke(main, ["rewrite", "--n", "4", "--space", "FM",
                                  "--source", json.dumps(labels), "--target", json.dumps(target)])
    assert result.exit_code == 1 and len(json.loads(result.stdout)["swaps"]) == 3
    fm4 = GeometryConfig(4, 1, (), Space.FM)
    sequence = lambda labels: BlowupSequence(fm4, tuple(parse_center(t, 4) for t in labels))  # noqa: E731
    assert result.stdout == _rewrite_payload(sequence(labels), sequence(target))
    # the relaxed unquoted array reads a polydiagonal's inner commas as its own
    result = runner.invoke(main, ["rewrite", "--n", "4", "--components", "1",
                                  "--source", "[D:c1:{1},Delta:{{1,2},{3,4}}]",
                                  "--target", '["Delta:{{1,2},{3,4}}","D:c1:{1}"]'])
    g4 = point_components(1, n=4)
    centers = (parse_center("D:c1:{1}", 4), Diagonal(4, (0b0011, 0b1100)))
    assert result.stdout == _rewrite_payload(BlowupSequence(g4, centers), BlowupSequence(g4, centers[::-1]))


def test_order_commands_refuse_too_many_centers(runner):
    # each scheme lists every center of its stage once, so the divisor count
    # bounds the centers of every order
    for space in Space:
        for k in range(1 if space is Space.FM else 3):
            for n in range(1, 5):
                g = point_components(k, n=n, space=space)
                divisors = divisors_for(g)
                stages = {"inclusion": divisors, "interleaved": divisors,
                          "reshuffled": [d for d in divisors if d.component]}
                for scheme, stage in stages.items():
                    try:
                        centers = generate_order(g, scheme).centers
                    except ValueError:
                        continue
                    assert len(centers) == len(set(centers)) and set(centers) == set(stage)
    for n, command in ((16, ["rewrite", "--source", "two_block", "--target", "interleaved"]),
                       (24, ["order", "--scheme", "inclusion"]),
                       (24, ["divisors"])):
        divisors = count_divisors(point_components(1, n=n))
        assert divisors > cli.ORDER_CENTER_BOUND
        start = time.perf_counter()
        message = _json_error(runner.invoke(main, command + ["--n", str(n), "--components", "1"]), 3)
        assert time.perf_counter() - start < 1
        assert message == "refusing an order of more than %d centers (%d predicted)" % (cli.ORDER_CENTER_BOUND, divisors)


def test_rewrite_spends_at_most_the_check_bound(runner, monkeypatch):
    # k=1 n=3: 4 swaps from the two-block order
    argv = ["rewrite", "--source", "two_block", "--target", "interleaved", "--n", "3", "--components", "1"]
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", 4)
    assert runner.invoke(main, argv).exit_code == 0
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", 3)
    assert "more than 3 swaps" in _json_error(runner.invoke(main, argv), 3)


def test_orbits_table(runner):
    result = runner.invoke(main, ["orbits", "--n", "2", "--components", "1"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "D:c1:{1} size=2 stabilizer=1",
        "D:c1:{1,2} size=1 stabilizer=2",
        "Delta:{1,2} size=1 stabilizer=2",
        "orbits 3",
    ]


def test_orbits_n12_answers(runner):
    # 12! relabelings would never finish; the forest codes need none
    result = runner.invoke(main, ["orbits", "--kind", "divisors", "--format", "json", "--n", "12", "--components", "2"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert sum(row["size"] for row in rows) == count_divisors(point_components(2, n=12))


def test_bad_config_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    for text in [
        '{"n": 2, "dim_X": 1, "components": [{"name": "a", "dim": 5}]}',
        # a JSON bool is a Python int, but not a count or a dimension
        '{"n": true, "dim_X": 2, "components": [{"name": "a", "dim": true}]}',
        '{"n": 2, "dim_X": 2, "components": [{"name": "a", "dim": true}]}',
        '{"n": true, "dim_X": 1}',
        '{"n": 2, "dim_X": 1, "components": 5}',
        '{"n": 2, "dim_X": 1, "components": null}',
        '{"n": 2, "dim_X": 1, "components": [{"name": ["a"], "dim": 0}]}',
    ]:
        bad.write_text(text)
        for command in ("divisors", "fvector"):
            _json_error(runner.invoke(main, [command, "--config", str(bad)]))
    missing_n = runner.invoke(main, ["divisors", "--components", "1"])
    assert missing_n.exit_code == 2
    message = _json_error(runner.invoke(main, ["divisors", "--n", "2", "--component", "a:x"]))
    assert message == "--component expects name:dim with an integer dim, got 'a:x'"


def test_budget_exceeded_exits_3(runner):
    result = runner.invoke(main, ["nested", "--n", "7", "--components", "1"])
    assert result.exit_code == 3
    assert "262144" in result.stderr
    shallow = runner.invoke(main, ["nested", "--n", "6", "--components", "1", "--max-size", "1"])
    assert shallow.exit_code == 0


def test_negative_max_size_exits_2(runner):
    result = runner.invoke(main, ["nested", "--max-size", "-1", "--format", "json", "--n", "2", "--components", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "--max-size" in result.output and "nested_sets" not in result.output


def _json_error(result, code=2) -> str:
    """The one JSON error line of an invocation that exits with ``code``
    (2 by default) and prints nothing on stdout."""
    assert result.exit_code == code
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert list(payload) == ["error"]
    return payload["error"]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["divisors", "--n", "abc"], "--n"),
        (["divisors", "--n", "2", "--format", "bogus"], "--format"),
        (["nested", "--max-size", "-1", "--n", "2", "--components", "1"], "--max-size"),
        (["divisors", "--n", "2", "--components", "-1"], "--components"),
        (["divisors", "--bogus"], "--bogus"),
        (["order", "--n", "3"], "--scheme"),
        (["orbits", "--kind", "divisors", "--size", "2", "--n", "3"], "--size"),
        (["orbits", "--kind", "nested", "--size", "-1", "--n", "2", "--components", "1"], "--size"),
        (["divisors", "--n", "1", "--dim-x", "2", "--components", "2", "--component", "L:0"], "--component"),
        (["order", "--scheme", "inclusion", "--no-check", "--n", "2", "--components", "1"], "--no-check"),
        # past the cap nothing is built: a million components once took 2 s and 230 MB to count two faces
        (["fvector", "--n", "2", "--components", "1000000"], "at most 64 components"),
        (["divisors", "--n", "1", "--components", "65"], "a configuration has at most 64 components"),
    ],
    ids=["not-an-int", "bad-choice", "out-of-range", "negative-components", "unknown-option", "missing-option",
         "size-of-divisors", "negative-size", "components-and-component", "no-check", "a-million-components",
         "past-the-component-cap"],
)
def test_usage_errors_print_json(runner, argv, names):
    assert names in _json_error(runner.invoke(main, argv))


def test_help_still_exits_0(runner):
    for argv in (["--help"], ["divisors", "--help"]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage:")


def test_usage_errors_raise_without_standalone_mode():
    with pytest.raises(argparse.ArgumentError):
        main.main(args=["divisors", "--n", "abc"], prog_name="wonderful", standalone_mode=False)
    assert main.main(args=["divisors", "--n", "1", "--format", "json"], prog_name="wonderful",
                     standalone_mode=False) is None


@pytest.mark.parametrize(
    "label, components",
    [
        ("Delta:{{1,2},{3,4}}", 1),
        ("D:c0:{1}", 1),
        ("Delta:{1}", 1),
        ("Delta:{1,5}", 1),
        ("D:c3:{1}", 2),
        # 1 << (i - 1) for this element would take 12.5 GB before any check
        ("D:c1:{100000000000}", 1),
        ("D:c1:{1,2},D:c1:{1,2}", 1),
    ],
    ids=["polydiagonal", "component-0", "one-point-diagonal", "out-of-population", "missing-component",
         "huge-element", "repeated"],
)
def test_fiber_rejects_non_divisor_labels(runner, label, components):
    argv = ["fiber", "--n", "4", "--components", str(components), "--nested", "[%s]" % label]
    message = _json_error(runner.invoke(main, argv))
    named = {"Delta:{{1,2},{3,4}}": "Delta:{{1,2},{3,4}}", "D:c1:{1,2},D:c1:{1,2}": "repeated divisor D:c1:{1,2}"}
    assert named.get(label, "") in message


def test_certify_passes(runner):
    result = runner.invoke(main, ["certify", "--format", "json"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)
    assert [row["name"] for row in rows] == [row.name for row in certify.ROWS]
    failing = ["%s: %s" % (row["name"], row["detail"]) for row in rows if not row["ok"]]
    assert not failing, "\n".join(failing)


def test_certify_reports_the_first_differing_item(runner, monkeypatch):
    row = certify.Row("broken", (point_components(1, n=2),),
                      lambda g: [("a", 1), ("b", 2), ("c", 3)], lambda g: [("a", 1), ("b", 0), ("c", 4)])
    monkeypatch.setattr(certify, "ROWS", (row,))
    result = runner.invoke(main, ["certify"])
    assert result.exit_code == 1
    where = point_components(1, n=2).dumps()
    assert result.output.splitlines() == ["FAIL broken: b on %s: fast 2, slow 0" % where]


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("nested --max-size 0 --n 64 --components 1 --format json", {"count": 1, "nested_sets": [[]]}),
        ("orbits --kind nested --size 0 --n 40 --components 1 --format json",
         [{"representative": "{}", "size": 1, "stabilizer_order": math.factorial(40)}]),
        ("orbits --kind nested --size 1 --n 30 --components 1 --format json",
         [{"representative": "{%s:{%s}}" % (family, ",".join(map(str, range(1, s + 1)))),
           "size": math.comb(30, s), "stabilizer_order": math.factorial(s) * math.factorial(30 - s)}
          for family, least in (("D:c1", 1), ("Delta", 2)) for s in range(least, 31)]),
    ],
    ids=["nested-size-0", "orbits-size-0", "orbits-size-1"],
)
def test_small_sizes_answer_at_large_n(argv, expected):
    # a subprocess with a time limit: a listing that grows with n fails here instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-m", "wonderful.cli", *argv.split()], env=env, capture_output=True,
                            text=True, timeout=10)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == expected


@pytest.mark.parametrize(
    "argv, answer",
    [
        ("divisors", "total 0\n"),
        ("nested", "{}\ntotal 1\n"),
        ("order --scheme inclusion --check", "[]\n"),
        ("rewrite --source inclusion --target inclusion", '{"ok":true,"swaps":[]}\n'),
        ("orbits --kind nested --size 2", "orbits 0\n"),
    ],
    ids=["divisors", "nested", "order-check", "rewrite", "orbits-size-2"],
)
def test_no_divisors_answer_at_n_64_at_once(runner, argv, answer):
    # colliding points and D empty: no divisor, so no list or table of 2^n entries;
    # at n = 21 these once took 0.4 s and 109 MB, and larger n ran out of memory
    start = time.perf_counter()
    result = runner.invoke(main, argv.split() + ["--n", "64", "--space", "XD_upper"])
    elapsed = time.perf_counter() - start
    assert (result.exit_code, result.stdout, result.stderr) == (0, answer, "")
    assert elapsed < 0.05


def test_capped_listing_refuses_at_n_64_at_once(runner):
    # the size cap bounds the recursion's digits; running them all took 0.3-0.4 s on a 2-vCPU Xeon
    start = time.perf_counter()
    result = runner.invoke(main, ["nested", "--max-size", "2", "--n", "64", "--components", "64"])
    elapsed = time.perf_counter() - start
    assert _json_error(result, 3) == "refusing to walk 7586724400780431347428671851619427 nested sets (bound 262144)"
    assert elapsed < 0.05


# sum(f_vector(point_components(4, n=64))), written out: the recursion takes ~0.35 s at n = 64 on a 2-vCPU Xeon
FACES_K4_N64 = int("19454200545585053820349317347804272331337219380818391179128918191545"
                   "43952764749685990772198810449728888366571607556096")


@pytest.mark.parametrize(
    "argv, predicted",
    [
        ("nested --max-size 1 --n 26 --components 1", 134217701),
        ("nested --max-size 2 --n 22 --components 1", 141005053318),
        ("orbits --kind nested --size 2 --n 20 --components 1", 15642295541),
        ("orbits --kind nested --size 2 --n 12 --components 1", 2268697),
        ("facets --n 64 --components 4", FACES_K4_N64),
    ],
    ids=["nested-size-1", "nested-size-2", "orbits-size-2-n20", "orbits-size-2-n12", "facets-n64"],
)
def test_large_listings_are_refused_on_their_predicted_size(argv, predicted):
    # a subprocess with a time limit: a listing past the face bound exits 3 before it walks
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-m", "wonderful.cli", *argv.split()], env=env, capture_output=True,
                            text=True, timeout=10)
    assert result.returncode == 3
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {"error": "refusing to walk %d nested sets (bound 262144)" % predicted}


def test_cli_import_leaves_certify_unloaded():
    code = "import sys, wonderful.cli; print('wonderful.certify' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("module", ["click", "dataclasses", "inspect"])
def test_cli_import_leaves_module_unloaded(module):
    # every CLI call starts cold: the parser is the standard library's, the
    # records are written out by hand, and nothing pulls in inspect
    code = "import sys, wonderful, wonderful.cli; print(%r in sys.modules)" % module
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_no_module_imports_dataclasses():
    found = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                found.setdefault(path.name, []).append(node.lineno)
    assert found == {}


def test_interrupt_exits_1_with_one_json_line(runner, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "face_rows", interrupted)
    result = runner.invoke(main, ["nested", "--n", "17", "--components", "1", "--max-size", "1"])
    assert _json_error(result, 1) == "aborted"
    assert result.stderr == '{"error":"aborted"}\n'


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_1_with_one_json_line(unbuffered):
    # the table is ~340 KB, more than a pipe holds: the reader takes one line and goes
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "wonderful.cli", "divisors", "--n", "12", "--components", "3"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as listing:
        assert listing.stdout.readline() == b"D:c1:{1}\n"
        listing.stdout.close()
        assert listing.wait(timeout=10) == 1
        # nothing more: no "Exception ignored" from the flush at exit
        assert listing.stderr.read() == b'{"error":"stdout closed"}\n'


def test_outputs_byte_identical_across_runs_and_workers(runner, m0n5_config):
    commands = [
        ["nested", "--config", m0n5_config, "--format", "json"],
        ["facets", "--config", m0n5_config, "--format", "json"],
        ["fvector", "--config", m0n5_config],
        ["order", "--scheme", "interleaved", "--n", "3", "--components", "2"],
        ["orbits", "--n", "3", "--components", "1", "--kind", "nested", "--size", "2", "--format", "json"],
    ]
    for argv in commands:
        outputs = {runner.invoke(main, argv).output for _ in range(3)}
        assert len(outputs) == 1


# Every argv the benchmark's session stream can hold, with the sha256 of its
# recorded stdout: this pins the rewrite certificates, the face order and the
# fiber renderings byte for byte.
SESSION_DIGESTS = Path(__file__).resolve().parent.parent / "benchmark" / "session_digests.json"
# The heaviest of them, each checked on its own.
HEAVY_SESSION_ARGVS = [
    "rewrite --source two_block --target interleaved --n 6 --components 2",
    "rewrite --source two_block --target interleaved --n 7 --components 1",
    "nested --max-size 2 --format json --n 7 --components 3",
    "nested --max-size 2 --format json --n 6 --components 2",
]


@pytest.mark.parametrize("argv", HEAVY_SESSION_ARGVS)
def test_heavy_session_output_matches_recorded_digest(argv):
    recorded = json.loads(SESSION_DIGESTS.read_text())[argv]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main.main(args=argv.split(" "), prog_name="wonderful", standalone_mode=False) is None
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == recorded


def test_session_output_matches_every_recorded_digest():
    recorded = json.loads(SESSION_DIGESTS.read_text())
    mismatched = []
    for argv, digest in recorded.items():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main.main(args=argv.split(" "), prog_name="wonderful", standalone_mode=False) is None
        if hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] != digest:
            mismatched.append(argv)
    assert mismatched == []


def _old_rendering(sets, key, fmt) -> str:
    """The face rendering that built and printed one ``NestedSet`` at a time."""
    if fmt == "json":
        return json.dumps({"count": len(sets), key: [list(ns.labels()) for ns in sets]},
                          separators=(",", ":")) + "\n"
    return "".join("{" + ",".join(ns.labels()) + "}\n" for ns in sets) + "total %d\n" % len(sets)


def _geometries(max_n):
    for space in Space:
        for k in range(4):
            for n in range(1, max_n + 1):
                if space is Space.FM and k:
                    continue  # FM admits no components
                yield ["--n", str(n), "--components", str(k), "--space", space.value], \
                    point_components(k, n=n, space=space)


def test_face_rows_render_like_nested_sets(runner):
    # sizes above 2, whole listings and facets on configurations of at most 40 divisors
    for argv, g in _geometries(5):
        shallow = count_divisors(g) > 40
        for max_size in (0, 1, 2) if shallow else (0, 1, 2, 3, None):
            sets = enumerate_nested_sets(g, max_size=max_size)
            size = [] if max_size is None else ["--max-size", str(max_size)]
            for fmt in ("json", "table"):
                result = runner.invoke(main, ["nested", *argv, *size, "--format", fmt])
                assert result.exit_code == 0
                assert result.stdout == _old_rendering(sets, "nested_sets", fmt), (argv, max_size, fmt)
        if shallow:
            continue
        sets = maximal_nested_sets(g)
        for fmt in ("json", "table"):
            result = runner.invoke(main, ["facets", *argv, "--format", fmt])
            assert result.exit_code == 0
            assert result.stdout == _old_rendering(sets, "facets", fmt), (argv, fmt)


def test_listings_build_no_divisor(runner, monkeypatch):
    # labels and face rows come from (component, index set) keys alone
    argvs = [[*command, *argv, "--format", fmt] for argv, _ in _geometries(3) for fmt in ("json", "table")
             for command in (["divisors"], ["nested", "--max-size", "2"], ["facets"])]
    want = [runner.invoke(main, argv).stdout for argv in argvs]

    def refuse(self, *fields):
        raise AssertionError("a listing built %s" % type(self).__name__)

    monkeypatch.setattr(DLocus, "__init__", refuse)
    monkeypatch.setattr(Diagonal, "__init__", refuse)
    for argv, stdout in zip(argvs, want):
        result = runner.invoke(main, argv)
        assert (result.exit_code, result.stdout) == (0, stdout), argv
    with pytest.raises(AssertionError, match="built DLocus"):
        divisors_for(point_components(1, n=2))


def test_face_budget_refusals_keep_their_message(runner):
    assert sum(f_vector(point_components(3, n=6))) == 660032  # M_{0,9}
    # k=1 n=24 has 33 554 406 divisors: the prediction refuses before any is built
    for k, n, argv in ((3, 6, ["facets"]), (3, 6, ["facets", "--format", "json"]), (1, 24, ["facets"])):
        with pytest.raises(BudgetError) as refused:
            maximal_nested_sets(point_components(k, n=n))
        start = time.perf_counter()
        result = runner.invoke(main, argv + ["--n", str(n), "--components", str(k)])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 3
        assert result.stdout == ""
        assert json.loads(result.stderr) == {"error": str(refused.value)}
    # M_{0,8}: 119 divisors, but 39 208 faces, so its 10 395 facets are listed
    facets = maximal_nested_sets(point_components(3, n=5))
    assert len(facets) == 10395
    result = runner.invoke(main, ["facets", "--n", "5", "--components", "3", "--format", "json"])
    assert result.exit_code == 0
    assert result.stdout == _old_rendering(facets, "facets", "json")


def test_facets_refusal_counts_the_faces_in_one_pass(runner):
    # every face is within the facet size, so the count is the recursion at
    # y = 1 alone (~2 ms at n = 64), not the packed f-vector (~0.4 s)
    argv = ["facets", "--n", "64", "--components", "4"]
    start = time.perf_counter()
    message = _json_error(runner.invoke(main, argv), 3)
    assert time.perf_counter() - start < 0.1
    assert message == "refusing to walk %d nested sets (bound 262144)" % FACES_K4_N64


def test_nested_csv_needs_fvector(runner):
    message = _json_error(runner.invoke(main, ["nested", "--n", "2", "--components", "1", "--format", "csv"]))
    assert "--fvector" in message
    result = runner.invoke(main, ["nested", "--n", "2", "--components", "1", "--format", "csv", "--fvector"])
    assert result.exit_code == 0
    assert result.output == "f0,f1,f2\n1,4,3\n"


@pytest.mark.parametrize("scheme, components", [("reshuffled", 1), ("interleaved", 2)])
def test_order_check_validates_every_scheme(runner, monkeypatch, scheme, components):
    argv = ["order", "--scheme", scheme, "--n", "3", "--components", str(components)]
    plain = runner.invoke(main, argv)
    checked = runner.invoke(main, argv + ["--check"])
    assert checked.exit_code == 0 and checked.output == plain.output
    monkeypatch.setattr(orders, "validate_building_set_order", lambda seq: False)
    monkeypatch.setattr(orders, "swap_rewrite", lambda seq, target: RewriteResult(False, (), ("D:c1:{1}", "Delta:{1,2}")))
    message = _json_error(runner.invoke(main, argv + ["--check"]), 1)
    assert message.startswith("generated %s order failed validation" % scheme)
    if scheme == "interleaved":
        assert "D:c1:{1} and Delta:{1,2}" in message
    assert runner.invoke(main, argv).output == plain.output


def test_order_check_names_the_inclusion_pair(runner, monkeypatch):
    witness = "D:c1:{1,2} is strictly contained in D:c1:{1} but comes later"
    monkeypatch.setattr(orders, "validate_inclusion_order",
                        lambda seq: orders.InclusionReport(False, (0, 1, witness)))
    argv = ["order", "--scheme", "inclusion", "--n", "3", "--components", "1", "--check"]
    message = _json_error(runner.invoke(main, argv), 1)
    assert message == "generated inclusion order failed validation: " + witness


@pytest.mark.parametrize(
    "scheme, unit", [("reshuffled", "steps"), ("interleaved", "swaps"), ("inclusion", "containment tests")]
)
def test_order_check_budget_exits_3(runner, monkeypatch, scheme, unit):
    # k=1 n=3: 7 reshuffled centers (21 pair tests); 4 swaps; 11 inclusion
    # centers (55 containment tests)
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", 3)
    argv = ["order", "--scheme", scheme, "--check", "--n", "3", "--components", "1"]
    message = _json_error(runner.invoke(main, argv), 3)
    assert "more than 3 %s" % unit in message
    if scheme == "inclusion":
        assert "11 centers need 55" in message


def test_fvector_answers_past_the_listing_budget(runner):
    result = runner.invoke(main, ["fvector", "--n", "5", "--components", "3", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"fvector": list(f_vector(point_components(3, n=5)))}
    start = time.perf_counter()
    result = runner.invoke(main, ["fvector", "--n", "30", "--components", "3"])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    assert result.output.startswith("1,%d," % count_divisors(point_components(3, n=30)))


@pytest.mark.parametrize(
    "n, max_size, expected",
    [(2, 1, "1,4"), (2, 0, "1"), (2, 5, "1,4,3"), (6, 1, "1,120"), (6, 2, "1,120,2037"),
     (6, 3, "1,120,2037,11368")],
)
def test_nested_fvector_honours_max_size(runner, n, max_size, expected):
    argv = ["nested", "--fvector", "--max-size", str(max_size), "--n", str(n), "--components", "1"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert result.output == expected + "\n"


def test_inclusion_check_on_a_curve_component_orders_stage_by_stage(runner):
    result = runner.invoke(main, ["order", "--scheme", "inclusion", "--check", "--n", "2", "--dim-x", "3",
                                  "--component", "L:1"])
    assert result.exit_code == 0
    assert result.output == '["D:c1:{1,2}","D:c1:{1}","D:c1:{2}","Delta:{1,2}"]\n'


def _commands_without_components():
    """Every command, with the orders' and rewrites' every scheme, on n = 1..5
    points and dim X = 1, 2, with no space and no components given."""
    commands = [["divisors"], ["nested", "--max-size", "2"], ["fvector"], ["facets"], ["orbits"]]
    commands += [["orbits", "--kind", "nested", "--size", str(size)] for size in range(4)]
    commands += [["order", "--scheme", scheme, *check] for scheme in orders.SCHEMES for check in ([], ["--check"])]
    commands += [["rewrite", "--source", source, "--target", target]
                 for source in cli.ORDER_SOURCES for target in cli.ORDER_SOURCES]
    commands += [["fiber", "--nested", face] for face in ("[]", "[Delta:{1,2}]")]
    return [command + ["--n", str(n), "--dim-x", str(dim_x)]
            for n in range(1, 6) for dim_x in (1, 2) for command in commands]


def test_fm_answers_as_the_space_without_components(runner):
    """FM is XD_bracket with D empty: every command answers the same on both."""
    def answer(argv):
        result = runner.invoke(main, argv)
        return result.exit_code, result.stdout, result.stderr

    argvs = _commands_without_components()
    assert len(argvs) == 330
    differ = [" ".join(argv) for argv in argvs if answer(argv + ["--space", "FM"]) != answer(argv)]
    assert differ == []
