import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from wonderful import certify, cli
from wonderful.cli import main
from wonderful.geometry import GeometryConfig, Space, point_components
from wonderful.loci import Diagonal, parse_center
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
    monkeypatch.setattr(cli, "ORDER_CHECK_BOUND", 4)
    assert runner.invoke(main, argv).exit_code == 0
    monkeypatch.setattr(cli, "ORDER_CHECK_BOUND", 3)
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
    result = runner.invoke(main, ["nested", "--n", "6", "--components", "1"])
    assert result.exit_code == 3
    assert "40" in result.stderr
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
    ],
    ids=["not-an-int", "bad-choice", "out-of-range", "negative-components", "unknown-option", "missing-option",
         "size-of-divisors"],
)
def test_usage_errors_print_json(runner, argv, names):
    assert names in _json_error(runner.invoke(main, argv))


def test_help_still_exits_0(runner):
    for argv in (["--help"], ["divisors", "--help"]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage:")


def test_usage_errors_raise_without_standalone_mode():
    with pytest.raises(click.UsageError):
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


def test_cli_import_leaves_certify_unloaded():
    code = "import sys, wonderful.cli; print('wonderful.certify' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


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
    for argv, g in _geometries(5):
        for max_size in (0, 1, 2, 3, None):
            try:
                sets = enumerate_nested_sets(g, max_size=max_size)
            except BudgetError:
                continue
            size = [] if max_size is None else ["--max-size", str(max_size)]
            for fmt in ("json", "table"):
                result = runner.invoke(main, ["nested", *argv, *size, "--format", fmt])
                assert result.exit_code == 0
                assert result.stdout == _old_rendering(sets, "nested_sets", fmt), (argv, max_size, fmt)
        try:
            sets = maximal_nested_sets(g)
        except BudgetError:
            continue
        for fmt in ("json", "table"):
            result = runner.invoke(main, ["facets", *argv, "--format", fmt])
            assert result.exit_code == 0
            assert result.stdout == _old_rendering(sets, "facets", fmt), (argv, fmt)


def test_face_budget_refusals_keep_their_message(runner):
    assert count_divisors(point_components(3, n=5)) == 119
    # k=1 n=24 has 33 554 406 divisors: the count refuses before any is built
    for k, n, argv in ((3, 5, ["facets"]), (3, 5, ["facets", "--format", "json"]),
                       (3, 5, ["nested", "--max-size", "3"]), (1, 24, ["facets"])):
        with pytest.raises(BudgetError) as refused:
            maximal_nested_sets(point_components(k, n=n))
        start = time.perf_counter()
        result = runner.invoke(main, argv + ["--n", str(n), "--components", str(k)])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 3
        assert result.stdout == ""
        assert json.loads(result.stderr) == {"error": str(refused.value)}


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
    monkeypatch.setattr(cli, "validate_building_set_order", lambda seq, bound: False)
    monkeypatch.setattr(cli, "swap_rewrite", lambda seq, target, bound: RewriteResult(False, (), ("D:c1:{1}", "Delta:{1,2}")))
    message = _json_error(runner.invoke(main, argv + ["--check"]), 1)
    assert message.startswith("generated %s order failed validation" % scheme)
    if scheme == "interleaved":
        assert "D:c1:{1} and Delta:{1,2}" in message
    assert runner.invoke(main, argv).output == plain.output


@pytest.mark.parametrize(
    "scheme, unit", [("reshuffled", "steps"), ("interleaved", "swaps"), ("inclusion", "containment tests")]
)
def test_order_check_budget_exits_3(runner, monkeypatch, scheme, unit):
    # k=1 n=3: 7 reshuffled centers (49 containment tests); 4 swaps; 11
    # inclusion centers (55 containment tests)
    monkeypatch.setattr(cli, "ORDER_CHECK_BOUND", 3)
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
