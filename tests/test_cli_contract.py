"""The CLI's exit-code contract (``wonderful.cli`` module docstring), checked
on argvs drawn from the CLI's grammar: every command but ``certify`` (a
fixed table with no input), the configuration flags, every space, scheme
and size option, and well-formed and malformed label literals.  An argv
either answers, exit 0 with stdout within OUTPUT_CAP, or exits 1, 2 or 3
with nothing on stdout and one ``{"error": ...}`` line on stderr.  A
blocked ``rewrite`` is the one failed check drawn here that reports on
stdout instead: exit 1, its ``{"ok": false, ...}`` answer, and no error
line.  No argv may raise, and none may run past CALL_SECONDS."""

import json
import signal

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wonderful.cli import COMMANDS as PARSERS, ORDER_SOURCES, main

# The slowest answers the budgets admit take about 3 s on a 2-vCPU Xeon (a
# size <= 1 listing at k=1 n=17, 262 125 divisors, just under the face
# bound); a refusal comes sooner, the slowest being a rewrite at k=1 n=14
# that spends its whole swap budget in about 1.1 s.  Ten seconds admits
# them on a host three times slower, and still stops a walk that ignores
# its budget.
CALL_SECONDS = 10
# The largest answers the budgets admit on this grammar print about 9 MB:
# the whole nested-set listing of k=3 n=6 in XD_upper (148 282 faces) and
# the size <= 1 listing at k=1 n=17.  An answer past 32 MiB did not stop at
# its budget.
OUTPUT_CAP = 32 << 20
COMMANDS = sorted(set(PARSERS) - {"certify"})


def _choices(command, name):
    """The values the parser accepts for one option of a command, if it has the option."""
    return [c for a in PARSERS[command]._actions if a.dest == name for c in a.choices]


class _Overtime(BaseException):
    """Raised by the alarm; not an ``Exception``, so the runner lets it through."""


def _overtime(signum, frame):
    raise _Overtime("no exit within %d s" % CALL_SECONDS)


def _index_set(draw, least):
    return sorted(draw(st.sets(st.integers(1, 8), min_size=least, max_size=4)))


@st.composite
def labels(draw):
    """A divisor label, well-formed or not: points up to 8 may lie past n,
    and ``Delta:{i}`` and component ``c0`` are invalid."""
    family = draw(st.sampled_from(["D", "Delta", "polydiagonal"]))
    if family == "D":
        return "D:c%d:{%s}" % (draw(st.integers(0, 4)), ",".join(map(str, _index_set(draw, 1))))
    if family == "Delta":
        return "Delta:{%s}" % ",".join(map(str, _index_set(draw, 1)))
    a, b = draw(st.integers(1, 4)), draw(st.integers(5, 8))
    return "Delta:{{%d,%d},{%d,%d}}" % (a, a + 4, b - 4, b)


@st.composite
def label_literals(draw):
    """A JSON array of labels, the relaxed unquoted array, or malformed text."""
    form = draw(st.sampled_from(["json", "relaxed", "malformed"]))
    if form == "malformed":
        return draw(st.text(alphabet='[]{},:" DeltacX0123456789', max_size=16))
    items = draw(st.lists(labels(), max_size=4))
    return json.dumps(items) if form == "json" else "[%s]" % ",".join(items)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if draw(st.integers(0, 7)):  # ``--n`` is required, so leave it out now and then
        argv += ["--n", str(draw(st.one_of(st.integers(1, 6), st.integers(0, 64))))]
    if draw(st.booleans()):
        argv += ["--space", draw(st.sampled_from(_choices(command, "space")))]
    components = draw(st.sampled_from(["none", "count", "named"]))
    if components == "count":
        argv += ["--components", str(draw(st.integers(0, 4)))]
    elif components == "named":
        for i in range(draw(st.integers(1, 3))):
            argv += ["--component", "L%d:%d" % (i, draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        argv += ["--dim-x", str(draw(st.integers(1, 4)))]
    sizes = st.one_of(st.none(), st.integers(0, 3))
    if command == "nested":
        size = draw(sizes)
        argv += [] if size is None else ["--max-size", str(size)]
        argv += ["--fvector"] if draw(st.booleans()) else []
    elif command == "orbits":
        argv += ["--kind", draw(st.sampled_from(_choices("orbits", "kind")))]
        size = draw(sizes)
        argv += [] if size is None else ["--size", str(size)]
    elif command == "order":
        argv += ["--scheme", draw(st.sampled_from(_choices("order", "scheme")))]
        argv += ["--check"] if draw(st.booleans()) else []
    elif command == "rewrite":
        for flag in ("--source", "--target"):
            argv += [flag, draw(st.one_of(st.sampled_from(ORDER_SOURCES), label_literals()))]
    elif command == "fiber":
        argv += ["--nested", draw(label_literals())]
    if _choices(command, "fmt"):
        argv += ["--format", draw(st.sampled_from(_choices(command, "fmt")))]
    return argv


def _run(argv):
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(CALL_SECONDS)
    try:
        return CliRunner().invoke(main, argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _is_blocked_rewrite(argv, result) -> bool:
    if argv[0] != "rewrite" or result.exit_code != 1 or result.stderr:
        return False
    payload = json.loads(result.stdout)
    return payload["ok"] is False and len(payload["blocking"]) == 2


# small sizes at large n, which once walked or listed everything: each answers or is refused on its predicted size
@example(argv=["nested", "--max-size", "0", "--n", "64", "--components", "1"])
@example(argv=["nested", "--max-size", "1", "--n", "26", "--components", "1"])
@example(argv=["nested", "--max-size", "2", "--n", "22", "--components", "1"])
@example(argv=["orbits", "--kind", "nested", "--size", "0", "--n", "40", "--components", "1"])
@example(argv=["orbits", "--kind", "nested", "--size", "1", "--n", "30", "--components", "1"])
@example(argv=["orbits", "--kind", "nested", "--size", "2", "--n", "20", "--components", "1"])
# no divisor at all, where a table of 2^n entries once ran out of memory
@example(argv=["divisors", "--n", "64", "--space", "XD_upper"])
@example(argv=["nested", "--n", "64", "--space", "XD_upper"])
@example(argv=["order", "--scheme", "inclusion", "--check", "--n", "64", "--space", "XD_upper"])
@example(argv=["rewrite", "--source", "inclusion", "--target", "inclusion", "--n", "64", "--space", "XD_upper"])
@example(argv=["orbits", "--kind", "nested", "--size", "2", "--n", "64", "--space", "XD_upper"])
# the failed check that answers on stdout
@example(argv=["rewrite", "--source", "interleaved", "--target", "inclusion", "--n", "3", "--components", "1"])
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_answers_or_exits_with_one_json_error(argv):
    result = _run(argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    if result.exit_code == 0:
        assert len(result.stdout_bytes) <= OUTPUT_CAP
        assert result.stderr == ""
        return
    assert result.exit_code in (1, 2, 3)
    if _is_blocked_rewrite(argv, result):
        return
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    payload = json.loads(line)
    assert list(payload) == ["error"] and isinstance(payload["error"], str)
