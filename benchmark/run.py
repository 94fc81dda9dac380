"""Benchmark of the ``wonderful`` package: one closed-loop, single-thread client.

    python3 benchmark/run.py --workload complex|oracle|session --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each pass over the workload's request
stream runs in a fresh interpreter (``worker.py``), because every CLI
invocation starts cold; passes start until ``--seconds`` have gone by.

With ``--trace 0`` the last line reports the end-to-end metrics: ``wall_s``,
the summed request latencies of one pass (answer checks excluded), as the
median over the passes; ``req_p50_ms`` and ``req_p90_ms`` over the requests
of all passes; ``setup_s``, the median over the passes and the extra cold
starts made before each of them; and ``peak_rss_mb``, the median over the
passes.  With ``--trace 1`` untraced and traced passes alternate and the last
line reports the per-layer metrics of the traced passes plus
``trace.overhead_s``, traced minus untraced ``wall_s``.

The speed of a shared host drifts by tens of percent within a minute, so
every worker also times a fixed speed probe, and each time it measures is
reported at the reference speed: multiplied by REFERENCE_PROBE_S over the
worker's median probe time.  The raw times and probe times are in the line
before the last, with the seed, source revision, Python version, CPU count,
every pass, and the first errors.

A request that raises, gives a wrong answer, or is cut by the time cap is
counted in ``failed``; ``failed / attempted`` is the fail ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("complex", "oracle", "session")
SETUP_PROBES = 3  # extra cold starts before each pass
CAP_S = 160.0  # every run ends well inside 180 s
# The speed probe's time (worker.probe) on a quiet 2-vCPU Xeon at 2.1 GHz.
REFERENCE_PROBE_S = 0.003


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def worker(args, deadline: float, *extra: str) -> dict:
    """Run one worker process; a crash or the time cap fails its whole stream."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - monotonic()))
        out, err, reason = done.stdout, done.stderr, "exit code %d" % done.returncode
        if done.returncode == 0:
            return json.loads(out.splitlines()[-1])
    except subprocess.TimeoutExpired as exc:
        out, err, reason = exc.stdout or "", exc.stderr or "", "time cap"
    if isinstance(out, bytes):
        out, err = out.decode(errors="replace"), err.decode(errors="replace")
    lines = out.splitlines()
    requests = json.loads(lines[0])["requests"] if lines else 1
    tail = err.strip().splitlines()[-1:] or [""]
    return {"attempted": requests, "failed": requests,
            "errors": ["pass failed (%s): %s" % (reason, tail[0])]}


def run(args) -> tuple[dict, dict]:
    """Passes, each after SETUP_PROBES extra cold starts, while less than
    ``args.seconds`` have gone by; traced runs alternate plain and traced
    passes and hold at least one of each."""
    deadline = monotonic() + CAP_S
    setups, passes = [], []
    begin = monotonic()
    longest = 0.0
    while True:
        started = monotonic()
        setups += [worker(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
        traced = args.trace == 1 and len(passes) % 2 == 1
        result = worker(args, deadline, "--trace", "1" if traced else "0")
        result["traced"] = traced
        passes.append(result)
        now = monotonic()
        longest = max(longest, now - started)
        enough = len({p["traced"] for p in passes}) == 1 + args.trace
        if now + longest > deadline or (enough and now - begin >= args.seconds):
            break
    return summarize(args, setups, passes)


def percentile(values, q: float) -> float | None:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)] if ordered else None


def at_reference(value: float, sample: dict) -> float:
    """A time measured in a worker, rescaled to the reference machine speed by
    the worker's own speed probe."""
    return value * REFERENCE_PROBE_S / sample["probe_s"]


def summarize(args, setups, passes) -> tuple[dict, dict]:
    done = [p for p in passes if "wall_s" in p]
    plain = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    complete = len(done) == len(passes) and bool(plain) and bool(traced or not args.trace)
    walls = [at_reference(p["wall_s"], p) for p in plain]
    if args.trace:
        metrics = {}
        for name in sorted({k for p in traced for k in p["layers"]}):
            metrics[name] = statistics.median(
                at_reference(p["layers"][name], p) if name.endswith("_s") else p["layers"][name]
                for p in traced if name in p["layers"])
        if complete:
            metrics["trace.overhead_s"] = (
                statistics.median(at_reference(p["wall_s"], p) for p in traced)
                - statistics.median(walls))
    else:
        setup = [at_reference(s["setup_s"], s) for s in setups + plain if "setup_s" in s]
        latencies = [at_reference(t, p) for p in plain for t in p["latencies_ms"]]
        metrics = {
            "wall_s": statistics.median(walls) if walls else None,
            "req_p50_ms": percentile(latencies, 0.5),
            "req_p90_ms": percentile(latencies, 0.9),
            "setup_s": statistics.median(setup) if setup else None,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain) if plain else None,
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "fail_ratio": failed / attempted,
        "errors": [e for p in passes for e in p.get("errors", [])][:10],
        "passes": [{k: v for k, v in p.items() if k not in ("errors", "layers", "latencies_ms")}
                   for p in passes],
        "setup_probes": setups,
    }
    result = {
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()
                    if v is not None},
    }
    return info, result


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the wonderful package.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wonderful" / "__init__.py").is_file():
        print("no wonderful package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    info, result = run(args)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
