"""One pass of a workload in a fresh interpreter.

    python3 benchmark/worker.py --workload complex --seed 1 --trace 0 [--setup-only]

Times the cold start (import plus configuration set-up), draws the stream
from the seed, runs every request in order, checks each answer, and prints
the stream length as its first line and a JSON summary as its last.  Every
worker also times a speed probe, by which ``run.py`` rescales its times.  With
``--trace 1`` the ``wonderful`` layers are wrapped after set-up, and the
spans are written to ``.bench_out/`` when the pass ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Time a fixed piece of pure-Python work like the library's own (tuples,
    hashing, a dict, a sort), with the collector off so that the heap the
    requests leave does not change it.  Its time tracks the speed of the
    machine, which drifts by tens of percent on a shared host."""
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        acc = 0
        for i in range(4000):
            key = (i & 63, i >> 3, (i * 2654435761) & 0xFFFF)
            table[key] = table.get(key, 0) + 1
            acc ^= hash(key) & (i | 1)
        sorted(table)
        return perf_counter() - start
    finally:
        gc.enable()


def probes(count: int) -> list[float]:
    return [probe() for _ in range(count)]


def run_pass(workload, stream, tracer) -> dict:
    """Run the stream; between requests, probe the machine's speed about
    every PROBE_EVERY_S."""
    latencies, errors, out_bytes = [], [], 0
    speed = probes(5)
    due = perf_counter() + PROBE_EVERY_S
    for kind, call, check in stream:
        if perf_counter() >= due:
            speed.append(probe())
            due = perf_counter() + PROBE_EVERY_S
        start = perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                result = tracer.request_span("cli.main" if workload.cli else "bench." + kind, call)
        except Exception as exc:  # a raising request fails; the pass goes on
            latencies.append(perf_counter() - start)
            errors.append("%s raised %r" % (kind, exc))
            continue
        latencies.append(perf_counter() - start)
        if workload.cli:  # the answer is (exit code, stdout)
            out_bytes += len(result[1])
        try:
            error = check(result)
        except Exception as exc:  # a malformed answer is a wrong answer
            error = "%s: check raised %r" % (kind, exc)
        if error:
            errors.append(error)
    speed += probes(5)
    return {
        "probe_s": statistics.median(speed),
        "wall_s": sum(latencies),
        "latencies_ms": [1000 * t for t in latencies],
        "attempted": len(stream),
        "failed": len(errors),
        "errors": errors[:5],
        "out_bytes": out_bytes,
    }


def layer_share(selfs: dict) -> dict:
    from tracer import LAYERS
    total = sum(selfs.get(layer, 0.0) for layer in LAYERS + ("bench",))
    return {layer: round(selfs.get(layer, 0.0) / total, 4) for layer in LAYERS} if total else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    start = perf_counter()
    import wonderful
    import wonderful.cli  # noqa: F401  (every CLI invocation pays for it)

    workload.setup(wonderful)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": statistics.median(probes(5))}))
        return 0
    stream = workload.requests(random.Random(args.seed))
    gc.collect()  # the pass starts from the heap a cold start leaves
    print(json.dumps({"requests": len(stream)}), flush=True)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.seed)
        tracer.install()
    summary = run_pass(workload, stream, tracer)
    summary["setup_s"] = setup_s
    summary["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.out_bytes"] = summary["out_bytes"]
        summary["layers"] = layers
        summary["layer_share"] = layer_share(tracer.self_times())
        summary["absent"] = tracer.absent
        spans = ROOT / ".bench_out" / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        spans.parent.mkdir(exist_ok=True)
        with spans.open("w") as fh:
            fh.write(json.dumps({"fields": ["request", "id", "parent", "name", "start", "end",
                                            "leaf_estimate_s"]}) + "\n")
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
