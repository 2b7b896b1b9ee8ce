"""One measured pass, run in a fresh interpreter by ``run.py``.

Reads a job (JSON) from stdin and writes one JSON event per line to stdout:
``setup`` once the inputs are ready, ``op`` after each operation, and
``done`` after the last one.  The harness treats an operation without an
``op`` event as failed, so a pass that dies part way still accounts for
every operation.

A fresh process per pass keeps the program's ``lru_cache``s cold, as they
are for every ``quasischur`` command a user runs.

The machine's speed drifts by more than the bounds in BENCHMARK.json within
a minute, so every time is also reported scaled to a reference speed: a
fixed piece of pure-Python work runs before the first operation and then
after every SEGMENT_S of operations, and each segment's time is multiplied
by ``REFERENCE_S / reference time``, with the reference time taken as the
mean of the readings on either side of it.  Set-up is scaled by the first
reading.  The reference work is timed outside the operations and touches
none of the program's state.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

# What one reference reading takes on a 2-core x86 VM when it runs fast.
REFERENCE_S = 0.008
REFERENCE_LOOPS = 100_000
# Operations are timed in segments of at least this long between readings.
SEGMENT_S = 0.5


def reference() -> float:
    """Seconds a fixed piece of integer arithmetic takes now.  It allocates
    no container, so it never triggers a garbage collection of the
    program's objects."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    job = json.load(sys.stdin)
    proto = sys.stdout

    def emit(event: dict) -> None:
        proto.write(json.dumps(event) + "\n")
        proto.flush()

    src = Path(job["root"]) / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import quasischur

    if Path(quasischur.__file__).resolve().parent != src.resolve() / "quasischur":
        raise ImportError(f"imported quasischur from {quasischur.__file__}, not {src}")

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    ops = job["ops"]
    program, inputs = workload.setup(ops)
    setup_raw_s = time.monotonic() - job["spawned"]
    before = reference()
    emit({"event": "setup", "setup_s": setup_raw_s * REFERENCE_S / before,
          "setup_raw_s": setup_raw_s})

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install(quasischur)

    wall_s = wall_raw_s = segment = 0.0
    readings = [before]
    for index, (op, data) in enumerate(zip(ops, inputs)):
        start = time.perf_counter()
        try:
            stats, digest = workload.run(program, op, data)
        except Exception as exc:  # one failed operation must not end the pass
            elapsed = time.perf_counter() - start
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            event = {"event": "op", "id": op["id"], "ok": False, "error": detail}
        else:
            elapsed = time.perf_counter() - start
            event = {"event": "op", "id": op["id"], "ok": True, "digest": digest,
                     "stats": stats}
        emit(event)
        wall_raw_s += elapsed
        segment += elapsed
        if segment >= SEGMENT_S or index == len(ops) - 1:
            after = reference()
            readings.append(after)
            wall_s += segment * REFERENCE_S / ((before + after) / 2)
            before, segment = after, 0.0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = {"event": "done", "wall_s": wall_s, "wall_raw_s": wall_raw_s,
            "reference_s": sorted(readings)[len(readings) // 2],
            "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        done["trace"] = tracer.table()
        done["spans"] = len(tracer.span_start)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
