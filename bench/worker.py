"""One cold benchmark pass, run by run.py in a fresh interpreter.

    python bench/worker.py WORKLOAD SEED TMPDIR RESULT_JSON [SPANS_FILE]

Imports asaikit, builds the seeded inputs, makes one timed pass of the
workload and writes the result to RESULT_JSON.  With SPANS_FILE the tracer
is installed first and the spans are written there at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from time import perf_counter


def main(argv: list[str]) -> int:
    workload, seed, tmpdir, result_path = argv[0], int(argv[1]), argv[2], argv[3]
    spans_path = argv[4] if len(argv) > 4 else None

    import workloads  # imports asaikit

    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(seed, tmpdir)
    setup_done = time.time()  # wall clock, comparable with the parent's spawn time
    tally = workloads.Tally()
    t0 = perf_counter()
    layers = run(inputs, tally)
    wall = perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.dump(spans_path, run_id=f"{workload}/{seed}")
    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "digest": tally.digest(),
        "layers": layers,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
