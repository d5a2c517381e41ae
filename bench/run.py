"""asaikit benchmark: three seeded verifier workloads, measured cold.

    python3 bench/run.py --workload {verify-all,analytic-sweep,exact-sweep,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; the package is taken from
``src/`` (it need not be installed).  Each repetition is one pass of the
workload in a fresh interpreter (``worker.py``), one at a time, so every pass
starts with empty ``lru_cache``s and untabulated forms, as a CLI call does.

``--trace 0`` repeats passes for about ``--seconds``, and at least MIN_PASSES
times (a verify-all pass takes about 20 s), and reports the end-to-end
metrics:

* ``wall_s``: one workload pass after set-up, the fastest pass of the run.
  On a shared host, other tenants slow this CPU-bound, single-threaded pass
  by up to 70 % for tens of seconds at a time; that noise only ever adds
  time, so the fastest pass is the steady estimate of what the pass costs
  (a median over passes moved by 25 % from run to run).  Comparisons take
  the median of this figure over runs.
* ``setup_s``: from spawning the worker until asaikit is imported and the
  seeded inputs are built, the median over the run's passes;
* ``peak_rss_mb``: the worker's peak resident memory, median over passes.

``--trace 1`` makes one untraced and one traced pass and reports the
per-layer table from the traced one (see tracer.py), plus
``trace.overhead_s``, the traced pass's wall time minus the untraced one's.

Every pass counts its comparisons at the acceptance tolerances; the failed
share is printed as ``fail_ratio`` and carried by the ``attempted`` and
``failed`` fields of the last line, a JSON object.  Exact outputs are hashed
into a digest, printed per workload and seed, which must be the same in every
pass.  Scratch files go to a temporary directory under ``.bench_build/``,
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, time

sys.dont_write_bytecode = True

import tracer  # noqa: E402  (after disabling bytecode writes into the checkout)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify-all", "analytic-sweep", "exact-sweep")
RUN_SECONDS = 20
MIN_PASSES = 2
DEADLINE_S = 165  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, tmpdir: str, deadline: float, spans: str | None = None) -> dict:
    """One pass in a fresh interpreter; returns the worker's result plus setup_s."""
    result_path = os.path.join(tmpdir, "result.json")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), tmpdir, result_path]
    if spans:
        cmd.append(spans)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    spawned = time()
    try:
        proc = subprocess.run(cmd, cwd=tmpdir, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["setup_s"] = result["setup_done"] - spawned
    return result


def check_passes(workload: str, seed: int, passes: list[dict]) -> bool:
    """Print the correctness tally; every pass must agree on the exact digest."""
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    digests = {r["digest"] for r in passes}
    print(f"  {'fail_ratio':<40} {failed / attempted if attempted else 1.0:<14.6g} 1  ({failed} of {attempted} comparisons failed)")
    for line in sorted({f for r in passes for f in r["failures"]}):
        print(f"  FAILED {line}")
    print(f"  {'exact digest':<40} {' '.join(sorted(digests))}  ({workload}, seed {seed})")
    if len(digests) != 1:
        print("  exact outputs differ between passes of the same inputs")
    return attempted > 0 and failed == 0 and len(digests) == 1


def measure(workload: str, seed: int, seconds: int, tmpdir: str, deadline: float) -> tuple[dict, list[dict]]:
    """Untraced cold passes for about `seconds`, at least MIN_PASSES."""
    passes: list[dict] = []
    t0 = perf_counter()
    while True:
        passes.append(run_worker(workload, seed, tmpdir, deadline))
        now = perf_counter()
        per_pass = (now - t0) / len(passes)
        if now + per_pass > deadline:
            if len(passes) < MIN_PASSES:
                raise BenchError(f"{workload}: passes of {per_pass:.0f} s leave no time for {MIN_PASSES} of them")
            break
        if len(passes) >= MIN_PASSES and now - t0 + per_pass > seconds:
            break
    metrics = {
        "wall_s": (min(r["wall_s"] for r in passes), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in passes), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in passes)
    print(f"{workload}, seed {seed}: {len(passes)} cold passes in {perf_counter() - t0:.1f} s (pass times: {walls})")
    return metrics, passes


def measure_traced(workload: str, seed: int, tmpdir: str, deadline: float) -> tuple[dict, list[dict]]:
    """One untraced and one traced pass; the per-layer table of the traced one."""
    plain = run_worker(workload, seed, tmpdir, deadline)
    spans = os.path.join(tmpdir, "spans.bin")
    traced = run_worker(workload, seed, tmpdir, deadline, spans)
    derived = tracer.derive(spans)
    os.remove(spans)
    derived.update(traced["layers"])
    derived["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {}
    for name in tracer.metric_names():
        metrics[name] = (derived.get(name, 0), "count" if name.endswith(".calls") else "s")
    print(
        f"{workload}, seed {seed}: traced pass {traced['wall_s']:.3f} s, untraced pass {plain['wall_s']:.3f} s"
    )
    return metrics, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "asaikit" / "__init__.py").is_file():
        print(f"error: no asaikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="asaikit-bench-", dir=build)
    correct, attempted, failed, out = True, 0, 0, {}
    try:
        for name in names:
            if args.trace:
                metrics, passes = measure_traced(name, args.seed, tmpdir, deadline)
            else:
                metrics, passes = measure(name, args.seed, args.seconds, tmpdir, deadline)
            for metric, (value, unit) in metrics.items():
                print(f"  {metric:<40} {value:<14.6g} {unit}")
            correct &= check_passes(name, args.seed, passes)
            attempted += sum(r["attempted"] for r in passes)
            failed += sum(r["failed"] for r in passes)
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, (value, unit) in metrics.items():
                out[prefix + metric] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            build.rmdir()
        except OSError:
            pass  # not empty: something else keeps files there
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
