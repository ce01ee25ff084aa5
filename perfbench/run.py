"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload certify-xyz --seed 1 --seconds 15 --trace 0

The run sets the workload up SETUP_REPEATS times, then runs whole passes
over its inputs until --seconds have passed (at least one pass), then
checks every operation's output against references computed here. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with --trace 0 and per-layer ones with
--trace 1. The same object, with the spans of a traced run, is written to
perfbench/out/.

End-to-end metrics:
  setup_s      median over the set-ups of: a fresh interpreter importing
               heisopt, plus building the workload's inputs in this process
  wall_s       median time of one pass
  peak_rss_mb  peak resident memory of this process after the passes
  approx_ratio median over passes of the ratio the workload certifies
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import heisopt"], env=env, check=True)
    return time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    tracer = spans.Tracer() if trace else None
    if tracer:
        spans.install(tracer)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(t_import + time.perf_counter() - t0)

    if tracer:
        tracer.phase = "pass"
    passes, pass_times = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        results = []
        for op in wl.ops():
            try:
                results.append(op())
            except Exception:
                traceback.print_exc()
                results.append(None)
        pass_times.append(time.perf_counter() - t0)
        passes.append(results)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    ref = wl.reference()
    attempted = failed = 0
    correct = True
    for results in passes:
        for k, result in enumerate(results):
            attempted += 1
            if result is None:
                failed += 1
                continue
            bad = wl.check(ref, k, result)
            if bad:
                failed += 1
                correct = False
                for msg in bad:
                    print(f"check failed: {workload} op {k}: {msg}", file=sys.stderr)

    whole = [r for r in passes if all(x is not None for x in r)]
    ratio = statistics.median(wl.ratio(r) for r in whole) if whole else 0.0
    if tracer:
        values = spans.layer_metrics(tracer, SETUP_REPEATS, len(passes))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "approx_ratio": {"value": ratio, "unit": "1"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, passes=len(passes),
                  pass_s=pass_times, setup_s=setup_times)
    if tracer:
        record["trace"] = tracer.dump()
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["certify-xyz", "round-xy", "exact-mixed", "constants"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "heisopt" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'heisopt'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
