"""Run the benchmark on several seeds and summarise how steady it is.

    python3 perfbench/record.py --seeds 10 --seconds 20 [--workloads a,b] [--trace] [--write FILE]

For each workload it runs ``run.py`` once per seed (1..N), one after the
other, and prints for every end-to-end metric the median, the quartiles and
the spread: the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.
A spread of a third of the bound or more is marked WIDE. ``--trace`` adds
one traced run per workload (seed 1); a negative tracing overhead is
recorded as null, because it is below the run-to-run noise. ``--write``
saves everything, with the machine and library versions, as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import run as runner  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = time.monotonic() - start
    return result


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict[str, object]:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record: dict[str, object] = {
        "machine": machine(),
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "bounds": bounds,
        "settings": {"concurrency": runner.CONCURRENCY, "latency_s": runner.LATENCY_S, "min_setups": runner.MIN_SETUPS,
                     "setup_seconds": runner.SETUP_SECONDS,
                     "ref_iterations": runner.REF_ITERATIONS, "ref_nominal_s": runner.REF_NOMINAL_S,
                     "min_reps": runner.MIN_REPS, "trace_pairs": runner.TRACE_PAIRS},
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        summary = {}
        times = ", ".join(f"{r['run_s']:.0f}" for r in results)
        print(f"{workload}: run time {times} s, attempted {[r['attempted'] for r in results]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            summary[name] = {**s, "values": values}
            verdict = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:<18} median {s['median']:<12.6g} spread {s['spread']:.4f} (bound {bound}) {verdict}")
        entry: dict[str, object] = {"parameters": dataclasses.asdict(runner.WORKLOADS[workload]), "end_to_end": summary}
        if args.trace:
            traced = run(workload, 1, args.seconds, 1)
            per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
            if per_layer["trace.overhead_s"] < 0:
                per_layer["trace.overhead_s"] = None
            entry["per_layer_seed1"] = per_layer
        record["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
