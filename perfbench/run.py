"""Offline end-to-end and per-layer benchmark for negcamp's annotate, evaluate
and study commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs ``src/negcamp`` and
nothing installed. It generates seeded inputs, runs the workload's commands
again and again for ``S`` seconds, each command in a child process of its
own, checks every output against what the generator planted, and prints one
JSON object as its last line. With ``--trace 0`` that object holds the
end-to-end metrics (medians over the repetitions; docs_per_s and setup_s
count CPU seconds at a reference speed, see REF_NOMINAL_S, and the lines
before it give the times as measured); with ``--trace 1`` it alternates
untraced repetitions and repetitions under the tracer and holds the
per-layer metrics. A wrong output makes ``correct`` false and the exit
status 1.

Sizes. One repetition takes a few seconds, so that a run holds several and
the whole check (4 + 22 runs per workload, four workloads) ends within an
hour on two vCPUs: 10k documents for annotate-cold and annotate-resume, 3k
at 5 ms per call for annotate-latency, and for analyze 50k, the smallest
corpus that keeps all 57 large parties above ``--min-tweets 500``. A
1M-document corpus is left out of the per-check runs: one cold annotate
repetition would take about 5 minutes and over 3 GB of memory here (about
3.3 KB per document), past the 180 s a run may take. ``gen.generate`` makes
it for manual runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import gen, layers, verify  # noqa: E402

CONCURRENCY = 8
LATENCY_S = 0.005  # per transport call, annotate-latency only
# setup_s is the median of at least MIN_SETUPS set-ups, repeated until they
# (with their reference loops) took SETUP_SECONDS in all.
MIN_SETUPS = 4
SETUP_SECONDS = 4.0
MIN_REPS = 3
DEADLINE_S = 170.0  # a run must end well inside 180 s
# The traced run alternates this many untraced and traced repetitions.
TRACE_PAIRS = 3
# CPU seconds are reported at the speed of a reference host. This shared
# 2-vCPU host runs the same CPU-bound work up to twice as slow, for seconds
# to minutes at a time; a fixed interpreter-bound loop measured on the
# benchmark's CPU just before and after each repetition slows in step, so
# each child's CPU time is scaled by REF_NOMINAL_S / (the loop's mean time).
# Time off the CPU (sleeps) is kept as measured. REF_NOMINAL_S is the loop's
# time on an uncontended CPU here.
REF_ITERATIONS = 30_000
REF_NOMINAL_S = 0.2


@dataclass(frozen=True)
class Workload:
    n_docs: int
    gold_docs: int = 0
    resume_share: float = 0.0
    # The children run on every CPU instead of the benchmark's one, so that
    # contention between the program's workers across CPUs shows.
    all_cpus: bool = False


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "annotate-cold": Workload(10_000),
    "annotate-resume": Workload(10_000, resume_share=0.8),
    "annotate-latency": Workload(3_000, all_cpus=True),
    "analyze": Workload(50_000, gold_docs=5_000),
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def reference_s() -> float:
    """Time of a fixed loop doing what the program does per document:
    JSON encode and decode, a blake2b digest, a dict insert."""
    start = time.perf_counter()
    seen = {}
    for i in range(REF_ITERATIONS):
        line = json.dumps({"id": f"d{i:07d}", "text": "word " * 20, "n": i}, sort_keys=True)
        seen[hashlib.blake2b(line.encode(), digest_size=8).hexdigest()] = json.loads(line)
    return time.perf_counter() - start


def at_reference_speed(wall_s: float, cpu_s: float, ref_s: float) -> float:
    """Wall time with its CPU part converted to reference-host seconds."""
    return max(0.0, wall_s - cpu_s) + cpu_s * REF_NOMINAL_S / ref_s


@dataclass
class Rep:
    out: Path
    children: list[Child]
    problems: list[str]
    digests: dict[str, str]
    failed_share: float
    ref_s: float

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def ref_wall_s(self) -> float:
        return sum(at_reference_speed(c.wall_s, c.cpu_s, self.ref_s) for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float, cpus: set[int]):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.prefill = work / "prefill"
        self.deadline = deadline
        self.truth: gen.Truth | None = None
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
        self._runs = 0
        self.cpus = cpus  # every CPU the benchmark was allowed to use
        self.ref_s: float | None = None  # the latest reference-loop time

    # -- child processes -------------------------------------------------

    def run_child(self, args: list[str]) -> Child:
        """Run ``python ARGS`` to completion; its wall time runs from spawn to
        exit and its peak RSS is its own ``ru_maxrss``."""
        self._runs += 1
        log = self.work / "logs" / f"{self._runs}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        timeout = int(self.deadline - time.monotonic())
        if timeout < 1:
            raise BenchError("out of time before starting a command")
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                preexec_fn=(lambda: os.sched_setaffinity(0, self.cpus)) if self.spec.all_cpus else None,
            )
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise BenchError(f"command timed out after {timeout} s: {args}") from None
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = log.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            raise BenchError(f"command exited {proc.returncode}: {' '.join(args)}\n{output[-2000:]}")
        cpu = usage.ru_utime + usage.ru_stime
        return Child(wall_s=wall, cpu_s=cpu, rss_mb=usage.ru_maxrss / 1024, stdout=output)

    def commands(self, out: Path) -> list[list[str]]:
        i = self.inputs
        corpus, mock = str(i / "corpus.jsonl"), str(i / "mock.jsonl")
        if self.name == "annotate-latency":
            return [["-m", "perfbench.latency", "--corpus", corpus, "--mock", mock, "--out", str(out),
                     "--delay-s", str(LATENCY_S), "--concurrency", str(CONCURRENCY)]]
        if self.name == "analyze":
            ann = str(i / "annotations.jsonl")
            return [
                ["-m", "negcamp.cli", "evaluate", "--corpus", corpus, "--gold", str(i / "gold.csv"), "--annotations", ann,
                 "--out", str(out)],
                ["-m", "negcamp.cli", "study", "--corpus", corpus, "--annotations", ann, "--party-meta",
                 str(i / "parties.csv"), "--model-variant", "family", "--out", str(out)],
            ]
        return [annotate_command(corpus, mock, out)]

    # -- set-up, repetitions and checks ----------------------------------

    def setup(self) -> tuple[float, float]:
        """Generate the inputs (and for annotate-resume pre-fill the cache
        from an annotate run over the 80% subset); return the wall and CPU
        time taken."""
        for path in (self.inputs, self.prefill):
            shutil.rmtree(path, ignore_errors=True)
        start, cpu_start = time.perf_counter(), time.process_time()
        self.truth = gen.generate(
            self.inputs, self.spec.n_docs, self.seed, gold_docs=self.spec.gold_docs, resume_share=self.spec.resume_share
        )
        cpu = time.process_time() - cpu_start
        if self.spec.resume_share:
            cpu += self.run_child(annotate_command(str(self.inputs / "resume_corpus.jsonl"),
                                                   str(self.inputs / "mock.jsonl"), self.prefill)).cpu_s
        return time.perf_counter() - start, cpu

    def rep(self, index: int, wrap=None) -> Rep:
        """One repetition of the workload's commands into a fresh output
        directory, checked against the planted truth."""
        out = self.work / f"rep{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if self.spec.resume_share:
            shutil.copyfile(self.prefill / "cache.jsonl", out / "cache.jsonl")
        commands = self.commands(out)
        children = [self.run_child(wrap(c) if wrap else c) for c in commands]
        truth = self.truth
        if self.name == "analyze":
            problems = verify.check_evaluate(out, truth) + verify.check_study(out, truth)
            study = json.loads((out / "manifest_study.json").read_text(encoding="utf-8"))["outputs"]
            failed_share = study["n_unlabeled_documents"] / truth.n_docs
            names = None
        else:
            problems = verify.check_annotate(out, truth)
            failed_share = len(verify.read_jsonl(out / "failures.jsonl")) / truth.n_docs
            names = ("annotations.jsonl", "failures.jsonl")
            if self.name != "annotate-latency":
                names += ("manifest_annotate.json", "rejections.jsonl")
        before = self.ref_s if self.ref_s is not None else reference_s()
        self.ref_s = reference_s()
        return Rep(out, children, problems, verify.digests(out, names), failed_share, (before + self.ref_s) / 2)

    def repeat(self, seconds: float) -> list[Rep]:
        reps: list[Rep] = []
        start = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            if reps and time.monotonic() + reps[-1].wall_s * 1.5 > self.deadline:
                break
            rep = self.rep(len(reps))
            shutil.rmtree(rep.out)
            reps.append(rep)
        return reps


def annotate_command(corpus: str, mock: str, out: Path) -> list[str]:
    return ["-m", "negcamp.cli", "annotate", "--corpus", corpus, "--mock", mock, "--concurrency", str(CONCURRENCY),
            "--out", str(out)]


def check_all(reps: list[Rep]) -> list[list[str]]:
    """Per repetition, its failed checks, and whether its outputs differ
    from the first repetition's; print every problem."""
    first = reps[0].digests
    found = []
    for i, r in enumerate(reps):
        problems = list(r.problems)
        changed = sorted(k for k in first.keys() | r.digests.keys() if first.get(k) != r.digests.get(k))
        if changed:
            problems.append(f"outputs not byte-identical to repetition 0: {changed}")
        for p in problems:
            print(f"CHECK FAILED, repetition {i}: {p}")
        found.append(problems)
    return found


def result(found: list[list[str]], metrics: dict[str, object]) -> dict[str, object]:
    failed = sum(1 for problems in found if problems)
    return {"correct": failed == 0, "attempted": len(found), "failed": failed, "metrics": metrics}


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def setups(bench: Bench) -> tuple[list[float], list[float]]:
    """Set up again and again; per set-up its wall time as measured and at
    reference speed, by the reference loops just before and after it."""
    walls: list[float] = []
    at_ref: list[float] = []
    start = time.monotonic()
    bench.ref_s = reference_s()
    while len(walls) < MIN_SETUPS or time.monotonic() - start < SETUP_SECONDS:
        before = bench.ref_s
        wall, cpu = bench.setup()
        bench.ref_s = reference_s()
        walls.append(wall)
        at_ref.append(at_reference_speed(wall, cpu, (before + bench.ref_s) / 2))
    return walls, at_ref


def end_to_end(bench: Bench, seconds: float) -> dict[str, object]:
    setup_walls, setup_s = setups(bench)
    reps = bench.repeat(seconds)
    median = statistics.median
    n = bench.truth.n_docs
    for i, r in enumerate(reps):
        walls = " + ".join(f"{c.wall_s:.3f}" for c in r.children)
        print(f"rep {i}: wall {walls} s, {n / r.wall_s:.1f} docs/s as measured, {n / r.ref_wall_s:.1f} at reference "
              f"speed (reference loop {r.ref_s:.3f} s), peak RSS {r.rss_mb:.1f} MiB")
    if bench.name == "analyze":
        print(f"evaluate_s median {median(r.children[0].wall_s for r in reps):.3f} s, "
              f"study_s median {median(r.children[1].wall_s for r in reps):.3f} s (as measured)")
    print(f"setup: {len(setup_walls)} set-ups, median {median(setup_walls):.3f} s as measured, "
          f"{median(setup_s):.3f} s at reference speed")
    metrics = {
        "docs_per_s": metric(median(n / r.ref_wall_s for r in reps), "docs/s"),
        "peak_rss_mb": metric(median(r.rss_mb for r in reps), "MiB"),
        "docs_failed_share": metric(median(r.failed_share for r in reps), "ratio"),
        "setup_s": metric(median(setup_s), "s"),
    }
    return result(check_all(reps), metrics)


def traced(bench: Bench) -> dict[str, object]:
    """Alternate untraced and traced repetitions; each per-layer metric is
    its median over the traced ones. The tracing overhead is the median
    traced minus the median untraced time, both at reference speed."""
    bench.setup()
    imports = [float(bench.run_child(["-c", layers.IMPORT_PROBE]).stdout.split()[-1]) for _ in range(3)]
    bench.ref_s = reference_s()
    untraced: list[Rep] = []
    traced_reps: list[Rep] = []
    runs: list[tuple[dict, list[Path], int]] = []
    for pair in range(TRACE_PAIRS):
        untraced.append(bench.rep(2 * pair))
        summaries: list[Path] = []
        spans: list[Path] = []

        def wrap(args: list[str]) -> list[str]:
            summaries.append(bench.work / f"summary{pair}-{len(summaries)}.json")
            spans.append(bench.work / f"spans{pair}-{len(spans)}.jsonl")
            target = "cli" if args[1] == "negcamp.cli" else "latency"
            return ["-m", "perfbench.tracer", "--summary", str(summaries[-1]), "--spans", str(spans[-1]), target,
                    *args[2:]]

        rep = bench.rep(2 * pair + 1, wrap=wrap)
        traced_reps.append(rep)
        cache = rep.out / "cache.jsonl"
        raw = layers.merge([json.loads(p.read_text(encoding="utf-8")) for p in summaries])
        runs.append((raw, spans, cache.stat().st_size if cache.is_file() else 0))
    found = check_all(untraced + traced_reps)
    for kind, reps in (("untraced", untraced), ("traced", traced_reps)):
        for r in reps:
            walls = " + ".join(f"{c.wall_s:.3f} (CPU {c.cpu_s:.3f})" for c in r.children)
            print(f"{kind}: wall {walls} s, {r.ref_wall_s:.3f} s at reference speed (reference loop {r.ref_s:.3f} s)")
    median = statistics.median
    overhead_s = median(r.ref_wall_s for r in traced_reps) - median(r.ref_wall_s for r in untraced)
    per_rep = [
        layers.derive(
            raw,
            import_s=median(imports),
            cache_file_bytes=file_bytes,
            overhead_s=overhead_s,
            ideal_docs_per_s=CONCURRENCY / LATENCY_S if bench.name == "annotate-latency" else 0.0,
        )
        for raw, _, file_bytes in runs
    ]
    values = {name: median(v[name] for v in per_rep) for name, _, _ in layers.METRICS}
    print(layers.report(bench.name, values, runs[0][1]))
    return result(found, {name: metric(values[name], unit) for name, unit, _ in layers.METRICS})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "negcamp" / "cli.py").is_file():
        print(f"no negcamp source under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise TimeoutError

    signal.signal(signal.SIGALRM, on_alarm)
    # The benchmark and the program's children share one CPU, except on a
    # workload with ``all_cpus``. The program is bound by the interpreter
    # lock; left free on two CPUs, its 8 workers fall at random into one of
    # two scheduling regimes about 50% apart in speed (~60k voluntary context
    # switches per 10k documents against ~3k). On one CPU every run takes
    # the fast one, and the reference loop runs where the program ran.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work, time.monotonic() + DEADLINE_S, cpus)
    try:
        outcome = traced(bench) if args.trace else end_to_end(bench, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
