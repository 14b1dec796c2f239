"""Tracing for the benchmark's traced run, from outside the program.

Run as ``python -m perfbench.tracer --summary S --spans P {cli|latency} ARGS``.
It replaces the public functions of each negcamp module at the names through
which callers look them up, runs one command in-process, and writes what it
recorded. The program's source is not changed.

Layer calls (ingest, batch, output, reliability, study, runio) become spans
with name, start, end and parent, kept in memory and written out when the
command ends. Per-document calls (render, prompt digest, cache get and put,
transport call, label parse) are only counted: per name a call count, total
and maximum time, and how many raised, so tracing a large corpus does not
distort memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import negcamp.annotate as annotate_mod
import negcamp.cli as cli_mod
import negcamp.codebook as codebook_mod
import negcamp.ingest as ingest_mod
import negcamp.reliability as reliability_mod
import negcamp.runio as runio_mod

from perfbench import latency

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.system_texts: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_stats: list[dict[str, list[float]]] = []
        # Union of the intervals in which any thread is inside a counted
        # call, and the number of transport calls in flight.
        self._active = 0
        self._active_since = 0.0
        self.covered_s = 0.0
        self._inflight = 0
        self.inflight_max = 0

    def span(self, name: str, fn, after=None, rss: bool = False):
        """Wrap a layer call: one span per call; ``after(result, args)`` may
        add counters; ``rss`` adds the call's RSS growth to ``name.rss_mb``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            index = len(self.spans)
            self.spans.append({"name": name, "parent": parent})
            stack.append(index)
            rss_before = rss_mb() if rss else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[index].update(start=start, end=end)
            if rss:
                self.counters[name + ".rss_mb"] += rss_mb() - rss_before
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name: str, fn, on_result=None, transport: bool = False):
        """Wrap a per-document call: count, total and maximum time, calls that
        raised, and calls for which ``on_result(result)`` is true."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = self._stats().get(name)
            if stats is None:
                stats = self._stats()[name] = [0, 0.0, 0.0, 0, 0]
            self._enter(transport)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self._leave(transport)
                stats[0] += 1
                stats[1] += elapsed
                stats[2] = max(stats[2], elapsed)
            if on_result is not None and on_result(result):
                stats[4] += 1
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stats(self) -> dict[str, list[float]]:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = {}
            with self._lock:
                self._thread_stats.append(stats)
        return stats

    def _enter(self, transport: bool) -> None:
        with self._lock:
            if self._active == 0:
                self._active_since = perf_counter()
            self._active += 1
            if transport:
                self._inflight += 1
                self.inflight_max = max(self.inflight_max, self._inflight)

    def _leave(self, transport: bool) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0:
                self.covered_s += perf_counter() - self._active_since
            if transport:
                self._inflight -= 1

    def summary(self) -> dict[str, object]:
        """Raw totals: per span name [calls, seconds]; per counted name
        [calls, seconds, max seconds, raised, positive]; counters."""
        spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            spans[span["name"]][0] += 1
            spans[span["name"]][1] += span["end"] - span["start"]
        counted: dict[str, list[float]] = {}
        for stats in self._thread_stats:
            for name, (n, total, peak, raised, positive) in stats.items():
                merged = counted.setdefault(name, [0, 0.0, 0.0, 0, 0])
                merged[0] += n
                merged[1] += total
                merged[2] = max(merged[2], peak)
                merged[3] += raised
                merged[4] += positive
        counters = dict(self.counters)
        counters["covered_s"] = self.covered_s
        counters["inflight_max"] = self.inflight_max
        counters["system_texts"] = len(self.system_texts)
        return {"spans": dict(spans), "counted": counted, "counters": counters}


def _patch(bindings, wrapper) -> None:
    for module, name in bindings:
        setattr(module, name, wrapper)


def install(tracer: Tracer, transport_cls: type) -> None:
    """Wrap every traced function at each name it is looked up through."""
    t, c = tracer, tracer.counters
    A, Cli, R = annotate_mod, cli_mod, reliability_mod

    def ingested(result, args):
        c["ingest.docs"] += len(result.corpus)
        c["ingest.rejections"] += len(result.rejections)

    def batched(result, args):
        c["annotate.batch.docs"] += len(args[0])
        c["annotate.batch.cache_hits"] += result.cache_hits
        c["annotate.batch.failures_transport"] += sum(f.kind == "transport" for f in result.failures)
        c["annotate.batch.failures_label"] += sum(f.kind == "label" for f in result.failures)

    def loaded(result, args):
        c["annotate.cache.entries_loaded"] += len(args[0])

    def written(result, args):
        c["runio.bytes_written"] += len(args[1].encode("utf-8"))

    def aggregated(result, args):
        c["study.parties_kept"] += len(result)

    def rendered(result):
        t.system_texts.add(hash(result.system_text))
        return False

    _patch([(Cli, "ingest_documents"), (ingest_mod, "ingest_documents")],
           t.span("ingest.documents", ingest_mod.ingest_documents, ingested, rss=True))
    _patch([(Cli, "ingest_gold")], t.span("ingest.gold", ingest_mod.ingest_gold))
    _patch([(A, "render")], t.counted("codebook.render", codebook_mod.render, rendered))
    _patch([(codebook_mod, "prompt_digest")], t.counted("codebook.digest", codebook_mod.prompt_digest))
    _patch([(A.AnnotationCache, "_load")], t.span("annotate.cache.load", A.AnnotationCache._load, loaded))
    _patch([(A.AnnotationCache, "get")], t.counted("annotate.cache.get", A.AnnotationCache.get, lambda r: r is not None))
    _patch([(A.AnnotationCache, "put")], t.counted("annotate.cache.put", A.AnnotationCache.put))
    _patch([(transport_cls, "complete")], t.counted("annotate.transport", transport_cls.complete, transport=True))
    _patch([(A, "parse_label")], t.counted("annotate.parse", A.parse_label))
    _patch([(Cli, "annotate_batch"), (A, "annotate_batch")],
           t.span("annotate.batch", A.annotate_batch, batched, rss=True))
    _patch([(Cli, "write_annotations"), (A, "write_annotations")], t.span("annotate.write", A.write_annotations))
    _patch([(Cli, "read_annotations")], t.span("annotate.read", A.read_annotations))
    _patch([(Cli, "grouped_report")], t.span("reliability.grouped_report", R.grouped_report))
    _patch([(R, "compare")], t.span("reliability.compare", R.compare))
    _patch([(R.RatingTable, "__init__")], t.span("reliability.rating_table", R.RatingTable.__init__))
    _patch([(Cli, "krippendorff_alpha_nominal"), (R, "krippendorff_alpha_nominal")],
           t.span("reliability.alpha", R.krippendorff_alpha_nominal))
    _patch([(Cli, "brennan_prediger"), (R, "brennan_prediger")], t.span("reliability.bp", R.brennan_prediger))
    _patch([(Cli, "aggregate_parties")], t.span("study.aggregate_parties", Cli.aggregate_parties, aggregated))
    for name in ("country_negativity", "build_design", "fit_model", "marginal_means_family"):
        _patch([(Cli, name)], t.span("study." + name, getattr(Cli, name)))
    _patch([(Cli, "write_text"), (runio_mod, "write_text")], t.span("runio.write", runio_mod.write_text, written))
    _patch([(Cli, "sha256_file")], t.span("runio.sha256", runio_mod.sha256_file))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("target", choices=("cli", "latency"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = Tracer()
    if opts.target == "cli":
        install(tracer, annotate_mod.MockTransport)
        command = tracer.span("cli." + opts.args[0], cli_mod.main)
    else:
        install(tracer, latency.LatencyTransport)
        command = tracer.span("cli.latency_driver", latency.main)
    code = command(opts.args)
    with opts.spans.open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span, sort_keys=True) + "\n" for span in tracer.spans)
    opts.summary.write_text(json.dumps(tracer.summary(), sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
