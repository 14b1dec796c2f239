"""Per-layer metrics from the traced run: their names and units, how each is
derived from the tracer's raw totals, and which end-to-end metric each layer
should move on which workload.

Layers are negcamp's modules. Times are totals over the traced run (summed
over its commands); ``*_us`` are means per call. A layer that does not run
on a workload reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path

IMPORT_PROBE = "import time; t = time.perf_counter(); import negcamp.cli; print(time.perf_counter() - t)"

# (name, unit, better)
METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("cli.study_s", "s", "lower"),
    ("ingest.documents_s", "s", "lower"),
    ("ingest.docs", "count", "higher"),
    ("ingest.rejections", "count", "lower"),
    ("ingest.gold_s", "s", "lower"),
    ("ingest.rss_mb", "MiB", "lower"),
    ("codebook.render_calls", "count", "lower"),
    ("codebook.render_us", "us", "lower"),
    ("codebook.digest_us", "us", "lower"),
    ("codebook.system_text_distinct_ratio", "ratio", "higher"),
    ("annotate.cache.load_s", "s", "lower"),
    ("annotate.cache.entries_loaded", "count", "higher"),
    ("annotate.cache.get_calls", "count", "lower"),
    ("annotate.cache.get_us", "us", "lower"),
    ("annotate.cache.hit_ratio", "ratio", "higher"),
    ("annotate.cache.put_calls", "count", "lower"),
    ("annotate.cache.put_us", "us", "lower"),
    ("annotate.cache.file_bytes", "B", "lower"),
    ("annotate.transport.calls", "count", "lower"),
    ("annotate.transport.calls_per_doc", "ratio", "lower"),
    ("annotate.transport.busy_s", "s", "lower"),
    ("annotate.transport.inflight_mean", "count", "higher"),
    ("annotate.transport.inflight_max", "count", "higher"),
    ("annotate.parse.calls", "count", "lower"),
    ("annotate.parse.malformed", "count", "lower"),
    ("annotate.batch.failures_transport", "count", "lower"),
    ("annotate.batch.failures_label", "count", "lower"),
    ("annotate.batch_s", "s", "lower"),
    ("annotate.batch.self_s", "s", "lower"),
    ("annotate.batch.efficiency", "ratio", "higher"),
    ("annotate.batch.cache_hits", "count", "higher"),
    ("annotate.batch.rss_mb", "MiB", "lower"),
    ("annotate.write_s", "s", "lower"),
    ("annotate.read_s", "s", "lower"),
    ("reliability.grouped_report_s", "s", "lower"),
    ("reliability.compare_calls", "count", "lower"),
    ("reliability.compare_s", "s", "lower"),
    ("reliability.rating_table_s", "s", "lower"),
    ("reliability.alpha_s", "s", "lower"),
    ("reliability.bp_s", "s", "lower"),
    ("study.aggregate_s", "s", "lower"),
    ("study.parties_kept", "count", "higher"),
    ("study.country_negativity_s", "s", "lower"),
    ("study.design_s", "s", "lower"),
    ("study.fit_s", "s", "lower"),
    ("study.marginal_means_s", "s", "lower"),
    ("runio.write_s", "s", "lower"),
    ("runio.bytes_written", "B", "lower"),
    ("runio.sha256_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# (layer, end-to-end metric it should move, workloads where it does most work)
LAYER_MAP = (
    ("cli (import)", "every wall metric; the largest share of analyze docs_per_s", "analyze"),
    ("ingest", "docs_per_s, peak_rss_mb", "analyze; a small share of annotate-cold and annotate-resume"),
    ("codebook", "docs_per_s", "annotate-cold, annotate-resume (rendering happens even on a cache hit)"),
    ("annotate cache", "docs_per_s, peak_rss_mb", "load and get: annotate-resume; put: annotate-cold"),
    ("annotate transport", "docs_per_s", "annotate-latency; annotate-cold for per-call CPU"),
    ("annotate parse, retry", "docs_per_s, docs_failed_share", "all annotate workloads (planted counts)"),
    ("annotate batch, output", "docs_per_s, peak_rss_mb",
     "efficiency: annotate-latency; RSS: annotate-cold; read_s: analyze"),
    ("reliability", "analyze docs_per_s (evaluate)", "analyze only"),
    ("study", "analyze docs_per_s (study)", "analyze only"),
    ("runio", "every wall metric, a small share", "all"),
)


def merge(summaries: list[dict]) -> dict:
    """Add up the raw totals of several traced commands."""
    spans: dict[str, list[float]] = {}
    counted: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for s in summaries:
        for name, (n, total) in s["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += n
            acc[1] += total
        for name, values in s["counted"].items():
            acc = counted.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(values):
                acc[i] = max(acc[i], v) if i == 2 else acc[i] + v
        for name, v in s["counters"].items():
            counters[name] = max(counters.get(name, 0), v) if name == "inflight_max" else counters.get(name, 0) + v
    return {"spans": spans, "counted": counted, "counters": counters}


def derive(raw: dict, import_s: float, cache_file_bytes: int, overhead_s: float, ideal_docs_per_s: float) -> dict:
    """Every metric in METRICS from the merged raw totals."""
    spans, counted, ctr = raw["spans"], raw["counted"], raw["counters"]

    def span_s(name):
        return spans.get(name, [0, 0.0])[1]

    def calls(name):
        return counted.get(name, [0, 0.0, 0.0, 0, 0])

    def mean_us(name):
        n, total = calls(name)[:2]
        return 1e6 * total / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    docs = ctr.get("annotate.batch.docs", 0)
    batch_s = span_s("annotate.batch")
    transport = calls("annotate.transport")
    gets = calls("annotate.cache.get")
    return {
        "cli.import_s": import_s,
        "cli.evaluate_s": span_s("cli.evaluate"),
        "cli.study_s": span_s("cli.study"),
        "ingest.documents_s": span_s("ingest.documents"),
        "ingest.docs": ctr.get("ingest.docs", 0),
        "ingest.rejections": ctr.get("ingest.rejections", 0),
        "ingest.gold_s": span_s("ingest.gold"),
        "ingest.rss_mb": ctr.get("ingest.documents.rss_mb", 0.0),
        "codebook.render_calls": calls("codebook.render")[0],
        "codebook.render_us": mean_us("codebook.render"),
        "codebook.digest_us": mean_us("codebook.digest"),
        "codebook.system_text_distinct_ratio": ratio(ctr.get("system_texts", 0), calls("codebook.render")[0]),
        "annotate.cache.load_s": span_s("annotate.cache.load"),
        "annotate.cache.entries_loaded": ctr.get("annotate.cache.entries_loaded", 0),
        "annotate.cache.get_calls": gets[0],
        "annotate.cache.get_us": mean_us("annotate.cache.get"),
        "annotate.cache.hit_ratio": ratio(gets[4], gets[0]),
        "annotate.cache.put_calls": calls("annotate.cache.put")[0],
        "annotate.cache.put_us": mean_us("annotate.cache.put"),
        "annotate.cache.file_bytes": cache_file_bytes,
        "annotate.transport.calls": transport[0],
        "annotate.transport.calls_per_doc": ratio(transport[0], docs),
        "annotate.transport.busy_s": transport[1],
        "annotate.transport.inflight_mean": ratio(transport[1], batch_s),
        "annotate.transport.inflight_max": ctr.get("inflight_max", 0),
        "annotate.parse.calls": calls("annotate.parse")[0],
        "annotate.parse.malformed": calls("annotate.parse")[3],
        "annotate.batch.failures_transport": ctr.get("annotate.batch.failures_transport", 0),
        "annotate.batch.failures_label": ctr.get("annotate.batch.failures_label", 0),
        "annotate.batch_s": batch_s,
        "annotate.batch.self_s": batch_s - ctr.get("covered_s", 0.0) if batch_s else 0.0,
        "annotate.batch.efficiency": ratio(ratio(docs, batch_s), ideal_docs_per_s),
        "annotate.batch.cache_hits": ctr.get("annotate.batch.cache_hits", 0),
        "annotate.batch.rss_mb": ctr.get("annotate.batch.rss_mb", 0.0),
        "annotate.write_s": span_s("annotate.write"),
        "annotate.read_s": span_s("annotate.read"),
        "reliability.grouped_report_s": span_s("reliability.grouped_report"),
        "reliability.compare_calls": spans.get("reliability.compare", [0])[0],
        "reliability.compare_s": span_s("reliability.compare"),
        "reliability.rating_table_s": span_s("reliability.rating_table"),
        "reliability.alpha_s": span_s("reliability.alpha"),
        "reliability.bp_s": span_s("reliability.bp"),
        "study.aggregate_s": span_s("study.aggregate_parties"),
        "study.parties_kept": ctr.get("study.parties_kept", 0),
        "study.country_negativity_s": span_s("study.country_negativity"),
        "study.design_s": span_s("study.build_design"),
        "study.fit_s": span_s("study.fit_model"),
        "study.marginal_means_s": span_s("study.marginal_means_family"),
        "runio.write_s": span_s("runio.write"),
        "runio.bytes_written": ctr.get("runio.bytes_written", 0),
        "runio.sha256_s": span_s("runio.sha256"),
        "trace.overhead_s": overhead_s,
    }


def self_times(span_files: list[Path]) -> dict[str, float]:
    """Per span name, total duration minus the time its child spans cover.
    Spans of one file come from one process and one thread, so children of
    a span never overlap each other."""
    totals: dict[str, float] = {}
    for path in span_files:
        spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        own = [s["end"] - s["start"] for s in spans]
        for s in spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        for s, t in zip(spans, own):
            totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def report(workload: str, values: dict, span_files: list[Path]) -> str:
    """The human-readable per-layer report printed before the JSON line."""
    lines = [f"per-layer metrics, workload {workload} (traced run; 0 where the layer does not run)"]
    lines += [f"  {name:<40} {values[name]:>14.6g} {unit}" for name, unit, _ in METRICS]
    if values["trace.overhead_s"] < 0:
        lines.append("  trace.overhead_s is unresolved: below zero, so smaller than the run-to-run noise")
    lines.append("self time by span (s):")
    for name, t in sorted(self_times(span_files).items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<40} {t:>14.6f}")
    lines.append("layer -> end-to-end metric it should move -> where it does most work:")
    lines += [f"  {layer:<24} {moves:<52} {where}" for layer, moves, where in LAYER_MAP]
    return "\n".join(lines)
