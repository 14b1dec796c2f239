"""The annotate-latency workload's driver and its latency-injecting transport.

Run as ``python -m perfbench.latency --corpus C --mock M --out DIR --delay-s D
--concurrency N``. It goes
through the public library API only: ``ingest_documents`` ->
``AnnotationCache`` -> ``annotate_batch`` -> ``write_annotations``, with the
transport below in place of the network. Every call waits a fixed delay, so
with ``c`` requests in flight the ideal rate is ``c / delay`` documents per
second; how far below that the run lands shows whether the dispatch layer
keeps ``c`` requests in flight.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from negcamp import annotate, ingest
from negcamp.codebook import PromptVariant, resolve_codebook
from negcamp.runio import stable_json_dumps


class LatencyTransport:
    """A ``Transport`` that waits ``delay_s`` and then answers from a
    ``MockTransport``. It keeps no state of its own, so it is as thread-safe
    as the mock it wraps."""

    def __init__(self, inner: annotate.MockTransport, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s

    def complete(self, system_text, user_text, config, doc_id=""):
        time.sleep(self._delay_s)
        return self._inner.complete(system_text, user_text, config, doc_id=doc_id)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--mock", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--delay-s", type=float, required=True)
    parser.add_argument("--concurrency", type=int, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    corpus = ingest.ingest_documents(args.corpus).corpus
    cache = annotate.AnnotationCache(args.out / "cache.jsonl")
    transport = LatencyTransport(annotate.MockTransport.from_jsonl(args.mock), args.delay_s)
    batch = annotate.annotate_batch(
        corpus,
        resolve_codebook("main_study"),
        PromptVariant.parse("no_context:original"),
        annotate.ModelConfig.for_model("gpt-4o-mini-2024-07-18"),
        transport,
        cache=cache,
        concurrency_limit=args.concurrency,
        retry=annotate.MOCK_RETRY,
    )
    annotate.write_annotations(args.out / "annotations.jsonl", batch.results)
    failures = "".join(stable_json_dumps(f.to_record()) + "\n" for f in batch.failures)
    (args.out / "failures.jsonl").write_text(failures, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
