import email.utils
import json
import random
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import DIGIT_LIMIT, JSON_PAST_LIMITS, chunked, completion, cut_body, make_corpus, make_doc, reset, respond, stall, trickle
import negcamp.annotate
from negcamp.annotate import (
    _ANNOTATION_LINE,
    _record_fields,
    AnnotationCache,
    AnnotationResult,
    HttpTransport,
    MOCK_RETRY,
    MockTransport,
    ModelConfig,
    RetryPolicy,
    TransportReply,
    annotate_batch,
    annotation_line,
    classify_one,
    estimate_cost,
    parse_label,
    read_annotations,
    read_labels,
    write_annotations,
)
from negcamp.codebook import PromptVariant, builtin_codebooks, default_context_descriptor, render, render_system
from negcamp.errors import (
    AuthenticationError,
    ConfigError,
    LabelFailure,
    MalformedResponse,
    TransportError,
    TransportFailure,
)

CONFIG = ModelConfig.for_model("gpt-4o-mini-2024-07-18")
VARIANT = PromptVariant.parse("no_context:original")
BOOK = builtin_codebooks()["main_study"]


def prompt_for(doc_id="d1", text="a message"):
    return render(BOOK, VARIANT, make_doc(doc_id=doc_id, text=text), model_id=CONFIG.model_id)


class FlakyTransport:
    """Wraps a transport, failing the first N calls for selected docs."""

    def __init__(self, inner, fail_counts):
        self.inner = inner
        self.remaining = dict(fail_counts)
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, config, doc_id=""):
        with self._lock:
            if self.remaining.get(doc_id, 0) > 0:
                self.remaining[doc_id] -= 1
                raise TransportError("injected transient failure")
        return self.inner.complete(system_text, user_text, config, doc_id=doc_id)


class RecordingTransport:
    """Wraps a transport, keeping the user text of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.user_texts = []

    def complete(self, system_text, user_text, config, doc_id=""):
        self.user_texts.append(user_text)
        return self.inner.complete(system_text, user_text, config, doc_id=doc_id)


class FailingTransport:
    """Answers 0 after ``delay_s`` for every document except ``doc_id``, on
    which it raises ``error`` or, when that is None, sends SIGINT to the main
    thread as Ctrl-C does and then answers. Counts every call."""

    def __init__(self, doc_id, error, delay_s=0.0):
        self.doc_id = doc_id
        self.error = error
        self.delay_s = delay_s
        self.calls = 0
        self.calls_at_failure = None
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, config, doc_id=""):
        with self._lock:
            self.calls += 1
            if doc_id == self.doc_id:
                self.calls_at_failure = self.calls
                if self.error is None:
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                else:
                    raise self.error
        time.sleep(self.delay_s)
        return TransportReply(text="0")


def numbered_corpus(n):
    return make_corpus(make_doc(doc_id=f"d{i:04d}") for i in range(n))


class TestParseLabel:
    @pytest.mark.parametrize(
        "raw, expected",
        [("1", 1), ("0", 0), (" 0.\n", 0), ("1.", 1), ("  1  ", 1), ("0,", 0), ('"1"', None)],
    )
    def test_cases(self, raw, expected):
        if expected is None:
            with pytest.raises(MalformedResponse):
                parse_label(raw)
        else:
            assert parse_label(raw) == expected

    @pytest.mark.parametrize("raw", ["The tweet is negative.", "yes", "no", "0 or 1", "01", "", "2", "-1"])
    def test_malformed(self, raw):
        with pytest.raises(MalformedResponse):
            parse_label(raw)

    @given(st.sampled_from(["0", "1"]), st.text(alphabet=" \t\n", max_size=3), st.sampled_from(["", ".", "!", "?", "…"]))
    def test_decorated_labels_parse(self, label, pad, punct):
        assert parse_label(pad + label + punct + pad) == int(label)


class TestModelConfig:
    def test_temperature_pinned(self):
        with pytest.raises(ConfigError):
            ModelConfig(model_id="m", temperature=0.7)

    def test_known_prices(self):
        assert CONFIG.price_per_1m_input == 0.15
        assert CONFIG.price_per_1m_output == 0.60

    def test_max_output_tokens_bound(self):
        with pytest.raises(ConfigError):
            ModelConfig(model_id="m", max_output_tokens=0)


class TestClassifyOne:
    def test_basic(self):
        transport = MockTransport({"d1": "1"})
        result = classify_one(transport, CONFIG, prompt_for("d1"), "d1", retry=MOCK_RETRY)
        assert result.label == 1
        assert result.from_cache is False
        assert result.model_id == CONFIG.model_id
        assert result.input_tokens > 0

    def test_cache_short_circuits_transport(self, tmp_path):
        transport = MockTransport({"d1": "1"})
        prompt = prompt_for("d1")
        with closing(AnnotationCache(tmp_path / "cache.jsonl")) as cache:
            first = classify_one(transport, CONFIG, prompt, "d1", cache=cache, retry=MOCK_RETRY)
            second = classify_one(transport, CONFIG, prompt, "d1", cache=cache, retry=MOCK_RETRY)
        assert transport.total_calls == 1
        assert second.from_cache is True
        assert second.to_record() == first.to_record()

    def test_reinforced_retry_recovers(self):
        mock = MockTransport({"d1": ["maybe", "1"]})
        transport = RecordingTransport(mock)
        result = classify_one(transport, CONFIG, prompt_for("d1"), "d1", retry=MOCK_RETRY)
        assert result.label == 1
        assert mock.total_calls == 2
        # second call carries the reinforced output instruction
        assert transport.user_texts[-1].endswith("Respond with only 0 or 1.")

    def test_twice_malformed_is_label_failure(self):
        transport = MockTransport({"d1": ["maybe", "still maybe"]})
        with pytest.raises(LabelFailure):
            classify_one(transport, CONFIG, prompt_for("d1"), "d1", retry=MOCK_RETRY)

    def test_transient_failures_retried(self):
        transport = FlakyTransport(MockTransport({"d1": "0"}), {"d1": 3})
        result = classify_one(transport, CONFIG, prompt_for("d1"), "d1", retry=MOCK_RETRY)
        assert result.label == 0

    def test_exhausted_retries_fail(self):
        transport = FlakyTransport(MockTransport({"d1": "0"}), {"d1": 99})
        with pytest.raises(TransportFailure) as err:
            classify_one(transport, CONFIG, prompt_for("d1"), "d1", retry=MOCK_RETRY)
        assert err.value.attempts == 5

    def test_retry_honors_server_hint(self):
        sleeps = []
        policy = RetryPolicy(attempts=2, base_delay=0.1, sleep=sleeps.append)

        class RateLimited:
            calls = 0

            def complete(self, system_text, user_text, config, doc_id=""):
                self.calls += 1
                if self.calls == 1:
                    raise TransportError("HTTP 429", retry_after=4.0)
                return MockTransport({"d1": "1"}).complete(system_text, user_text, config, doc_id=doc_id)

        result = classify_one(RateLimited(), CONFIG, prompt_for("d1"), "d1", retry=policy)
        assert result.label == 1
        assert sleeps and sleeps[0] >= 4.0

    @pytest.mark.parametrize("seed", [None, 7])
    def test_retry_jitter_continues_across_reinforced_call(self, seed):
        sleeps = []
        policy = RetryPolicy(sleep=sleeps.append)
        # a transient error, a malformed answer, a transient error on the reinforced call, a label
        script = iter([TransportError("transient"), "maybe", TransportError("transient"), "1"])

        class Scripted:
            def complete(self, system_text, user_text, config, doc_id=""):
                step = next(script)
                if isinstance(step, Exception):
                    raise step
                return TransportReply(text=step)

        rng = None if seed is None else random.Random(seed)
        result = classify_one(Scripted(), CONFIG, prompt_for("d1"), "d1", retry=policy, rng=rng)
        assert result.label == 1
        expected = random.Random("d1" if seed is None else seed)
        assert sleeps == [policy.delay(0, expected), policy.delay(0, expected)]


class TestAnnotationCache:
    def test_roundtrip_field_for_field(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        transport = MockTransport({"d1": "1"})
        with closing(AnnotationCache(path)) as cache:
            result = classify_one(transport, CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
        reloaded = AnnotationCache(path)
        hit = reloaded.get(result.prompt_hash, "d1")
        assert hit is not None
        assert hit.from_cache is True
        assert hit.to_record() == result.to_record()

    def test_hits_flagged_and_loaded_entries_not_copied(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with closing(AnnotationCache(path)) as cache:
            result = classify_one(MockTransport({"d1": "1"}), CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
            hit = cache.get(result.prompt_hash, "d1")
        assert result.from_cache is False
        assert type(hit) is AnnotationResult and hit == result._replace(from_cache=True)
        reloaded = AnnotationCache(path)
        assert reloaded.get(result.prompt_hash, "d1") is reloaded.get(result.prompt_hash, "d1") == hit

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with closing(AnnotationCache(path)) as cache:
            r1 = classify_one(MockTransport({"d1": "1"}), CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "d2", "label":')  # simulated crash mid-write
        reloaded = AnnotationCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(r1.prompt_hash, "d1") is not None

    def test_put_after_torn_line_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with closing(AnnotationCache(path)) as cache:
            r1 = classify_one(MockTransport({"d1": "1"}), CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "d2", "label":')  # simulated crash mid-write
        with closing(AnnotationCache(path)) as resumed:
            r3 = classify_one(MockTransport({"d3": "0"}), CONFIG, prompt_for("d3"), "d3", cache=resumed, retry=MOCK_RETRY)
        reloaded = AnnotationCache(path)
        assert len(reloaded) == 2
        assert reloaded.get(r1.prompt_hash, "d1").label == 1
        assert reloaded.get(r3.prompt_hash, "d3").label == 0
        assert path.read_text(encoding="utf-8").count("\n") == 2

    def test_load_of_mixed_lines(self, tmp_path, caplog):
        """Canonical lines and the same records in other JSON forms load
        alike; unreadable ones are skipped and a torn final line is cut off."""
        def line(doc_id, label, raw_response, input_tokens=40):
            return annotation_line(AnnotationResult(doc_id, label, raw_response, "m", "h", input_tokens, 1)).encode("utf-8")

        escaped = {"doc_id": "d3\u00e9", "label": 1, "raw_response": " 1!", "model_id": "m", "prompt_hash": "h",
                   "input_tokens": 9, "output_tokens": 1}
        complete = b"".join([
            line("d1", 1, "1"),
            line('d"2\\\u00e9\U0001F5F3', 0, "0.\n\t"),  # canonical, with escapes
            json.dumps(escaped).encode("ascii") + b"\n",  # other key order, \u escapes
            line("d4X", 1, "1").replace(b"X", b"\xff"),  # not UTF-8: skipped
            line("d5X", 1, "1").replace(b"X", b"\xed\xa0\x80"),  # an encoded surrogate, read with surrogatepass
            line("d6", 1, "0"),  # label disagrees with raw_response: skipped
            line("d1", 0, "0", input_tokens=41),  # a later entry for a key replaces the earlier one
        ])
        path = tmp_path / "cache.jsonl"
        path.write_bytes(complete + b'{"doc_id": "d7", "label": 1')
        caplog.set_level("WARNING", logger="negcamp.annotate")
        cache = AnnotationCache(path)
        expected = [
            AnnotationResult("d1", 0, "0", "m", "h", 41, 1, from_cache=True),
            AnnotationResult('d"2\\\u00e9\U0001F5F3', 0, "0.\n\t", "m", "h", 40, 1, from_cache=True),
            AnnotationResult("d3\u00e9", 1, " 1!", "m", "h", 9, 1, from_cache=True),
            AnnotationResult("d5\ud800", 1, "1", "m", "h", 40, 1, from_cache=True),
        ]
        assert len(cache) == len(expected)
        assert [cache.get(r.prompt_hash, r.doc_id) for r in expected] == expected
        assert [r.getMessage() for r in caplog.records] == [
            "cache cache.jsonl: skipping unreadable entry",
            "cache cache.jsonl: skipping unreadable entry",
            "cache cache.jsonl: truncating a torn final line",
        ]
        assert path.read_bytes() == complete

    def test_compaction_preserves_entries(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        prompt = prompt_for("d1")
        classify_one(MockTransport({"d1": "1"}), CONFIG, prompt, "d1", cache=cache, retry=MOCK_RETRY)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("{broken")
        cache.compact()
        reloaded = AnnotationCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(prompt.prompt_hash, "d1").label == 1

    def test_concurrent_puts_survive_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        prompt = prompt_for("d0")
        results = [
            classify_one(MockTransport({f"d{i}": "1"}), CONFIG, prompt, f"d{i}", retry=MOCK_RETRY) for i in range(800)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                list(pool.map(cache.put, results, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        cache.close()
        assert len(AnnotationCache(path)) == 800
        assert path.read_text(encoding="utf-8").count("\n") == 800

    def test_put_after_compaction_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        r1 = classify_one(MockTransport({"d1": "1"}), CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
        cache.compact()
        r2 = classify_one(MockTransport({"d2": "0"}), CONFIG, prompt_for("d2"), "d2", cache=cache, retry=MOCK_RETRY)
        cache.close()
        reloaded = AnnotationCache(path)
        assert len(reloaded) == 2
        assert reloaded.get(r1.prompt_hash, "d1").label == 1
        assert reloaded.get(r2.prompt_hash, "d2").label == 0
        assert path.read_text(encoding="utf-8").count("\n") == 2


class TestAnnotateBatch:
    def test_fixture_complete(self, corpus, mock_transport):
        batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=8, retry=MOCK_RETRY)
        assert len(batch.results) == 60
        assert batch.failures == ()
        assert [r.doc_id for r in batch.results] == sorted(r.doc_id for r in batch.results)

    def test_output_independent_of_concurrency(self, corpus, mock_map):
        outputs = []
        before = set(threading.enumerate())
        for limit in (1, 16, len(corpus) + 5):
            batch = annotate_batch(
                corpus, BOOK, VARIANT, CONFIG, MockTransport(mock_map), concurrency_limit=limit, retry=MOCK_RETRY
            )
            outputs.append([r.to_record() for r in batch.results])
        assert outputs[0] == outputs[1] == outputs[2]
        assert set(threading.enumerate()) <= before  # no worker outlives the call

    def test_idempotent_with_cache(self, corpus, mock_map, tmp_path):
        transport = MockTransport(mock_map)
        with closing(AnnotationCache(tmp_path / "cache.jsonl")) as cache:
            runs = [
                annotate_batch(corpus, BOOK, VARIANT, CONFIG, transport, cache=cache, concurrency_limit=8, retry=MOCK_RETRY)
                for _ in range(3)
            ]
        assert transport.total_calls == 60  # one set of transport calls
        assert runs[1].cache_hits == runs[2].cache_hits == 60
        records = [[r.to_record() for r in run.results] for run in runs]
        assert records[0] == records[1] == records[2]

    @pytest.mark.parametrize("variant", ["system:adjusted", "system_user:original"])
    @pytest.mark.parametrize("per_document", [True, False], ids=["context-per-document", "default-context"])
    def test_equal_to_rendering_each_document(self, corpus, mock_map, variant, per_document):
        variant = PromptVariant.parse(variant)
        if per_document:
            builder = lambda doc: f"Verfasser·in {doc.id}, Ελλάδα 🗳️"  # noqa: E731
        else:
            builder = default_context_descriptor
        scripted = dict(mock_map, d005=["it depends", mock_map["d005"]])
        batch = annotate_batch(
            corpus, BOOK, variant, CONFIG, MockTransport(scripted), concurrency_limit=8, context_builder=builder,
            retry=MOCK_RETRY,
        )
        transport = MockTransport(scripted)
        expected = [
            classify_one(transport, CONFIG, render(BOOK, variant, doc, builder(doc), CONFIG.model_id), doc.id,
                         retry=MOCK_RETRY)
            for doc in corpus
        ]
        assert batch.results == tuple(expected)

    def test_system_texts_shared_under_thread_switching(self):
        corpus = numbered_corpus(2000)
        variant = PromptVariant.parse("system_user:original")
        builder = lambda doc: f"author {int(doc.id[1:]) % 7}"  # noqa: E731
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = annotate_batch(
                corpus, BOOK, variant, CONFIG, MockTransport({d.id: "1" for d in corpus}), concurrency_limit=16,
                context_builder=builder, retry=MOCK_RETRY,
            )
        finally:
            sys.setswitchinterval(interval)
        expected = [render(BOOK, variant, doc, builder(doc), CONFIG.model_id).prompt_hash for doc in corpus]
        assert [r.prompt_hash for r in batch.results] == expected

    def test_system_text_rendered_once_per_context(self, corpus, mock_map, monkeypatch):
        contexts = []

        def counting(codebook, variant, context=None):
            contexts.append(context)
            return render_system(codebook, variant, context)

        monkeypatch.setattr(negcamp.annotate, "render_system", counting)
        for variant in ("no_context:original", "system:original"):
            annotate_batch(corpus, BOOK, PromptVariant.parse(variant), CONFIG, MockTransport(mock_map),
                           concurrency_limit=1, retry=MOCK_RETRY)
        distinct = {default_context_descriptor(doc) for doc in corpus}
        assert len(distinct) < len(corpus)
        assert contexts[0] is None
        assert sorted(contexts[1:]) == sorted(distinct)

    def test_completeness_with_missing_docs(self, corpus, mock_map):
        partial = {k: v for k, v in mock_map.items() if k not in {"d001", "d033", "d060"}}
        batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, MockTransport(partial), concurrency_limit=4, retry=MOCK_RETRY)
        assert len(batch.results) + len(batch.failures) == len(corpus)
        assert {f.doc_id for f in batch.failures} == {"d001", "d033", "d060"}
        assert {f.kind for f in batch.failures} == {"transport"}
        result_ids = {r.doc_id for r in batch.results}
        assert result_ids.isdisjoint({f.doc_id for f in batch.failures})

    def test_malformed_and_transient_mix(self, corpus, mock_map):
        scripted = dict(mock_map)
        # 5% of docs answer verbosely first, then comply on the reinforced retry
        for doc_id in ("d005", "d020", "d040"):
            scripted[doc_id] = ["it depends", scripted[doc_id]]
        transport = FlakyTransport(MockTransport(scripted), {"d010": 2, "d050": 1})
        batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, transport, concurrency_limit=8, retry=MOCK_RETRY)
        assert len(batch.results) == 60
        assert batch.failures == ()

    def test_each_document_taken_once_under_thread_switching(self):
        corpus = numbered_corpus(2000)
        transport = MockTransport({d.id: "1" for d in corpus if d.id != "d0777"})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, transport, concurrency_limit=16, retry=MOCK_RETRY)
        finally:
            sys.setswitchinterval(interval)
        assert [r.doc_id for r in batch.results] == [d.id for d in corpus if d.id != "d0777"]
        assert [f.doc_id for f in batch.failures] == ["d0777"]
        assert transport.total_calls == 1999 + MOCK_RETRY.attempts

    def test_retry_jitter_seeded_by_doc_id(self, corpus, mock_map):
        sleeps = []
        policy = RetryPolicy(sleep=sleeps.append)
        transport = FlakyTransport(MockTransport(mock_map), {"d010": 3})
        batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, transport, concurrency_limit=4, retry=policy)
        assert batch.failures == ()
        rng = random.Random("d010")
        assert sleeps == [policy.delay(attempt, rng) for attempt in range(3)]

    def test_unexpected_error_stops_dispatch(self):
        transport = FailingTransport("d0003", RuntimeError("unexpected worker error"))
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="unexpected worker error"):
            annotate_batch(numbered_corpus(2000), BOOK, VARIANT, CONFIG, transport, concurrency_limit=4, retry=MOCK_RETRY)
        # only the calls already in flight on the other workers may follow
        assert transport.calls - transport.calls_at_failure <= 4
        assert set(threading.enumerate()) <= before

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_interrupt_stops_dispatch(self):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signals reach only the main thread")
        if signal.getsignal(signal.SIGINT) is not signal.default_int_handler:
            pytest.skip("SIGINT does not raise KeyboardInterrupt here")
        transport = FailingTransport("d0003", None, delay_s=0.001)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            annotate_batch(numbered_corpus(2000), BOOK, VARIANT, CONFIG, transport, concurrency_limit=4, retry=MOCK_RETRY)
        assert transport.calls < 100
        assert set(threading.enumerate()) <= before

    @pytest.mark.skipif(not hasattr(threading, "_start_new_thread"), reason="patches CPython 3.10-3.12 thread launch")
    def test_interrupted_thread_start_waited_for(self, corpus, mock_transport, monkeypatch):
        # Ctrl-C lands in the first start() after the thread was launched but
        # before it ran: it is not yet alive, and must still be waited for.
        launch = threading._start_new_thread

        def launch_then_interrupt(bootstrap, args):
            def delayed_bootstrap():
                time.sleep(0.05)
                bootstrap(*args)

            launch(delayed_bootstrap, ())
            raise KeyboardInterrupt

        monkeypatch.setattr(threading, "_start_new_thread", launch_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=4, retry=MOCK_RETRY)
        assert [t for t in threading.enumerate() if t.name.startswith("annotate-worker-")] == []

    @pytest.mark.skipif(not hasattr(threading, "_start_new_thread"), reason="patches CPython 3.10-3.12 thread launch")
    def test_failed_thread_start_not_waited_for(self, corpus, mock_transport, monkeypatch):
        launch = threading._start_new_thread
        launches = []

        def launch_twice_then_fail(bootstrap, args):
            if len(launches) == 2:
                raise RuntimeError("can't start new thread")
            launches.append(launch(bootstrap, args))

        monkeypatch.setattr(threading, "_start_new_thread", launch_twice_then_fail)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=4, retry=MOCK_RETRY)
        assert [t for t in threading.enumerate() if t.name.startswith("annotate-worker-")] == []

    def test_invalid_concurrency(self, corpus, mock_transport):
        with pytest.raises(ConfigError):
            annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=0)


# 200 replies whose token counts cannot be read: a payload error, like a missing content
MALFORMED_USAGE = [
    completion("1", prompt_tokens=None),
    completion("1", prompt_tokens="many"),
    respond(200, {"choices": [{"message": {"content": "1"}}], "usage": [1]}),
]
MALFORMED_USAGE_IDS = ["null-token-count", "text-token-count", "usage-not-object"]


def closed_port() -> int:
    """A loopback port that refuses connections."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHttpTransport:
    def classify(self, url, sleeps, timeout=60.0, attempts=5):
        transport = HttpTransport(api_key="test-key", timeout=timeout)
        policy = RetryPolicy(attempts=attempts, sleep=sleeps.append)
        return classify_one(transport, CONFIG._replace(endpoint_url=url), prompt_for("d1"), "d1", retry=policy)

    def test_completion_parsed(self, provider):
        server = provider(completion("1", prompt_tokens=12))
        result = self.classify(f"{server.url}?api-version=1#fragment", [])
        assert (result.label, result.input_tokens, result.output_tokens) == (1, 12, 1)
        prompt = prompt_for("d1")
        assert server.bodies == [
            b'{"model": "gpt-4o-mini-2024-07-18", "temperature": 0.0, "max_tokens": 4, "messages": [{"role": "system", '
            b'"content": ' + json.dumps(prompt.system_text).encode() + b'}, {"role": "user", "content": '
            + json.dumps(prompt.user_text).encode() + b"}]}"
        ]
        assert server.paths == ["/v1/chat/completions?api-version=1"]
        assert (server.headers[0]["Authorization"], server.headers[0]["Content-Type"]) == ("Bearer test-key", "application/json")

    def test_missing_usage_counts_no_tokens(self, provider):
        server = provider(respond(200, {"choices": [{"message": {"content": "0"}}]}))
        result = self.classify(server.url, [])
        assert (result.label, result.input_tokens, result.output_tokens) == (0, 0, 0)

    @pytest.mark.parametrize(
        "first",
        [respond(408), respond(409), respond(429), respond(500), respond(503), reset, stall(1.0), cut_body],
        ids=["408", "409", "429", "500", "503", "reset", "timeout", "cut-body"],
    )
    def test_transient_failures_retried(self, provider, first):
        server, sleeps = provider(first, completion("1")), []
        assert self.classify(server.url, sleeps, timeout=0.5).label == 1
        assert server.requests == 2
        assert len(sleeps) == 1

    def test_refused_connection_retried(self):
        sleeps = []
        with pytest.raises(TransportFailure) as err:
            self.classify(f"http://127.0.0.1:{closed_port()}/v1/chat/completions", sleeps, attempts=2)
        assert err.value.attempts == 2
        assert "ConnectionRefusedError" in str(err.value)
        assert len(sleeps) == 1

    @pytest.mark.parametrize(
        "reply",
        [respond(400), respond(404), respond(422), respond(200), respond(200, b"{not json"), completion(None),
         *MALFORMED_USAGE],
        ids=["400", "404", "422", "no-json", "bad-json", "null-content", *MALFORMED_USAGE_IDS],
    )
    def test_permanent_failures_fail_on_first_response(self, provider, reply):
        server, sleeps = provider(reply), []
        with pytest.raises(TransportFailure) as err:
            self.classify(server.url, sleeps)
        assert err.value.attempts == 1
        assert server.requests == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "url",
        ["not a url", "ftp://127.0.0.1:{port}/v1", "http:///v1", "http://127.0.0.1:port/v1", "http://127.0.0.1:{port}/v1 x"],
        ids=["no-scheme", "ftp", "no-host", "bad-port", "space-in-path"],
    )
    def test_invalid_url_fails_at_once(self, provider, url):
        server, sleeps = provider(completion("1")), []
        with pytest.raises(TransportFailure) as err:
            self.classify(url.format(port=server.port), sleeps)
        assert err.value.attempts == 1
        assert sleeps == []
        assert server.requests == 0

    def test_retry_after_hint_honoured(self, provider):
        server, sleeps = provider(respond(429, headers={"Retry-After": "30"}), completion("0")), []
        assert self.classify(server.url, sleeps).label == 0
        assert sleeps[0] >= 30.0

    @pytest.fixture
    def retry_after(self, provider):
        def retry_after(header):
            server = provider(respond(429, headers={"Retry-After": header}))
            with pytest.raises(TransportError) as err:
                HttpTransport(api_key="test-key").complete("system", "user", CONFIG._replace(endpoint_url=server.url))
            return err.value.retry_after

        return retry_after

    def test_retry_after_http_date_in_seconds_from_now(self, retry_after):
        in_two_minutes = datetime.now(timezone.utc) + timedelta(seconds=120)
        assert 110.0 <= retry_after(email.utils.format_datetime(in_two_minutes, usegmt=True)) <= 120.0

    def test_retry_after_unzoned_date_read_as_utc(self, retry_after, monkeypatch):
        in_two_minutes = datetime.now(timezone.utc) + timedelta(seconds=120)
        header = email.utils.format_datetime(in_two_minutes.replace(tzinfo=None))  # "... -0000"
        try:
            with monkeypatch.context() as patch:
                patch.setenv("TZ", "XST+05")  # local time five hours behind UTC
                time.tzset()
                assert 110.0 <= retry_after(header) <= 120.0
        finally:
            time.tzset()

    @pytest.mark.parametrize("header", ["Wed, 21 Oct 2015 07:28:00 GMT", "Wed, 21 Oct 2015 07:28:00 -0000"])
    def test_retry_after_past_date_is_zero(self, retry_after, header):
        assert retry_after(header) == 0.0

    @pytest.mark.parametrize("header", ["soon", "", "Wed, 32 Oct 2015 07:28:00 GMT"])
    def test_retry_after_unparseable_is_none(self, retry_after, header):
        assert retry_after(header) is None

    def test_trickling_body_bounded_by_timeout(self, provider):
        server = provider(trickle)
        transport = HttpTransport(api_key="test-key", timeout=1.0)
        started = time.monotonic()
        with pytest.raises(TransportError) as err:
            transport.complete("system", "user", CONFIG._replace(endpoint_url=server.url))
        assert time.monotonic() - started < 1.5
        assert err.value.retryable
        assert str(err.value) == "request failed: TimeoutError"

    @pytest.mark.parametrize(
        "reply, connections",
        [(completion("1"), 1), (chunked, 1), (respond(200, {"choices": [{"message": {"content": "1"}}]}, {"Connection": "close"}), 3)],
        ids=["content-length", "chunked", "connection-close"],
    )
    def test_connection_kept_alive_unless_the_reply_closes_it(self, provider, reply, connections):
        server = provider(reply)
        transport, config = HttpTransport(api_key="test-key"), CONFIG._replace(endpoint_url=server.url)
        for _ in range(3):
            assert transport.complete("system", "user", config).text == "1"
        assert server.requests == 3
        assert len(set(server.clients)) == connections

    def test_plain_http_through_the_environments_proxy(self, provider, monkeypatch):
        proxy = provider(completion("1"))
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{proxy.port}")
        config = CONFIG._replace(endpoint_url="http://api.example.invalid/v1/chat/completions")
        assert HttpTransport(api_key="test-key").complete("system", "user", config).text == "1"
        assert proxy.paths == ["http://api.example.invalid/v1/chat/completions"]

    def test_https_tunnelled_through_the_environments_proxy(self, provider, monkeypatch):
        proxy = provider(respond(502))
        monkeypatch.setenv("https_proxy", f"127.0.0.1:{proxy.port}")  # no scheme: http
        with pytest.raises(TransportError) as err:
            HttpTransport(api_key="test-key").complete("system", "user", CONFIG)
        assert err.value.retryable
        assert proxy.paths == ["api.openai.com:443"]  # CONNECT's target

    def test_no_proxy_goes_direct(self, provider, monkeypatch):
        server = provider(completion("1"))
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{closed_port()}")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert HttpTransport(api_key="test-key").complete("system", "user", CONFIG._replace(endpoint_url=server.url)).text == "1"
        assert server.requests == 1

    @pytest.mark.parametrize("reply", MALFORMED_USAGE, ids=MALFORMED_USAGE_IDS)
    def test_malformed_usage_fails_each_document_as_transport(self, corpus, provider, reply):
        config = CONFIG._replace(endpoint_url=provider(reply).url)
        batch = annotate_batch(corpus, BOOK, VARIANT, config, HttpTransport(api_key="test-key"), concurrency_limit=4, retry=MOCK_RETRY)
        assert batch.results == ()
        assert [(f.doc_id, f.kind) for f in batch.failures] == [(d.id, "transport") for d in corpus]
        assert all(f.detail.endswith("after 1 attempts: unparseable completion payload") for f in batch.failures)

    @pytest.mark.parametrize("status", [401, 403])
    def test_rejected_key_stops_the_batch(self, corpus, provider, status):
        server = provider(respond(status))
        config = CONFIG._replace(endpoint_url=server.url)
        with pytest.raises(AuthenticationError) as err:
            annotate_batch(corpus, BOOK, VARIANT, config, HttpTransport(api_key="test-key"), concurrency_limit=4, retry=MOCK_RETRY)
        assert str(status) in str(err.value)
        assert "test-key" not in str(err.value)
        assert server.requests <= 4


class TestEstimateCost:
    def test_hand_arithmetic(self):
        # 1e6 docs x (100 * $0.15 + 1 * $0.60) / 1e6 = $15.60
        assert estimate_cost(1_000_000, 100, 1, CONFIG) == pytest.approx(15.6, abs=1e-9)

    def test_zero_priced_config(self):
        free = ModelConfig(model_id="free-model")
        assert estimate_cost(10_000, 100, 1, free) == 0.0

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            estimate_cost(0, 100, 1, CONFIG)
        with pytest.raises(ValueError):
            estimate_cost(10, -1, 1, CONFIG)


def annotation_record(**overrides):
    record = {"doc_id": "d1", "label": 1, "raw_response": "1", "model_id": "m", "prompt_hash": "h",
              "input_tokens": 40, "output_tokens": 1}
    record.update(overrides)
    return {k: v for k, v in record.items() if v is not ...}


# Quotes, backslashes, control characters, line and paragraph separators,
# astral-plane characters, and any other text.
ESCAPE_PRONE = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\x85\u2028\u2029\ufeff\U0001F5F3é') | st.characters())


class TestAnnotationLine:
    @given(
        doc_id=ESCAPE_PRONE, label=st.integers(0, 1), raw_response=ESCAPE_PRONE, model_id=ESCAPE_PRONE,
        prompt_hash=ESCAPE_PRONE, input_tokens=st.integers(0, 2**63), output_tokens=st.integers(0, 2**63),
        from_cache=st.booleans(),
    )
    def test_equals_sorted_json_dumps(self, **fields):
        result = AnnotationResult(**fields)
        expected = json.dumps(result.to_record(), sort_keys=True, ensure_ascii=False) + "\n"
        assert annotation_line(result) == expected


class TestAnnotationLineDecoder:
    @given(
        doc_id=ESCAPE_PRONE, label=st.integers(), raw_response=ESCAPE_PRONE, model_id=ESCAPE_PRONE,
        prompt_hash=ESCAPE_PRONE, input_tokens=st.integers(), output_tokens=st.integers(),
    )
    def test_pattern_reads_every_encoded_line(self, **fields):
        """Every line ``annotation_line`` writes takes the pattern, so a change
        to the template cannot silently send every line ``read_labels`` reads
        to ``decode_json_line``; the groups it decodes hold the id and label."""
        line = annotation_line(AnnotationResult(**fields))
        doc_id, label = _record_fields(json.loads(line))[:2]
        for text in (line, line[:-1]):
            match = _ANNOTATION_LINE.fullmatch(text)
            assert match is not None
            assert (json.loads(match[1]), int(match[3])) == (doc_id, label)


ANNOTATION_FIELDS = st.fixed_dictionaries({
    "doc_id": ESCAPE_PRONE, "label": st.integers(0, 1) | st.integers(-1, 2), "raw_response": ESCAPE_PRONE, "model_id": ESCAPE_PRONE,
    "prompt_hash": ESCAPE_PRONE, "input_tokens": st.integers(-2, 2**64), "output_tokens": st.integers(0, 9),
})


# Records whose label often agrees with their response, as a cache entry must.
CACHE_FIELDS = ANNOTATION_FIELDS.map(
    lambda record: dict(record, raw_response=str(record["label"])) if record["label"] in (0, 1) else record
) | ANNOTATION_FIELDS


@st.composite
def annotation_lines(draw, fields=ANNOTATION_FIELDS):
    """One annotations-file line: ``annotation_line``'s form, or the same
    record as other JSON, or a line that does not hold a valid record."""
    record = draw(fields)
    canonical = annotation_line(AnnotationResult(**record))
    kind = draw(st.sampled_from(
        ["canonical", "reordered", "spaced", "label", "number", "string", "missing", "trailing", "blank", "crlf"]
    ))
    if kind == "canonical":
        return canonical
    if kind == "reordered":
        return json.dumps(dict(reversed(record.items())), ensure_ascii=draw(st.booleans())) + "\n"
    if kind == "spaced":
        return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(" , ", " :  ")) + "\n"
    if kind == "label":
        record["label"] = draw(st.sampled_from([True, False, 1.0, 0.0, 1.5, "1", None, [1]]))
        return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
    if kind == "number":  # integers JSON writes otherwise or not at all
        number = draw(st.sampled_from(["01", "-0", "1e0", "1.", "+1", "0x1", "\u0661", "1_0"]))
        return canonical.replace(f'"label": {record["label"]}', f'"label": {number}', 1)
    if kind == "string":  # a raw control character or an escape JSON does or does not have
        inner = draw(st.sampled_from(["\t", "\x01", "\x7f", "\\x41", "\\u12", "\\U0041", "\\/", "\\ud800", "\\'"]))
        return canonical.replace('"raw_response": "', '"raw_response": "' + inner, 1)
    if kind == "missing":
        del record[draw(st.sampled_from(sorted(record)))]
        return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
    if kind == "trailing":
        return canonical[:-1] + draw(st.sampled_from([" ", "\t", " {}", "x", "}", ",", "\u2028"])) + "\n"
    if kind == "blank":
        return draw(st.sampled_from(["\n", "  \n", "\t\n", "\u00a0\n"]))
    return canonical[:-1] + "\r\n"


def outcome(read, path):
    """What ``read(path)`` returns, or the type and message of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


class TestReadLabelsParity:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(annotation_lines(), max_size=6), final_newline=st.booleans())
    def test_same_labels_or_same_error_as_oracle(self, tmp_path_factory, lines, final_newline):
        """``read_labels`` returns the oracle's dict, or raises the same
        exception type with the same message."""
        text = "".join(lines)
        if not final_newline:
            text = text.removesuffix("\n")
        path = tmp_path_factory.mktemp("labels") / "annotations.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        assert outcome(read_labels, path) == outcome(oracles.read_labels, path)


def entry_bytes(doc_id):
    return annotation_line(AnnotationResult(doc_id, 1, "1", "m", "h", 40, 1)).encode("utf-8", "surrogatepass")


# Files both readers must take as their oracles do: a line that starts with
# a BOM, an encoded lone surrogate, bytes that are not UTF-8 and a torn
# final line, each after a plain entry.
READER_CASES = {
    "bom": entry_bytes("d1") + b"\xef\xbb\xbf" + entry_bytes("d2"),
    "lone-surrogate": entry_bytes("d1") + entry_bytes("d2\ud800"),
    "not-utf8": entry_bytes("d1") + entry_bytes("d2X").replace(b"X", b"\xff"),
    "torn": entry_bytes("d1") + b'{"doc_id": "d2", "label":',
}


class TestReadAnnotationsParity:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(annotation_lines(), max_size=6), final_newline=st.booleans())
    def test_same_records_or_same_error_as_oracle(self, tmp_path_factory, lines, final_newline):
        text = "".join(lines)
        if not final_newline:
            text = text.removesuffix("\n")
        path = tmp_path_factory.mktemp("annotations") / "annotations.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        assert outcome(read_annotations, path) == outcome(oracles.read_annotations, path)

    @pytest.mark.parametrize("data", READER_CASES.values(), ids=READER_CASES.keys())
    def test_edge_cases_as_oracle(self, tmp_path, data):
        path = tmp_path / "annotations.jsonl"
        path.write_bytes(data)
        assert outcome(read_annotations, path) == outcome(oracles.read_annotations, path)


def assert_cache_loads_as_oracle(path, data):
    path.write_bytes(data)
    expected, kept = oracles.load_cache(path)
    cache = AnnotationCache(path)
    assert len(cache) == len(expected)
    for key, result in expected.items():
        hit = cache.get(*key)
        assert type(hit) is AnnotationResult and hit == result
    assert path.read_bytes() == data[:kept]
    return expected


class TestCacheLoadParity:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(annotation_lines(CACHE_FIELDS), max_size=6), final_newline=st.booleans())
    def test_same_entries_and_truncation_as_oracle(self, tmp_path_factory, lines, final_newline):
        text = "".join(lines)
        if not final_newline:
            text = text.removesuffix("\n")
        path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
        assert_cache_loads_as_oracle(path, text.encode("utf-8", "surrogatepass"))

    @pytest.mark.parametrize(
        "data, doc_ids",
        list(zip(READER_CASES.values(), [{"d1", "d2"}, {"d1", "d2\ud800"}, {"d1"}, {"d1"}])),
        ids=READER_CASES.keys(),
    )
    def test_edge_cases_as_oracle(self, tmp_path, data, doc_ids):
        entries = assert_cache_loads_as_oracle(tmp_path / "cache.jsonl", data)
        assert {doc_id for _, doc_id in entries} == doc_ids


class TestLinesPastJsonLimits:
    """A line past Python's JSON limits is a malformed record in an
    annotations file and an unreadable entry in a cache, reported in
    ``decode_json_line``'s fixed wording."""

    LINES = [
        *JSON_PAST_LIMITS,
        pytest.param(
            entry_bytes("d2").decode().replace('"label": 1', '"label": 1' + "0" * DIGIT_LIMIT), "an integer with too many digits",
            id="canonical-label-digits", marks=JSON_PAST_LIMITS[0].marks,
        ),
        pytest.param(
            entry_bytes("d2").decode().replace('"input_tokens": 40', '"input_tokens": 4' + "0" * DIGIT_LIMIT),
            "an integer with too many digits", id="canonical-tokens-digits", marks=JSON_PAST_LIMITS[0].marks,
        ),
    ]

    @pytest.mark.parametrize("line, reason", LINES)
    @pytest.mark.parametrize("read", [read_annotations, read_labels], ids=["annotations", "labels"])
    def test_annotations_file_raises_fixed_reason(self, tmp_path, read, line, reason):
        path = tmp_path / "annotations.jsonl"
        path.write_text(entry_bytes("d1").decode() + line.rstrip("\n") + "\n", encoding="utf-8")
        assert outcome(read, path) == (ValueError, reason)

    @pytest.mark.parametrize("line, reason", LINES)
    def test_cache_entry_skipped(self, tmp_path, caplog, line, reason):
        path = tmp_path / "cache.jsonl"
        data = entry_bytes("d1") + line.rstrip("\n").encode() + b"\n" + entry_bytes("d3")
        path.write_bytes(data)
        cache = AnnotationCache(path)
        assert len(cache) == 2 and cache.get("h", "d1") is not None and cache.get("h", "d3") is not None
        assert [r.getMessage() for r in caplog.records] == ["cache cache.jsonl: skipping unreadable entry"]
        assert path.read_bytes() == data


class TestAnnotationIo:
    def test_labels_read_directly(self, golden_dir):
        path = golden_dir / "annotations.jsonl"
        assert read_labels(path) == {r.doc_id: r.label for r in read_annotations(path)}

    @pytest.mark.parametrize(
        "record, error",
        [
            (annotation_record(prompt_hash=...), KeyError),
            (annotation_record(label=...), KeyError),
            (annotation_record(input_tokens=...), KeyError),
            (annotation_record(label="negative"), ValueError),
            (annotation_record(output_tokens="one"), ValueError),
            (annotation_record(input_tokens=None), TypeError),
            (annotation_record(doc_id=...), KeyError),
            (annotation_record(raw_response=...), KeyError),
            (annotation_record(model_id=...), KeyError),
            (annotation_record(output_tokens=...), KeyError),
        ],
        ids=["no-prompt-hash", "no-label", "no-input-tokens", "label-not-int", "tokens-not-int", "tokens-null",
             "no-doc-id", "no-raw-response", "no-model-id", "no-output-tokens"],
    )
    def test_label_reader_raises_like_from_record(self, tmp_path, record, error):
        path = tmp_path / "annotations.jsonl"
        path.write_text(json.dumps(annotation_record(doc_id="d0")) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(error):
            read_annotations(path)
        with pytest.raises(error):
            read_labels(path)

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_reader_rejects_non_binary_label(self, tmp_path, label):
        path = tmp_path / "annotations.jsonl"
        path.write_text(json.dumps(annotation_record(doc_id="d0")) + "\n" + json.dumps(annotation_record(label=label)) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"label {label} of document 'd1' is not 0 or 1"):
            read_labels(path)

    def test_write_read_roundtrip(self, corpus, mock_transport, tmp_path):
        batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=8, retry=MOCK_RETRY)
        path = tmp_path / "annotations.jsonl"
        write_annotations(path, batch.results)
        reloaded = read_annotations(path)
        assert [r.to_record() for r in reloaded] == [r.to_record() for r in batch.results]
        assert path.read_text(encoding="utf-8").count("\n") == 60

    def test_write_that_raises_partway_leaves_previous_file(self, golden_dir, tmp_path, monkeypatch):
        """``write_annotations`` is atomic: a write cut short by an error
        leaves the file it would have replaced, and no temporary file. Here
        the 30th line cannot be encoded."""
        path = tmp_path / "annotations.jsonl"
        previous = (golden_dir / "annotations.jsonl").read_bytes()
        path.write_bytes(previous)
        results = read_annotations(path)
        real, calls = negcamp.annotate.annotation_line, []

        def failing(result):
            calls.append(result)
            return "\udcff\n" if len(calls) == 30 else real(result)

        monkeypatch.setattr(negcamp.annotate, "annotation_line", failing)
        with pytest.raises(UnicodeEncodeError):
            write_annotations(path, [r._replace(label=1 - r.label) for r in results])
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["annotations.jsonl"]
