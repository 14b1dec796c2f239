import random
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest
import requests
from hypothesis import given, strategies as st

from helpers import StubResponse, StubSession, completion, make_corpus, make_doc
from negcamp.annotate import (
    AnnotationCache,
    HttpTransport,
    MOCK_RETRY,
    MockTransport,
    ModelConfig,
    RetryPolicy,
    TransportReply,
    annotate_batch,
    classify_one,
    estimate_cost,
    parse_label,
    read_annotations,
    write_annotations,
)
from negcamp.codebook import PromptVariant, builtin_codebooks, render
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

    def test_invalid_concurrency(self, corpus, mock_transport):
        with pytest.raises(ConfigError):
            annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=0)


class TestHttpTransport:
    def classify(self, session, sleeps):
        transport = HttpTransport(api_key="test-key", session=session)
        policy = RetryPolicy(sleep=sleeps.append)
        return classify_one(transport, CONFIG, prompt_for("d1"), "d1", retry=policy)

    def test_completion_parsed(self):
        result = self.classify(StubSession(completion("1", prompt_tokens=12)), [])
        assert (result.label, result.input_tokens, result.output_tokens) == (1, 12, 1)

    @pytest.mark.parametrize(
        "first",
        [StubResponse(408), StubResponse(409), StubResponse(429), StubResponse(500), StubResponse(503),
         requests.ConnectionError("refused"), requests.Timeout("slow"), requests.exceptions.ChunkedEncodingError("cut")],
        ids=["408", "409", "429", "500", "503", "connection", "timeout", "cut-body"],
    )
    def test_transient_failures_retried(self, first):
        session, sleeps = StubSession(first, completion("1")), []
        assert self.classify(session, sleeps).label == 1
        assert session.posts == 2
        assert len(sleeps) == 1

    @pytest.mark.parametrize(
        "reply",
        [StubResponse(400), StubResponse(404), StubResponse(422), StubResponse(200), completion(None),
         requests.exceptions.InvalidURL("bad url")],
        ids=["400", "404", "422", "no-json", "null-content", "invalid-url"],
    )
    def test_permanent_failures_fail_on_first_response(self, reply):
        session, sleeps = StubSession(reply), []
        with pytest.raises(TransportFailure) as err:
            self.classify(session, sleeps)
        assert err.value.attempts == 1
        assert session.posts == 1
        assert sleeps == []

    def test_retry_after_hint_honoured(self):
        session, sleeps = StubSession(StubResponse(429, headers={"Retry-After": "30"}), completion("0")), []
        assert self.classify(session, sleeps).label == 0
        assert sleeps[0] >= 30.0

    @pytest.mark.parametrize("status", [401, 403])
    def test_rejected_key_stops_the_batch(self, corpus, status):
        session = StubSession(StubResponse(status))
        transport = HttpTransport(api_key="test-key", session=session)
        with pytest.raises(AuthenticationError) as err:
            annotate_batch(corpus, BOOK, VARIANT, CONFIG, transport, concurrency_limit=4, retry=MOCK_RETRY)
        assert str(status) in str(err.value)
        assert "test-key" not in str(err.value)
        assert session.posts <= 4


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


class TestAnnotationIo:
    def test_write_read_roundtrip(self, corpus, mock_transport, tmp_path):
        batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=8, retry=MOCK_RETRY)
        path = tmp_path / "annotations.jsonl"
        write_annotations(path, batch.results)
        reloaded = read_annotations(path)
        assert [r.to_record() for r in reloaded] == [r.to_record() for r in batch.results]
        assert path.read_text(encoding="utf-8").count("\n") == 60
