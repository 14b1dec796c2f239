import threading

import pytest
from hypothesis import given, strategies as st

from helpers import make_doc
from negcamp.annotate import (
    AnnotationCache,
    MOCK_RETRY,
    MockTransport,
    ModelConfig,
    RetryPolicy,
    annotate_batch,
    classify_one,
    estimate_cost,
    parse_label,
    read_annotations,
    write_annotations,
)
from negcamp.codebook import PromptVariant, builtin_codebooks, render
from negcamp.errors import (
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
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        prompt = prompt_for("d1")
        first = classify_one(transport, CONFIG, prompt, "d1", cache=cache, retry=MOCK_RETRY)
        second = classify_one(transport, CONFIG, prompt, "d1", cache=cache, retry=MOCK_RETRY)
        assert transport.total_calls == 1
        assert second.from_cache is True
        assert second.to_record() == first.to_record()

    def test_reinforced_retry_recovers(self):
        transport = MockTransport({"d1": ["maybe", "1"]})
        result = classify_one(transport, CONFIG, prompt_for("d1"), "d1", retry=MOCK_RETRY)
        assert result.label == 1
        assert transport.total_calls == 2
        # second call carries the reinforced output instruction
        assert transport.requests[-1][2].endswith("Respond with only 0 or 1.")

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


class TestAnnotationCache:
    def test_roundtrip_field_for_field(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        transport = MockTransport({"d1": "1"})
        result = classify_one(transport, CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
        reloaded = AnnotationCache(path)
        hit = reloaded.get(result.prompt_hash, "d1")
        assert hit is not None
        assert hit.from_cache is True
        assert hit.to_record() == result.to_record()

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        r1 = classify_one(MockTransport({"d1": "1"}), CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "d2", "label":')  # simulated crash mid-write
        reloaded = AnnotationCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(r1.prompt_hash, "d1") is not None

    def test_put_after_torn_line_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        r1 = classify_one(MockTransport({"d1": "1"}), CONFIG, prompt_for("d1"), "d1", cache=cache, retry=MOCK_RETRY)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "d2", "label":')  # simulated crash mid-write
        resumed = AnnotationCache(path)
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


class TestAnnotateBatch:
    def test_fixture_complete(self, corpus, mock_transport):
        batch = annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=8, retry=MOCK_RETRY)
        assert len(batch.results) == 60
        assert batch.failures == ()
        assert [r.doc_id for r in batch.results] == sorted(r.doc_id for r in batch.results)

    def test_output_independent_of_concurrency(self, corpus, mock_map):
        outputs = []
        for limit in (1, 16):
            batch = annotate_batch(
                corpus, BOOK, VARIANT, CONFIG, MockTransport(mock_map), concurrency_limit=limit, retry=MOCK_RETRY
            )
            outputs.append([r.to_record() for r in batch.results])
        assert outputs[0] == outputs[1]

    def test_idempotent_with_cache(self, corpus, mock_map, tmp_path):
        transport = MockTransport(mock_map)
        cache = AnnotationCache(tmp_path / "cache.jsonl")
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

    def test_invalid_concurrency(self, corpus, mock_transport):
        with pytest.raises(ConfigError):
            annotate_batch(corpus, BOOK, VARIANT, CONFIG, mock_transport, concurrency_limit=0)


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
