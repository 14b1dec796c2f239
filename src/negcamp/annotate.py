"""Chat-completion annotation driver: transports, caching, retries, cost.

The mock transport is a first-class implementation so the whole pipeline
runs offline and deterministically. Output ordering is always by document
id, independent of the concurrency limit, and a persistent cache makes
re-runs idempotent.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, Sequence

from .codebook import Codebook, PromptVariant, ContextLevel, RenderedPrompt, default_context_descriptor, render
from .errors import AuthenticationError, ConfigError, LabelFailure, MalformedResponse, TransportError, TransportFailure
from .ingest import Corpus, Document

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

API_KEY_ENV = "NEGCAMP_API_KEY"
ENDPOINT_ENV = "NEGCAMP_ENDPOINT"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"

# USD per 1M tokens (input, output), late-2024 list prices.
MODEL_PRICES: Mapping[str, tuple[float, float]] = {
    "gpt-4o-2024-08-06": (2.50, 10.00),
    "gpt-4o-mini-2024-07-18": (0.15, 0.60),
}

REINFORCEMENT = "Respond with only 0 or 1."

_TRAILING_PUNCTUATION = ".,;:!?)\"'`…。"

# Request timeout, conflict, rate limit and server errors: another attempt may succeed.
_RETRYABLE_STATUSES = frozenset({408, 409, 429, *range(500, 600)})


@dataclass(frozen=True)
class ModelConfig:
    """Request parameters for one model. Temperature is pinned to 0."""

    model_id: str
    temperature: float = 0.0
    max_output_tokens: int = 4
    endpoint_url: str = DEFAULT_ENDPOINT
    price_per_1m_input: float = 0.0
    price_per_1m_output: float = 0.0

    def __post_init__(self) -> None:
        if self.temperature != 0.0:
            raise ConfigError("temperature must be 0 for deterministic outputs")
        if self.max_output_tokens < 1:
            raise ConfigError("max_output_tokens must be at least 1")

    @classmethod
    def for_model(cls, model_id: str, endpoint_url: str | None = None) -> "ModelConfig":
        """Config for a known model id, with its bundled prices when known."""
        price_in, price_out = MODEL_PRICES.get(model_id, (0.0, 0.0))
        return cls(
            model_id=model_id,
            endpoint_url=endpoint_url or DEFAULT_ENDPOINT,
            price_per_1m_input=price_in,
            price_per_1m_output=price_out,
        )


@dataclass(frozen=True)
class TransportReply:
    text: str
    input_tokens: int = 0
    output_tokens: int = 0


class Transport(Protocol):
    def complete(
        self, system_text: str, user_text: str, config: ModelConfig, doc_id: str = ""
    ) -> TransportReply:
        """Run one chat completion. ``doc_id`` is caller metadata only; it is
        never sent on the wire."""
        ...


class HttpTransport:
    """HTTPS chat-completion client. The API key is read from the
    environment and never logged or echoed in error messages. ``requests``
    is imported here, not at module level, so offline runs never load it.

    Connection errors, timeouts and the statuses in ``_RETRYABLE_STATUSES``
    raise a retryable ``TransportError``; any other failure raises one that
    is not retried, except 401 and 403, which raise ``AuthenticationError``
    and so stop the whole batch."""

    def __init__(self, api_key: str | None = None, timeout: float = 60.0, session: requests.Session | None = None):
        import requests

        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not key:
            raise ConfigError(f"no API key; set {API_KEY_ENV} or configure a mock transport")
        self._key = key
        self._timeout = timeout
        self._session = session or requests.Session()

    def complete(
        self, system_text: str, user_text: str, config: ModelConfig, doc_id: str = ""
    ) -> TransportReply:
        import requests

        payload = {
            "model": config.model_id,
            "temperature": config.temperature,
            "max_tokens": config.max_output_tokens,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
        }
        try:
            response = self._session.post(
                config.endpoint_url,
                json=payload,
                headers={"Authorization": f"Bearer {self._key}"},
                timeout=self._timeout,
            )
        # a body cut off mid-read is a dropped connection too
        except (requests.ConnectionError, requests.Timeout, requests.exceptions.ChunkedEncodingError) as exc:
            raise TransportError(f"request failed: {exc.__class__.__name__}") from None
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc.__class__.__name__}", retryable=False) from None
        status = response.status_code
        if status in (401, 403):
            raise AuthenticationError(f"HTTP {status}: the endpoint refused the API key")
        if status != 200:
            retry_after = None
            if status in (429, 503):
                header = response.headers.get("Retry-After", "")
                retry_after = float(header) if header.replace(".", "", 1).isdigit() else None
            raise TransportError(f"HTTP {status}", retry_after=retry_after, retryable=status in _RETRYABLE_STATUSES)
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):  # a refusal or content filter may answer null
            raise TransportError("unparseable completion payload", retryable=False)
        usage = data.get("usage") or {}
        return TransportReply(
            text=text,
            input_tokens=int(usage.get("prompt_tokens", 0)),
            output_tokens=int(usage.get("completion_tokens", 0)),
        )


def _approx_tokens(text: str) -> int:
    # Rough 4-chars-per-token accounting for offline transports.
    return (len(text) + 3) // 4


class MockTransport:
    """Offline transport serving canned responses keyed by document id.

    A document may map to a single response or to a sequence consumed one
    per call (the last entry repeats), which lets tests script malformed
    first answers. Unknown ids raise a retryable ``TransportError``.
    Thread-safe.
    """

    def __init__(self, responses: Mapping[str, str | Sequence[str]]):
        self._responses: dict[str, list[str]] = {}
        for doc_id, value in responses.items():
            self._responses[doc_id] = [value] if isinstance(value, str) else list(value)
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "MockTransport":
        """Load a ``{doc_id, response}`` JSONL map (response: string or list)."""
        responses: dict[str, str | Sequence[str]] = {}
        with Path(path).open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    record = json.loads(line)
                    responses[record["doc_id"]] = record["response"]
        return cls(responses)

    @property
    def total_calls(self) -> int:
        with self._lock:
            return sum(self._calls.values())

    def complete(
        self, system_text: str, user_text: str, config: ModelConfig, doc_id: str = ""
    ) -> TransportReply:
        with self._lock:
            attempt = self._calls.get(doc_id, 0)
            self._calls[doc_id] = attempt + 1
        sequence = self._responses.get(doc_id)
        if sequence is None:
            raise TransportError(f"no canned response for doc {doc_id!r}")
        text = sequence[min(attempt, len(sequence) - 1)]
        return TransportReply(
            text=text,
            input_tokens=_approx_tokens(system_text) + _approx_tokens(user_text),
            output_tokens=max(1, _approx_tokens(text)),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transport errors."""

    attempts: int = 5
    base_delay: float = 0.5
    max_delay: float = 8.0
    jitter: float = 0.25
    sleep: Callable[[float], None] = time.sleep

    def delay(self, attempt: int, rng: random.Random | _LazyRandom, retry_after: float | None = None) -> float:
        backoff = min(self.max_delay, self.base_delay * (2**attempt))
        backoff *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        if retry_after is not None:
            backoff = max(backoff, retry_after)
        return backoff


#: Policy for offline transports: same attempt budget, no waiting.
MOCK_RETRY = RetryPolicy(base_delay=0.0, max_delay=0.0)


@dataclass(frozen=True)
class AnnotationResult:
    doc_id: str
    label: int
    raw_response: str
    model_id: str
    prompt_hash: str
    input_tokens: int
    output_tokens: int
    from_cache: bool = False

    def to_record(self) -> dict[str, object]:
        """Serializable fields. ``from_cache`` is per-run provenance and is
        deliberately excluded so repeated runs emit byte-identical files."""
        return {
            "doc_id": self.doc_id,
            "label": self.label,
            "raw_response": self.raw_response,
            "model_id": self.model_id,
            "prompt_hash": self.prompt_hash,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object], from_cache: bool = False) -> "AnnotationResult":
        return cls(
            doc_id=str(record["doc_id"]),
            label=int(record["label"]),  # type: ignore[arg-type]
            raw_response=str(record["raw_response"]),
            model_id=str(record["model_id"]),
            prompt_hash=str(record["prompt_hash"]),
            input_tokens=int(record["input_tokens"]),  # type: ignore[arg-type]
            output_tokens=int(record["output_tokens"]),  # type: ignore[arg-type]
            from_cache=from_cache,
        )


class AnnotationCache:
    """Append-only JSONL cache keyed by (prompt_hash, doc_id).

    Each entry is one line. Loading cuts off a torn final line left by a
    crash, so the next append starts a fresh line and a crash never corrupts
    stored entries or ones written after it. Reads are lock-free after load;
    writes are serialized through one append handle, opened on the first
    ``put`` and flushed after every line. ``close`` releases it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str], AnnotationResult] = {}
        self._lock = threading.RLock()
        self._fh: IO[str] | None = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        complete = 0  # bytes up to the end of the last complete line
        with self.path.open("rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                complete += len(line)
                try:
                    record = json.loads(line)
                    result = AnnotationResult.from_record(record)
                except (ValueError, KeyError):
                    logger.warning("cache %s: skipping unreadable entry", self.path.name)
                    continue
                self._entries[(result.prompt_hash, result.doc_id)] = result
        if complete < self.path.stat().st_size:
            logger.warning("cache %s: truncating a torn final line", self.path.name)
            os.truncate(self.path, complete)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, prompt_hash: str, doc_id: str) -> AnnotationResult | None:
        result = self._entries.get((prompt_hash, doc_id))
        if result is None:
            return None
        return replace(result, from_cache=True)

    def put(self, result: AnnotationResult) -> None:
        record = result.to_record()
        line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        if result.from_cache:
            result = replace(result, from_cache=False)
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()
            self._entries[(result.prompt_hash, result.doc_id)] = result

    def close(self) -> None:
        """Close the append handle; a later ``put`` reopens the file."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def compact(self) -> None:
        """Rewrite the log with one line per live entry, atomically."""
        with self._lock:
            self.close()  # a later put must append to the new file
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                for key in sorted(self._entries):
                    fh.write(json.dumps(self._entries[key].to_record(), sort_keys=True, ensure_ascii=False) + "\n")
            os.replace(tmp, self.path)


def parse_label(raw_response: str) -> int:
    """Extract the binary label from a raw model response.

    After trimming whitespace and trailing punctuation the response must be
    exactly "0" or "1"; anything else (including yes/no or multi-token
    answers) raises ``MalformedResponse``.
    """
    cleaned = raw_response.strip().rstrip(_TRAILING_PUNCTUATION).rstrip()
    if cleaned == "0":
        return 0
    if cleaned == "1":
        return 1
    raise MalformedResponse(f"expected a bare 0 or 1, got {raw_response!r}")


class _LazyRandom:
    """``random.Random(seed)``, seeded on the first draw: seeding costs
    microseconds per document, and most documents never wait to retry."""

    def __init__(self, seed: str):
        self._seed = seed
        self._rng: random.Random | None = None

    def uniform(self, a: float, b: float) -> float:
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng.uniform(a, b)


def _call_with_retry(
    transport: Transport,
    system_text: str,
    user_text: str,
    config: ModelConfig,
    doc_id: str,
    retry: RetryPolicy,
    rng: random.Random | _LazyRandom,
) -> TransportReply:
    last_error = "no attempt made"
    for attempt in range(retry.attempts):
        try:
            return transport.complete(system_text, user_text, config, doc_id=doc_id)
        except TransportError as exc:
            if not exc.retryable:
                raise TransportFailure(doc_id, attempt + 1, str(exc)) from None
            last_error = str(exc)
            if attempt + 1 < retry.attempts:
                delay = retry.delay(attempt, rng, exc.retry_after)
                if delay > 0:
                    retry.sleep(delay)
    raise TransportFailure(doc_id, retry.attempts, last_error)


def classify_one(
    transport: Transport,
    config: ModelConfig,
    prompt: RenderedPrompt,
    doc_id: str,
    cache: AnnotationCache | None = None,
    retry: RetryPolicy = RetryPolicy(),
    rng: random.Random | None = None,
) -> AnnotationResult:
    """Label one document, hitting the cache before the transport.

    A malformed response earns one reinforced retry (the output contract
    appended to the user message); a second malformed answer raises
    ``LabelFailure``. Retryable transport errors are retried per ``retry``
    and then raise ``TransportFailure``; one that is not retryable raises it
    at once. Backoff jitter is drawn from ``rng``, by default from
    ``random.Random(doc_id)``, seeded only if a retry waits.
    """
    if cache is not None:
        hit = cache.get(prompt.prompt_hash, doc_id)
        if hit is not None:
            return hit
    rng = rng or _LazyRandom(doc_id)
    reply = _call_with_retry(transport, prompt.system_text, prompt.user_text, config, doc_id, retry, rng)
    try:
        label = parse_label(reply.text)
    except MalformedResponse:
        reinforced_user = f"{prompt.user_text}\n\n{REINFORCEMENT}"
        reply = _call_with_retry(transport, prompt.system_text, reinforced_user, config, doc_id, retry, rng)
        try:
            label = parse_label(reply.text)
        except MalformedResponse:
            raise LabelFailure(doc_id, reply.text) from None
    result = AnnotationResult(
        doc_id=doc_id,
        label=label,
        raw_response=reply.text,
        model_id=config.model_id,
        prompt_hash=prompt.prompt_hash,
        input_tokens=reply.input_tokens,
        output_tokens=reply.output_tokens,
    )
    if cache is not None:
        cache.put(result)
    return result


@dataclass(frozen=True)
class AnnotationFailure:
    doc_id: str
    kind: str  # "transport" or "label"
    detail: str

    def to_record(self) -> dict[str, object]:
        return {"doc_id": self.doc_id, "kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class BatchResult:
    """Results and failures of one batch run, both sorted by doc id."""

    results: tuple[AnnotationResult, ...]
    failures: tuple[AnnotationFailure, ...]

    @property
    def cache_hits(self) -> int:
        return sum(r.from_cache for r in self.results)

    @property
    def input_tokens(self) -> int:
        return sum(r.input_tokens for r in self.results)

    @property
    def output_tokens(self) -> int:
        return sum(r.output_tokens for r in self.results)

    def failure_fraction(self, corpus_size: int) -> float:
        return len(self.failures) / corpus_size if corpus_size else 0.0


def annotate_batch(
    corpus: Corpus,
    codebook: Codebook,
    variant: PromptVariant,
    config: ModelConfig,
    transport: Transport,
    cache: AnnotationCache | None = None,
    concurrency_limit: int = 8,
    context_builder: Callable[[Document], str] | None = None,
    retry: RetryPolicy = RetryPolicy(),
) -> BatchResult:
    """Label every document in the corpus.

    Up to ``concurrency_limit`` worker threads each take the next document
    in id order under one lock, then render and classify it; the calling
    thread waits for them. Each document yields exactly one result or one
    recorded failure; both are sorted by document id, so output is the same
    for any limit. Any other exception in a worker, or an interrupt in the
    calling thread, stops dispatch: no worker takes another document, and
    the first such exception is re-raised once the in-flight calls return.
    """
    if concurrency_limit < 1:
        raise ConfigError("concurrency_limit must be at least 1")
    if variant.context_level is not ContextLevel.NO_CONTEXT and context_builder is None:
        context_builder = default_context_descriptor

    pending = iter(corpus)
    take = threading.Lock()
    results: list[AnnotationResult] = []
    failures: list[AnnotationFailure] = []
    raised: list[BaseException] = []

    def work() -> None:
        try:
            while True:
                with take:
                    if raised:
                        return
                    doc = next(pending, None)
                if doc is None:
                    return
                context = context_builder(doc) if context_builder is not None else None
                prompt = render(codebook, variant, doc, context=context, model_id=config.model_id)
                try:
                    results.append(classify_one(transport, config, prompt, doc.id, cache=cache, retry=retry))
                except TransportFailure as exc:
                    failures.append(AnnotationFailure(doc_id=doc.id, kind="transport", detail=str(exc)))
                except LabelFailure as exc:
                    failures.append(AnnotationFailure(doc_id=doc.id, kind="label", detail=str(exc)))
        except BaseException as exc:  # re-raised in the calling thread below
            raised.append(exc)

    n_threads = min(concurrency_limit, len(corpus))
    threads = [threading.Thread(target=work, name=f"annotate-worker-{i}") for i in range(n_threads)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException as exc:  # Ctrl-C while waiting, or a thread that failed to start
        raised.append(exc)
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if raised:
        raise raised[0]
    results.sort(key=lambda r: r.doc_id)
    failures.sort(key=lambda f: f.doc_id)
    return BatchResult(results=tuple(results), failures=tuple(failures))


def estimate_cost(
    corpus_size: int,
    avg_input_tokens: float,
    avg_output_tokens: float,
    config: ModelConfig,
) -> float:
    """Projected USD cost of annotating ``corpus_size`` documents."""
    if corpus_size <= 0 or avg_input_tokens <= 0 or avg_output_tokens <= 0:
        raise ValueError("corpus size and token averages must be positive")
    per_doc = avg_input_tokens * config.price_per_1m_input + avg_output_tokens * config.price_per_1m_output
    return corpus_size * per_doc / 1e6


def write_annotations(path: str | Path, results: Iterable[AnnotationResult]) -> None:
    """Write results as JSONL sorted by doc id (UTF-8, LF)."""
    rows = sorted(results, key=lambda r: r.doc_id)
    payload = "".join(json.dumps(r.to_record(), sort_keys=True, ensure_ascii=False) + "\n" for r in rows)
    Path(path).write_text(payload, encoding="utf-8", newline="\n")


def read_annotations(path: str | Path) -> list[AnnotationResult]:
    results = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                results.append(AnnotationResult.from_record(json.loads(line)))
    return results


def label_map(results: Iterable[AnnotationResult]) -> dict[str, int]:
    return {r.doc_id: r.label for r in results}
