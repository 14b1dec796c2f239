"""Builders for inline documents, the synthetic study fixtures, a loopback
chat-completion provider, and JSON past Python's decoding limits."""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from negcamp.ingest import Corpus, Document, PartyMeta
from negcamp.study import PartyAggregate, extremism

STUDY_COUNTRIES = (
    "AT", "BE", "CH", "DE", "DK", "ES", "FI", "FR", "GB", "GR",
    "IE", "IS", "IT", "LV", "NL", "NO", "PL", "SI", "SE",
)

FAMILIES = (
    "agrarian", "christian_democratic", "confessional", "conservative", "green",
    "liberal", "no_family", "radical_left", "radical_right", "regionalist", "socialist",
)

# JSON that json.loads refuses past Python's limits, each with the fixed
# reason negcamp gives for it: an integer longer than the int-conversion
# digit limit, and nesting deeper than the recursion limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
JSON_PAST_LIMITS = [
    pytest.param(
        '{"text": ' + "1" * (DIGIT_LIMIT + 1) + "}", "an integer with too many digits", id="digits",
        marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer-digit limit"),
    ),
    pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="depth"),
]

TRUE_BETA = {"intercept": 17.0, "govt": -6.0, "antielite": 1.5, "extremism": 1.6}


def make_doc(
    doc_id: str = "d1",
    text: str = "hello world",
    lang: str = "en",
    country: str = "GB",
    author: str = "a1",
    party: str = "p1",
    created_at: str = "2020-01-01T00:00:00Z",
    retweet: bool = False,
) -> Document:
    return Document(
        id=doc_id,
        text=text,
        language=lang,
        country=country,
        author_id=author,
        party_id=party,
        created_at=created_at,
        is_retweet=retweet,
    )


def make_corpus(docs) -> Corpus:
    return Corpus(docs)


def synthetic_study(seed: int, n_parties: int = 151, family_offsets: dict[str, float] | None = None):
    """A realistic party panel: 151 parties spread over 19 countries.

    Outcomes follow intercept + beta_govt*govt + beta_antielite*antielite
    (+ beta_extremism*extremism unless family offsets are planted instead)
    + a country effect + N(0, 3^2) noise. Returns (aggregates, party_meta,
    true_beta).
    """
    rng = np.random.default_rng(seed)
    country_effect = {c: e for c, e in zip(STUDY_COUNTRIES, rng.normal(0.0, 3.0, len(STUDY_COUNTRIES)))}
    aggregates: list[PartyAggregate] = []
    party_meta: dict[str, PartyMeta] = {}
    for i in range(n_parties):
        country = STUDY_COUNTRIES[i % len(STUDY_COUNTRIES)]
        party_id = f"{country.lower()}_p{i:03d}"
        lrgen = float(rng.uniform(0.0, 10.0))
        govt = int(rng.random() < 0.4)
        antielite = float(rng.uniform(0.0, 10.0))
        family = FAMILIES[i % len(FAMILIES)]
        mu = (
            TRUE_BETA["intercept"]
            + TRUE_BETA["govt"] * govt
            + TRUE_BETA["antielite"] * antielite
            + country_effect[country]
        )
        if family_offsets is None:
            mu += TRUE_BETA["extremism"] * extremism(lrgen)
        else:
            mu += family_offsets.get(family, 0.0)
        pct = float(mu + rng.normal(0.0, 3.0))
        party_meta[party_id] = PartyMeta(
            party_id=party_id,
            country=country,
            lrgen=lrgen,
            govt=govt,
            antielite_salience=antielite,
            family=family,
            display_name=party_id.upper(),
        )
        aggregates.append(
            PartyAggregate(
                party_id=party_id,
                country=country,
                n_total=1000,
                n_original=1000,
                n_negative_original=max(0, min(1000, round(10 * pct))),
                pct_negative=pct,
            )
        )
    return aggregates, party_meta, dict(TRUE_BETA)


def synthetic_study_files(tmp_path, seed: int = 7, docs_per_party: int = 20):
    """Corpus / annotations / party-meta files realizing the synthetic panel
    as discrete documents, for driving the CLI."""
    rng = np.random.default_rng(seed)
    aggregates, party_meta, _ = synthetic_study(seed)
    corpus_lines = []
    annotation_lines = []
    doc_n = 0
    for agg in aggregates:
        target = min(max(agg.pct_negative, 0.0), 100.0) / 100.0
        n_negative = int(round(target * docs_per_party))
        for j in range(docs_per_party):
            doc_n += 1
            doc_id = f"s{doc_n:06d}"
            label = 1 if j < n_negative else 0
            corpus_lines.append(
                json.dumps(
                    {
                        "id": doc_id,
                        "text": f"synthetic message {doc_n}",
                        "lang": "en",
                        "country": agg.country,
                        "author": f"acct_{agg.party_id}",
                        "party": agg.party_id,
                        "created_at": "2020-06-15T12:00:00Z",
                        "retweet": bool(rng.random() < 0.1) and j >= n_negative,
                    }
                )
            )
            annotation_lines.append(
                json.dumps(
                    {
                        "doc_id": doc_id,
                        "label": label,
                        "raw_response": str(label),
                        "model_id": "gpt-4o-mini-2024-07-18",
                        "prompt_hash": f"{doc_n:016x}",
                        "input_tokens": 80,
                        "output_tokens": 1,
                    }
                )
            )
    corpus_path = tmp_path / "synth_corpus.jsonl"
    corpus_path.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    annotations_path = tmp_path / "synth_annotations.jsonl"
    annotations_path.write_text("\n".join(annotation_lines) + "\n", encoding="utf-8")
    meta_path = tmp_path / "synth_parties.csv"
    rows = ["party_id,country,lrgen,govt,antielite_salience,family,name"]
    for meta in party_meta.values():
        rows.append(
            f"{meta.party_id},{meta.country},{meta.lrgen},{meta.govt},"
            f"{meta.antielite_salience},{meta.family},{meta.display_name}"
        )
    meta_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return corpus_path, annotations_path, meta_path


def respond(status: int, payload: object = None, headers: dict[str, str] | None = None):
    """A reply of ``status`` with ``payload`` as its body: bytes as they
    are, anything else but None as JSON."""

    def reply(handler: BaseHTTPRequestHandler) -> None:
        body = b"" if payload is None else payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        handler.send_response(status)
        for name, value in {"Content-Length": str(len(body)), **(headers or {})}.items():
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(body)

    return reply


def completion(text: str | None, prompt_tokens: object = 12):
    """A 200 chat-completion reply answering ``text``."""
    payload = {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": 1},
    }
    return respond(200, payload)


def chunked(handler: BaseHTTPRequestHandler) -> None:
    """A 200 completion answering "1" in two chunks of a chunked body."""
    body = json.dumps({"choices": [{"message": {"content": "1"}}]}).encode()
    handler.send_response(200)
    handler.send_header("Transfer-Encoding", "chunked")
    handler.end_headers()
    for part in (body[:10], body[10:], b""):
        handler.wfile.write(b"%x\r\n%s\r\n" % (len(part), part))


def reset(handler: BaseHTTPRequestHandler) -> None:
    """Reset the connection instead of replying."""
    handler.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    handler.connection.close()
    handler.close_connection = True


def cut_body(handler: BaseHTTPRequestHandler) -> None:
    """Promise a 100-byte body, send 10 bytes of it, and hang up."""
    handler.send_response(200)
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"choices"')
    handler.close_connection = True


def stall(seconds: float):
    """Wait ``seconds``, then answer "1"."""

    def reply(handler: BaseHTTPRequestHandler) -> None:
        time.sleep(seconds)
        completion("1")(handler)

    return reply


def trickle(handler: BaseHTTPRequestHandler) -> None:
    """Send the headers of a 30-byte body, then one byte every 0.4 s."""
    handler.send_response(200)
    handler.send_header("Content-Length", "30")
    handler.end_headers()
    for _ in range(30):
        handler.wfile.write(b" ")
        time.sleep(0.4)


class Provider:
    """A chat-completion endpoint on a loopback socket, on daemon threads.

    Each request, a POST or a proxy's CONNECT, plays the next reply of the
    script, the last repeating; a reply writes its answer to the request
    handler (see ``respond``). Connections are kept alive. Records each
    request's path, headers, body and client address."""

    def __init__(self, *replies):
        provider = self
        self.replies = replies
        self.paths: list[str] = []
        self.headers: list = []
        self.bodies: list[bytes] = []
        self.clients: list[tuple[str, int]] = []
        self._lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # keep-alive
            disable_nagle_algorithm = True  # else each reply waits about 40 ms for a delayed ACK
            timeout = 30

            def do_POST(self) -> None:
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with provider._lock:
                    reply = provider.replies[min(len(provider.paths), len(provider.replies) - 1)]
                    provider.paths.append(self.path)
                    provider.headers.append(self.headers)
                    provider.bodies.append(body)
                    provider.clients.append(self.client_address)
                reply(self)

            do_CONNECT = do_POST

            def log_message(self, format, *args) -> None:
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.server.handle_error = lambda request, client_address: None  # a client that hung up first
        threading.Thread(target=self.server.serve_forever, args=(0.05,), name="provider", daemon=True).start()

    @property
    def requests(self) -> int:
        return len(self.paths)

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
