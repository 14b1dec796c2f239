"""Builders for inline documents, the synthetic study fixtures, a stub
HTTP session, and JSON past Python's decoding limits."""

from __future__ import annotations

import sys
import threading

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
    import json

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


class StubResponse:
    """The parts of ``requests.Response`` that ``HttpTransport`` reads."""

    def __init__(self, status_code: int, payload: object = None, headers: dict[str, str] | None = None):
        self.status_code = status_code
        self.headers = headers or {}
        self._payload = payload

    def json(self) -> object:
        if self._payload is None:
            raise ValueError("no JSON body")
        return self._payload


def completion(text: str | None, prompt_tokens: int = 12) -> StubResponse:
    """A 200 chat-completion response answering ``text``."""
    payload = {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": 1},
    }
    return StubResponse(200, payload)


class StubSession:
    """Stands in for ``requests.Session`` so ``HttpTransport`` runs offline.

    Each ``post`` plays the next reply of the script (an exception instance
    is raised); the last reply repeats. Thread-safe.
    """

    def __init__(self, *replies: object):
        self.replies = replies
        self.posts = 0
        self.adapters: dict[str, object] = {}
        self._lock = threading.Lock()

    def mount(self, prefix, adapter):
        self.adapters[prefix] = adapter

    def post(self, url, json, headers, timeout):
        with self._lock:
            reply = self.replies[min(self.posts, len(self.replies) - 1)]
            self.posts += 1
        if isinstance(reply, Exception):
            raise reply
        return reply
