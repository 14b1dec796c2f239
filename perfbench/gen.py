"""Seeded synthetic inputs for the benchmark workloads.

The same ``(seed, size)`` always gives byte-identical files. Every corpus
keeps the properties the pipeline's cost depends on at the paper's scale:
19 countries with one language each, 151 parties with skewed sizes (a few
large parties per country above ``--min-tweets 500``, many small ones below
it), about 3% independents, about 15% retweets (half flagged, half only
``RT @``-prefixed), and a few records that ingest must reject.

The mock response map plants two kinds of trouble at exact shares: a
malformed first answer (``"yes"``, then the label) that triggers the
reinforced retry, and ids with no canned response, which fail in transport
after every attempt. ``Truth`` holds what was planted, for the verifier.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

COUNTRIES = (
    ("AT", "de"), ("BE", "nl"), ("BG", "bg"), ("CZ", "cs"), ("DE", "de"), ("DK", "da"), ("ES", "es"),
    ("FI", "fi"), ("FR", "fr"), ("GB", "en"), ("GR", "el"), ("HU", "hu"), ("IE", "ga"), ("IT", "it"),
    ("NL", "nl"), ("PL", "pl"), ("PT", "pt"), ("SE", "sv"), ("SK", "sk"),
)
FAMILIES = (
    "agrarian", "christian_democratic", "confessional", "conservative", "green", "liberal",
    "no_family", "radical_left", "radical_right", "regionalist", "socialist",
)
N_PARTIES = 151
MAJORS_PER_COUNTRY = 3
INDEPENDENT_SHARE = 0.03
RETWEET_SHARE = 0.15
MALFORMED_SHARE = 0.03
MISSING_SHARE = 0.002
REJECTED_SHARE = 0.001
GOLD_SECOND_CODER_SHARE = 0.20
GOLD_DISAGREEMENT = 0.10
GOLD_MODEL_ERROR = 0.12
# Large parties left out of parties.csv, so study flags them missing_meta.
MISSING_META = frozenset(f"{code.lower()}_p0" for code, _ in COUNTRIES[-2:])
MODEL_ID = "gpt-4o-mini-2024-07-18"

_WORDS = (
    "government opposition minister election vote tax health school budget promise failed "
    "record plan jobs future families farmers workers europe climate energy border crime "
    "housing pension reform scandal lies corrupt weak strong proud thank volunteers today "
    "tonight debate rally market city village region together change stop never always "
    "again people country leader party record costs prices wages rights"
).split()


@dataclass(frozen=True)
class Party:
    party_id: str
    country: str
    language: str
    weight: float
    negativity: float
    family: str
    lrgen: float
    govt: int
    antielite: float


@dataclass
class Truth:
    """What the generator planted, keyed by document id."""

    labels: dict[str, int]  # every valid document's model label
    malformed: frozenset[str]
    missing: frozenset[str]
    rejected_lines: int
    party_of: dict[str, str]
    retweet: frozenset[str]
    parties: tuple[Party, ...]
    gold: dict[str, dict[str, int]]  # doc id -> coder -> label

    @property
    def n_docs(self) -> int:
        return len(self.labels)


def _parties(rng: random.Random) -> tuple[Party, ...]:
    slots = [(code, lang, i) for code, lang in COUNTRIES for i in range(8)][:N_PARTIES]
    families = list(FAMILIES) * 14
    rng.shuffle(families)
    parties = []
    for (code, lang, i), family in zip(slots, families):
        major = i < MAJORS_PER_COUNTRY
        parties.append(
            Party(
                party_id=f"{code.lower()}_p{i}",
                country=code,
                language=lang,
                weight=rng.uniform(1.6, 2.4) if major else rng.uniform(0.02, 0.2),
                negativity=rng.uniform(0.1, 0.5),
                family=family,
                lrgen=round(rng.uniform(0.5, 9.5), 1),
                govt=int(rng.random() < 0.35),
                antielite=round(rng.uniform(0.5, 9.5), 1),
            )
        )
    return tuple(parties)


def _text(rng: random.Random, retweet_prefix: bool) -> str:
    words = " ".join(rng.choices(_WORDS, k=rng.randint(8, 30)))
    text = words[0].upper() + words[1:] + rng.choice((".", "!", "?"))
    return f"RT @acct{rng.randint(1, 999)}: {text}" if retweet_prefix else text


def _exact_sample(rng: random.Random, ids: list[str], share: float) -> frozenset[str]:
    return frozenset(rng.sample(ids, max(1, round(share * len(ids)))))


def generate(out: str | Path, n_docs: int, seed: int, gold_docs: int = 0, resume_share: float = 0.0) -> Truth:
    """Write corpus.jsonl, mock.jsonl, parties.csv and, when asked, gold.csv,
    annotations.jsonl and resume_corpus.jsonl into ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"negcamp-bench-{seed}")
    parties = _parties(rng)
    ids = [f"d{i:07d}" for i in range(n_docs)]
    labels: dict[str, int] = {}
    party_of: dict[str, str] = {}
    retweet: set[str] = set()
    lines: list[str] = []
    chosen = rng.choices(parties, weights=[p.weight for p in parties], k=n_docs)
    for doc_id, party in zip(ids, chosen):
        independent = rng.random() < INDEPENDENT_SHARE
        rt = rng.random() < RETWEET_SHARE
        flagged = rt and rng.random() < 0.5
        record = {
            "id": doc_id,
            "text": _text(rng, rt and not flagged),
            "lang": party.language,
            "country": party.country,
            "author": f"acct_{party.party_id}_{rng.randint(1, 40)}",
            "party": "" if independent else party.party_id,
            "created_at": f"2019-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00Z",
            "retweet": flagged,
        }
        labels[doc_id] = int(rng.random() < party.negativity)
        party_of[doc_id] = record["party"]
        if rt:
            retweet.add(doc_id)
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")

    valid_lines = list(lines)
    # Invalid records ingest must reject: an unknown language code.
    n_rejected = max(1, round(REJECTED_SHARE * n_docs))
    for k, pos in enumerate(sorted(rng.sample(range(len(lines)), n_rejected), reverse=True)):
        bad = {"id": f"x{k:07d}", "text": "Invalid record.", "lang": "xx", "country": "AT", "author": "a",
               "party": "", "created_at": "2019-01-01T00:00:00Z", "retweet": False}
        lines.insert(pos, json.dumps(bad) + "\n")
    (out / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")

    missing = _exact_sample(rng, ids, MISSING_SHARE)
    answerable = [d for d in ids if d not in missing]
    malformed = _exact_sample(rng, answerable, MALFORMED_SHARE)
    mock = []
    for doc_id in answerable:
        label = str(labels[doc_id])
        response: str | list[str] = ["yes", label] if doc_id in malformed else label
        mock.append(json.dumps({"doc_id": doc_id, "response": response}) + "\n")
    (out / "mock.jsonl").write_text("".join(mock), encoding="utf-8")

    meta = ["party_id,country,lrgen,govt,antielite_salience,family,name\n"]
    meta += [
        f"{p.party_id},{p.country},{p.lrgen},{p.govt},{p.antielite},{p.family},Party {p.party_id}\n"
        for p in parties
        if p.party_id not in MISSING_META
    ]
    (out / "parties.csv").write_text("".join(meta), encoding="utf-8")

    gold: dict[str, dict[str, int]] = {}
    if gold_docs:
        rows = ["doc_id,coder_id,label\n"]
        for doc_id in sorted(rng.sample(ids, gold_docs)):
            c1 = labels[doc_id] ^ int(rng.random() < GOLD_MODEL_ERROR)
            gold[doc_id] = {"c1": c1}
            rows.append(f"{doc_id},c1,{c1}\n")
            if rng.random() < GOLD_SECOND_CODER_SHARE:
                c2 = c1 ^ int(rng.random() < GOLD_DISAGREEMENT)
                gold[doc_id]["c2"] = c2
                rows.append(f"{doc_id},c2,{c2}\n")
        (out / "gold.csv").write_text("".join(rows), encoding="utf-8")
        # What annotate would have written: planted labels, failures absent.
        ann = []
        for doc_id in answerable:
            raw = str(labels[doc_id])
            ann.append(json.dumps({"doc_id": doc_id, "input_tokens": 40, "label": labels[doc_id], "model_id": MODEL_ID,
                                   "output_tokens": 1, "prompt_hash": f"{rng.getrandbits(64):016x}",
                                   "raw_response": raw}, sort_keys=True) + "\n")
        (out / "annotations.jsonl").write_text("".join(ann), encoding="utf-8")

    if resume_share:
        subset = set(rng.sample(ids, round(resume_share * n_docs)))
        kept = [line for doc_id, line in zip(ids, valid_lines) if doc_id in subset]
        (out / "resume_corpus.jsonl").write_text("".join(kept), encoding="utf-8")

    return Truth(
        labels=labels,
        malformed=malformed,
        missing=missing,
        rejected_lines=n_rejected,
        party_of=party_of,
        retweet=frozenset(retweet),
        parties=parties,
        gold=gold,
    )
