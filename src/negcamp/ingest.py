"""Loading of corpora, gold-standard labels, and party metadata.

``iter_documents`` is the one corpus reader: it streams the valid, unique
records as ``Document``s in file order, and ``ingest_documents`` collects
them into an id-sorted ``Corpus``. ``read_corpus`` gives ``evaluate`` and
``study`` the slim ``CorpusRow``s of that stream, from a corpus index when
one written for the same corpus, format and validation rules is at hand.

Corpus records that fail validation are skipped and reported with their line
number instead of aborting the run, so large ingestions stay resumable and
auditable; that includes a record whose id, text, author or party is not
valid UTF-8 (undecodable bytes, or a lone surrogate escape). Gold and
party-metadata files are small curated inputs, read as a CSV corpus is, and
raise on the first invalid row, an undecodable byte included; errors name
the physical line on which the row starts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import sys
from datetime import datetime
from itertools import pairwise
from json.encoder import encode_basestring
from pathlib import Path
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO, TypeVar

from . import codes
from .codes import ISO_COUNTRIES, ISO_LANGUAGES, PARTY_FAMILIES
from .errors import ConfigError, IngestError
from .runio import atomic_writer

logger = logging.getLogger(__name__)

T = TypeVar("T")

# JSONL / CSV column names of a corpus record, in canonical order.
DOCUMENT_FIELDS = ("id", "text", "lang", "country", "author", "party", "created_at", "retweet")

GOLD_HEADER = ("doc_id", "coder_id", "label")
PARTY_META_HEADER = ("party_id", "country", "lrgen", "govt", "antielite_salience", "family", "name")


class Document(NamedTuple):
    """One political message, a row of its fields. An empty ``party_id``
    marks an independent."""

    id: str
    text: str
    language: str
    country: str
    author_id: str
    party_id: str
    created_at: str
    is_retweet: bool


class CorpusRow(NamedTuple):
    """What ``evaluate`` and ``study`` keep of a document; ``is_retweet`` is
    ``detect_retweet``'s verdict, not the raw flag."""

    id: str
    language: str
    country: str
    party_id: str
    is_retweet: bool


class GoldLabel(NamedTuple):
    doc_id: str
    coder_id: str
    label: int


class PartyMeta(NamedTuple):
    party_id: str
    country: str
    lrgen: float
    govt: int
    antielite_salience: float
    family: str
    display_name: str


class Rejection(NamedTuple):
    """A skipped corpus record: source line number plus the reason."""

    line: int
    reason: str
    doc_id: str = ""


class Corpus:
    """Immutable ``Document``s with unique ids, iterated in id order."""

    def __init__(self, rows: Iterable[Document]):
        self._rows: tuple[Document, ...] = tuple(sorted(rows))
        for before, after in pairwise(self._rows):
            if before[0] == after[0]:
                raise IngestError(f"duplicate document id {after[0]!r} in corpus")

    def __iter__(self) -> Iterator[Document]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} documents)"


class DocumentIngest(NamedTuple):
    """Result of a corpus ingestion: the valid records plus the skip report."""

    corpus: Corpus
    rejections: tuple[Rejection, ...] = ()


def detect_retweet(doc: Document) -> bool:
    """True iff the metadata flag is set or the text starts with ``RT @``.

    The flag is authoritative when present; the prefix rule catches corpora
    whose source database did not mark retweets. Pure function of
    ``(text, is_retweet)``.
    """
    return doc.is_retweet or doc.text.lstrip().startswith("RT @")


_DOCUMENT_VALUES = itemgetter(*DOCUMENT_FIELDS)
_scan_once = json.JSONDecoder().scan_once


def decode_json_line(line: str) -> object:
    """``json.loads(line)``, skipping its pure-Python wrapper when it can: a
    value that starts the line and is followed only by JSON whitespace is
    the C scanner's. Any other line, one with a BOM or leading whitespace
    included, goes to ``json.loads`` for its exact value or error. JSON past
    Python's limits raises ``ValueError`` in fixed wording, ``an integer
    with too many digits`` or ``nested too deeply``, in place of Python's
    message, which embeds its digit limit, or its ``RecursionError``. Every
    JSON text negcamp reads is decoded here."""
    try:
        value, end = _scan_once(line, 0)
        if not line[end:].strip(" \t\n\r"):
            return value
    except (StopIteration, ValueError, RecursionError):  # StopIteration: no value at 0
        pass
    try:
        return json.loads(line)  # trailing data fails here with its error
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ValueError("nested too deeply") from None
    except ValueError:  # the one other error json.loads raises for a str
        raise ValueError("an integer with too many digits") from None


def load_json_file(path: str | Path, context: str) -> object:
    """The JSON value a settings file holds; ``ConfigError`` prefixed with
    ``context`` if the file cannot be read, is not UTF-8 or is not JSON."""
    try:
        return decode_json_line(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: UnicodeDecodeError too
        raise ConfigError(f"{context}: {exc}") from None


def _parse_record(record: Mapping[str, object]) -> tuple[str, str, str, str, str, str, str, bool]:
    """A valid record's fields in ``Document`` order; raises ValueError."""
    try:
        values = _DOCUMENT_VALUES(record)
    except KeyError:
        values = (None,)  # a field is absent
    if None in values:
        missing = [k for k in DOCUMENT_FIELDS if record.get(k) is None]
        raise ValueError("missing fields: " + ", ".join(missing))
    doc_id, text, lang, country, author, party, created_at, retweet = values
    text = str(text)
    if not text:
        raise ValueError("empty text")
    lang = str(lang)
    if lang not in ISO_LANGUAGES:
        raise ValueError(f"invalid language code {lang!r}")
    country = str(country)
    if country not in ISO_COUNTRIES:
        raise ValueError(f"invalid country code {country!r}")
    created_at = str(created_at)
    try:
        # RFC 3339. The "Z" rewrite stays on Python >= 3.11 too, where it widens
        # the accepted set: "2019-10-20Z" and "20191010Z" parse only after it.
        datetime.fromisoformat(created_at[:-1] + "+00:00" if created_at.endswith("Z") else created_at)
    except ValueError:
        raise ValueError(f"invalid created_at timestamp {created_at!r}") from None
    if retweet is not True and retweet is not False:
        if not isinstance(retweet, str) or retweet.lower() not in ("true", "false"):
            raise ValueError(f"invalid retweet flag {retweet!r}")
        retweet = retweet.lower() == "true"
    doc_id, author, party = str(doc_id), str(author), str(party)
    # An ASCII string holds no surrogate, and isascii reads a flag: only a non-ASCII record is encoded.
    if not (doc_id.isascii() and text.isascii() and author.isascii() and party.isascii()):
        try:
            (doc_id + text + author + party).encode("utf-8")
        except UnicodeEncodeError as exc:
            offset = exc.start  # into the concatenation: find the field it falls in
            for name, value in (("id", doc_id), ("text", text), ("author", author), ("party", party)):
                if offset < len(value):
                    raise ValueError(f"invalid {name}: a lone surrogate or bytes that are not UTF-8") from None
                offset -= len(value)
    return doc_id, text, lang, country, author, party, created_at, retweet


def _csv_records(reader: Iterator[list[str]], header: Sequence[str]) -> Iterator[tuple[int, dict[str, str | None]]]:
    """Yield (line number, row) for each record that ``reader``, a
    ``csv.reader`` past the header row, has left: the physical line on which
    the record starts, and the row keyed by ``header``, with None for a
    field a short row lacks and without fields past the header. Blank lines
    are skipped."""
    start = reader.line_num + 1
    for row in reader:
        if row:  # not a blank line
            record: dict[str, str | None] = dict(zip(header, row))
            if len(row) < len(header):
                record.update(dict.fromkeys(header[len(row):]))
            yield start, record
        start = reader.line_num + 1


def iter_documents(path: str | Path, fmt: str, rejections: list[Rejection]) -> Iterator[Document]:
    """Yield each valid, unique corpus record as a ``Document`` in file
    order, appending a ``Rejection`` for every skipped one.

    Duplicate ids keep the first occurrence and reject the later one. A
    JSONL rejection names its line; a CSV one the line its record starts on.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"corpus file not found: {path}")
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unsupported corpus format {fmt!r} (expected jsonl or csv)")
    jsonl = fmt == "jsonl"
    seen: set[str] = set()
    with path.open(encoding="utf-8", errors="surrogateescape", newline=None if jsonl else "") as fh:
        if jsonl:
            records = enumerate(fh, start=1)
        else:
            reader = csv.reader(fh)
            records = _csv_records(reader, next(reader, []))
        for lineno, record in records:
            if jsonl:
                try:
                    record = decode_json_line(record)
                except json.JSONDecodeError as exc:  # a blank line fails to decode too
                    reason = f"invalid JSON: {exc.msg}" if record.strip() else "blank line"
                    rejections.append(Rejection(line=lineno, reason=reason))
                    continue
                except ValueError as exc:  # past Python's limits
                    rejections.append(Rejection(line=lineno, reason=f"invalid JSON: {exc}"))
                    continue
                if not isinstance(record, dict):
                    rejections.append(Rejection(line=lineno, reason="record is not an object"))
                    continue
            try:
                fields = _parse_record(record)
            except ValueError as exc:
                doc_id = str(record.get("id", "")).encode("utf-8", "backslashreplace").decode("utf-8")
                rejections.append(Rejection(line=lineno, reason=str(exc), doc_id=doc_id))
                continue
            doc_id = fields[0]
            if doc_id in seen:
                rejections.append(Rejection(line=lineno, reason=f"duplicate id {doc_id!r}", doc_id=doc_id))
                continue
            seen.add(doc_id)
            yield Document._make(fields)


_new_row = tuple.__new__  # builds a row without the Python-level ``CorpusRow.__new__``


def corpus_row(doc: Document) -> CorpusRow:
    return _new_row(CorpusRow, (doc.id, doc.language, doc.country, doc.party_id, detect_retweet(doc)))


class _UnusableIndex(Exception):
    """Why a corpus index cannot stand in for its corpus."""


def _rules_digest() -> str:
    """sha256 of what decides which records are valid: this module's and
    ``codes``' bytes, and Python's major.minor version, on which
    ``fromisoformat`` and the JSON limits depend."""
    digest = hashlib.sha256()
    for module_file in (__file__, codes.__file__):
        digest.update(Path(module_file).read_bytes())
    digest.update(b"python %d.%d" % sys.version_info[:2])
    return digest.hexdigest()


def _indexed(documents: Iterable[Document], fh: TextIO, header: str, rejections: list[Rejection]) -> Iterator[CorpusRow]:
    """Each document's ``CorpusRow``, written to ``fh`` as it passes: the
    header line, one JSON array per row, and a trailer of the row count and
    ``rejections`` once the documents are exhausted."""
    write = fh.write
    write(header + "\n")
    n_documents = 0
    for doc in documents:
        row = corpus_row(doc)
        doc_id, language, country, party_id, is_retweet = row
        write(f"[{encode_basestring(doc_id)},{encode_basestring(language)},{encode_basestring(country)},"
              f"{encode_basestring(party_id)},{'true' if is_retweet else 'false'}]\n")
        n_documents += 1
        yield row
    write(json.dumps({"n_documents": n_documents, "rejections": rejections}, sort_keys=True) + "\n")


def _header_change(line: str, header: str) -> str:
    """Why an index whose first line is ``line`` was not written under ``header``."""
    expected = decode_json_line(header)
    try:
        found = decode_json_line(line)
    except ValueError:
        found = None
    if type(found) is not dict or found.keys() != expected.keys():
        return "line 1: not an index header"
    return "built for another " + " and ".join(key for key in sorted(expected) if found[key] != expected[key])


def _is_trailer(value: object, n_documents: int) -> bool:
    return (
        type(value) is dict
        and value.keys() == {"n_documents", "rejections"}
        and type(value["n_documents"]) is int
        and value["n_documents"] == n_documents
        and type(value["rejections"]) is list
        and all(
            type(r) is list and len(r) == 3 and type(r[0]) is int and type(r[1]) is str and type(r[2]) is str
            for r in value["rejections"]
        )
    )


def _index_rows(index_path: str | Path, header: str, rejections: list[Rejection]) -> Iterator[CorpusRow]:
    """The rows of an index that ``_indexed`` wrote under ``header``, then
    its rejections appended to ``rejections``; ``_UnusableIndex`` if it was
    written under another header, or is unreadable, cut short or altered."""
    lineno = 1
    try:
        with open(index_path, encoding="utf-8") as fh:
            first = fh.readline()
            if first != header + "\n":
                raise _UnusableIndex(_header_change(first, header))
            n_documents = 0
            for lineno, line in enumerate(fh, start=2):
                row = decode_json_line(line)
                if type(row) is not list or len(row) != 5:
                    break  # the trailer, if the index is whole
                doc_id, language, country, party_id, is_retweet = row
                if not (type(doc_id) is type(language) is type(country) is type(party_id) is str
                        and (is_retweet is True or is_retweet is False)):
                    raise _UnusableIndex(f"line {lineno}: not a row")
                n_documents += 1
                yield _new_row(CorpusRow, row)
            else:
                raise _UnusableIndex("no trailer")
            if not _is_trailer(row, n_documents) or fh.readline():
                raise _UnusableIndex(f"line {lineno}: not a final trailer for {n_documents} rows")
    except (OSError, UnicodeDecodeError) as exc:  # the decoder reads ahead of the lines: no line number
        raise _UnusableIndex(str(exc)) from None
    except ValueError as exc:  # JSON past Python's limits too
        raise _UnusableIndex(f"line {lineno}: {exc}") from None
    rejections.extend(map(Rejection._make, row["rejections"]))


def read_corpus(
    path: str | Path, fmt: str, sha256: str, index_path: str | Path, reduce: Callable[[Iterable[CorpusRow]], T]
) -> tuple[T, list[Rejection]]:
    """``reduce`` of the ``CorpusRow``s of the valid, unique records of the
    corpus at ``path``, whose sha256 is ``sha256``, in file order, and the
    rejections, as ``iter_documents`` reads them; ``reduce`` must consume
    every row.

    The rows come from the corpus index at ``index_path`` if it was written
    for the same corpus digest, format and validation rules
    (``_rules_digest``). Otherwise they come from the corpus, and the index
    is written as they stream. Trouble with the index is never fatal: an
    index that cannot be used is logged, ``corpus index ignored: REASON``,
    and rewritten (``reduce`` starts again if it has seen rows from it), and
    one that cannot be written is logged and left out.
    """
    header = json.dumps({"corpus_format": fmt, "corpus_sha256": sha256, "rules": _rules_digest()}, sort_keys=True)
    rejections: list[Rejection] = []
    if os.path.lexists(index_path):
        try:
            return reduce(_index_rows(index_path, header, rejections)), rejections
        except _UnusableIndex as exc:
            logger.warning("corpus index ignored: %s", exc)
            rejections.clear()
    done = False
    try:
        with atomic_writer(index_path) as fh:
            result = reduce(_indexed(iter_documents(path, fmt, rejections), fh, header, rejections))
            done = True
    except OSError as exc:
        logger.warning("corpus index not written: %s", exc)
    if not done:  # the write failed before the rows were all read: read them again
        rejections.clear()
        result = reduce(map(corpus_row, iter_documents(path, fmt, rejections)))
    return result, rejections


def ingest_documents(path: str | Path, fmt: str = "jsonl") -> DocumentIngest:
    """Load a corpus file into a ``Corpus``, skipping and reporting invalid
    records as ``iter_documents`` does."""
    rejections: list[Rejection] = []
    corpus = Corpus(iter_documents(path, fmt, rejections))
    return DocumentIngest(corpus=corpus, rejections=tuple(rejections))


def _csv_rows(path: str | Path, header: tuple[str, ...], kind: str) -> Iterator[tuple[str, int, dict[str, str | None]]]:
    """Yield (file name, line number, row) for each row of a curated CSV
    file, as ``_csv_records`` reads a corpus, raising ``IngestError`` for a
    missing file, a wrong header or a row with bytes that are not UTF-8."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"{kind} file not found: {path}")
    with path.open(encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != header:
            raise IngestError(f"{path.name}: expected header {','.join(header)}")
        for lineno, row in _csv_records(reader, header):
            try:
                "".join(v for v in row.values() if v is not None).encode("utf-8")
            except UnicodeEncodeError:
                raise IngestError(f"{path.name} line {lineno}: bytes that are not UTF-8") from None
            yield path.name, lineno, row


def ingest_gold(path: str | Path) -> list[GoldLabel]:
    """Load a gold-label CSV with header ``doc_id,coder_id,label``.

    Labels must be 0 or 1 and (doc_id, coder_id) pairs unique; violations
    raise naming the offending row. Multi-coder tables are allowed.
    """
    labels: list[GoldLabel] = []
    seen: set[tuple[str, str]] = set()
    for name, lineno, row in _csv_rows(path, GOLD_HEADER, "gold"):
        if row.get("doc_id") is None or row.get("coder_id") is None:
            raise IngestError(f"{name} line {lineno}: short row")
        raw = (row["label"] or "").strip()
        if raw not in ("0", "1"):
            raise IngestError(f"{name} line {lineno}: non-binary label {raw!r}")
        key = (row["doc_id"], row["coder_id"])
        if key in seen:
            raise IngestError(f"{name} line {lineno}: duplicate (doc_id, coder_id) {key!r}")
        seen.add(key)
        labels.append(GoldLabel(doc_id=row["doc_id"], coder_id=row["coder_id"], label=int(raw)))
    return labels


def ingest_party_meta(path: str | Path) -> dict[str, PartyMeta]:
    """Load the party covariate CSV keyed by party_id."""
    meta: dict[str, PartyMeta] = {}
    for name, lineno, row in _csv_rows(path, PARTY_META_HEADER, "party metadata"):
        try:
            record = _parse_party_row(row)
        except (ValueError, TypeError) as exc:
            raise IngestError(f"{name} line {lineno}: {exc}") from None
        if record.party_id in meta:
            raise IngestError(f"{name} line {lineno}: duplicate party_id {record.party_id!r}")
        meta[record.party_id] = record
    return meta


def _parse_party_row(row: Mapping[str, str]) -> PartyMeta:
    if any(row.get(k) is None for k in PARTY_META_HEADER):
        raise ValueError("short row")
    party_id = row["party_id"]
    if not party_id:
        raise ValueError("empty party_id")
    country = row["country"]
    if country not in ISO_COUNTRIES:
        raise ValueError(f"invalid country code {country!r}")
    lrgen = float(row["lrgen"])
    if not 0.0 <= lrgen <= 10.0:
        raise ValueError(f"lrgen {lrgen} outside [0, 10]")
    govt = int(row["govt"])
    if govt not in (0, 1):
        raise ValueError(f"govt {govt} not in {{0, 1}}")
    antielite = float(row["antielite_salience"])
    if not 0.0 <= antielite <= 10.0:
        raise ValueError(f"antielite_salience {antielite} outside [0, 10]")
    family = row["family"]
    if family not in PARTY_FAMILIES:
        raise ValueError(f"unknown party family {family!r}")
    return PartyMeta(
        party_id=party_id,
        country=country,
        lrgen=lrgen,
        govt=govt,
        antielite_salience=antielite,
        family=family,
        display_name=row["name"],
    )


def gold_label_map(
    labels: Iterable[GoldLabel], coder: str | None = None
) -> tuple[dict[str, int], int]:
    """Collapse gold labels to one label per document.

    With ``coder`` given, only that coder's labels are used. Otherwise
    documents labeled identically by all their coders are kept and
    conflicting documents are dropped; the second return value counts the
    dropped conflicts.
    """
    if coder is not None:
        return {g.doc_id: g.label for g in labels if g.coder_id == coder}, 0
    per_doc: dict[str, set[int]] = {}
    for g in labels:
        per_doc.setdefault(g.doc_id, set()).add(g.label)
    conflicts = sum(1 for v in per_doc.values() if len(v) > 1)
    if conflicts:
        logger.warning("dropping %d documents with conflicting gold labels", conflicts)
    return {d: next(iter(v)) for d, v in per_doc.items() if len(v) == 1}, conflicts
