import csv
import io
import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import JSON_PAST_LIMITS, make_doc
from negcamp.errors import IngestError
from negcamp.ingest import (
    DOCUMENT_FIELDS,
    Corpus,
    Rejection,
    corpus_row,
    detect_retweet,
    gold_label_map,
    ingest_documents,
    ingest_gold,
    ingest_party_meta,
    iter_documents,
    read_corpus,
)
from negcamp.reliability import RatingTable
from negcamp.runio import sha256_file


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def record(doc_id, **overrides):
    base = {
        "id": doc_id,
        "text": "a message",
        "lang": "en",
        "country": "GB",
        "author": "a1",
        "party": "p1",
        "created_at": "2020-01-01T00:00:00Z",
        "retweet": False,
    }
    base.update(overrides)
    return base


class TestIngestDocuments:
    def test_well_formed_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("d1"), record("d2"), record("d3")])
        result = ingest_documents(path)
        assert len(result.corpus) == 3
        assert result.rejections == ()

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("d1"), record("d1")])
        result = ingest_documents(path)
        assert len(result.corpus) == 1
        assert len(result.rejections) == 1
        assert result.rejections[0].line == 2
        assert "duplicate" in result.rejections[0].reason

    def test_bundled_fixture_counts(self, data_dir, corpus):
        # Independent oracle: count the fixture's lines directly.
        lines = (data_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(corpus) == len(lines) == 60
        assert {d.country for d in corpus} == {"DE", "ES", "GB"}
        langs = {json.loads(line)["lang"] for line in lines}
        assert len(langs) == 3

    @pytest.mark.parametrize(
        "bad, reason_part",
        [
            (record("dx", lang="xx"), "language"),
            (record("dx", country="ZZ"), "country"),
            (record("dx", text=""), "text"),
            (record("dx", created_at="yesterday"), "created_at"),
            ({"id": "dx", "text": "hi"}, "missing fields"),
        ],
    )
    def test_invalid_records_rejected(self, tmp_path, bad, reason_part):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("d1"), bad])
        result = ingest_documents(path)
        assert len(result.corpus) == 1
        assert result.rejections[0].line == 2
        assert reason_part in result.rejections[0].reason

    def test_unparseable_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record("d1")) + "\n{oops\n", encoding="utf-8")
        result = ingest_documents(path)
        assert len(result.corpus) == 1
        assert result.rejections[0].line == 2

    @pytest.mark.parametrize("line, reason", JSON_PAST_LIMITS)
    def test_line_past_json_limits_rejected(self, tmp_path, line, reason):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record("d1")) + "\n" + line + "\n", encoding="utf-8")
        result = ingest_documents(path)
        assert [doc.id for doc in result.corpus] == ["d1"]
        assert result.rejections == (Rejection(line=2, reason="invalid JSON: " + reason),)

    def test_csv_format(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,text,lang,country,author,party,created_at,retweet\n"
            "d1,hello,en,GB,a1,p1,2020-01-01T00:00:00Z,false\n"
            "d2,RT @x hi,de,DE,a2,p2,2021-07-01T10:30:00+02:00,true\n",
            encoding="utf-8",
        )
        result = ingest_documents(path, fmt="csv")
        assert len(result.corpus) == 2
        assert [d.is_retweet for d in result.corpus] == [False, True]

    def test_csv_rejection_names_the_line_its_record_starts_on(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,text,lang,country,author,party,created_at,retweet\n"
            'd1,"two\nlines",en,GB,a1,p1,2020-01-01T00:00:00Z,false\n'  # lines 2-3
            "d2,,en,GB,a1,p1,2020-01-01T00:00:00Z,false\n"  # line 4
            "\n"
            'd3,"three\nmore\nlines",xx,GB,a1,p1,2020-01-01T00:00:00Z,false\n'  # lines 6-8
            "d4,hi,en,ZZ,a1,p1,2020-01-01T00:00:00Z,false\n",
            encoding="utf-8",
        )
        result = ingest_documents(path, fmt="csv")
        assert [d.text for d in result.corpus] == ["two\nlines"]
        assert [(r.line, r.doc_id) for r in result.rejections] == [(4, "d2"), (6, "d3"), (9, "d4")]

    @pytest.mark.parametrize(
        "created_at",
        [
            "2019-10-20Z",
            pytest.param(
                "20191010Z",
                marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="fromisoformat reads basic dates from 3.11"),
            ),
        ],
    )
    def test_z_suffixed_dates_accepted(self, tmp_path, created_at):
        # Accepted only through the "Z" -> "+00:00" rewrite: a bare fromisoformat rejects both.
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("d1", created_at=created_at)])
        result = ingest_documents(path)
        assert result.rejections == ()
        assert [d.created_at for d in result.corpus] == [created_at]

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_documents(tmp_path / "nope.jsonl")

    def test_reingest_identical(self, data_dir):
        first = ingest_documents(data_dir / "corpus.jsonl").corpus
        second = ingest_documents(data_dir / "corpus.jsonl").corpus
        assert first == second

    def test_iteration_sorted_by_id(self, corpus):
        ids = [d.id for d in corpus]
        assert ids == sorted(ids)

    def test_index_partition(self, corpus):
        ids = [d.id for d in corpus]
        assert len(set(ids)) == len(ids) == len(corpus)


NOT_UTF8 = "a lone surrogate or bytes that are not UTF-8"
CSV_HEADER = "id,text,lang,country,author,party,created_at,retweet"


class TestNotUtf8:
    """A record whose id, text, author or party cannot be written as UTF-8 is
    rejected with its line, and its rejection stays writable."""

    def assert_only_d2_rejected(self, path, fmt, line, field, doc_id):
        result = ingest_documents(path, fmt=fmt)
        assert [doc.id for doc in result.corpus] == ["d1", "d3"]
        (rejection,) = result.rejections
        assert (rejection.line, rejection.reason, rejection.doc_id) == (line, f"invalid {field}: {NOT_UTF8}", doc_id)
        rejection.doc_id.encode("utf-8")

    @pytest.mark.parametrize("field", ["id", "text", "author", "party"])
    def test_lone_surrogate_escape(self, tmp_path, field):
        path = tmp_path / "c.jsonl"
        bad = record("d2", **{"text": "caf\u00e9", "author": "\u00f1", field: "bad \ud800 value"})  # other fields non-ASCII too
        write_jsonl(path, [record("d1"), bad, record("d3")])
        assert b'"bad \\ud800 value"' in path.read_bytes()  # written as a JSON escape
        self.assert_only_d2_rejected(path, "jsonl", 2, field, "bad \\ud800 value" if field == "id" else "d2")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("field", ["id", "text"])
    def test_undecodable_bytes(self, tmp_path, fmt, field):
        path = tmp_path / f"c.{fmt}"
        if fmt == "jsonl":
            lines = [json.dumps(record(d, **{field: "bad XX value"} if d == "d2" else {})) for d in ("d1", "d2", "d3")]
        else:
            lines = [CSV_HEADER] + [
                f"{'bad XX value' if d == 'd2' and field == 'id' else d},"
                f"{'bad XX value' if d == 'd2' and field == 'text' else 'hi'},en,GB,a1,p1,2020-01-01T00:00:00Z,false"
                for d in ("d1", "d2", "d3")
            ]
        path.write_bytes("\n".join(lines).encode("utf-8").replace(b"XX", b"\xff\xfe") + b"\n")
        doc_id = "bad \\udcff\\udcfe value" if field == "id" else "d2"
        self.assert_only_d2_rejected(path, fmt, 2 if fmt == "jsonl" else 3, field, doc_id)

    def test_non_ascii_and_surrogate_pairs_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("d1", text="caf\u00e9 \U0001F5F3", author="\u00f1"), record("d\u00e9", party="p\u2028")])
        assert b"\\ud83d\\uddf3" in path.read_bytes()  # the astral character as an escaped surrogate pair
        result = ingest_documents(path)
        assert result.rejections == ()
        assert [(d.id, d.text) for d in result.corpus] == [("d1", "caf\u00e9 \U0001F5F3"), ("d\u00e9", "a message")]


# One record per rejection reason, after a valid d1 (line 1) and before a
# valid d2 (last line), which is a retweet by its "RT @" prefix only.
JSONL_LINES = [
    json.dumps(record("d1")),
    "",
    "{oops",
    "[1, 2]",
    json.dumps({"id": "dx", "text": "hi"}),
    json.dumps(record("dx", text="")),
    json.dumps(record("dx", lang="xx")),
    json.dumps(record("dx", country="ZZ")),
    json.dumps(record("dx", created_at="yesterday")),
    json.dumps(record("dx", retweet="maybe")),
    json.dumps(record("dx", retweet=1)),
    json.dumps(record("d1", text="again")),
    json.dumps(record("d2", text=" RT @x hi", party="")),
]
JSONL_REASONS = [
    "blank line", "invalid JSON", "record is not an object", "missing fields", "empty text", "invalid language",
    "invalid country", "invalid created_at", "invalid retweet flag", "invalid retweet flag", "duplicate id",
]
CSV_LINES = [
    "id,text,lang,country,author,party,created_at,retweet",
    "d1,a message,en,GB,a1,p1,2020-01-01T00:00:00Z,false",
    "dx,too short",
    "dx,,en,GB,a1,p1,2020-01-01T00:00:00Z,false",
    "dx,hi,xx,GB,a1,p1,2020-01-01T00:00:00Z,false",
    "dx,hi,en,ZZ,a1,p1,2020-01-01T00:00:00Z,false",
    "dx,hi,en,GB,a1,p1,yesterday,false",
    "dx,hi,en,GB,a1,p1,2020-01-01T00:00:00Z,maybe",
    "d1,again,en,GB,a1,p1,2020-01-01T00:00:00Z,false",
    "d2,RT @x hi,de,DE,a2,,2021-07-01T10:30:00+02:00,FALSE",
]
CSV_REASONS = [
    "missing fields", "empty text", "invalid language", "invalid country", "invalid created_at",
    "invalid retweet flag", "duplicate id",
]


class TestIterDocuments:
    @pytest.mark.parametrize("fmt, lines, reasons", [("jsonl", JSONL_LINES, JSONL_REASONS), ("csv", CSV_LINES, CSV_REASONS)])
    def test_same_rejections_and_rows_as_corpus(self, tmp_path, fmt, lines, reasons):
        path = tmp_path / f"c.{fmt}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ingest = ingest_documents(path, fmt=fmt)
        rejections = []
        documents = list(iter_documents(path, fmt, rejections))
        assert tuple(rejections) == ingest.rejections
        assert [r.reason.startswith(reason) for r, reason in zip(rejections, reasons)] == [True] * len(reasons)
        assert len(rejections) == len(reasons)
        assert Corpus(documents) == ingest.corpus
        assert [doc.id for doc in documents] == ["d1", "d2"]
        assert [detect_retweet(doc) for doc in documents] == [False, True]

    def test_file_order_and_first_of_duplicates(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("d3"), record("d1", country="DE"), record("d2"), record("d1")])
        rejections = []
        documents = list(iter_documents(path, "jsonl", rejections))
        assert [(doc.id, doc.country) for doc in documents] == [("d3", "GB"), ("d1", "DE"), ("d2", "GB")]
        assert [(r.line, r.doc_id) for r in rejections] == [(4, "d1")]


# Field values that pass or fail each check: absent (...), None, non-str
# values, bad codes and timestamps, retweet variants and surrogate escapes.
ODD_VALUES = st.sampled_from([..., None, "", 0, 1, 2.5, True, False, [], {}, [1], {"a": 1}, "\ud800", "x\udcff", "\u00e9"])
FIELD_VALUES = {
    "id": st.sampled_from(["d1", "d2", "d\u00e9", "d \ud83d\uddf3"]) | ODD_VALUES,
    "text": st.sampled_from(["hi", "RT @x hi", " caf\u00e9"]) | ODD_VALUES | st.text(max_size=5),
    "lang": st.sampled_from(["en", "de", "xx", "EN"]) | ODD_VALUES,
    "country": st.sampled_from(["GB", "DE", "ZZ", "gb"]) | ODD_VALUES,
    "author": st.sampled_from(["a1", "\u00f1"]) | ODD_VALUES,
    "party": st.sampled_from(["p1", ""]) | ODD_VALUES,
    "created_at": st.sampled_from(
        ["2020-01-01T00:00:00Z", "2021-07-01T10:30:00+02:00", "2019-10-20Z", "20191010Z", "2020-13-01", "yesterday",
         "2020-01-01T00:00:00ZZ", "Z", "2020-01-01 00:00"]
    ) | ODD_VALUES,
    "retweet": st.sampled_from(["true", "FALSE", "True", "maybe", "1", 0, 1]) | ODD_VALUES,
}
JSON_RECORDS = st.fixed_dictionaries({name: values for name, values in FIELD_VALUES.items()}).map(
    lambda r: {k: v for k, v in r.items() if v is not ...}
)
JSON_LINE = JSON_RECORDS.map(json.dumps)
# A record after a BOM or leading whitespace, or before trailing whitespace or data.
PADDED_LINE = st.tuples(st.sampled_from(["", "\ufeff", " \t"]), JSON_LINE, st.sampled_from(["", " \t", " x", "{}"])).map("".join)
JSONL_LINE = JSON_LINE | PADDED_LINE | st.sampled_from(["", "  ", "{oops", "[1, 2]", '"text"', "{}", "null"])


CSV_ROWS = st.lists(
    st.lists(st.sampled_from(["d1", "d2", "hi", "two\nlines", "en", "xx", "GB", "", "p1", "true", "no",
                              "2020-01-01T00:00:00Z", "a,b", 'say "hi"']), max_size=10)
    | st.just([]),  # a blank line
    max_size=10,
)
CSV_HEADERS = st.just(list(DOCUMENT_FIELDS)) | st.permutations(DOCUMENT_FIELDS)


class TestOracleParity:
    """The one-pass record check against the field-by-field oracle."""

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(JSONL_LINE, max_size=12))
    def test_jsonl_documents_and_rejections_equal_oracle(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        rejections, expected_rejections = [], []
        documents = list(iter_documents(path, "jsonl", rejections))
        assert documents == list(oracles.iter_jsonl_documents(path, expected_rejections))
        assert rejections == expected_rejections

    @settings(max_examples=200, deadline=None)
    @given(rows=CSV_ROWS, header=CSV_HEADERS, short_header=st.booleans())
    def test_csv_documents_and_rejections_equal_oracle(self, tmp_path_factory, rows, header, short_header):
        """Documents, reasons and ids as ``csv.DictReader`` rows give them
        through the oracle; lines where each record starts in the text written."""
        header = header[:-1] if short_header else header
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        starts, line = [], 2
        writer.writerow(header)
        for row in rows:
            if row:
                starts.append(line)
            before = buffer.tell()
            writer.writerow(row)
            line += buffer.getvalue()[before:].count("\n")
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        expected, seen = [], set()
        documents = []
        for start, record in zip(starts, csv.DictReader(io.StringIO(buffer.getvalue(), newline=""))):
            try:
                fields = oracles.parse_record(record)
            except ValueError as exc:
                expected.append((start, str(exc), str(record.get("id", ""))))
                continue
            if fields[0] in seen:
                expected.append((start, f"duplicate id {fields[0]!r}", fields[0]))
                continue
            seen.add(fields[0])
            documents.append(fields)
        rejections = []
        assert list(iter_documents(path, "csv", rejections)) == documents
        assert [(r.line, r.reason, r.doc_id) for r in rejections] == expected


class TestCorpusIndexParity:
    """The rows and rejections read back from a corpus index equal those of
    the fresh parse that wrote it."""

    @staticmethod
    def check(path, fmt):
        rejections = []
        fresh = ([corpus_row(doc) for doc in iter_documents(path, fmt, rejections)], rejections)
        sha256, index = sha256_file(path), path.with_name("corpus_index.jsonl")
        assert read_corpus(path, fmt, sha256, index, list) == fresh
        assert index.is_file()
        # A hit reads no corpus: none is at this path, and a miss would raise.
        assert read_corpus(path.with_name("absent"), fmt, sha256, index, list) == fresh

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(JSONL_LINE, max_size=12))
    def test_jsonl(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self.check(path, "jsonl")

    @settings(max_examples=100, deadline=None)
    @given(rows=CSV_ROWS, header=CSV_HEADERS)
    def test_csv(self, tmp_path_factory, rows, header):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        self.check(path, "csv")


class TestIngestGold:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("doc_id,coder_id,label\nd1,c1,1\nd2,c1,0\n", encoding="utf-8")
        labels = ingest_gold(path)
        assert len(labels) == 2
        assert {g.coder_id for g in labels} == {"c1"}

    def test_non_binary_label_names_row(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("doc_id,coder_id,label\nd1,c1,2\n", encoding="utf-8")
        with pytest.raises(IngestError, match="line 2"):
            ingest_gold(path)

    def test_error_names_the_physical_line(self, tmp_path):
        # a blank line 2 and a quoted newline across lines 4 and 5 put the bad row on line 6
        path = tmp_path / "g.csv"
        path.write_text('doc_id,coder_id,label\n\nd1,c1,1\n"d\n2",c1,0\nd3,c1,7\n', encoding="utf-8")
        with pytest.raises(IngestError, match=r"^g\.csv line 6: non-binary label '7'$"):
            ingest_gold(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("doc_id,coder_id,label\nd1,c1,1\nd1,c1,1\n", encoding="utf-8")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_gold(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("id,who,value\nd1,c1,1\n", encoding="utf-8")
        with pytest.raises(IngestError, match="header"):
            ingest_gold(path)

    def test_150_items_13_coders_table_shape(self, tmp_path):
        path = tmp_path / "g.csv"
        rows = ["doc_id,coder_id,label"]
        for i in range(150):
            for c in range(13):
                rows.append(f"p{i:03d},coder{c:02d},{(i + c) % 2}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        labels = ingest_gold(path)
        table = RatingTable.from_records((g.doc_id, g.coder_id, g.label) for g in labels)
        # 150 items, each labeled by all 13 coders: 7 zeros for an even item, 7 ones for an odd one
        assert table.patterns == Counter({(7, 6): 75, (6, 7): 75})

    def test_gold_label_map_unanimous_and_conflicts(self):
        from negcamp.ingest import GoldLabel

        labels = [
            GoldLabel("d1", "c1", 1),
            GoldLabel("d1", "c2", 1),
            GoldLabel("d2", "c1", 0),
            GoldLabel("d2", "c2", 1),
        ]
        mapping, conflicts = gold_label_map(labels)
        assert mapping == {"d1": 1}
        assert conflicts == 1
        single, _ = gold_label_map(labels, coder="c2")
        assert single == {"d1": 1, "d2": 1}


class TestIngestPartyMeta:
    def test_fixture_parses(self, party_meta):
        assert len(party_meta) == 10
        assert party_meta["de_afd"].family == "radical_right"
        assert party_meta["gb_con"].govt == 1

    @pytest.mark.parametrize(
        "row",
        [
            "p1,GB,11.0,0,2.0,socialist,P",  # lrgen out of range
            "p1,GB,5.0,2,2.0,socialist,P",  # govt not binary
            "p1,GB,5.0,0,12.0,socialist,P",  # antielite out of range
            "p1,GB,5.0,0,2.0,unknown_family,P",
            "p1,ZZ,5.0,0,2.0,socialist,P",  # bad country
        ],
    )
    def test_invalid_rows_raise(self, tmp_path, row):
        path = tmp_path / "p.csv"
        path.write_text("party_id,country,lrgen,govt,antielite_salience,family,name\n" + row + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="line 2"):
            ingest_party_meta(path)


    def test_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "party_id,country,lrgen,govt,antielite_salience,family,name\n\n"
            'p1,GB,5.0,0,2.0,socialist,"Party\nOne"\np2,GB,5.0,2,2.0,socialist,P\n',
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match=r"^p\.csv line 5: govt 2 not in \{0, 1\}$"):
            ingest_party_meta(path)


class TestDetectRetweet:
    def test_prefix_rule(self):
        assert detect_retweet(make_doc(text="RT @user hello", retweet=False)) is True

    def test_plain_text(self):
        assert detect_retweet(make_doc(text="Great day", retweet=False)) is False

    def test_flag_dominates(self):
        assert detect_retweet(make_doc(text="Great day", retweet=True)) is True

    def test_leading_whitespace_trimmed(self):
        assert detect_retweet(make_doc(text="   RT @user hi", retweet=False)) is True

    @given(st.text(max_size=40), st.booleans())
    def test_pure_function_of_text_and_flag(self, text, flag):
        docs = [make_doc(doc_id=f"d{i}", text=text or "x", retweet=flag, party=p) for i, p in enumerate(["a", "b"])]
        assert detect_retweet(docs[0]) == detect_retweet(docs[1])


def test_corpus_rejects_duplicate_documents():
    with pytest.raises(IngestError):
        Corpus([make_doc(doc_id="d1"), make_doc(doc_id="d1", text="other")])
