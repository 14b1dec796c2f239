"""The corpus index: the first ``evaluate`` or ``study`` to read a corpus
into an output directory leaves ``corpus_index.jsonl`` there, later runs
read it in place of the corpus, and trouble with it never changes an output
or fails a command."""

import csv
import json
import tracemalloc
from contextlib import contextmanager

import pytest

from helpers import synthetic_study_files
from negcamp import cli, ingest
from negcamp.cli import main
from negcamp.ingest import DOCUMENT_FIELDS, corpus_row, iter_documents, read_corpus
from negcamp.runio import sha256_file

INDEX = "corpus_index.jsonl"
STUDY_FILES = ("aggregates.csv", "figure1_country.csv", "figure2_party.csv", "regression.json", "regression.txt")


def run(*argv):
    return main([str(a) for a in argv])


def evaluate(data_dir, golden_dir, out, corpus=None, fmt="jsonl"):
    return run(
        "evaluate", "--corpus", corpus or data_dir / "corpus.jsonl", "--corpus-format", fmt, "--gold",
        data_dir / "gold.csv", "--annotations", golden_dir / "annotations.jsonl", "--out", out,
    )


def study(data_dir, golden_dir, out, corpus=None, fmt="jsonl"):
    return run(
        "study", "--corpus", corpus or data_dir / "corpus.jsonl", "--corpus-format", fmt, "--annotations",
        golden_dir / "annotations.jsonl", "--party-meta", data_dir / "parties.csv", "--min-tweets", 0,
        "--model-variant", "m1", "--out", out,
    )


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def pipeline(data_dir, golden_dir, out, corpus=None, fmt="jsonl"):
    """evaluate, then study, into ``out``; every file in it."""
    assert evaluate(data_dir, golden_dir, out, corpus, fmt) == 0
    assert study(data_dir, golden_dir, out, corpus, fmt) == 0
    return outputs(out)


def index_warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("corpus index")]


@pytest.fixture(scope="module")
def clean(data_dir, golden_dir, tmp_path_factory):
    return pipeline(data_dir, golden_dir, tmp_path_factory.mktemp("clean"))


def refuse(*args, **kwargs):
    raise AssertionError("the corpus was parsed")


def test_two_fresh_output_directories_byte_identical(data_dir, golden_dir, tmp_path, clean):
    """What the benchmark's analyze check requires: every file, the index
    included, is the same in each output directory."""
    first = pipeline(data_dir, golden_dir, tmp_path / "a")
    assert first == pipeline(data_dir, golden_dir, tmp_path / "b") == clean
    assert INDEX in first
    assert first["evaluation.json"] == (golden_dir / "evaluation.json").read_bytes()
    for name in STUDY_FILES:
        assert first[name] == (golden_dir / "study_m1" / name).read_bytes(), name


@pytest.mark.parametrize("first, second", [(evaluate, study), (study, evaluate)], ids=["evaluate-first", "study-first"])
def test_hit_never_parses_the_corpus(data_dir, golden_dir, tmp_path, monkeypatch, caplog, clean, first, second):
    out = tmp_path / "out"
    assert first(data_dir, golden_dir, out) == 0
    monkeypatch.setattr(ingest, "iter_documents", refuse)
    assert second(data_dir, golden_dir, out) == 0
    assert outputs(out) == clean
    assert index_warnings(caplog) == []


def csv_copy(source, path):
    with source.open(encoding="utf-8") as fh, path.open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(DOCUMENT_FIELDS)
        for line in fh:
            record = json.loads(line)
            writer.writerow([str(record[name]).lower() if name == "retweet" else record[name] for name in DOCUMENT_FIELDS])
    return path


class TestInvalidation:
    """Another corpus digest, format or rules digest invalidates the index,
    which is then rewritten as a fresh run writes it."""

    def check(self, data_dir, golden_dir, tmp_path, caplog, corpus, fmt, reason):
        out = tmp_path / "out"
        assert study(data_dir, golden_dir, out, corpus, fmt) == 0
        assert index_warnings(caplog) == [f"corpus index ignored: built for another {reason}"]
        fresh = pipeline(data_dir, golden_dir, tmp_path / "fresh", corpus, fmt)
        evaluated = ("evaluation.json", "evaluation.txt", "manifest_evaluate.json")  # by the first run, from the old inputs
        assert {k: v for k, v in outputs(out).items() if k not in evaluated} == {k: v for k, v in fresh.items() if k not in evaluated}

    def test_one_byte_corpus_edit(self, data_dir, golden_dir, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        text = (data_dir / "corpus.jsonl").read_text(encoding="utf-8")
        corpus.write_text(text, encoding="utf-8")
        assert evaluate(data_dir, golden_dir, tmp_path / "out", corpus) == 0
        index = (tmp_path / "out" / INDEX).read_bytes()
        corpus.write_text(text.replace('"text": "', '"text": "!', 1), encoding="utf-8")
        self.check(data_dir, golden_dir, tmp_path, caplog, corpus, "jsonl", "corpus_sha256")
        assert (tmp_path / "out" / INDEX).read_bytes() != index

    def test_other_corpus_format(self, data_dir, golden_dir, tmp_path, caplog):
        assert evaluate(data_dir, golden_dir, tmp_path / "out") == 0
        corpus = csv_copy(data_dir / "corpus.jsonl", tmp_path / "corpus.csv")
        self.check(data_dir, golden_dir, tmp_path, caplog, corpus, "csv", "corpus_format and corpus_sha256")

    def test_same_file_read_as_other_format(self, data_dir, tmp_path, caplog):
        corpus, index = data_dir / "corpus.jsonl", tmp_path / INDEX
        sha256 = sha256_file(corpus)
        read_corpus(corpus, "jsonl", sha256, index, list)
        rejections = []
        expected = ([corpus_row(doc) for doc in iter_documents(corpus, "csv", rejections)], rejections)
        assert read_corpus(corpus, "csv", sha256, index, list) == expected
        assert index_warnings(caplog) == ["corpus index ignored: built for another corpus_format"]
        assert read_corpus(tmp_path / "absent", "csv", sha256, index, list) == expected

    def test_changed_rules(self, data_dir, golden_dir, tmp_path, caplog, monkeypatch):
        assert evaluate(data_dir, golden_dir, tmp_path / "out") == 0
        monkeypatch.setattr(ingest, "_rules_digest", lambda: "0" * 64)
        self.check(data_dir, golden_dir, tmp_path, caplog, data_dir / "corpus.jsonl", "jsonl", "rules")


def cut_mid_line(data):
    return data[: len(data) // 2]


def drop_line(number):
    def drop(data):
        lines = data.splitlines(keepends=True)
        del lines[number - 1 if number > 0 else number]
        return b"".join(lines)

    return drop


def replace_line(number, text):
    def replace(data):
        lines = data.splitlines(keepends=True)
        lines[number - 1] = text
        return b"".join(lines)

    return replace


TROUBLE = {
    "truncated": (cut_mid_line, "line 30: Unterminated string starting at"),
    "no-trailer": (drop_line(-1), "no trailer"),
    "deleted-row": (drop_line(3), "line 61: not a final trailer for 59 rows"),
    "garbage-line": (replace_line(3, b"garbage\n"), "line 3: Expecting value: line 1 column 1 (char 0)"),
    "wrong-row-shape": (replace_line(3, b'["d003","en","GB","gb_con",0]\n'), "line 3: not a row"),
    "line-after-trailer": (lambda data: data + b"{}\n", "line 62: not a final trailer for 60 rows"),
    "not-utf-8": (replace_line(3, b'["d\xff03","en","GB","gb_con",false]\n'), "'utf-8' codec can't decode byte 0xff"),
    "not-a-header": (replace_line(1, b"[]\n"), "line 1: not an index header"),
    "empty": (lambda data: b"", "line 1: not an index header"),
}


@pytest.mark.parametrize("case", sorted(TROUBLE))
def test_unusable_index_warns_and_is_rewritten(data_dir, golden_dir, tmp_path, caplog, clean, case):
    spoil, reason = TROUBLE[case]
    out = tmp_path / "out"
    assert evaluate(data_dir, golden_dir, out) == 0
    index = out / INDEX
    index.write_bytes(spoil(index.read_bytes()))
    assert study(data_dir, golden_dir, out) == 0
    warnings = index_warnings(caplog)
    assert len(warnings) == 1 and warnings[0].startswith("corpus index ignored: " + reason), warnings
    assert outputs(out) == clean


def test_index_path_that_is_a_directory(data_dir, golden_dir, tmp_path, caplog, clean):
    out = tmp_path / "out"
    (out / INDEX).mkdir(parents=True)
    assert pipeline(data_dir, golden_dir, out) == {k: v for k, v in clean.items() if k != INDEX}
    warnings = index_warnings(caplog)
    assert len(warnings) == 4  # each command: ignored, then not written
    assert warnings[0].startswith("corpus index ignored: [Errno 21] Is a directory")
    assert warnings[1].startswith("corpus index not written: [Errno 21] Is a directory")
    assert sorted(p.name for p in out.iterdir() if not p.is_file()) == [INDEX]


def test_write_failing_partway_reads_the_corpus_again(data_dir, tmp_path, caplog, monkeypatch):
    real = ingest.atomic_writer

    class Full:
        """A handle on a disk that fills up at the tenth write."""

        def __init__(self, fh):
            self.fh, self.calls = fh, 0

        def write(self, text):
            self.calls += 1
            if self.calls == 10:
                raise OSError(28, "No space left on device")
            self.fh.write(text)

    @contextmanager
    def failing(path):
        with real(path) as fh:
            yield Full(fh)

    monkeypatch.setattr(ingest, "atomic_writer", failing)
    corpus, index, passes = data_dir / "corpus.jsonl", tmp_path / INDEX, []

    def reduce(rows):
        passes.append(None)
        return list(rows)

    rejections = []
    expected = [corpus_row(doc) for doc in iter_documents(corpus, "jsonl", rejections)]
    assert read_corpus(corpus, "jsonl", sha256_file(corpus), index, reduce) == (expected, rejections)
    assert len(passes) == 2
    assert index_warnings(caplog) == ["corpus index not written: [Errno 28] No space left on device"]
    assert list(tmp_path.iterdir()) == []


def test_study_hit_keeps_nothing_per_document(tmp_path, monkeypatch):
    """On a hit the corpus pass holds O(parties): no set of seen ids, no
    row. Its peak traced memory grows by less than a pointer per document
    when each party has three times the documents, while a miss, which
    keeps the seen ids, grows by more than 40 B per document."""
    real, peaks = cli.read_corpus, []

    def measured(*args):
        tracemalloc.start()
        try:
            return real(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "read_corpus", measured)

    def miss_and_hit(docs_per_party):
        where = tmp_path / str(docs_per_party)
        where.mkdir()
        corpus, annotations, meta = synthetic_study_files(where, docs_per_party=docs_per_party)
        for _ in range(2):
            argv = ("study", "--corpus", corpus, "--annotations", annotations, "--party-meta", meta, "--min-tweets", 0)
            assert run(*argv, "--out", where / "out") == 0
        return peaks[-2:]

    small_miss, small_hit = miss_and_hit(20)  # 151 parties, 3,020 documents
    large_miss, large_hit = miss_and_hit(60)  # 9,060 documents
    assert large_miss - small_miss > 6040 * 40, (small_miss, large_miss)
    assert large_hit - small_hit < 6040 * 4, (small_hit, large_hit)  # half a pointer per document


def test_index_format(data_dir, tmp_path):
    corpus = data_dir / "corpus.jsonl"
    sha256 = sha256_file(corpus)
    read_corpus(corpus, "jsonl", sha256, tmp_path / INDEX, list)
    lines = (tmp_path / INDEX).read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"corpus_format": "jsonl", "corpus_sha256": sha256, "rules": ingest._rules_digest()}
    assert lines[1] == '["d001","en","GB","gb_con",false]'
    assert lines[-1] == '{"n_documents": 60, "rejections": []}'
    assert len(lines) == 62
