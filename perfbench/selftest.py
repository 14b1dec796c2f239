"""Tests of the benchmark itself: generator determinism and the verifier.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the ``test_*.py`` pattern so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from negcamp import cli  # noqa: E402

from perfbench import gen, verify  # noqa: E402

FILES = ("corpus.jsonl", "mock.jsonl", "parties.csv", "gold.csv", "annotations.jsonl", "resume_corpus.jsonl")


def _generate(path: Path, seed: int) -> gen.Truth:
    return gen.generate(path, 2_000, seed, gold_docs=300, resume_share=0.8)


def test_same_seed_gives_byte_identical_files(tmp_path):
    _generate(tmp_path / "a", 7)
    _generate(tmp_path / "b", 7)
    _generate(tmp_path / "c", 8)
    for name in FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (tmp_path / "c" / "corpus.jsonl").read_bytes()


def test_planted_shares_are_exact(tmp_path):
    truth = _generate(tmp_path, 3)
    assert truth.n_docs == 2_000
    assert len(truth.missing) == round(gen.MISSING_SHARE * 2_000)
    assert len(truth.malformed) == round(gen.MALFORMED_SHARE * (2_000 - len(truth.missing)))
    assert not truth.malformed & truth.missing
    lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2_000 + truth.rejected_lines
    assert len({p.party_id for p in truth.parties}) == gen.N_PARTIES
    assert len({p.country for p in truth.parties}) == len(gen.COUNTRIES) == 19


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    base = tmp_path_factory.mktemp("annotate")
    truth = gen.generate(base / "in", 1_000, 5)
    out = base / "out"
    code = cli.main(["annotate", "--corpus", str(base / "in" / "corpus.jsonl"), "--mock", str(base / "in" / "mock.jsonl"),
                     "--out", str(out)])
    assert code == 0
    return truth, out


def test_verifier_accepts_the_program_output(annotated):
    truth, out = annotated
    assert verify.check_annotate(out, truth) == []


def test_verifier_rejects_one_flipped_label(annotated, tmp_path):
    truth, out = annotated
    records = [json.loads(line) for line in (out / "annotations.jsonl").read_text(encoding="utf-8").splitlines()]
    records[len(records) // 2]["label"] ^= 1
    (tmp_path / "annotations.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (tmp_path / "failures.jsonl").write_bytes((out / "failures.jsonl").read_bytes())
    problems = verify.check_annotate(tmp_path, truth)
    assert len(problems) == 1 and "1 labels differ" in problems[0]


def test_verifier_rejects_a_missing_failure(annotated, tmp_path):
    truth, out = annotated
    (tmp_path / "annotations.jsonl").write_bytes((out / "annotations.jsonl").read_bytes())
    failures = (out / "failures.jsonl").read_text(encoding="utf-8").splitlines()
    (tmp_path / "failures.jsonl").write_text("\n".join(failures[1:]) + "\n", encoding="utf-8")
    assert verify.check_annotate(tmp_path, truth)


def test_analyze_expectations_match_the_program(tmp_path):
    truth = gen.generate(tmp_path / "in", 50_000, 2, gold_docs=500)
    i, out = tmp_path / "in", tmp_path / "out"
    common = ["--corpus", str(i / "corpus.jsonl"), "--annotations", str(i / "annotations.jsonl"), "--out", str(out)]
    assert cli.main(["evaluate", "--gold", str(i / "gold.csv"), *common]) == 0
    assert cli.main(["study", "--party-meta", str(i / "parties.csv"), "--model-variant", "family", *common]) == 0
    assert verify.check_evaluate(out, truth) == []
    assert verify.check_study(out, truth) == []
    manifest = json.loads((out / "manifest_study.json").read_text(encoding="utf-8"))
    manifest["outputs"]["n_obs"] += 1
    (out / "manifest_study.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert verify.check_study(out, truth) == [f"study n_obs = {manifest['outputs']['n_obs']}, expected "
                                              f"{manifest['outputs']['n_obs'] - 1}"]
