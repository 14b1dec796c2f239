"""Checks of the program's outputs against what the generator planted.

Each check returns a list of problems; an empty list means the output is
correct. The expected evaluation and study counts are computed here from the
generator's truth, independently of negcamp's own code.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from perfbench.gen import MISSING_META, Truth

MIN_TWEETS = 500


def digests(out: Path, names: tuple[str, ...] | None = None) -> dict[str, str]:
    """sha256 of the named output files (default: every file in ``out``)."""
    paths = [out / n for n in names] if names is not None else sorted(p for p in out.iterdir() if p.is_file())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def read_jsonl(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_annotate(out: Path, truth: Truth) -> list[str]:
    """Every label equals the planted label, and exactly the planted missing
    ids are recorded as transport failures."""
    problems = []
    labelled = {}
    for record in read_jsonl(out / "annotations.jsonl"):
        labelled[record["doc_id"]] = record["label"]
    expected = {d: lab for d, lab in truth.labels.items() if d not in truth.missing}
    if labelled.keys() != expected.keys():
        problems.append(f"annotated ids differ from planted: {len(labelled)} written, {len(expected)} expected")
    wrong = sorted(d for d, lab in labelled.items() if expected.get(d) != lab)
    if wrong:
        problems.append(f"{len(wrong)} labels differ from planted, e.g. {wrong[:3]}")
    failures = read_jsonl(out / "failures.jsonl")
    if {f["doc_id"] for f in failures} != truth.missing or any(f["kind"] != "transport" for f in failures):
        problems.append(f"failures.jsonl differs from the {len(truth.missing)} planted missing ids")
    return problems


def expected_evaluation(truth: Truth) -> dict[str, float]:
    """Pooled n, acc, supp_0 and supp_1 for gold without --gold-coder:
    documents whose coders disagree are dropped, the join is on the ids that
    also have a model label."""
    gold = {d: coders["c1"] for d, coders in truth.gold.items() if len(set(coders.values())) == 1}
    shared = [d for d in gold if d in truth.labels and d not in truth.missing]
    agree = sum(gold[d] == truth.labels[d] for d in shared)
    supp_1 = sum(gold[d] for d in shared)
    return {"n": len(shared), "acc": agree / len(shared), "supp_0": len(shared) - supp_1, "supp_1": supp_1}


def expected_study(truth: Truth) -> dict[str, int]:
    """n_aggregates, n_obs and n_clusters of ``study`` with default filters:
    independents and retweets out, parties below MIN_TWEETS labelled
    documents out, parties without metadata kept but not fitted."""
    total: dict[str, int] = {}
    originals: dict[str, int] = {}
    for doc_id, party in truth.party_of.items():
        if party and doc_id not in truth.missing:
            total[party] = total.get(party, 0) + 1
            originals[party] = originals.get(party, 0) + (doc_id not in truth.retweet)
    kept = [p for p, n in total.items() if n >= MIN_TWEETS and originals[p]]
    fitted = [p for p in kept if p not in MISSING_META]
    country = {p.party_id: p.country for p in truth.parties}
    return {"n_aggregates": len(kept), "n_obs": len(fitted), "n_clusters": len({country[p] for p in fitted})}


def check_evaluate(out: Path, truth: Truth) -> list[str]:
    pooled = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))["pooled"]
    expected = expected_evaluation(truth)
    return [f"evaluation pooled {k} = {pooled[k]!r}, expected {v!r}" for k, v in expected.items() if pooled[k] != v]


def check_study(out: Path, truth: Truth) -> list[str]:
    manifest = json.loads((out / "manifest_study.json").read_text(encoding="utf-8"))["outputs"]
    expected = expected_study(truth)
    expected["n_unlabeled_documents"] = len(truth.missing)
    return [f"study {k} = {manifest[k]!r}, expected {v!r}" for k, v in expected.items() if manifest[k] != v]
