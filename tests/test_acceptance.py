"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here runs offline. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from helpers import make_doc, synthetic_study
from oracles import alpha_brute, f1_brute, hc0_cov, kappa_bp_brute, two_rater_table, within_demeaned_beta
from negcamp.annotate import MOCK_RETRY, MockTransport, ModelConfig, annotate_batch, estimate_cost, read_annotations
from negcamp.cli import main
from negcamp.codebook import PromptVariant, builtin_codebooks
from negcamp.errors import TransportError, UndefinedMetric
from negcamp.ingest import PartyMeta, corpus_row
from negcamp.reliability import (
    brennan_prediger,
    compare,
    confusion,
    f1_scores,
    krippendorff_alpha_nominal,
    pairwise_percent_agreement,
)
from negcamp.study import (
    AggregationFilters as Filters,
    ModelVariant,
    aggregate_parties,
    build_design,
    cluster_robust_se,
    count_documents,
    fit_model,
    fit_ols,
    marginal_means_family,
)

MINI = ModelConfig.for_model("gpt-4o-mini-2024-07-18")


def criterion(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def pair_table(a, b):
    gold = {f"i{k}": v for k, v in enumerate(a)}
    pred = {f"i{k}": v for k, v in enumerate(b)}
    return two_rater_table(gold, pred), gold, pred


def safe_alpha(table):
    try:
        return krippendorff_alpha_nominal(table)
    except UndefinedMetric:
        return None


def test_criterion_1_exhaustive_metric_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    count = 0
    for cells in itertools.product(range(4), repeat=5):
        a = [c % 2 for c in cells]
        b = [c // 2 for c in cells]
        count += 1
        table, gold, pred = pair_table(a, b)
        units = [[x, y] for x, y in zip(a, b)]

        alpha = safe_alpha(table)
        alpha_expected = alpha_brute(units)
        ok &= (alpha is None) == (alpha_expected is None)
        if alpha is not None and alpha_expected is not None:
            ok &= abs(alpha - alpha_expected) < 1e-12

        kappa = brennan_prediger(table)
        ok &= abs(kappa - kappa_bp_brute(units)) < 1e-12

        report = compare(gold, pred)
        ok &= (report.alpha_k is None) == (alpha_expected is None)
        if report.alpha_k is not None and alpha_expected is not None:
            ok &= abs(report.alpha_k - alpha_expected) < 1e-12
        ok &= abs(report.kappa_bp - kappa_bp_brute(units)) < 1e-12

        scores = f1_scores(confusion(gold, pred))
        expected = f1_brute(a, b)
        ok &= abs(scores.accuracy - expected["acc"]) < 1e-12
        ok &= abs(scores.f1_0 - expected["f1_0"]) < 1e-12
        ok &= abs(scores.f1_1 - expected["f1_1"]) < 1e-12
        ok &= abs(scores.f1_weighted - expected["f1_w"]) < 1e-12
        ok &= abs(scores.f1_macro - expected["f1_macro"]) < 1e-12
        ok &= sorted(scores.flags) == sorted(expected["flags"])
    elapsed = time.perf_counter() - start
    ok &= count == 1024 and elapsed < 10.0
    criterion(1, f"all {count} two-rater tables match brute-force oracles within 1e-12 in {elapsed:.2f}s", ok)


def test_criterion_2_closed_form_checks():
    rng = random.Random(42)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 12)
        a = [rng.randint(0, 1) for _ in range(n)]
        b = [rng.randint(0, 1) for _ in range(n)]
        table, _, _ = pair_table(a, b)
        p_o = pairwise_percent_agreement(table)
        ok &= brennan_prediger(table, q=2) == 2.0 * p_o - 1.0

    table, _, _ = pair_table([0, 0, 1, 1], [0, 1, 1, 1])
    alpha = krippendorff_alpha_nominal(table)
    oracle = alpha_brute([[0, 0], [0, 1], [1, 1], [1, 1]])
    ok &= abs(alpha - 0.5333) < 1e-4
    ok &= abs(alpha - oracle) < 1e-4
    criterion(2, f"kappa_BP(q=2) = 2*P_o - 1 exactly on 100 tables; worked alpha = {alpha:.4f}", ok)


GOLDEN_TOP = ("annotations.jsonl", "manifest_annotate.json", "evaluation.json", "evaluation.txt", "manifest_evaluate.json")
GOLDEN_STUDY = ("aggregates.csv", "figure1_country.csv", "figure2_party.csv", "regression.json", "regression.txt", "manifest_study.json")


def run_pipeline(data_dir, out, concurrency):
    args = [
        "annotate", "--corpus", str(data_dir / "corpus.jsonl"), "--mock", str(data_dir / "mock_responses.jsonl"),
        "--codebook", "main_study", "--variant", "no_context:original",
        "--concurrency", str(concurrency), "--out", str(out),
    ]
    assert main(args) == 0
    assert main([
        "evaluate", "--corpus", str(data_dir / "corpus.jsonl"), "--gold", str(data_dir / "gold.csv"), "--out", str(out),
    ]) == 0
    for variant in ("m1", "family"):
        assert main([
            "study", "--corpus", str(data_dir / "corpus.jsonl"),
            "--annotations", str(out / "annotations.jsonl"),
            "--party-meta", str(data_dir / "parties.csv"),
            "--min-tweets", "0", "--model-variant", variant,
            "--out", str(out / f"study_{variant}"),
        ]) == 0


def pipeline_bytes(out):
    files = {}
    for name in GOLDEN_TOP:
        files[name] = (out / name).read_bytes()
    for variant in ("m1", "family"):
        for name in GOLDEN_STUDY:
            files[f"study_{variant}/{name}"] = (out / f"study_{variant}" / name).read_bytes()
        if variant == "family":
            files["study_family/marginal_means.csv"] = (out / "study_family" / "marginal_means.csv").read_bytes()
    return files


def test_criterion_3_golden_end_to_end(data_dir, golden_dir, tmp_path):
    start = time.perf_counter()
    runs = {}
    for concurrency in (1, 8, 16):
        out = tmp_path / f"c{concurrency}"
        run_pipeline(data_dir, out, concurrency)
        runs[concurrency] = pipeline_bytes(out)
    elapsed = time.perf_counter() - start

    ok = runs[1] == runs[8] == runs[16]
    frozen = {}
    for name in runs[8]:
        frozen[name] = (golden_dir / name).read_bytes()
    ok &= runs[8] == frozen
    ok &= elapsed < 5.0
    criterion(3, f"pipeline byte-identical across runs and concurrency {{1,8,16}}, equal to frozen goldens, {elapsed:.2f}s", ok)


def shifted_t_critical(ulps):
    """A stand-in for ``negcamp.study.t_critical`` returning the exact
    two-sided 95% t quantile for df = 2, (2p-1)/sqrt(2p(1-p)) at p = 0.975,
    moved by ``ulps`` ulps."""

    def t_critical(df):
        assert df == 2, "the fixture has three clusters"
        p = 0.975
        value = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
        toward = math.copysign(math.inf, ulps)
        for _ in range(abs(ulps)):
            value = np.nextafter(value, toward)
        return value

    return t_critical


@pytest.mark.parametrize("ulps", (-8, -1, 1, 8))
def test_golden_study_survives_t_quantile_drift(data_dir, golden_dir, tmp_path, monkeypatch, ulps):
    """Last-bit drift in the t quantile, as between scipy builds, leaves the
    study outputs byte-identical to the frozen goldens."""
    monkeypatch.setattr("negcamp.study.t_critical", shifted_t_critical(ulps))
    for variant in ("m1", "family"):
        out = tmp_path / f"study_{variant}"
        assert main([
            "study", "--corpus", str(data_dir / "corpus.jsonl"),
            "--annotations", str(golden_dir / "annotations.jsonl"),
            "--party-meta", str(data_dir / "parties.csv"),
            "--min-tweets", "0", "--model-variant", variant,
            "--out", str(out),
        ]) == 0
        names = GOLDEN_STUDY + (("marginal_means.csv",) if variant == "family" else ())
        for name in names:
            assert (out / name).read_bytes() == (golden_dir / f"study_{variant}" / name).read_bytes(), name


def test_criterion_4_regression_recovery():
    targets = {"Government experience": -6.0, "Anti-elite salience": 1.5, "Ideological extreme": 1.6}
    hits = {name: 0 for name in targets}
    replications = 200
    for seed in range(replications):
        aggregates, party_meta, _ = synthetic_study(seed=seed)
        fit = fit_model(build_design(aggregates, party_meta, ModelVariant.MODEL1))
        for name, true_value in targets.items():
            estimate, se, _, _ = fit.coefficient(name)
            if abs(estimate - true_value) < 3.0 * se:
                hits[name] += 1
    ok = all(count >= 0.95 * replications for count in hits.values())

    for seed in (0, 1, 2, 3, 4):
        aggregates, party_meta, _ = synthetic_study(seed=seed)
        design = build_design(aggregates, party_meta, ModelVariant.MODEL1)
        fit = fit_ols(design)
        nondummy = [i for i, c in enumerate(design.columns) if c in targets]
        demeaned = within_demeaned_beta(design.y, np.asarray(design.X)[:, nondummy], list(design.clusters))
        ok &= bool(np.all(np.abs(np.array(fit.beta, dtype=float)[nondummy] - demeaned) < 1e-8))

        base = fit_model(build_design(aggregates, party_meta, ModelVariant.MODEL1, reference_country="AT"))
        alt = fit_model(build_design(aggregates, party_meta, ModelVariant.MODEL1, reference_country="SE"))
        for name in targets:
            b_est, b_se, _, _ = base.coefficient(name)
            a_est, a_se, _, _ = alt.coefficient(name)
            ok &= abs(a_est - b_est) < 1e-10 and abs(a_se - b_se) < 1e-10
        ok &= abs(alt.r2 - base.r2) < 1e-10
        ok &= bool(np.all(np.abs(np.array(alt.fitted, dtype=float) - np.array(base.fitted, dtype=float)) < 1e-10))
    rates = {k: v / replications for k, v in hits.items()}
    criterion(4, f"coefficients recovered within 3 SEs (rates {rates}); FE demeaning 1e-8; reference invariance 1e-10", ok)


def test_criterion_5_clustered_se_oracle():
    from test_study import raw_design  # shared builder for raw designs

    rng = np.random.default_rng(99)
    ok = True
    for _ in range(50):
        n = int(rng.integers(25, 60))
        k = int(rng.integers(2, 6))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        beta = rng.normal(size=k)
        y = X @ beta + rng.normal(size=n) * (0.5 + np.abs(X[:, -1]))
        columns = tuple(["(Intercept)"] + [f"x{j}" for j in range(1, k)])
        design = raw_design(y, X, columns, [f"row{i}" for i in range(n)])
        fit = fit_ols(design)
        clustered = cluster_robust_se(fit, design)
        dof_factor = (n / (n - 1)) * ((n - 1) / (n - k))
        oracle = np.sqrt(np.diag(hc0_cov(X, np.array(fit.residuals, dtype=float))) * dof_factor)
        ok &= bool(np.all(np.abs(np.array(clustered.se) - oracle) < 1e-10))
        ok &= clustered.n_clusters == n
    criterion(5, "singleton-cluster SEs equal the HC oracle times the dof factor to 1e-10 on 50 designs", ok)


def test_criterion_6_marginal_means_consistency():
    aggregates, party_meta, _ = synthetic_study(seed=123, family_offsets={"radical_right": 10.0})
    design = build_design(aggregates, party_meta, ModelVariant.FAMILY)
    fit = fit_model(design)
    rows = marginal_means_family(fit, design)
    weighted = sum(r.predicted * r.n_obs for r in rows) / design.n_obs
    ok = abs(weighted - float(sum(fit.fitted) / design.n_obs)) < 1e-10
    assert design.reference_family != "radical_right"
    estimate, _, ci_low, ci_high = fit.coefficient("Family: radical_right")
    ok &= ci_low < 10.0 < ci_high
    criterion(6, f"weighted marginal means equal mean fitted value; +10 offset estimated {estimate:.2f}, CI covers 10", ok)


def _party_corpus(sizes):
    docs = []
    labels = {}
    for party, size in sizes.items():
        for i in range(size):
            doc_id = f"{party}_{i:04d}"
            docs.append(make_doc(doc_id=doc_id, party=party, country="GB"))
            labels[doc_id] = i % 2
    return count_documents(map(corpus_row, docs), labels)


def test_criterion_7_filter_contract():
    metas = {p: PartyMeta(p, "GB", 5.0, 0, 2.0, "socialist", p) for p in ("tiny", "edge", "big")}
    counts = _party_corpus({"tiny": 37, "edge": 499, "big": 500})
    at_500 = {a.party_id for a in aggregate_parties(counts, metas, Filters(min_tweets=500))}
    ok = at_500 == {"big"}  # 499 excluded, 500 included
    at_499 = {a.party_id for a in aggregate_parties(counts, metas, Filters(min_tweets=499))}
    ok &= at_499 == {"edge", "big"}

    rng = random.Random(7)
    for _ in range(25):
        sizes = {f"p{j}": rng.randint(0, 40) for j in range(6)}
        counts = _party_corpus({p: s for p, s in sizes.items() if s})
        metas = {p: PartyMeta(p, "GB", 5.0, 0, 2.0, "socialist", p) for p in sizes}
        thresholds = sorted(rng.randint(0, 45) for _ in range(3))
        surviving = [
            {a.party_id for a in aggregate_parties(counts, metas, Filters(min_tweets=t))}
            for t in thresholds
        ]
        ok &= surviving[2] <= surviving[1] <= surviving[0]
    criterion(7, "min_tweets boundary exact (499 out, 500 in) and monotone on random corpora", ok)


def test_criterion_8_cost_estimator(golden_dir):
    results = read_annotations(golden_dir / "annotations.jsonl")
    avg_in = sum(r.input_tokens for r in results) / len(results)
    avg_out = sum(r.output_tokens for r in results) / len(results)
    estimate = estimate_cost(18_066_672, avg_in, avg_out, MINI)
    ok = 156.0 / 2.0 <= estimate <= 156.0 * 2.0
    criterion(8, f"18,066,672-doc estimate ${estimate:.2f} within a factor of 2 of $156", ok)


class FlakyTransport:
    def __init__(self, inner, fail_counts):
        import threading

        self.inner = inner
        self.remaining = dict(fail_counts)
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, config, doc_id=""):
        with self._lock:
            if self.remaining.get(doc_id, 0) > 0:
                self.remaining[doc_id] -= 1
                raise TransportError("injected transient failure")
        return self.inner.complete(system_text, user_text, config, doc_id=doc_id)


def test_criterion_9_annotation_robustness(corpus, mock_map, data_dir, tmp_path):
    book = builtin_codebooks()["main_study"]
    variant = PromptVariant.parse("no_context:original")

    clean = annotate_batch(corpus, book, variant, MINI, MockTransport(mock_map), concurrency_limit=8, retry=MOCK_RETRY)

    scripted = dict(mock_map)
    malformed_docs = ["d006", "d025", "d048"]  # 3/60 = 5%
    for doc_id in malformed_docs:
        scripted[doc_id] = ["The tweet looks negative to me.", scripted[doc_id]]
    transient_docs = {"d011": 2, "d037": 3, "d059": 1}
    transport = FlakyTransport(MockTransport(scripted), transient_docs)
    noisy = annotate_batch(corpus, book, variant, MINI, transport, concurrency_limit=8, retry=MOCK_RETRY)

    ok = len(noisy.results) == 60 and noisy.failures == ()
    ok &= [r.doc_id for r in noisy.results] == [r.doc_id for r in clean.results]
    ok &= [(r.doc_id, r.label) for r in noisy.results] == [(r.doc_id, r.label) for r in clean.results]

    # exit-status contract at the failure threshold
    full = (data_dir / "mock_responses.jsonl").read_text(encoding="utf-8").splitlines()
    dropped = {"d001", "d002", "d003", "d004", "d005"}
    trimmed = [line for line in full if json.loads(line)["doc_id"] not in dropped]
    mock_path = tmp_path / "partial_mock.jsonl"
    mock_path.write_text("\n".join(trimmed) + "\n", encoding="utf-8")

    def annotate_exit(threshold, out):
        return main([
            "annotate", "--corpus", str(data_dir / "corpus.jsonl"), "--mock", str(mock_path),
            "--failure-threshold", str(threshold), "--out", str(tmp_path / out),
        ])

    ok &= annotate_exit(0.01, "strict") == 3  # 5/60 = 8.3% > 1%
    ok &= annotate_exit(0.10, "lenient") == 0  # 8.3% <= 10%
    criterion(9, "5% malformed + transient failures recovered via retry; threshold exit statuses correct", ok)
