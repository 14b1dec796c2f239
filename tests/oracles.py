"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's code paths: agreement coefficients
enumerate value pairs directly instead of building a coincidence matrix,
F1 numbers come from plain counting loops, the covariance oracles use
explicit per-observation outer products with a pinv bread, the party and
country aggregates build per-group document lists from a full ``Corpus``,
the two-rater battery goes through a ``RatingTable`` of 2N records,
``qr_fit`` is the study's float fit through LAPACK's pivoted QR, which the
exact fit replaced, and ``fraction_fit`` solves the normal equations and
forms the sandwich in plain ``Fraction`` arithmetic. ``parse_record``,
``iter_jsonl_documents`` and ``read_labels`` are the corpus and label
readers as they were before the one-pass record check and the annotation
line pattern: every record through ``json.loads`` and a field-by-field
check. ``read_annotations`` and ``load_cache`` are the annotation and cache
readers as they were before they shared ``decode_json_line``: every line
through ``json.loads``, a cache line as bytes.
"""

from __future__ import annotations

import json
from datetime import datetime
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from negcamp.codes import ISO_COUNTRIES, ISO_LANGUAGES
from negcamp.annotate import AnnotationResult, parse_label
from negcamp.errors import EvaluationJoinError, MalformedResponse, RankDeficient, UndefinedMetric
from negcamp.ingest import DOCUMENT_FIELDS, Corpus, Document, PartyMeta, Rejection, detect_retweet
from negcamp.reliability import (
    ConfusionMatrix,
    GroupedReport,
    RatingTable,
    ReliabilityReport,
    brennan_prediger,
    f1_scores,
    krippendorff_alpha_nominal,
)
from negcamp.study import AggregationFilters, CountryNegativity, PartyAggregate


def alpha_brute(units: list[list[int]]) -> float | None:
    """Krippendorff's alpha by direct disagreement enumeration.

    ``units`` holds the observed values per item (missing cells already
    dropped). Returns None when expected disagreement is zero.
    """
    pairable = [u for u in units if len(u) >= 2]
    if len(pairable) < 2:
        raise ValueError("need at least two pairable units")
    n = sum(len(u) for u in pairable)
    d_o = 0.0
    for unit in pairable:
        m = len(unit)
        for i in range(m):
            for j in range(m):
                if i != j and unit[i] != unit[j]:
                    d_o += 1.0 / (m - 1)
    d_o /= n
    flat = [v for unit in pairable for v in unit]
    d_e = 0.0
    for i in range(n):
        for j in range(n):
            if i != j and flat[i] != flat[j]:
                d_e += 1.0
    d_e /= n * (n - 1)
    if d_e == 0.0:
        return None
    return 1.0 - d_o / d_e


def kappa_bp_brute(units: list[list[int]], q: int = 2) -> float | None:
    """Brennan-Prediger by pooled pair counting; None when no pairs exist."""
    agree = total = 0
    for unit in units:
        m = len(unit)
        for i in range(m):
            for j in range(i + 1, m):
                total += 1
                agree += unit[i] == unit[j]
    if total == 0:
        return None
    p_o = agree / total
    return (p_o - 1.0 / q) / (1.0 - 1.0 / q)


def f1_brute(gold: list[int], pred: list[int]) -> dict:
    """Accuracy/F1 battery via plain counting, class by class."""
    assert len(gold) == len(pred) and gold
    out: dict[str, float | int | list[str]] = {}
    flags: list[str] = []
    f1 = {}
    for cls in (0, 1):
        tp = sum(1 for g, p in zip(gold, pred) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold, pred) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold, pred) if g == cls and p != cls)
        if 2 * tp + fp + fn == 0:
            f1[cls] = 0.0
            flags.append(f"degenerate_f1_{cls}")
        else:
            f1[cls] = 2 * tp / (2 * tp + fp + fn)
    supp0 = sum(1 for g in gold if g == 0)
    supp1 = len(gold) - supp0
    out["acc"] = sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)
    out["f1_0"] = f1[0]
    out["f1_1"] = f1[1]
    out["f1_macro"] = (f1[0] + f1[1]) / 2
    out["f1_w"] = (supp0 * f1[0] + supp1 * f1[1]) / (supp0 + supp1)
    out["supp_0"] = supp0
    out["supp_1"] = supp1
    out["flags"] = flags
    return out


def two_rater_table(gold: Mapping[str, int], predicted: Mapping[str, int]) -> RatingTable:
    """Items x {gold, model} table over the id-intersection of the two maps."""
    shared = sorted(gold.keys() & predicted.keys())
    if not shared:
        raise EvaluationJoinError("gold and predicted labels share no document ids")
    return RatingTable.from_records(
        [(d, "gold", gold[d]) for d in shared] + [(d, "model", predicted[d]) for d in shared]
    )


def compare_via_table(gold: Mapping[str, int], predicted: Mapping[str, int]) -> ReliabilityReport:
    """The full battery with alpha and kappa from a two-rater ``RatingTable``
    and the confusion counts from a plain loop over the sorted shared ids."""
    table = two_rater_table(gold, predicted)  # raises on a label outside {0, 1}
    cells = {(g, p): 0 for g in (0, 1) for p in (0, 1)}
    for doc_id in gold.keys() & predicted.keys():
        cells[gold[doc_id], predicted[doc_id]] += 1
    cm = ConfusionMatrix(tp=cells[1, 1], fp=cells[0, 1], fn=cells[1, 0], tn=cells[0, 0])
    scores = f1_scores(cm)
    flags = list(scores.flags)
    try:
        alpha: float | None = krippendorff_alpha_nominal(table)
    except (UndefinedMetric, ValueError):
        alpha = None
        flags.append("alpha_undefined")
    return ReliabilityReport(
        acc=scores.accuracy,
        f1_0=scores.f1_0,
        f1_1=scores.f1_1,
        f1_w=scores.f1_weighted,
        f1_macro=scores.f1_macro,
        alpha_k=alpha,
        kappa_bp=brennan_prediger(table, q=2),
        supp_0=cm.tn + cm.fp,
        supp_1=cm.tp + cm.fn,
        n=cm.total,
        flags=tuple(sorted(flags)),
    )


def grouped_report_via_table(
    gold: Mapping[str, int], predicted: Mapping[str, int], groups: Mapping[str, str]
) -> GroupedReport:
    """``compare_via_table`` on all shared ids and on each group's shared ids."""
    shared = gold.keys() & predicted.keys()
    members: dict[str, list[str]] = {}
    for doc_id in shared:
        if doc_id in groups:
            members.setdefault(groups[doc_id], []).append(doc_id)
    return GroupedReport(
        pooled=compare_via_table(gold, predicted),
        groups={key: compare_via_table({d: gold[d] for d in ids}, {d: predicted[d] for d in ids}) for key, ids in members.items()},
        n_gold_only=len(gold.keys() - shared),
        n_predicted_only=len(predicted.keys() - shared),
    )


def hc0_cov(X: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Heteroskedasticity-robust covariance, no degrees-of-freedom factor."""
    bread = np.linalg.pinv(X.T @ X)
    meat = np.zeros((X.shape[1], X.shape[1]))
    for i in range(X.shape[0]):
        xi = X[i]
        meat += residuals[i] ** 2 * np.outer(xi, xi)
    return bread @ meat @ bread


def classical_cov(X: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Homoskedastic OLS covariance sigma^2 (X'X)^-1."""
    n, k = X.shape
    sigma2 = residuals @ residuals / (n - k)
    return sigma2 * np.linalg.pinv(X.T @ X)


def qr_fit(X, y, columns, clusters) -> tuple[np.ndarray, np.ndarray]:
    """(beta, CR1 variances) in floating point: the rank check and solve
    through a pivoted QR of X, with LAPACK's rank tolerance, and the
    diagonal of the k x k sandwich covariance. Raises ``RankDeficient``
    naming the columns past the numerical rank."""
    from scipy import linalg

    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    n, k = X.shape
    q, r, pivots = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag.max() * max(n, k) * np.finfo(float).eps))
    if rank < k:
        raise RankDeficient(sorted(columns[p] for p in pivots[rank:]))
    beta = np.empty(k)
    beta[pivots] = linalg.solve_triangular(r, q.T @ y)
    residuals = y - X @ beta
    r_inv = linalg.solve_triangular(r, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(pivots, pivots)] = r_inv @ r_inv.T
    groups = sorted(set(clusters))
    meat = np.zeros((k, k))
    for g in groups:
        rows = np.asarray(clusters) == g
        score = X[rows].T @ residuals[rows]
        meat += np.outer(score, score)
    G = len(groups)
    cov = (G / (G - 1)) * ((n - 1) / (n - k)) * xtx_inv @ meat @ xtx_inv
    return beta, np.diag(cov)


def fraction_fit(X, y, clusters) -> tuple[list[Fraction], list[Fraction]]:
    """(beta, CR1 variances) in exact rationals, the plain way: Gauss-Jordan
    on the normal equations in ``Fraction``s, then the diagonal of
    factor * (X'X)^-1 meat (X'X)^-1 entry by entry."""
    X = [[Fraction(x) for x in row] for row in X]
    y = [Fraction(v) for v in y]
    n, k = len(X), len(X[0])
    rows = [[sum(r[a] * r[b] for r in X) for b in range(k)] + [Fraction(a == c) for c in range(k)] for a in range(k)]
    for p in range(k):
        pivot = next(r for r in range(p, k) if rows[r][p])
        rows[p], rows[pivot] = rows[pivot], rows[p]
        rows[p] = [v / rows[p][p] for v in rows[p]]
        for r in range(k):
            if r != p and rows[r][p]:
                f = rows[r][p]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[p])]
    inverse = [row[k:] for row in rows]
    xty = [sum(r[a] * v for r, v in zip(X, y)) for a in range(k)]
    beta = [sum(inverse[a][b] * xty[b] for b in range(k)) for a in range(k)]
    residuals = [v - sum(x * b for x, b in zip(r, beta)) for r, v in zip(X, y)]
    groups = sorted(set(clusters))
    meat = [[Fraction(0)] * k for _ in range(k)]
    for g in groups:
        score = [sum(r[a] * e for r, e, c in zip(X, residuals, clusters) if c == g) for a in range(k)]
        for a in range(k):
            for b in range(k):
                meat[a][b] += score[a] * score[b]
    G = len(groups)
    factor = Fraction(G * (n - 1), (G - 1) * (n - k))
    variance = [
        factor * sum(inverse[j][a] * meat[a][b] * inverse[b][j] for a in range(k) for b in range(k)) for j in range(k)
    ]
    return beta, variance


def within_demeaned_beta(y: np.ndarray, X: np.ndarray, groups: list[str]) -> np.ndarray:
    """Coefficients from group-demeaned OLS (no intercept, no dummies)."""
    y = np.array(y, dtype=float)
    X = np.array(X, dtype=float)
    for g in set(groups):
        rows = np.array([gi == g for gi in groups])
        y[rows] -= y[rows].mean()
        X[rows] -= X[rows].mean(axis=0)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _grouped(corpus: Corpus, key) -> dict[str, list]:
    groups: dict[str, list] = {}
    for doc in corpus:
        groups.setdefault(key(doc), []).append(doc)
    return groups


def aggregate_parties_lists(
    corpus: Corpus,
    labels: Mapping[str, int],
    party_meta: Mapping[str, PartyMeta],
    filters: AggregationFilters = AggregationFilters(),
) -> list[PartyAggregate]:
    """Party aggregates from per-party document lists."""
    by_party = _grouped(corpus, lambda d: d.party_id)
    aggregates = []
    for party_id in sorted(by_party):
        if filters.exclude_independents and party_id == "":
            continue
        docs = [d for d in by_party[party_id] if d.id in labels]
        if len(docs) < filters.min_tweets:
            continue
        if filters.exclude_retweets:
            originals = [d for d in docs if not detect_retweet(d)]
            retweets = [d for d in docs if detect_retweet(d)]
        else:
            originals = docs
            retweets = []
        if not originals:
            continue
        n_negative = sum(labels[d.id] for d in originals)
        pct_retweets = None
        if retweets:
            pct_retweets = 100.0 * sum(labels[d.id] for d in retweets) / len(retweets)
        flags = () if party_id in party_meta else ("missing_meta",)
        aggregates.append(
            PartyAggregate(
                party_id=party_id,
                country=docs[0].country,
                n_total=len(docs),
                n_original=len(originals),
                n_negative_original=n_negative,
                pct_negative=100.0 * n_negative / len(originals),
                pct_negative_retweets=pct_retweets,
                flags=flags,
            )
        )
    aggregates.sort(key=lambda a: (a.country, a.party_id))
    return aggregates


def country_negativity_lists(corpus: Corpus, labels: Mapping[str, int]) -> list[CountryNegativity]:
    """Per-country negativity from per-country label lists."""
    by_country = _grouped(corpus, lambda d: d.country)
    rows = []
    for country in sorted(by_country):
        docs = [d for d in by_country[country] if d.id in labels]
        originals = [labels[d.id] for d in docs if not detect_retweet(d)]
        retweets = [labels[d.id] for d in docs if detect_retweet(d)]
        rows.append(
            CountryNegativity(
                country=country,
                pct_original=100.0 * sum(originals) / len(originals) if originals else None,
                pct_retweet=100.0 * sum(retweets) / len(retweets) if retweets else None,
            )
        )
    return rows


def _validate_timestamp(value: str) -> None:
    normalized = value[:-1] + "+00:00" if value.endswith("Z") else value
    datetime.fromisoformat(normalized)


def parse_record(record: Mapping[str, object]) -> tuple[str, str, str, str, str, str, str, bool]:
    """A valid corpus record's fields in ``Document`` order; raises ValueError."""
    missing = [k for k in DOCUMENT_FIELDS if record.get(k) is None]
    if missing:
        raise ValueError("missing fields: " + ", ".join(missing))
    text = str(record["text"])
    if not text:
        raise ValueError("empty text")
    lang = str(record["lang"])
    if lang not in ISO_LANGUAGES:
        raise ValueError(f"invalid language code {lang!r}")
    country = str(record["country"])
    if country not in ISO_COUNTRIES:
        raise ValueError(f"invalid country code {country!r}")
    created_at = str(record["created_at"])
    try:
        _validate_timestamp(created_at)
    except ValueError:
        raise ValueError(f"invalid created_at timestamp {created_at!r}") from None
    retweet = record["retweet"]
    if isinstance(retweet, str):
        if retweet.lower() not in ("true", "false"):
            raise ValueError(f"invalid retweet flag {retweet!r}")
        retweet = retweet.lower() == "true"
    elif not isinstance(retweet, bool):
        raise ValueError(f"invalid retweet flag {retweet!r}")
    doc_id, author, party = str(record["id"]), str(record["author"]), str(record["party"])
    if not (doc_id.isascii() and text.isascii() and author.isascii() and party.isascii()):
        try:
            (doc_id + text + author + party).encode("utf-8")
        except UnicodeEncodeError as exc:
            offset = exc.start
            for name, value in (("id", doc_id), ("text", text), ("author", author), ("party", party)):
                if offset < len(value):
                    raise ValueError(f"invalid {name}: a lone surrogate or bytes that are not UTF-8") from None
                offset -= len(value)
    return doc_id, text, lang, country, author, party, created_at, retweet


def iter_jsonl_documents(path: Path, rejections: list[Rejection]) -> Iterator[Document]:
    """``iter_documents`` for a JSONL corpus: each line's record, if any,
    through ``parse_record``, then the duplicate-id rule."""
    seen: set[str] = set()
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                rejections.append(Rejection(line=lineno, reason="blank line"))
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                rejections.append(Rejection(line=lineno, reason=f"invalid JSON: {exc.msg}"))
                continue
            if not isinstance(record, dict):
                rejections.append(Rejection(line=lineno, reason="record is not an object"))
                continue
            try:
                fields = parse_record(record)
            except ValueError as exc:
                doc_id = str(record.get("id", "")).encode("utf-8", "backslashreplace").decode("utf-8")
                rejections.append(Rejection(line=lineno, reason=str(exc), doc_id=doc_id))
                continue
            if fields[0] in seen:
                rejections.append(Rejection(line=lineno, reason=f"duplicate id {fields[0]!r}", doc_id=fields[0]))
                continue
            seen.add(fields[0])
            yield Document._make(fields)


def read_labels(path: Path) -> dict[str, int]:
    """The ``doc_id -> label`` map of an annotations file: every non-blank
    line through ``json.loads``; a missing field raises KeyError, a
    non-integer label ValueError or TypeError, a label not 0 or 1
    ValueError."""
    labels: dict[str, int] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                fields = (
                    str(record["doc_id"]),
                    int(record["label"]),
                    str(record["raw_response"]),
                    str(record["model_id"]),
                    str(record["prompt_hash"]),
                    int(record["input_tokens"]),
                    int(record["output_tokens"]),
                )
                doc_id, label = fields[:2]
                if label not in (0, 1):
                    raise ValueError(f"label {label} of document {doc_id!r} is not 0 or 1")
                labels[doc_id] = label
    return labels


def annotation_fields(record: Mapping[str, object]) -> tuple[str, int, str, str, str, int, int]:
    return (
        str(record["doc_id"]),
        int(record["label"]),
        str(record["raw_response"]),
        str(record["model_id"]),
        str(record["prompt_hash"]),
        int(record["input_tokens"]),
        int(record["output_tokens"]),
    )


def read_annotations(path: Path) -> list[AnnotationResult]:
    """Every non-blank line of an annotations file through ``json.loads``; a
    missing field raises KeyError, a non-integer label or token count
    ValueError or TypeError."""
    with path.open(encoding="utf-8") as fh:
        return [AnnotationResult(*annotation_fields(json.loads(line))) for line in fh if line.strip()]


def load_cache(path: Path) -> tuple[dict[tuple[str, str], AnnotationResult], int]:
    """A cache file's entries, keyed by (prompt_hash, doc_id), the last line
    for a key winning, and the length of its complete lines, which loading
    keeps. Each complete line goes to ``json.loads`` as bytes; one that
    fails, or whose label is not ``parse_label(raw_response)``, is skipped."""
    entries: dict[tuple[str, str], AnnotationResult] = {}
    complete = 0
    with path.open("rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            complete += len(line)
            try:
                result = AnnotationResult(*annotation_fields(json.loads(line)), from_cache=True)
                if result.label != parse_label(result.raw_response):
                    raise ValueError("label disagrees with raw_response")
            except (ValueError, KeyError, TypeError, MalformedResponse):
                continue
            entries[(result.prompt_hash, result.doc_id)] = result
    return entries, complete
