"""Agreement metrics for label sets: accuracy, F1 battery, Krippendorff's
alpha, and the Brennan-Prediger coefficient, plus grouped reports.

Alpha and pairwise agreement depend only on how many 0s and 1s each item
received, so both are computed from a histogram of per-item (n_0, n_1)
counts (Krippendorff's values-by-units form). Their sums are exact
(integers and ``Fraction``s) and rounded once, so reports are bit-identical
whatever the order of items, raters or cells. Comparisons operate on the
id-intersection of the two label sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Mapping

from .errors import EvaluationJoinError, UndefinedMetric

REPORT_KEYS = ("acc", "f1_0", "f1_1", "f1_w", "f1_macro", "alpha_k", "kappa_bp", "supp_0", "supp_1", "n", "flags")


@dataclass(frozen=True)
class RatingTable:
    """Items x raters matrix of binary labels; missing cells allowed.

    ``values`` maps ``(item_id, rater_id)`` to a 0/1 label. Every item must
    have at least one filled cell.
    """

    items: tuple[str, ...]
    raters: tuple[str, ...]
    values: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        items, raters = set(self.items), set(self.raters)
        filled: set[str] = set()
        for (item, rater), label in self.values.items():
            if label not in (0, 1):
                raise ValueError(f"non-binary label {label!r} for ({item!r}, {rater!r})")
            if item not in items or rater not in raters:
                raise ValueError(f"cell ({item!r}, {rater!r}) outside the declared axes")
            filled.add(item)
        empty = [item for item in self.items if item not in filled]
        if empty:
            raise ValueError(f"items with no filled cell: {empty[:5]!r}")

    @classmethod
    def from_records(cls, records: Iterable[tuple[str, str, int]]) -> "RatingTable":
        """Build from (item, rater, label) triples; axes sorted for determinism."""
        values: dict[tuple[str, str], int] = {}
        for item, rater, label in records:
            key = (item, rater)
            if key in values and values[key] != label:
                raise ValueError(f"conflicting labels for {key!r}")
            values[key] = label
        items = tuple(sorted({item for item, _ in values}))
        raters = tuple(sorted({rater for _, rater in values}))
        return cls(items=items, raters=raters, values=values)

    @classmethod
    def from_pair(
        cls,
        gold: Mapping[str, int],
        predicted: Mapping[str, int],
        gold_name: str = "gold",
        predicted_name: str = "model",
    ) -> "RatingTable":
        """Two-rater table over the id-intersection of gold and predicted."""
        shared = sorted(set(gold) & set(predicted))
        if not shared:
            raise EvaluationJoinError("gold and predicted labels share no document ids")
        values: dict[tuple[str, str], int] = {}
        for doc_id in shared:
            values[(doc_id, gold_name)] = gold[doc_id]
            values[(doc_id, predicted_name)] = predicted[doc_id]
        return cls(items=tuple(shared), raters=(gold_name, predicted_name), values=values)

    @cached_property
    def patterns(self) -> Counter[tuple[int, int]]:
        """Number of items per (n_0, n_1): how many 0 and 1 labels an item got."""
        counts: dict[str, list[int]] = {}
        for (item, _), label in self.values.items():
            counts.setdefault(item, [0, 0])[label] += 1
        return Counter(map(tuple, counts.values()))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary counts with class 1 (presence) as positive."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(gold: Mapping[str, int], predicted: Mapping[str, int]) -> ConfusionMatrix:
    """Confusion counts over the id-intersection; raises if it is empty."""
    shared = sorted(set(gold) & set(predicted))
    if not shared:
        raise EvaluationJoinError("gold and predicted labels share no document ids")
    tp = fp = fn = tn = 0
    for doc_id in shared:
        g, p = gold[doc_id], predicted[doc_id]
        if g == 1 and p == 1:
            tp += 1
        elif g == 0 and p == 1:
            fp += 1
        elif g == 1 and p == 0:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class F1Scores:
    f1_0: float
    f1_1: float
    f1_macro: float
    f1_weighted: float
    accuracy: float
    flags: tuple[str, ...] = field(default=())


def _class_f1(tp: int, fp: int, fn: int) -> tuple[Fraction, bool]:
    # F1 = 2TP / (2TP + FP + FN); zero denominator reported as 0, flagged.
    denom = 2 * tp + fp + fn
    if denom == 0:
        return Fraction(0), True
    return Fraction(2 * tp, denom), False


def f1_scores(cm: ConfusionMatrix) -> F1Scores:
    """Per-class F1, macro and support-weighted averages, and accuracy.

    Weighted F1 uses the gold-class supports as weights. A class with a zero
    F1 denominator scores 0 and raises a degenerate-class flag instead of
    failing. Aggregates are computed in exact rational arithmetic and
    rounded once, so weighted F1 never leaves [min, max] of the class F1s.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    # Class 0 treated as positive: its tp are the tn cells, etc.
    f1_1, degenerate_1 = _class_f1(cm.tp, cm.fp, cm.fn)
    f1_0, degenerate_0 = _class_f1(cm.tn, cm.fn, cm.fp)
    supp_0 = cm.tn + cm.fp
    supp_1 = cm.tp + cm.fn
    flags = []
    if degenerate_0:
        flags.append("degenerate_f1_0")
    if degenerate_1:
        flags.append("degenerate_f1_1")
    return F1Scores(
        f1_0=float(f1_0),
        f1_1=float(f1_1),
        f1_macro=float((f1_0 + f1_1) / 2),
        f1_weighted=float((supp_0 * f1_0 + supp_1 * f1_1) / (supp_0 + supp_1)),
        accuracy=(cm.tp + cm.tn) / cm.total,
        flags=tuple(flags),
    )


def krippendorff_alpha_nominal(table: RatingTable) -> float:
    """Krippendorff's alpha for nominal data via the coincidence matrix.

    alpha = 1 - D_o / D_e over all pairable values; items with fewer than
    two filled cells contribute no pairs. Handles any number of raters and
    missing cells.

    Raises ``UndefinedMetric`` when expected disagreement is zero (a single
    category in the pairable data) and ``ValueError`` when fewer than two
    items are pairable.
    """
    # o_ck = sum over items of n_c * (n_k - [c == k]) / (m - 1), summed exactly.
    coincidence = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    pairable_items = 0
    for counts, n_items in table.patterns.items():
        m = sum(counts)
        if m < 2:
            continue
        pairable_items += n_items
        for c in (0, 1):
            for k in (0, 1):
                coincidence[c][k] += Fraction(n_items * counts[c] * (counts[k] - (c == k)), m - 1)
    if pairable_items < 2:
        raise ValueError("alpha requires at least two items with two or more ratings")

    (o_00, o_01), (o_10, o_11) = ([float(v) for v in row] for row in coincidence)
    margin_0, margin_1 = o_00 + o_01, o_10 + o_11
    n = margin_0 + margin_1
    observed = (o_01 + o_10) / n
    expected = (margin_0 * margin_1 + margin_1 * margin_0) / (n * (n - 1))
    if expected == 0.0:
        raise UndefinedMetric("only one category occurs in the pairable ratings")
    return 1.0 - observed / expected


def pairwise_percent_agreement(table: RatingTable) -> float:
    """Fraction of agreeing rater pairs, pooled over items and rater pairs."""
    agree = total = 0
    for (n_0, n_1), n_items in table.patterns.items():
        agree += n_items * (comb(n_0, 2) + comb(n_1, 2))
        total += n_items * comb(n_0 + n_1, 2)
    if total == 0:
        raise ValueError("no pairable ratings")
    return agree / total


def brennan_prediger(table: RatingTable, q: int = 2) -> float:
    """Brennan-Prediger coefficient with uniform chance agreement 1/q.

    kappa_BP = (P_o - 1/q) / (1 - 1/q), where P_o is mean pairwise percent
    agreement pooled across all rater pairs and items. For more than two
    raters this pooled-pairs definition is the documented aggregation.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    p_o = pairwise_percent_agreement(table)
    chance = 1.0 / q
    return (p_o - chance) / (1.0 - chance)


@dataclass(frozen=True)
class ReliabilityReport:
    """The full metric battery for one comparison (one report row)."""

    acc: float
    f1_0: float
    f1_1: float
    f1_w: float
    f1_macro: float
    alpha_k: float | None
    kappa_bp: float
    supp_0: int
    supp_1: int
    n: int
    flags: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict[str, object]:
        return {**asdict(self), "flags": list(self.flags)}


def compare(gold: Mapping[str, int], predicted: Mapping[str, int]) -> ReliabilityReport:
    """Full battery comparing predicted labels against a gold standard."""
    cm = confusion(gold, predicted)
    scores = f1_scores(cm)
    table = RatingTable.from_pair(gold, predicted)
    flags = list(scores.flags)
    try:
        alpha: float | None = krippendorff_alpha_nominal(table)
    except (UndefinedMetric, ValueError):
        alpha = None
        flags.append("alpha_undefined")
    kappa = brennan_prediger(table, q=2)
    return ReliabilityReport(
        acc=scores.accuracy,
        f1_0=scores.f1_0,
        f1_1=scores.f1_1,
        f1_w=scores.f1_weighted,
        f1_macro=scores.f1_macro,
        alpha_k=alpha,
        kappa_bp=kappa,
        supp_0=cm.tn + cm.fp,
        supp_1=cm.tp + cm.fn,
        n=cm.total,
        flags=tuple(sorted(flags)),
    )


@dataclass(frozen=True)
class GroupedReport:
    """Pooled report plus one row per group, ordered by group key."""

    pooled: ReliabilityReport
    groups: Mapping[str, ReliabilityReport]
    n_gold_only: int = 0
    n_predicted_only: int = 0


def grouped_report(
    gold: Mapping[str, int],
    predicted: Mapping[str, int],
    groups: Mapping[str, str],
    pooled: ReliabilityReport | None = None,
) -> GroupedReport:
    """Per-group reliability rows plus the pooled row.

    ``groups`` maps document ids to a group key (country or language).
    Groups whose id-intersection with the labels is empty are omitted.
    ``pooled``, if given, is ``compare(gold, predicted)`` from an earlier
    grouping of the same labels and is reused instead of recomputed.
    """
    shared = set(gold) & set(predicted)
    if not shared:
        raise EvaluationJoinError("gold and predicted labels share no document ids")
    if pooled is None:
        pooled = compare(gold, predicted)
    members: dict[str, list[str]] = {}
    for doc_id in shared:
        if doc_id in groups:
            members.setdefault(groups[doc_id], []).append(doc_id)
    by_group = {
        key: compare({d: gold[d] for d in ids}, {d: predicted[d] for d in ids})
        for key, ids in sorted(members.items())
    }
    return GroupedReport(
        pooled=pooled,
        groups=by_group,
        n_gold_only=len(set(gold) - shared),
        n_predicted_only=len(set(predicted) - shared),
    )


def _fmt(value: float | None) -> str:
    return "  undef" if value is None else f"{value:7.3f}"


def render_report_text(report: GroupedReport, group_label: str = "group") -> str:
    """Aligned-column rendering of a grouped report for human readers."""
    width = max([len(group_label), len("pooled")] + [len(k) for k in report.groups])
    header = (
        f"{group_label:<{width}}     acc    f1_0    f1_1    f1_w  f1_mac  alpha_k  kap_bp  supp_0  supp_1       n  flags"
    )
    lines = [header]
    rows = list(sorted(report.groups.items())) + [("pooled", report.pooled)]
    for key, r in rows:
        flags = ",".join(r.flags) if r.flags else "-"
        lines.append(
            f"{key:<{width}} {_fmt(r.acc)} {_fmt(r.f1_0)} {_fmt(r.f1_1)} {_fmt(r.f1_w)} "
            f"{_fmt(r.f1_macro)}  {_fmt(r.alpha_k)} {_fmt(r.kappa_bp)} {r.supp_0:7d} {r.supp_1:7d} {r.n:7d}  {flags}"
        )
    return "\n".join(lines) + "\n"
