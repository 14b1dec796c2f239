"""Party-level empirical pipeline: counting, filtering, aggregation,
predictor construction, fixed-effects OLS with country-clustered standard
errors, and marginal means by party family.

``count_documents`` reduces the documents, streamed once in any order, to
counts per (party, country, retweet, label), which ``aggregate_parties`` and
``country_negativity`` read; no document is held.

The regression is OLS on percentage outcomes (0-100) with country dummies.
Clustered covariances use the CR1 small-sample factor (G/(G-1))*((N-1)/(N-k))
and confidence intervals use a t distribution with G-1 degrees of freedom;
both choices are configurable at the call sites that need them tested.

numpy and scipy are imported inside the functions that compute with them, so
importing this module (and so the package and its CLI) stays cheap for
``annotate`` and ``evaluate``, which never fit a model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DesignError, RankDeficient
from .ingest import Document, PartyMeta, detect_retweet
from .runio import canonical_float

if TYPE_CHECKING:
    import numpy as np

GOVT_NAME = "Government experience"
ANTIELITE_NAME = "Anti-elite salience"
EXTREMISM_NAME = "Ideological extreme"
LRGEN_NAME = "General Left-Right"
INTERCEPT_NAME = "(Intercept)"


def extremism(lrgen: float) -> float:
    """Distance from the ideological center: |5 - lrgen|, in [0, 5]."""
    if not 0.0 <= lrgen <= 10.0:
        raise ValueError(f"lrgen {lrgen} outside [0, 10]")
    return abs(5.0 - lrgen)


@dataclass(frozen=True)
class AggregationFilters:
    """The study's inclusion rules for party aggregates.

    ``min_tweets`` applies to a party's total message count (before the
    original/retweet split); 500 is the study default.
    """

    exclude_retweets: bool = True
    min_tweets: int = 500
    exclude_independents: bool = True

    def __post_init__(self) -> None:
        if self.min_tweets < 0:
            raise ValueError("min_tweets must be non-negative")


@dataclass(frozen=True)
class PartyAggregate:
    """Per-party message counts and percent-negative.

    With retweets excluded (the default) ``n_original`` counts original
    messages and ``pct_negative`` is the share of negatives among them; with
    the split disabled every labeled message counts toward the analysis base
    and ``pct_negative_retweets`` is absent.
    """

    party_id: str
    country: str
    n_total: int
    n_original: int
    n_negative_original: int
    pct_negative: float
    pct_negative_retweets: float | None = None
    flags: tuple[str, ...] = field(default=())


class DocumentCounts(NamedTuple):
    """Documents per (party_id, country, is_retweet, label), label ``None``
    if unlabeled, and each party's lowest labeled id with its country, which
    is the party's country."""

    cells: Counter[tuple[str, str, bool, int | None]]
    party_countries: dict[str, tuple[str, str]]

    @property
    def n_unlabeled(self) -> int:
        return sum(n for (_, _, _, label), n in self.cells.items() if label is None)


def count_documents(documents: Iterable[Document], labels: Mapping[str, int]) -> DocumentCounts:
    """Count documents, in any order, into a ``DocumentCounts`` table."""
    cells: Counter[tuple[str, str, bool, int | None]] = Counter()
    party_countries: dict[str, tuple[str, str]] = {}
    for doc in documents:
        label = labels.get(doc.id)
        cells[doc.party_id, doc.country, detect_retweet(doc), label] += 1
        if label is not None:
            lowest = party_countries.get(doc.party_id)
            if lowest is None or doc.id < lowest[0]:
                party_countries[doc.party_id] = (doc.id, doc.country)
    return DocumentCounts(cells, party_countries)


def _tallies(counts: DocumentCounts, by_country: bool, split_retweets: bool) -> dict[str, list[int]]:
    """Labeled [originals, negatives, retweets, negative retweets] per party, or per country if ``by_country``."""
    tallies: dict[str, list[int]] = {}
    for (party_id, country, is_retweet, label), n in counts.cells.items():
        tally = tallies.setdefault(country if by_country else party_id, [0, 0, 0, 0])
        if label is not None:
            slot = 2 if is_retweet and split_retweets else 0
            tally[slot] += n
            tally[slot + 1] += n * label
    return tallies


def aggregate_parties(
    counts: DocumentCounts,
    party_meta: Mapping[str, PartyMeta],
    filters: AggregationFilters = AggregationFilters(),
) -> list[PartyAggregate]:
    """Aggregate labeled documents to the party level.

    Documents without a label (annotation failures) are excluded from every
    count. Filters apply in order: retweet split, independents, minimum
    total tweets. Parties whose analysis base ends up empty are dropped.
    Parties missing from ``party_meta`` are retained but flagged; the design
    builder excludes them. A party's country is that of its lowest-id
    labeled document.
    """
    aggregates = []
    tallies = _tallies(counts, by_country=False, split_retweets=filters.exclude_retweets)
    for party_id, (n_original, n_negative, n_retweets, n_negative_retweets) in tallies.items():
        if filters.exclude_independents and party_id == "":
            continue
        if n_original + n_retweets < filters.min_tweets or not n_original:
            continue
        aggregates.append(
            PartyAggregate(
                party_id=party_id,
                country=counts.party_countries[party_id][1],
                n_total=n_original + n_retweets,
                n_original=n_original,
                n_negative_original=n_negative,
                pct_negative=100.0 * n_negative / n_original,
                pct_negative_retweets=100.0 * n_negative_retweets / n_retweets if n_retweets else None,
                flags=() if party_id in party_meta else ("missing_meta",),
            )
        )
    aggregates.sort(key=lambda a: (a.country, a.party_id))
    return aggregates


class ModelVariant(str, Enum):
    """Predictor sets: m1 uses extremism, m2 the raw left-right scale, and
    the family model swaps the continuous ideology terms for family dummies
    to avoid multicollinearity."""

    MODEL1 = "m1"
    MODEL2 = "m2"
    FAMILY = "family"


@dataclass(frozen=True)
class DesignMatrix:
    """Response, predictors, and cluster ids for one regression."""

    y: np.ndarray
    X: np.ndarray
    columns: tuple[str, ...]
    clusters: tuple[str, ...]
    party_ids: tuple[str, ...]
    reference_country: str
    variant: ModelVariant
    family_by_row: tuple[str, ...] | None = None
    family_columns: Mapping[str, int] | None = None
    reference_family: str | None = None
    # build_design's pivoted QR of X, (q, r, pivots), reused by fit_ols
    factorization: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def n_obs(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_clusters(self) -> int:
        return len(set(self.clusters))


def _check_rank(X: np.ndarray, columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivoted QR of X (X[:, pivots] = q @ r), raising with the dependent
    columns by name when X lacks full column rank."""
    import numpy as np
    from scipy import linalg

    q, r, pivots = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        offenders = sorted(columns[p] for p in pivots[rank:])
        raise RankDeficient(offenders)
    return q, r, pivots


def build_design(
    aggregates: Iterable[PartyAggregate],
    party_meta: Mapping[str, PartyMeta],
    variant: ModelVariant = ModelVariant.MODEL1,
    reference_country: str | None = None,
) -> DesignMatrix:
    """Assemble the fixed-effects design for one model variant.

    Rows are the aggregates with complete metadata, ordered by (country,
    party). Country dummies cover every country except the reference
    (alphabetically first unless overridden). The family model adds family
    dummies against the alphabetically first family present.
    """
    import numpy as np

    rows = [a for a in aggregates if a.party_id in party_meta and "missing_meta" not in a.flags]
    if not rows:
        raise DesignError("no aggregates with party metadata")
    rows.sort(key=lambda a: (a.country, a.party_id))

    countries = sorted({a.country for a in rows})
    if reference_country is None:
        reference_country = countries[0]
    elif reference_country not in countries:
        raise ConfigError(f"reference country {reference_country!r} not present in the data")
    dummy_countries = [c for c in countries if c != reference_country]

    family_by_row: tuple[str, ...] | None = None
    family_columns: dict[str, int] | None = None
    reference_family: str | None = None

    columns = [INTERCEPT_NAME, GOVT_NAME, ANTIELITE_NAME]
    if variant is ModelVariant.MODEL1:
        columns.append(EXTREMISM_NAME)
    elif variant is ModelVariant.MODEL2:
        columns.append(LRGEN_NAME)
    else:
        families = sorted({party_meta[a.party_id].family for a in rows})
        reference_family = families[0]
        family_columns = {}
        for fam in families[1:]:
            family_columns[fam] = len(columns)
            columns.append(f"Family: {fam}")
        family_by_row = tuple(party_meta[a.party_id].family for a in rows)
    country_offset = len(columns)
    columns.extend(f"Country: {c}" for c in dummy_countries)

    n, k = len(rows), len(columns)
    X = np.zeros((n, k))
    y = np.empty(n)
    for i, agg in enumerate(rows):
        meta = party_meta[agg.party_id]
        y[i] = agg.pct_negative
        X[i, 0] = 1.0
        X[i, 1] = float(meta.govt)
        X[i, 2] = meta.antielite_salience
        if variant is ModelVariant.MODEL1:
            X[i, 3] = extremism(meta.lrgen)
        elif variant is ModelVariant.MODEL2:
            X[i, 3] = meta.lrgen
        elif family_columns is not None and meta.family in family_columns:
            X[i, family_columns[meta.family]] = 1.0
        if agg.country != reference_country:
            X[i, country_offset + dummy_countries.index(agg.country)] = 1.0

    if n <= k:
        raise DesignError(f"underdetermined system: {n} observations for {k} parameters")
    factorization = _check_rank(X, columns)
    return DesignMatrix(
        y=y,
        X=X,
        columns=tuple(columns),
        clusters=tuple(a.country for a in rows),
        party_ids=tuple(a.party_id for a in rows),
        reference_country=reference_country,
        variant=variant,
        family_by_row=family_by_row,
        family_columns=family_columns,
        reference_family=reference_family,
        factorization=factorization,
    )


@dataclass(frozen=True)
class OlsFit:
    """Coefficients and fit statistics from the QR solve.

    ``rmse`` follows the regression-table convention sqrt(RSS / (n - k)).
    """

    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    xtx_inv: np.ndarray
    r2: float
    adj_r2: float
    rmse: float
    n_obs: int
    n_params: int


def fit_ols(design: DesignMatrix) -> OlsFit:
    """Least squares via the pivoted QR decomposition of the rank check,
    the one ``build_design`` stored or, for a design built by hand, a new
    one."""
    import numpy as np
    from scipy import linalg

    X, y = design.X, design.y
    n, k = X.shape
    if n <= k:
        raise DesignError(f"underdetermined system: {n} observations for {k} parameters")
    q, r, pivots = design.factorization or _check_rank(X, design.columns)
    beta = np.empty(k)
    beta[pivots] = linalg.solve_triangular(r, q.T @ y)
    fitted = X @ beta
    residuals = y - fitted
    rss = float(residuals @ residuals)
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)
    r_inv = linalg.solve_triangular(r, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(pivots, pivots)] = r_inv @ r_inv.T
    return OlsFit(
        beta=beta,
        fitted=fitted,
        residuals=residuals,
        xtx_inv=xtx_inv,
        r2=r2,
        adj_r2=adj_r2,
        rmse=float(np.sqrt(rss / (n - k))),
        n_obs=n,
        n_params=k,
    )


@dataclass(frozen=True)
class ClusterCovariance:
    cov: np.ndarray
    se: np.ndarray
    n_clusters: int
    df: int  # G - 1, used for t-based confidence intervals


def cluster_robust_se(fit: OlsFit, design: DesignMatrix) -> ClusterCovariance:
    """CR1 sandwich covariance with cluster-summed scores.

    meat = sum_g (X_g' u_g)(X_g' u_g)', scaled by (G/(G-1)) * ((N-1)/(N-k)).
    Requires at least two clusters.
    """
    import numpy as np

    groups = sorted(set(design.clusters))
    G = len(groups)
    if G < 2:
        raise ValueError("clustered errors require at least two clusters")
    n, k = design.X.shape
    meat = np.zeros((k, k))
    cluster_index = np.asarray(design.clusters)
    for g in groups:
        rows = cluster_index == g
        score = design.X[rows].T @ fit.residuals[rows]
        meat += np.outer(score, score)
    factor = (G / (G - 1)) * ((n - 1) / (n - k))
    cov = factor * fit.xtx_inv @ meat @ fit.xtx_inv
    return ClusterCovariance(cov=cov, se=np.sqrt(np.diag(cov)), n_clusters=G, df=G - 1)


@dataclass(frozen=True)
class RegressionFit:
    """Coefficient table plus fit statistics, Table-4 shaped."""

    columns: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    r2: float
    adj_r2: float
    rmse: float
    n_obs: int
    n_clusters: int
    cov: np.ndarray
    df: int
    fitted: np.ndarray

    def coefficient(self, name: str) -> tuple[float, float, float, float]:
        """(estimate, se, ci_low, ci_high) for a named column."""
        i = self.columns.index(name)
        return float(self.beta[i]), float(self.se[i]), float(self.ci_low[i]), float(self.ci_high[i])

    def to_dict(self) -> dict[str, object]:
        """The ``regression.json`` body; model-derived floats go through
        ``canonical_float``."""
        table = [
            {
                "name": name,
                "estimate": canonical_float(self.beta[i]),
                "se": canonical_float(self.se[i]),
                "ci_low": canonical_float(self.ci_low[i]),
                "ci_high": canonical_float(self.ci_high[i]),
            }
            for i, name in enumerate(self.columns)
        ]
        return {
            "coefficients": table,
            "r2": canonical_float(self.r2),
            "adj_r2": canonical_float(self.adj_r2),
            "rmse": canonical_float(self.rmse),
            "n": self.n_obs,
            "n_clusters": self.n_clusters,
        }


def t_critical(df: int) -> float:
    """Two-sided 95% critical value of Student's t with ``df`` degrees of
    freedom; ``stdtrit`` is what ``scipy.stats.t.ppf`` evaluates, without
    the cost of importing ``scipy.stats``."""
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.975))


def fit_model(design: DesignMatrix) -> RegressionFit:
    """OLS point estimates with country-clustered SEs and 95% t intervals."""
    fit = fit_ols(design)
    clustered = cluster_robust_se(fit, design)
    t_crit = t_critical(clustered.df)
    return RegressionFit(
        columns=design.columns,
        beta=fit.beta,
        se=clustered.se,
        ci_low=fit.beta - t_crit * clustered.se,
        ci_high=fit.beta + t_crit * clustered.se,
        r2=fit.r2,
        adj_r2=fit.adj_r2,
        rmse=fit.rmse,
        n_obs=fit.n_obs,
        n_clusters=clustered.n_clusters,
        cov=clustered.cov,
        df=clustered.df,
        fitted=fit.fitted,
    )


@dataclass(frozen=True)
class MarginalMeansRow:
    family: str
    predicted: float
    ci_low: float
    ci_high: float
    n_obs: int
    flags: tuple[str, ...] = field(default=())


def marginal_means_family(fit: RegressionFit, design: DesignMatrix) -> list[MarginalMeansRow]:
    """Average predicted negativity with every observation assigned to each
    family in turn, other covariates at observed values (G-computation).

    Confidence intervals use the delta method with the cluster-robust
    covariance. Small families (at most five observations) with two thirds
    or more of their members in a single country are flagged for geographic
    concentration, which can make their standard errors unreliable.
    """
    import numpy as np

    if design.family_by_row is None or design.family_columns is None:
        raise ValueError("marginal means require a family-model design")
    t_crit = t_critical(fit.df)
    families = sorted(set(design.family_by_row))
    family_cols = sorted(design.family_columns.values())
    rows = []
    for fam in families:
        counterfactual = design.X.copy()
        counterfactual[:, family_cols] = 0.0
        if fam in design.family_columns:
            counterfactual[:, design.family_columns[fam]] = 1.0
        g = counterfactual.mean(axis=0)
        predicted = float(g @ fit.beta)
        se = float(np.sqrt(g @ fit.cov @ g))
        member_countries = [c for c, f in zip(design.clusters, design.family_by_row) if f == fam]
        n_members = len(member_countries)
        flags = []
        top_country = max(member_countries.count(c) for c in set(member_countries))
        if n_members <= 5 and 3 * top_country >= 2 * n_members:
            flags.append("geographic_concentration")
        rows.append(
            MarginalMeansRow(
                family=fam,
                predicted=predicted,
                ci_low=predicted - t_crit * se,
                ci_high=predicted + t_crit * se,
                n_obs=n_members,
                flags=tuple(flags),
            )
        )
    return rows


@dataclass(frozen=True)
class CountryNegativity:
    """Percent negative per country, split by original messages and
    retweets; the retweet share is absent (not zero) without retweets."""

    country: str
    pct_original: float | None
    pct_retweet: float | None


def country_negativity(counts: DocumentCounts) -> list[CountryNegativity]:
    """Message-level negativity percentages per country, no party filters."""
    tallies = _tallies(counts, by_country=True, split_retweets=True)
    return [
        CountryNegativity(
            country=country,
            pct_original=100.0 * n_negative / n_original if n_original else None,
            pct_retweet=100.0 * n_negative_retweets / n_retweets if n_retweets else None,
        )
        for country, (n_original, n_negative, n_retweets, n_negative_retweets) in sorted(tallies.items())
    ]


def render_regression_text(fit: RegressionFit, title: str = "Model") -> str:
    """Regression-table text rendering; country fixed effects are not shown.

    A star marks coefficients whose 95% confidence interval excludes zero.
    """
    name_width = max(len(n) for n in fit.columns if not n.startswith("Country: "))
    name_width = max(name_width, len("N Clusters"))
    lines = [f"{'':<{name_width}}  {title}"]
    for i, name in enumerate(fit.columns):
        if name.startswith("Country: "):
            continue
        star = "*" if fit.ci_low[i] > 0 or fit.ci_high[i] < 0 else " "
        lines.append(f"{name:<{name_width}}  {fit.beta[i]:8.2f}{star}")
        lines.append(f"{'':<{name_width}}  [{fit.ci_low[i]:7.2f}; {fit.ci_high[i]:7.2f}]")
    lines.append(f"{'R^2':<{name_width}}  {fit.r2:8.2f}")
    lines.append(f"{'Adj. R^2':<{name_width}}  {fit.adj_r2:8.2f}")
    lines.append(f"{'Num. obs.':<{name_width}}  {fit.n_obs:8d}")
    lines.append(f"{'RMSE':<{name_width}}  {fit.rmse:8.2f}")
    lines.append(f"{'N Clusters':<{name_width}}  {fit.n_clusters:8d}")
    lines.append("* Null hypothesis value outside the 95% confidence interval.")
    lines.append("Country fixed effects estimated but not displayed.")
    return "\n".join(lines) + "\n"
