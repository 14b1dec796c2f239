"""Party-level empirical pipeline: counting, filtering, aggregation,
predictor construction, fixed-effects OLS with country-clustered standard
errors, and marginal means by party family.

``count_documents`` reduces the corpus rows, streamed once in any order, to
counts per (party, country, retweet, label), which ``aggregate_parties`` and
``country_negativity`` read; no row is held.

The regression is OLS on percentage outcomes (0-100) with country dummies.
Clustered covariances use the CR1 small-sample factor (G/(G-1))*((N-1)/(N-k))
and confidence intervals use a t distribution with G-1 degrees of freedom;
both are fixed, as neither ``cluster_robust_se`` nor ``fit_model`` takes an
option for them.

The fit is exact. Every response and predictor is a float or a 0/1 dummy,
so each column of X, and y, scales by a power of two to integers, and X'X is
inverted in integer arithmetic; coefficients, residuals, R^2 and each
variance are rationals, and a standard error is the square root of one. The
written values are rounded once from these (``runio.canonical_float``), so
they depend on no BLAS, LAPACK or scipy build, nor on the order of the
arithmetic.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DesignError, RankDeficient
from .ingest import CorpusRow, PartyMeta
from .runio import canonical_float

GOVT_NAME = "Government experience"
ANTIELITE_NAME = "Anti-elite salience"
EXTREMISM_NAME = "Ideological extreme"
LRGEN_NAME = "General Left-Right"
INTERCEPT_NAME = "(Intercept)"
_EPS = Fraction(1, 1 << 52)  # float64 machine epsilon, which LAPACK's rank tolerance uses


def extremism(lrgen: float) -> float:
    """Distance from the ideological center: |5 - lrgen|, in [0, 5]."""
    if not 0.0 <= lrgen <= 10.0:
        raise ValueError(f"lrgen {lrgen} outside [0, 10]")
    return abs(5.0 - lrgen)


class _AggregationFiltersFields(NamedTuple):
    exclude_retweets: bool = True
    min_tweets: int = 500
    exclude_independents: bool = True


class AggregationFilters(_AggregationFiltersFields):
    """The study's inclusion rules for party aggregates.

    ``min_tweets`` applies to a party's total message count (before the
    original/retweet split); 500 is the study default.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "AggregationFilters":
        self = super().__new__(cls, *args, **kwargs)
        if self.min_tweets < 0:
            raise ValueError("min_tweets must be non-negative")
        return self


class PartyAggregate(NamedTuple):
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
    flags: tuple[str, ...] = ()


class DocumentCounts(NamedTuple):
    """Documents per (party_id, country, is_retweet, label), label ``None``
    if unlabeled, and each party's lowest labeled id with its country, which
    is the party's country."""

    cells: Counter[tuple[str, str, bool, int | None]]
    party_countries: dict[str, tuple[str, str]]

    @property
    def n_unlabeled(self) -> int:
        return sum(n for (_, _, _, label), n in self.cells.items() if label is None)


def count_documents(rows: Iterable[CorpusRow], labels: Mapping[str, int]) -> DocumentCounts:
    """Count corpus rows, in any order, into a ``DocumentCounts`` table."""
    cells: Counter[tuple[str, str, bool, int | None]] = Counter()
    party_countries: dict[str, tuple[str, str]] = {}
    for doc_id, _, country, party_id, is_retweet in rows:
        label = labels.get(doc_id)
        cells[party_id, country, is_retweet, label] += 1
        if label is not None:
            lowest = party_countries.get(party_id)
            if lowest is None or doc_id < lowest[0]:
                party_countries[party_id] = (doc_id, country)
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


def _to_integers(values: Iterable[float]) -> tuple[int, list[int]]:
    """(shift, ints) with ints[i] == values[i] * 2**shift exactly, for the
    least shift >= 0 that makes every value an integer."""
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(d.bit_length() for _, d in ratios) - 1  # each denominator is a power of two
    return shift, [n << shift - d.bit_length() + 1 for n, d in ratios]


class NormalInverse(NamedTuple):
    """(X'X)^-1, exactly: column j of X times 2**shifts[j] is the integer
    column j of Z, and (Z'Z)^-1 = adjugate / det."""

    shifts: tuple[int, ...]
    Z: tuple[tuple[int, ...], ...]
    adjugate: tuple[tuple[int, ...], ...]
    det: int


def _invert_normal(X: Sequence[Sequence[float]], columns: Sequence[str]) -> NormalInverse:
    """Invert X'X by fraction-free symmetric sweeps, raising with the
    dependent columns by name when X lacks full column rank.

    Each sweep pivots on the column with the largest squared residual norm
    given the columns already swept: the order of LAPACK's pivoted QR
    (Businger-Golub), whose R_jj**2 is that residual norm. Column j is
    dependent when R_jj <= R_11 * max(n, k) * eps, LAPACK's rank tolerance,
    tested here exactly. Every entry stays an integer: after sweeping the
    set S the matrix holds det(M_SS) times the swept matrix, the Bareiss
    (1968) invariant, so each update divides exactly by the previous pivot.
    """
    shifts, z_columns = zip(*(_to_integers(col) for col in zip(*X)))
    n, k = len(X), len(columns)
    T = [[sum(map(mul, a, b)) for b in z_columns] for a in z_columns]  # Z'Z
    # squared residual norms in X's units are T[j][j] / (delta * 4**shifts[j])
    top = max(shifts)
    largest = max(Fraction(T[j][j], 1 << 2 * shifts[j]) for j in range(k))  # R_11**2
    bound = largest * (max(n, k) * _EPS) ** 2
    order = list(range(k))  # swapped as LAPACK swaps, so ties go the same way
    delta = 1
    for step in range(k):
        best = max(range(step, k), key=lambda i: T[order[i]][order[i]] << 2 * (top - shifts[order[i]]))
        order[step], order[best] = order[best], order[step]
        p = order[step]
        pivot, row_p = T[p][p], T[p]
        if Fraction(pivot, delta << 2 * shifts[p]) <= bound:
            raise RankDeficient(sorted(columns[j] for j in order[step:]))
        for i, row in enumerate(T):
            if i != p:
                a = row[p]
                if a:
                    row[:] = [(pivot * x - a * y) // delta for x, y in zip(row, row_p)]
                    row[p] = a
                else:
                    row[:] = [pivot * x // delta for x in row]
        row_p[p] = -delta
        delta = pivot
    return NormalInverse(
        shifts=shifts,
        Z=tuple(zip(*z_columns)),
        adjugate=tuple(tuple(-x for x in row) for row in T),
        det=delta,
    )


def _repr_but_inverse(self: DesignMatrix | OlsFit) -> str:
    """The record's repr without its last field, ``inverse``."""
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
    return f"{type(self).__name__}({fields})"


class DesignMatrix(NamedTuple):
    """Response, predictors (rows of X), and cluster ids for one regression."""

    y: tuple[float, ...]
    X: tuple[tuple[float, ...], ...]
    columns: tuple[str, ...]
    clusters: tuple[str, ...]
    party_ids: tuple[str, ...]
    reference_country: str
    variant: ModelVariant
    family_by_row: tuple[str, ...] | None = None
    family_columns: Mapping[str, int] | None = None
    reference_family: str | None = None
    # build_design's rank check, reused by fit_ols; left out of repr
    inverse: NormalInverse | None = None

    __repr__ = _repr_but_inverse

    @property
    def n_obs(self) -> int:
        return len(self.y)

    @property
    def n_clusters(self) -> int:
        return len(set(self.clusters))


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
    X = []
    for agg in rows:
        meta = party_meta[agg.party_id]
        x = [0.0] * k
        x[0] = 1.0
        x[1] = float(meta.govt)
        x[2] = meta.antielite_salience
        if variant is ModelVariant.MODEL1:
            x[3] = extremism(meta.lrgen)
        elif variant is ModelVariant.MODEL2:
            x[3] = meta.lrgen
        elif family_columns is not None and meta.family in family_columns:
            x[family_columns[meta.family]] = 1.0
        if agg.country != reference_country:
            x[country_offset + dummy_countries.index(agg.country)] = 1.0
        X.append(tuple(x))

    if n <= k:
        raise DesignError(f"underdetermined system: {n} observations for {k} parameters")
    return DesignMatrix(
        y=tuple(a.pct_negative for a in rows),
        X=tuple(X),
        columns=tuple(columns),
        clusters=tuple(a.country for a in rows),
        party_ids=tuple(a.party_id for a in rows),
        reference_country=reference_country,
        variant=variant,
        family_by_row=family_by_row,
        family_columns=family_columns,
        reference_family=reference_family,
        inverse=_invert_normal(X, columns),
    )


class OlsFit(NamedTuple):
    """Exact least-squares coefficients and fit statistics.

    ``rmse`` follows the regression-table convention sqrt(RSS / (n - k)).
    """

    beta: tuple[Fraction, ...]
    fitted: tuple[Fraction, ...]
    residuals: tuple[Fraction, ...]
    r2: Fraction
    adj_r2: Fraction
    rss: Fraction
    n_obs: int
    n_params: int
    inverse: NormalInverse  # left out of repr

    __repr__ = _repr_but_inverse

    @property
    def rmse(self) -> float:
        return math.sqrt(self.rss / (self.n_obs - self.n_params))


def fit_ols(design: DesignMatrix) -> OlsFit:
    """Least squares from the exact inverse of X'X that ``build_design``
    stored or, for a design built by hand, a new one."""
    n, k = design.n_obs, len(design.columns)
    if n <= k:
        raise DesignError(f"underdetermined system: {n} observations for {k} parameters")
    inverse = design.inverse or _invert_normal(design.X, design.columns)
    y_shift, w = _to_integers(design.y)
    Zw = [sum(map(mul, col, w)) for col in zip(*inverse.Z)]
    scaled = [sum(map(mul, row, Zw)) for row in inverse.adjugate]  # beta_j = scaled_j * 2**shift_j / denominator
    denominator = inverse.det << y_shift
    r = [inverse.det * wi - sum(map(mul, zi, scaled)) for zi, wi in zip(inverse.Z, w)]  # residuals * denominator
    rss = Fraction(sum(ri * ri for ri in r), denominator * denominator)
    tss = Fraction(n * sum(wi * wi for wi in w) - sum(w) ** 2, n << 2 * y_shift)
    r2 = 1 - rss / tss if tss > 0 else Fraction(1)
    return OlsFit(
        beta=tuple(Fraction(b << s, denominator) for b, s in zip(scaled, inverse.shifts)),
        fitted=tuple(Fraction(inverse.det * wi - ri, denominator) for wi, ri in zip(w, r)),
        residuals=tuple(Fraction(ri, denominator) for ri in r),
        r2=r2,
        adj_r2=1 - (1 - r2) * Fraction(n - 1, n - k),
        rss=rss,
        n_obs=n,
        n_params=k,
        inverse=inverse,
    )


class ClusterCovariance(NamedTuple):
    """CR1 variances of the coefficients from each cluster's influence on
    them, ``influence[g] = (X'X)^-1 X_g' e_g``."""

    variance: tuple[Fraction, ...]
    influence: tuple[tuple[Fraction, ...], ...]
    factor: Fraction  # (G / (G - 1)) * ((N - 1) / (N - k))
    n_clusters: int
    df: int  # G - 1, used for t-based confidence intervals

    @property
    def se(self) -> tuple[float, ...]:
        return tuple(math.sqrt(v) for v in self.variance)


def cluster_robust_se(fit: OlsFit, design: DesignMatrix) -> ClusterCovariance:
    """CR1 sandwich variances with cluster-summed scores.

    var_j = factor * sum_g influence[g][j]**2, which is the diagonal of
    factor * (X'X)^-1 [sum_g (X_g' e_g)(X_g' e_g)'] (X'X)^-1 without forming
    it. Requires at least two clusters.
    """
    groups = sorted(set(design.clusters))
    G = len(groups)
    if G < 2:
        raise ValueError("clustered errors require at least two clusters")
    n, k = fit.n_obs, fit.n_params
    inverse = fit.inverse
    denominator = math.lcm(*(e.denominator for e in fit.residuals))
    scores = {g: [0] * k for g in groups}  # Z_g' e_g * denominator
    for zi, e, g in zip(inverse.Z, fit.residuals, design.clusters):
        r = e.numerator * (denominator // e.denominator)
        scores[g] = [s + z * r for s, z in zip(scores[g], zi)]
    # influence[g][j] = v[g][j] * 2**shift_j / (det * denominator)
    v = [[sum(map(mul, row, scores[g])) for row in inverse.adjugate] for g in groups]
    denominator *= inverse.det
    factor = Fraction(G * (n - 1), (G - 1) * (n - k))
    return ClusterCovariance(
        variance=tuple(
            factor * Fraction(sum(vg[j] ** 2 for vg in v) << 2 * s, denominator * denominator)
            for j, s in enumerate(inverse.shifts)
        ),
        influence=tuple(tuple(Fraction(x << s, denominator) for x, s in zip(vg, inverse.shifts)) for vg in v),
        factor=factor,
        n_clusters=G,
        df=G - 1,
    )


def _written(estimate: Fraction, variance: Fraction, t_crit: float) -> tuple[float, float, float, float]:
    """(estimate, se, ci_low, ci_high), se = sqrt(variance) and the bounds
    estimate -/+ t_crit * se, each rounded once from its exact value."""
    reach = Fraction(t_crit) ** 2 * variance  # (t_crit * se)**2
    return (
        canonical_float(estimate),
        canonical_float(0, variance),
        canonical_float(estimate, -reach),
        canonical_float(estimate, reach),
    )


class RegressionFit(NamedTuple):
    """Coefficient table plus fit statistics, Table-4 shaped, held exactly:
    ``beta``, ``variance``, ``r2``, ``adj_r2``, ``rss`` and ``fitted`` are
    rationals. ``se``, ``ci_low``, ``ci_high`` and ``rmse`` are float views;
    ``to_dict`` rounds every value from its exact value."""

    columns: tuple[str, ...]
    beta: tuple[Fraction, ...]
    variance: tuple[Fraction, ...]
    t_crit: float
    r2: Fraction
    adj_r2: Fraction
    rss: Fraction
    n_obs: int
    n_clusters: int
    df: int
    fitted: tuple[Fraction, ...]
    influence: tuple[tuple[Fraction, ...], ...]
    factor: Fraction

    @property
    def se(self) -> tuple[float, ...]:
        return tuple(math.sqrt(v) for v in self.variance)

    @property
    def ci_low(self) -> tuple[float, ...]:
        return tuple(float(b) - self.t_crit * se for b, se in zip(self.beta, self.se))

    @property
    def ci_high(self) -> tuple[float, ...]:
        return tuple(float(b) + self.t_crit * se for b, se in zip(self.beta, self.se))

    @property
    def rmse(self) -> float:
        return math.sqrt(self.rss / (self.n_obs - len(self.columns)))

    def coefficient(self, name: str) -> tuple[float, float, float, float]:
        """(estimate, se, ci_low, ci_high) for a named column."""
        i = self.columns.index(name)
        return float(self.beta[i]), self.se[i], self.ci_low[i], self.ci_high[i]

    def to_dict(self) -> dict[str, object]:
        """The ``regression.json`` body, each model-derived value rounded
        once from its exact value by ``canonical_float``."""
        table = []
        for name, beta, variance in zip(self.columns, self.beta, self.variance):
            estimate, se, ci_low, ci_high = _written(beta, variance, self.t_crit)
            table.append({"name": name, "estimate": estimate, "se": se, "ci_low": ci_low, "ci_high": ci_high})
        return {
            "coefficients": table,
            "r2": canonical_float(self.r2),
            "adj_r2": canonical_float(self.adj_r2),
            "rmse": canonical_float(0, self.rss / (self.n_obs - len(self.columns))),
            "n": self.n_obs,
            "n_clusters": self.n_clusters,
        }


def _atan(x: Decimal) -> Decimal:
    """arctan(x) for x >= 0 at the context's precision: halve the angle
    until x <= 1/10, then sum the Taylor series."""
    doublings = 0
    while x > Decimal("0.1"):
        x = x / (1 + (1 + x * x).sqrt())
        doublings += 1
    total, power, k = x, x, 1
    while True:
        power *= -x * x
        k += 2
        term = power / k
        if total + term == total:
            return total * 2**doublings
        total += term


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def t_critical(df: int) -> float:
    """Two-sided 95% critical value of Student's t with ``df`` degrees of
    freedom: the double nearest the exact quantile.

    The coverage P(|T| <= t) has a closed form for integer df (Abramowitz
    and Stegun 26.7.3 for odd, 26.7.4 for even df), evaluated here at 40
    significant digits. Bisection runs over the doubles between 1.9 and
    12.8, which bracket every df's quantile (12.706... at df 1, 1.95996...
    in the limit); the coverage at the midpoint of the last two doubles
    picks the nearer one.
    """
    if df < 1:
        raise ValueError("t quantiles need at least one degree of freedom")
    with localcontext() as ctx:
        ctx.prec = 40
        nu, pi, target = Decimal(df), 4 * _atan(Decimal(1)), Decimal("0.95")
        # the df // 2 terms of the series in cos^2(theta), theta = arctan(t / sqrt(df)), highest power first
        even, coefficients, c = df % 2 == 0, [], Decimal(1)
        for j in range(1, df // 2 + 1):
            coefficients.append(c)
            top = 2 * j - 1 if even else 2 * j
            c = c * top / (top + 1)
        coefficients.reverse()

        def coverage(t: Decimal) -> Decimal:
            cos2 = nu / (nu + t * t)
            sin = t / (nu + t * t).sqrt()
            series = Decimal(0)
            for a in coefficients:
                series = series * cos2 + a
            if even:
                return sin * series
            return 2 * (_atan(t / nu.sqrt()) + sin * cos2.sqrt() * series) / pi

        lo, hi = _float_bits(1.9), _float_bits(12.8)  # coverage(lo) < target <= coverage(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if coverage(Decimal(_bits_float(mid))) < target:
                lo = mid
            else:
                hi = mid
        low, high = _bits_float(lo), _bits_float(hi)
        return low if coverage((Decimal(low) + Decimal(high)) / 2) > target else high


def fit_model(design: DesignMatrix) -> RegressionFit:
    """OLS point estimates with country-clustered SEs and 95% t intervals."""
    fit = fit_ols(design)
    clustered = cluster_robust_se(fit, design)
    return RegressionFit(
        columns=design.columns,
        beta=fit.beta,
        variance=clustered.variance,
        t_crit=t_critical(clustered.df),
        r2=fit.r2,
        adj_r2=fit.adj_r2,
        rss=fit.rss,
        n_obs=fit.n_obs,
        n_clusters=clustered.n_clusters,
        df=clustered.df,
        fitted=fit.fitted,
        influence=clustered.influence,
        factor=clustered.factor,
    )


class MarginalMeansRow(NamedTuple):
    """One family's average prediction, exact, with the rational variance
    of its standard error; ``ci_low`` and ``ci_high`` are float views."""

    family: str
    predicted: Fraction
    variance: Fraction
    t_crit: float
    n_obs: int
    flags: tuple[str, ...] = ()

    @property
    def ci_low(self) -> float:
        return float(self.predicted) - self.t_crit * math.sqrt(self.variance)

    @property
    def ci_high(self) -> float:
        return float(self.predicted) + self.t_crit * math.sqrt(self.variance)

    def written(self) -> tuple[float, float, float]:
        """(predicted, ci_low, ci_high), each rounded once from its exact value."""
        predicted, _, ci_low, ci_high = _written(self.predicted, self.variance, self.t_crit)
        return predicted, ci_low, ci_high


def marginal_means_family(fit: RegressionFit, design: DesignMatrix) -> list[MarginalMeansRow]:
    """Average predicted negativity with every observation assigned to each
    family in turn, other covariates at observed values (G-computation).

    The counterfactual mean row c is X's column means with every family
    column 0 but the family's own, which is 1, so the prediction is c'beta
    and, by the delta method with the cluster-robust variances, its
    variance factor * sum_g (c'influence[g])**2. Small families (at most
    five observations) with two thirds or more of their members in a single
    country are flagged for geographic concentration, which can make their
    standard errors unreliable.
    """
    if design.family_by_row is None or design.family_columns is None:
        raise ValueError("marginal means require a family-model design")
    family_cols = set(design.family_columns.values())
    means = {}  # exact column means of X, family columns left out
    for j, column in enumerate(zip(*design.X)):
        if j not in family_cols:
            shift, ints = _to_integers(column)
            means[j] = Fraction(sum(ints), design.n_obs << shift)
    base = sum(m * fit.beta[j] for j, m in means.items())
    base_influence = [sum(m * u[j] for j, m in means.items()) for u in fit.influence]
    rows = []
    for fam in sorted(set(design.family_by_row)):
        col = design.family_columns.get(fam)
        if col is None:
            predicted, influence = base, base_influence
        else:
            predicted = base + fit.beta[col]
            influence = [b + u[col] for b, u in zip(base_influence, fit.influence)]
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
                variance=fit.factor * sum(x * x for x in influence),
                t_crit=fit.t_crit,
                n_obs=n_members,
                flags=tuple(flags),
            )
        )
    return rows


class CountryNegativity(NamedTuple):
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
    for name, beta, low, high in zip(fit.columns, fit.beta, fit.ci_low, fit.ci_high):
        if name.startswith("Country: "):
            continue
        star = "*" if low > 0 or high < 0 else " "
        lines.append(f"{name:<{name_width}}  {float(beta):8.2f}{star}")
        lines.append(f"{'':<{name_width}}  [{low:7.2f}; {high:7.2f}]")
    lines.append(f"{'R^2':<{name_width}}  {float(fit.r2):8.2f}")
    lines.append(f"{'Adj. R^2':<{name_width}}  {float(fit.adj_r2):8.2f}")
    lines.append(f"{'Num. obs.':<{name_width}}  {fit.n_obs:8d}")
    lines.append(f"{'RMSE':<{name_width}}  {fit.rmse:8.2f}")
    lines.append(f"{'N Clusters':<{name_width}}  {fit.n_clusters:8d}")
    lines.append("* Null hypothesis value outside the 95% confidence interval.")
    lines.append("Country fixed effects estimated but not displayed.")
    return "\n".join(lines) + "\n"
