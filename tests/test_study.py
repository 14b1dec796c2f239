import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import make_corpus, make_doc, synthetic_study
from oracles import (
    aggregate_parties_lists,
    classical_cov,
    country_negativity_lists,
    fraction_fit,
    hc0_cov,
    qr_fit,
    within_demeaned_beta,
)
from negcamp.errors import DesignError, RankDeficient
from negcamp.ingest import PartyMeta, corpus_row
from negcamp.study import (
    ANTIELITE_NAME,
    EXTREMISM_NAME,
    GOVT_NAME,
    INTERCEPT_NAME,
    LRGEN_NAME,
    AggregationFilters,
    DesignMatrix,
    ModelVariant,
    PartyAggregate,
    aggregate_parties,
    build_design,
    cluster_robust_se,
    count_documents,
    country_negativity,
    extremism,
    fit_model,
    fit_ols,
    marginal_means_family,
    t_critical,
)


def meta(party_id, country="GB", lrgen=5.0, govt=0, antielite=2.0, family="socialist"):
    return PartyMeta(
        party_id=party_id,
        country=country,
        lrgen=lrgen,
        govt=govt,
        antielite_salience=antielite,
        family=family,
        display_name=party_id,
    )


def raw_design(y, X, columns, clusters, **kwargs):
    return DesignMatrix(
        y=tuple(map(float, y)),
        X=tuple(tuple(map(float, row)) for row in X),
        columns=tuple(columns),
        clusters=tuple(clusters),
        party_ids=tuple(f"p{i}" for i in range(len(y))),
        reference_country="AA",
        variant=ModelVariant.MODEL1,
        **kwargs,
    )


class TestExtremism:
    @pytest.mark.parametrize("lrgen, expected", [(5.0, 0.0), (0.0, 5.0), (10.0, 5.0), (8.7, 3.7)])
    def test_values(self, lrgen, expected):
        assert extremism(lrgen) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            extremism(10.5)
        with pytest.raises(ValueError):
            extremism(-0.1)

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_symmetry_about_center(self, lrgen):
        assert extremism(lrgen) == pytest.approx(extremism(10.0 - lrgen), abs=1e-12)


class TestAggregateParties:
    def party_docs(self, party="p1", country="GB", n=6, retweets=1, negatives=(0, 1)):
        docs = []
        for i in range(n):
            docs.append(
                make_doc(
                    doc_id=f"{party}_{i:02d}",
                    party=party,
                    country=country,
                    retweet=i < retweets,
                )
            )
        labels = {d.id: 0 for d in docs}
        originals = [d for d in docs if not d.is_retweet]
        for idx in negatives:
            labels[originals[idx].id] = 1
        return docs, labels

    def test_hand_count(self):
        docs, labels = self.party_docs(n=6, retweets=1, negatives=(0, 1))
        aggs = aggregate_parties(count_documents(map(corpus_row, docs), labels), {"p1": meta("p1")}, AggregationFilters(min_tweets=0))
        assert len(aggs) == 1
        agg = aggs[0]
        assert agg.n_total == 6
        assert agg.n_original == 5
        assert agg.n_negative_original == 2
        assert agg.pct_negative == pytest.approx(40.0)
        assert agg.pct_negative_retweets == pytest.approx(0.0)

    def test_min_tweets_boundary(self):
        docs_a, labels_a = self.party_docs(party="small", n=499, retweets=0, negatives=())
        docs_b, labels_b = self.party_docs(party="large", n=500, retweets=0, negatives=())
        counts = count_documents(map(corpus_row, docs_a + docs_b), {**labels_a, **labels_b})
        metas = {"small": meta("small"), "large": meta("large")}
        aggs = aggregate_parties(counts, metas, AggregationFilters(min_tweets=500))
        assert [a.party_id for a in aggs] == ["large"]

    def test_independents_excluded(self):
        docs, labels = self.party_docs(party="", n=4, retweets=0, negatives=(0,))
        aggs = aggregate_parties(count_documents(map(corpus_row, docs), labels), {}, AggregationFilters(min_tweets=0))
        assert aggs == []
        with_ind = aggregate_parties(
            count_documents(map(corpus_row, docs), labels), {}, AggregationFilters(min_tweets=0, exclude_independents=False)
        )
        assert len(with_ind) == 1

    def test_retweet_split_disabled(self):
        docs, labels = self.party_docs(n=6, retweets=2, negatives=(0,))
        filters = AggregationFilters(min_tweets=0, exclude_retweets=False)
        agg = aggregate_parties(count_documents(map(corpus_row, docs), labels), {"p1": meta("p1")}, filters)[0]
        assert agg.n_original == agg.n_total == 6
        assert agg.pct_negative_retweets is None

    def test_missing_meta_flagged(self):
        docs, labels = self.party_docs()
        agg = aggregate_parties(count_documents(map(corpus_row, docs), labels), {}, AggregationFilters(min_tweets=0))[0]
        assert "missing_meta" in agg.flags

    def test_unlabeled_docs_excluded_from_counts(self):
        docs, labels = self.party_docs(n=6, retweets=0, negatives=(0,))
        del labels[docs[-1].id]
        agg = aggregate_parties(count_documents(map(corpus_row, docs), labels), {"p1": meta("p1")}, AggregationFilters(min_tweets=0))[0]
        assert agg.n_total == 5

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_min_tweets_monotonicity(self, t_low, t_high):
        t_low, t_high = sorted((t_low, t_high))
        docs = []
        labels = {}
        for p, size in (("p1", 2), ("p2", 5), ("p3", 8)):
            d, lab = self.party_docs(party=p, n=size, retweets=0, negatives=())
            docs += d
            labels.update(lab)
        counts = count_documents(map(corpus_row, docs), labels)
        metas = {p: meta(p) for p in ("p1", "p2", "p3")}
        low = {a.party_id for a in aggregate_parties(counts, metas, AggregationFilters(min_tweets=t_low))}
        high = {a.party_id for a in aggregate_parties(counts, metas, AggregationFilters(min_tweets=t_high))}
        assert high <= low

    def test_invariants_on_fixture(self, corpus, party_meta, mock_map):
        from negcamp.annotate import parse_label

        labels = {k: parse_label(v) for k, v in mock_map.items()}
        aggs = aggregate_parties(count_documents(map(corpus_row, corpus), labels), party_meta, AggregationFilters(min_tweets=0))
        for a in aggs:
            assert a.n_negative_original <= a.n_original <= a.n_total
            assert 0.0 <= a.pct_negative <= 100.0
            assert a.pct_negative == pytest.approx(100.0 * a.n_negative_original / a.n_original)


    def test_country_of_lowest_id_labeled_document(self):
        docs = [make_doc(doc_id="a", country="DE"), make_doc(doc_id="b", country="GB"), make_doc(doc_id="c", country="DE")]
        agg = aggregate_parties(count_documents(map(corpus_row, docs), {"b": 1, "c": 0}), {"p1": meta("p1")}, AggregationFilters(min_tweets=0))[0]
        assert agg.country == "GB"


class TestCountDocuments:
    def test_memory_does_not_grow_with_documents(self):
        # What the table keeps is bounded by its distinct cells, not by the
        # documents; these ids repeat every cell after 151 * 3 * 7 * 5 documents.
        def kept_by_table(n):
            labels = {f"d{i:07d}": i % 3 for i in range(n) if i % 5}
            countries = ("GB", "DE", "ES")
            docs = (
                make_doc(doc_id=f"d{i:07d}", text=f"message {i} about the campaign", country=countries[i % 3],
                         party=f"p{i % 151:03d}", retweet=i % 7 == 0)
                for i in range(n)
            )
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                counts = count_documents(map(corpus_row, docs), labels)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert counts.cells.total() == n
            return kept

        small, large = kept_by_table(20_000), kept_by_table(60_000)
        assert large <= small + 4096, f"{small} B kept for 20k documents, {large} B for 60k"

    def test_unlabeled_documents_counted_apart(self):
        docs = [make_doc(doc_id="a"), make_doc(doc_id="b", retweet=True), make_doc(doc_id="c", party="p2", country="DE")]
        counts = count_documents(map(corpus_row, docs), {"b": 1})
        assert counts.cells == {("p1", "GB", False, None): 1, ("p1", "GB", True, 1): 1, ("p2", "DE", False, None): 1}
        assert counts.party_countries == {"p1": ("b", "GB")}
        assert counts.n_unlabeled == 2


# (party, country, text, retweet flag, label or None) of one document
DOC_SPECS = st.tuples(
    st.sampled_from(["", "p1", "p2", "p3"]),
    st.sampled_from(["GB", "DE", "ES"]),
    st.sampled_from(["plain text", "RT @x hi", "  RT @y hi", "RT without handle"]),
    st.booleans(),
    st.sampled_from([None, 0, 1]),
)


@given(
    specs=st.lists(DOC_SPECS, max_size=40),
    order=st.lists(st.integers(), min_size=40, max_size=40),
    exclude_retweets=st.booleans(),
    exclude_independents=st.booleans(),
    min_tweets=st.integers(0, 45),
    with_meta=st.sets(st.sampled_from(["p1", "p2", "p3"])),
)
@example(
    # p1 spans DE and GB and its lowest id, d000, is unlabeled; the documents come in reverse
    specs=[("p1", "DE", "plain text", False, None), ("p1", "GB", "RT @x hi", False, 1), ("p1", "DE", "plain text", False, 0),
           ("", "ES", "plain text", True, 1), ("p2", "ES", "plain text", False, None)],
    order=list(range(40, 0, -1)),
    exclude_retweets=True,
    exclude_independents=False,
    min_tweets=0,
    with_meta={"p1"},
)
@settings(max_examples=300, deadline=None)
def test_index_aggregation_equals_list_oracle(specs, order, exclude_retweets, exclude_independents, min_tweets, with_meta):
    """The count table of the documents in any order (sorted by the drawn
    ``order`` keys) aggregates as the list oracles do over the corpus."""
    docs = [
        make_doc(doc_id=f"d{i:03d}", party=party, country=country, text=text, retweet=flag)
        for i, (party, country, text, flag, _) in enumerate(specs)
    ]
    labels = {f"d{i:03d}": spec[4] for i, spec in enumerate(specs) if spec[4] is not None}
    metas = {p: meta(p) for p in with_meta}
    filters = AggregationFilters(
        exclude_retweets=exclude_retweets, min_tweets=min_tweets, exclude_independents=exclude_independents
    )
    shuffled = [doc for _, doc in sorted(zip(order, docs), key=lambda pair: pair[0])]
    counts, corpus = count_documents(map(corpus_row, shuffled), labels), make_corpus(docs)
    assert aggregate_parties(counts, metas, filters) == aggregate_parties_lists(corpus, labels, metas, filters)
    assert country_negativity(counts) == country_negativity_lists(corpus, labels)


class TestBuildDesign:
    def test_full_panel_shape_151_parties_19_countries(self):
        aggregates, party_meta, _ = synthetic_study(seed=1)
        design = build_design(aggregates, party_meta, ModelVariant.MODEL1)
        assert design.n_obs == 151
        assert design.n_clusters == 19
        # intercept + 3 predictors + 18 country dummies
        assert len(design.columns) == 22
        assert design.columns[:4] == (INTERCEPT_NAME, GOVT_NAME, ANTIELITE_NAME, EXTREMISM_NAME)
        assert sum(1 for c in design.columns if c.startswith("Country: ")) == 18

    def test_model2_uses_left_right(self):
        aggregates, party_meta, _ = synthetic_study(seed=1)
        design = build_design(aggregates, party_meta, ModelVariant.MODEL2)
        assert LRGEN_NAME in design.columns
        assert EXTREMISM_NAME not in design.columns

    def test_single_country_no_dummies(self):
        aggs = [
            PartyAggregate(f"p{i}", "GB", 100, 100, i * 10, float(i * 10)) for i in range(5)
        ]
        metas = {f"p{i}": meta(f"p{i}", lrgen=float(2 * i), antielite=float(i), govt=i % 2) for i in range(5)}
        design = build_design(aggs, metas, ModelVariant.MODEL1)
        assert not any(c.startswith("Country: ") for c in design.columns)

    def test_family_reference_coding(self):
        aggregates, party_meta, _ = synthetic_study(seed=3, family_offsets={"radical_right": 10.0})
        design = build_design(aggregates, party_meta, ModelVariant.FAMILY)
        families = {m.family for m in party_meta.values()}
        assert len(families) == 11
        assert sum(1 for c in design.columns if c.startswith("Family: ")) == 10
        assert EXTREMISM_NAME not in design.columns and LRGEN_NAME not in design.columns

    def test_missing_meta_rows_excluded(self):
        aggregates, party_meta, _ = synthetic_study(seed=1)
        flagged = PartyAggregate("ghost", "AT", 1000, 1000, 100, 10.0, flags=("missing_meta",))
        design = build_design(aggregates + [flagged], party_meta, ModelVariant.MODEL1)
        assert "ghost" not in design.party_ids

    def test_rank_deficiency_names_columns(self):
        aggs = []
        metas = {}
        for i in range(8):
            pid = f"p{i}"
            aggs.append(PartyAggregate(pid, "GB", 100, 100, 10, float(10 + i)))
            # antielite exactly twice extremism -> collinear with it
            lrgen = 5.0 + i * 0.5
            metas[pid] = meta(pid, lrgen=lrgen, antielite=2 * extremism(lrgen), govt=i % 2)
        with pytest.raises(RankDeficient) as err:
            build_design(aggs, metas, ModelVariant.MODEL1)
        assert {ANTIELITE_NAME, EXTREMISM_NAME} & set(err.value.columns)

    def test_rank_tolerance_rejects_exactly_full_rank_design(self):
        # as above, but one row's antielite is 2 * extremism + 2**-44: X has
        # full rank exactly, yet that residual is below LAPACK's tolerance
        # R_11 * max(n, k) * eps, which the exact check keeps
        aggs = []
        metas = {}
        for i in range(8):
            pid = f"p{i}"
            aggs.append(PartyAggregate(pid, "GB", 100, 100, 10, float(10 + i)))
            lrgen = 5.0 + i * 0.5
            antielite = 2 * extremism(lrgen) + (2**-44 if i == 7 else 0.0)
            metas[pid] = meta(pid, lrgen=lrgen, antielite=antielite, govt=i % 2)
        assert metas["p7"].antielite_salience != 2 * extremism(metas["p7"].lrgen)
        with pytest.raises(RankDeficient) as err:
            build_design(aggs, metas, ModelVariant.MODEL1)
        assert err.value.columns == [EXTREMISM_NAME]

    def test_unknown_reference_country(self):
        aggregates, party_meta, _ = synthetic_study(seed=1)
        from negcamp.errors import ConfigError

        with pytest.raises(ConfigError):
            build_design(aggregates, party_meta, ModelVariant.MODEL1, reference_country="ZZ")


class TestFitOls:
    def test_exact_line(self):
        design = raw_design(
            y=[1.0, 2.0, 3.0],
            X=[[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]],
            columns=(INTERCEPT_NAME, "x"),
            clusters=("a", "b", "c"),
        )
        fit = fit_ols(design)
        assert fit.beta == pytest.approx([1.0, 1.0], abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.rmse == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_response_zero_slopes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        x -= x.mean()
        y = np.ones(20) * 4.0  # constant, orthogonal to centered x
        design = raw_design(
            y=y,
            X=np.column_stack([np.ones(20), x]),
            columns=(INTERCEPT_NAME, "x"),
            clusters=[f"c{i % 5}" for i in range(20)],
        )
        fit = fit_ols(design)
        assert fit.beta[1] == pytest.approx(0.0, abs=1e-12)
        assert fit.beta[0] == pytest.approx(4.0, abs=1e-12)

    def test_underdetermined_rejected(self):
        design = raw_design(
            y=[1.0, 2.0],
            X=[[1.0, 0.0], [1.0, 1.0]],
            columns=(INTERCEPT_NAME, "x"),
            clusters=("a", "b"),
        )
        with pytest.raises(DesignError, match="underdetermined"):
            fit_ols(design)

    def test_synthetic_recovery_single_run(self):
        aggregates, party_meta, true_beta = synthetic_study(seed=11)
        design = build_design(aggregates, party_meta, ModelVariant.MODEL1)
        fit = fit_model(design)
        for name, key in ((GOVT_NAME, "govt"), (ANTIELITE_NAME, "antielite"), (EXTREMISM_NAME, "extremism")):
            estimate, se, _, _ = fit.coefficient(name)
            assert abs(estimate - true_beta[key]) < 3 * se


    def test_design_factorized_once(self, monkeypatch):
        from negcamp import study

        calls = []
        invert = study._invert_normal
        monkeypatch.setattr(study, "_invert_normal", lambda *args: calls.append(1) or invert(*args))
        aggregates, party_meta, _ = synthetic_study(seed=4)
        design = build_design(aggregates, party_meta, ModelVariant.FAMILY)
        fit_model(design)
        assert len(calls) == 1
        fit_model(raw_design(design.y, design.X, design.columns, design.clusters))
        assert len(calls) == 2  # a hand-built design is factorized by the fit

    def test_hand_built_rank_deficient_design_rejected(self):
        x = np.arange(6.0)
        design = raw_design(
            y=[1.0, 3.0, 2.0, 5.0, 4.0, 6.0],
            X=np.column_stack([np.ones(6), x, 2 * x]),
            columns=(INTERCEPT_NAME, "x", "twice x"),
            clusters=("a", "b", "c", "a", "b", "c"),
        )
        with pytest.raises(RankDeficient) as err:
            fit_ols(design)
        assert {"x", "twice x"} & set(err.value.columns)


    def test_country_dummy_exact_on_benchmark_panel(self, data_dir):
        """m1 on the 55 party aggregates of the benchmark's 100k-document
        inputs at seed 1. The exact Country: CZ estimate is
        -0.041194230469145028 and is written -0.0411942304691. The float QR
        fit (``oracles.qr_fit``) missed it by about 2e-17 with the BLAS it
        was measured on, enough to write -0.0411942304692."""
        aggregates, metas = [], {}
        with (data_dir / "study_100k_seed1.csv").open(encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                pid, n_original, n_negative = row["party_id"], int(row["n_original"]), int(row["n_negative_original"])
                aggregates.append(
                    PartyAggregate(pid, row["country"], int(row["n_total"]), n_original, n_negative, 100.0 * n_negative / n_original)
                )
                metas[pid] = meta(pid, row["country"], float(row["lrgen"]), int(row["govt"]), float(row["antielite_salience"]), row["family"])
        fit = fit_model(build_design(aggregates, metas, ModelVariant.MODEL1))
        assert (fit.n_obs, fit.n_clusters) == (55, 19)
        i = fit.columns.index("Country: CZ")
        assert round(fit.beta[i], 18) == Fraction("-0.041194230469145028")
        assert fit.to_dict()["coefficients"][i]["estimate"] == -0.0411942304691


@st.composite
def float_designs(draw, value=st.floats(0.0, 10.0, allow_subnormal=False)):
    """(y, X, clusters): an intercept, up to three continuous columns of
    ``value``s and up to three 0/1 dummies, on at most 30 rows in two to
    five clusters."""
    n = draw(st.integers(8, 30))
    n_continuous, n_dummies = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    X = [
        [1.0]
        + [draw(value) for _ in range(n_continuous)]
        + [draw(st.sampled_from([0.0, 1.0])) for _ in range(n_dummies)]
        for _ in range(n)
    ]
    y = draw(st.lists(st.floats(0.0, 100.0, allow_subnormal=False), min_size=n, max_size=n))
    n_clusters = draw(st.integers(2, 5))
    return y, X, [f"c{i % n_clusters}" for i in range(n)]


@given(float_designs())
@settings(max_examples=100, deadline=None)
def test_exact_fit_agrees_with_float_qr_oracle(design_parts):
    """On well-conditioned designs (cond(X) < 1e3, where the float solve's
    error is far below the bound) the exact coefficients agree with the
    float QR fit to 1e-9 of the largest, and the CR1 variances to 1e-9 of
    the largest variance or squared coefficient (the float variance of a
    perfect fit is rounding noise around 0)."""
    y, X, clusters = design_parts
    assume(np.linalg.cond(np.asarray(X)) < 1e3)
    columns = [INTERCEPT_NAME] + [f"x{j}" for j in range(1, len(X[0]))]
    fit = fit_model(raw_design(y, X, columns, clusters))
    beta, variance = qr_fit(X, y, columns, clusters)
    assert np.max(np.abs(np.array(fit.beta, dtype=float) - beta)) <= 1e-9 * np.max(np.abs(beta))
    scale = max(np.max(variance), np.max(beta**2))
    assert np.max(np.abs(np.array(fit.variance, dtype=float) - variance)) <= 1e-9 * scale


@given(float_designs(st.one_of(st.just(0.0), st.floats(1e-3, 10.0))))
@settings(max_examples=50, deadline=None)
def test_exact_fit_equals_fraction_oracle(design_parts):
    """The integer sweeps, the scaled solve and the per-cluster influence
    give exactly the coefficients and CR1 variances of Gauss-Jordan and the
    k x k sandwich in plain rationals. Predictors are 0 or at least 1e-3,
    which keeps the plain rationals small; the float-oracle test above
    draws tiny ones too."""
    y, X, clusters = design_parts
    columns = [INTERCEPT_NAME] + [f"x{j}" for j in range(1, len(X[0]))]
    try:
        fit = fit_model(raw_design(y, X, columns, clusters))
    except RankDeficient:
        assume(False)
    beta, variance = fraction_fit(X, y, clusters)
    assert fit.beta == tuple(beta)
    assert fit.variance == tuple(variance)


class TestClusterRobustSe:
    def test_singleton_clusters_match_hc_oracle(self):
        rng = np.random.default_rng(5)
        n, k = 40, 3
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=n) * (1 + np.abs(X[:, 1]))
        design = raw_design(y, X, (INTERCEPT_NAME, "x1", "x2"), [f"row{i}" for i in range(n)])
        fit = fit_ols(design)
        clustered = cluster_robust_se(fit, design)
        dof_factor = (n / (n - 1)) * ((n - 1) / (n - k))
        oracle = np.sqrt(np.diag(hc0_cov(X, np.array(fit.residuals, dtype=float))) * dof_factor)
        assert clustered.se == pytest.approx(oracle, abs=1e-10)

    def test_iid_homoskedastic_close_to_classical(self):
        rng = np.random.default_rng(7)
        n_clusters, per_cluster = 60, 40
        n = n_clusters * per_cluster
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([2.0, 1.5]) + rng.normal(size=n)
        clusters = [f"g{i // per_cluster}" for i in range(n)]
        design = raw_design(y, X, (INTERCEPT_NAME, "x"), clusters)
        fit = fit_ols(design)
        clustered = cluster_robust_se(fit, design)
        classical = np.sqrt(np.diag(classical_cov(X, np.array(fit.residuals, dtype=float))))
        assert clustered.se == pytest.approx(classical, rel=0.2)

    def test_duplicating_rows_keeps_estimates(self):
        aggregates, party_meta, _ = synthetic_study(seed=2, n_parties=40)
        design = build_design(aggregates, party_meta, ModelVariant.MODEL1)
        fit = fit_ols(design)
        doubled = raw_design(
            np.concatenate([design.y, design.y]),
            np.vstack([design.X, design.X]),
            design.columns,
            design.clusters + design.clusters,
        )
        fit2 = fit_ols(doubled)
        assert fit2.beta == pytest.approx(fit.beta, abs=1e-10)

    def test_single_cluster_rejected(self):
        design = raw_design([1.0, 2.0, 3.0], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], (INTERCEPT_NAME, "x"), ("a", "a", "a"))
        fit = fit_ols(design)
        with pytest.raises(ValueError, match="cluster"):
            cluster_robust_se(fit, design)


def correctly_rounded_t_quantile(df):
    """The double nearest the two-sided 95% t quantile: the root of
    P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2) = 0.05 at 50 digits (mpmath),
    rounded once to a double through its exact binary value."""
    import mpmath

    with mpmath.workdps(50):
        tail = lambda t: mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t), regularized=True)
        root = mpmath.findroot(lambda t: tail(t) - mpmath.mpf(5) / 100, (mpmath.mpf("1.9"), mpmath.mpf("12.8")), solver="pegasus")
        man, exp = root.man_exp
    return float(Fraction(man) * Fraction(2) ** exp)


def test_t_critical_correctly_rounded():
    for df in range(1, 400):
        assert t_critical(df) == correctly_rounded_t_quantile(df), df


class TestFixedEffectsEquivalence:
    def test_dummy_ols_equals_within_demeaning(self):
        aggregates, party_meta, _ = synthetic_study(seed=21)
        design = build_design(aggregates, party_meta, ModelVariant.MODEL1)
        fit = fit_ols(design)
        nondummy = [i for i, c in enumerate(design.columns) if not c.startswith("Country: ") and c != INTERCEPT_NAME]
        demeaned = within_demeaned_beta(design.y, np.asarray(design.X)[:, nondummy], list(design.clusters))
        assert np.array(fit.beta, dtype=float)[nondummy] == pytest.approx(demeaned, abs=1e-8)

    def test_reference_country_invariance(self):
        aggregates, party_meta, _ = synthetic_study(seed=22)
        base = fit_model(build_design(aggregates, party_meta, ModelVariant.MODEL1, reference_country="AT"))
        alt_design = build_design(aggregates, party_meta, ModelVariant.MODEL1, reference_country="SE")
        alt = fit_model(alt_design)
        for name in (GOVT_NAME, ANTIELITE_NAME, EXTREMISM_NAME):
            b_est, b_se, _, _ = base.coefficient(name)
            a_est, a_se, _, _ = alt.coefficient(name)
            assert a_est == pytest.approx(b_est, abs=1e-10)
            assert a_se == pytest.approx(b_se, abs=1e-10)
        assert alt.r2 == pytest.approx(base.r2, abs=1e-10)
        assert alt.fitted == pytest.approx(base.fitted, abs=1e-10)


class TestMarginalMeans:
    def test_zero_family_effects_all_equal_grand_mean(self):
        aggregates, party_meta, _ = synthetic_study(seed=31, family_offsets={})
        design = build_design(aggregates, party_meta, ModelVariant.FAMILY)
        # overwrite the response with a family-free linear signal, no noise
        X = np.asarray(design.X)
        y = 10.0 + 2.0 * X[:, 1] + 0.5 * X[:, 2]
        exact = raw_design(y, design.X, design.columns, design.clusters,
                           family_by_row=design.family_by_row,
                           family_columns=design.family_columns,
                           reference_family=design.reference_family)
        fit = fit_model(exact)
        rows = marginal_means_family(fit, exact)
        grand_mean = float(sum(fit.fitted) / len(fit.fitted))
        for row in rows:
            assert row.predicted == pytest.approx(grand_mean, abs=1e-8)
            assert row.ci_low <= float(row.predicted) <= row.ci_high

    def test_frequency_weighted_means_equal_mean_fitted(self):
        aggregates, party_meta, _ = synthetic_study(seed=32, family_offsets={"radical_right": 10.0})
        design = build_design(aggregates, party_meta, ModelVariant.FAMILY)
        fit = fit_model(design)
        rows = marginal_means_family(fit, design)
        n = design.n_obs
        weighted = sum(r.predicted * r.n_obs / n for r in rows)
        assert weighted == pytest.approx(float(sum(fit.fitted) / n), abs=1e-10)

    def test_planted_offset_recovered_within_ci(self):
        aggregates, party_meta, _ = synthetic_study(seed=33, family_offsets={"radical_right": 10.0})
        design = build_design(aggregates, party_meta, ModelVariant.FAMILY)
        fit = fit_model(design)
        assert design.reference_family != "radical_right"
        _, _, ci_low, ci_high = fit.coefficient("Family: radical_right")
        assert ci_low < 10.0 < ci_high
        rows = {r.family: r for r in marginal_means_family(fit, design)}
        others = [r.predicted for f, r in rows.items() if f != "radical_right"]
        assert rows["radical_right"].predicted > max(others)

    def test_concentrated_family_flagged(self):
        aggregates, party_meta, _ = synthetic_study(seed=34, n_parties=60, family_offsets={})
        # shrink one family to 3 members, two of them in the same country
        confessional = [p for p, m in party_meta.items() if m.family == "confessional"]
        keep = confessional[:3]
        party_meta = dict(party_meta)
        for i, pid in enumerate(keep):
            m = party_meta[pid]
            country = "NL" if i < 2 else "DK"
            party_meta[pid] = PartyMeta(pid, country, m.lrgen, m.govt, m.antielite_salience, m.family, m.display_name)
        drop = set(confessional[3:])
        aggs = []
        for a in aggregates:
            if a.party_id in drop:
                continue
            if a.party_id in keep:
                country = "NL" if keep.index(a.party_id) < 2 else "DK"
                a = PartyAggregate(a.party_id, country, a.n_total, a.n_original, a.n_negative_original, a.pct_negative)
            aggs.append(a)
        design = build_design(aggs, party_meta, ModelVariant.FAMILY)
        fit = fit_model(design)
        rows = {r.family: r for r in marginal_means_family(fit, design)}
        assert rows["confessional"].n_obs == 3
        assert "geographic_concentration" in rows["confessional"].flags

    def test_requires_family_design(self):
        aggregates, party_meta, _ = synthetic_study(seed=35)
        design = build_design(aggregates, party_meta, ModelVariant.MODEL1)
        fit = fit_model(design)
        with pytest.raises(ValueError, match="family"):
            marginal_means_family(fit, design)


class TestCountryNegativity:
    def test_hand_arithmetic(self):
        docs = [
            make_doc(doc_id="o1", country="GB"),
            make_doc(doc_id="o2", country="GB"),
            make_doc(doc_id="o3", country="GB"),
            make_doc(doc_id="o4", country="GB"),
            make_doc(doc_id="r1", country="GB", retweet=True),
            make_doc(doc_id="r2", country="GB", retweet=True),
        ]
        labels = {"o1": 1, "o2": 0, "o3": 0, "o4": 1, "r1": 0, "r2": 0}
        rows = country_negativity(count_documents(map(corpus_row, docs), labels))
        assert rows[0].pct_original == pytest.approx(50.0)
        assert rows[0].pct_retweet == pytest.approx(0.0)

    def test_no_retweets_reported_absent(self):
        docs = [make_doc(doc_id="o1", country="GB")]
        rows = country_negativity(count_documents(map(corpus_row, docs), {"o1": 1}))
        assert rows[0].pct_retweet is None
        assert rows[0].pct_original == pytest.approx(100.0)

    def test_planted_rates_recovered_exactly(self):
        docs = []
        labels = {}
        for country, rate in (("IS", 9), ("ES", 37)):
            for i in range(100):
                doc_id = f"{country}{i:03d}"
                docs.append(make_doc(doc_id=doc_id, country=country, party=f"{country}_p"))
                labels[doc_id] = 1 if i < rate else 0
        rows = {r.country: r for r in country_negativity(count_documents(map(corpus_row, docs), labels))}
        assert rows["IS"].pct_original == 9.0
        assert rows["ES"].pct_original == 37.0


class TestFilters:
    def test_negative_min_tweets_rejected(self):
        with pytest.raises(ValueError):
            AggregationFilters(min_tweets=-1)
