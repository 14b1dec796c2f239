import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from oracles import alpha_brute, f1_brute, kappa_bp_brute
from negcamp.errors import EvaluationJoinError, UndefinedMetric
from negcamp.reliability import (
    ConfusionMatrix,
    RatingTable,
    brennan_prediger,
    compare,
    confusion,
    f1_scores,
    grouped_report,
    krippendorff_alpha_nominal,
    pairwise_percent_agreement,
)


def pair_table(a, b):
    gold = {f"i{k}": v for k, v in enumerate(a)}
    pred = {f"i{k}": v for k, v in enumerate(b)}
    return RatingTable.from_pair(gold, pred)


def maps(a, b):
    return {f"i{k}": v for k, v in enumerate(a)}, {f"i{k}": v for k, v in enumerate(b)}


doc_ids = st.sampled_from([f"d{k}" for k in range(16)])

# Items rated by one to five of the raters a-e, each rating 0 or 1.
multi_rater_units = st.lists(
    st.dictionaries(st.sampled_from("abcde"), st.integers(0, 1), min_size=1, max_size=5),
    min_size=1,
    max_size=12,
)


def multi_rater_table(units):
    records = [(f"i{k}", rater, label) for k, unit in enumerate(units) for rater, label in unit.items()]
    return RatingTable.from_records(records), [list(unit.values()) for unit in units]


class TestConfusion:
    def test_hand_enumerated(self):
        gold, pred = maps([1, 1, 0, 0], [1, 0, 0, 0])
        cm = confusion(gold, pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 0, 2)

    def test_identical_labels(self):
        gold, pred = maps([1, 0, 1], [1, 0, 1])
        cm = confusion(gold, pred)
        assert cm.fp == cm.fn == 0

    def test_inverted_labels(self):
        gold, pred = maps([1, 0], [0, 1])
        cm = confusion(gold, pred)
        assert cm.tp == cm.tn == 0

    def test_empty_intersection(self):
        with pytest.raises(EvaluationJoinError):
            confusion({"a": 1}, {"b": 0})

    def test_swap_transposes(self):
        gold, pred = maps([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        cm = confusion(gold, pred)
        swapped = confusion(pred, gold)
        assert (swapped.tp, swapped.tn) == (cm.tp, cm.tn)
        assert (swapped.fp, swapped.fn) == (cm.fn, cm.fp)
        # precision and recall trade places within each class
        assert cm.tp / (cm.tp + cm.fp) == swapped.tp / (swapped.tp + swapped.fn)


class TestF1:
    def test_hand_arithmetic(self):
        scores = f1_scores(ConfusionMatrix(tp=1, fn=1, fp=0, tn=2))
        assert scores.f1_1 == pytest.approx(2 / 3, abs=1e-12)
        assert scores.f1_0 == pytest.approx(0.8, abs=1e-12)
        assert scores.f1_weighted == pytest.approx(2 / 3 * 0.5 + 0.8 * 0.5, abs=1e-12)
        assert scores.f1_macro == pytest.approx(scores.f1_weighted, abs=1e-12)
        assert scores.accuracy == 0.75

    def test_perfect_predictions(self):
        scores = f1_scores(ConfusionMatrix(tp=3, fn=0, fp=0, tn=5))
        assert scores.f1_0 == scores.f1_1 == scores.f1_weighted == scores.accuracy == 1.0
        assert scores.flags == ()

    def test_single_class_support_weighting(self):
        scores = f1_scores(ConfusionMatrix(tp=0, fn=0, fp=0, tn=4))
        assert scores.f1_0 == 1.0
        assert scores.f1_1 == 0.0
        assert scores.flags == ("degenerate_f1_1",)
        assert scores.f1_weighted == 1.0

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=30))
    def test_matches_brute_force(self, pairs):
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        cm = confusion(*maps(gold, pred))
        scores = f1_scores(cm)
        expected = f1_brute(gold, pred)
        assert scores.accuracy == pytest.approx(expected["acc"], abs=1e-12)
        assert scores.f1_0 == pytest.approx(expected["f1_0"], abs=1e-12)
        assert scores.f1_1 == pytest.approx(expected["f1_1"], abs=1e-12)
        assert scores.f1_weighted == pytest.approx(expected["f1_w"], abs=1e-12)
        assert scores.f1_macro == pytest.approx(expected["f1_macro"], abs=1e-12)
        assert min(scores.f1_0, scores.f1_1) <= scores.f1_weighted <= max(scores.f1_0, scores.f1_1)


class TestAlpha:
    def test_perfect_agreement(self):
        assert krippendorff_alpha_nominal(pair_table([0, 1, 0, 1], [0, 1, 0, 1])) == 1.0

    def test_worked_example_coincidence_oracle(self):
        # D_o = 2/8, D_e = 30/56 -> alpha = 8/15
        table = pair_table([0, 0, 1, 1], [0, 1, 1, 1])
        alpha = krippendorff_alpha_nominal(table)
        assert alpha == pytest.approx(0.5333, abs=1e-4)
        assert alpha == pytest.approx(alpha_brute([[0, 0], [0, 1], [1, 1], [1, 1]]), abs=1e-12)

    def test_degenerate_single_category(self):
        with pytest.raises(UndefinedMetric):
            krippendorff_alpha_nominal(pair_table([1, 1, 1], [1, 1, 1]))

    def test_too_few_pairable_items(self):
        table = RatingTable(items=("i1", "i2"), raters=("a", "b"), values={("i1", "a"): 1, ("i1", "b"): 0, ("i2", "a"): 1})
        with pytest.raises(ValueError):
            krippendorff_alpha_nominal(table)

    @given(multi_rater_units)
    # three raters, two items rated by only two of them
    @example([{"a": 0, "b": 0, "c": 1}, {"a": 1, "b": 1}, {"b": 0, "c": 0}, {"a": 1, "b": 0, "c": 1}])
    def test_missing_cells_against_oracle(self, units):
        table, values = multi_rater_table(units)
        try:
            expected = alpha_brute(values)
        except ValueError:
            with pytest.raises(ValueError):
                krippendorff_alpha_nominal(table)
            return
        if expected is None:
            with pytest.raises(UndefinedMetric):
                krippendorff_alpha_nominal(table)
        else:
            assert krippendorff_alpha_nominal(table) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=12))
    def test_rater_and_item_symmetry(self, pairs):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        shuffled = list(pairs)
        random.Random(0).shuffle(shuffled)

        def result(table):
            try:
                return krippendorff_alpha_nominal(table)
            except UndefinedMetric:
                return None

        original = result(pair_table(a, b))
        swapped = result(pair_table(b, a))
        permuted = result(pair_table([x for x, _ in shuffled], [y for _, y in shuffled]))
        assert (original is None) == (swapped is None) == (permuted is None)
        if original is not None:
            assert swapped == pytest.approx(original, abs=1e-12)
            assert permuted == pytest.approx(original, abs=1e-12)


class TestBrennanPrediger:
    def test_perfect(self):
        assert brennan_prediger(pair_table([0, 1, 0], [0, 1, 0])) == 1.0

    def test_three_of_four(self):
        assert brennan_prediger(pair_table([0, 0, 1, 1], [0, 1, 1, 1])) == pytest.approx(0.5, abs=1e-15)

    def test_chance_level(self):
        assert brennan_prediger(pair_table([0, 1], [1, 1])) == pytest.approx(0.0, abs=1e-15)

    def test_q2_closed_form(self):
        table = pair_table([0, 1, 1, 0, 1], [0, 1, 0, 0, 0])
        p_o = pairwise_percent_agreement(table)
        assert brennan_prediger(table, q=2) == pytest.approx(2 * p_o - 1, abs=1e-15)

    @given(multi_rater_units)
    @example([{"a": 0, "b": 0, "c": 1}, {"a": 1, "b": 1, "c": 1}, {"a": 0, "b": 1}])
    def test_multirater_against_oracle(self, units):
        table, values = multi_rater_table(units)
        expected = kappa_bp_brute(values)
        if expected is None:
            with pytest.raises(ValueError):
                brennan_prediger(table)
        else:
            assert brennan_prediger(table) == pytest.approx(expected, abs=1e-12)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            brennan_prediger(pair_table([0], [0]), q=1)


class TestExhaustiveTwoRaterEquivalence:
    def test_all_32_tables_of_three_items(self):
        # the 5-item exhaustive sweep lives in the acceptance suite
        for cells in itertools.product(range(4), repeat=3):
            a = [c % 2 for c in cells]
            b = [c // 2 for c in cells]
            table = pair_table(a, b)
            units = [[x, y] for x, y in zip(a, b)]
            try:
                alpha = krippendorff_alpha_nominal(table)
            except UndefinedMetric:
                alpha = None
            expected = alpha_brute(units)
            assert (alpha is None) == (expected is None)
            if alpha is not None:
                assert alpha == pytest.approx(expected, abs=1e-12)
            assert brennan_prediger(table) == pytest.approx(kappa_bp_brute(units), abs=1e-12)


class TestRatingTable:
    def test_item_without_cells_rejected(self):
        with pytest.raises(ValueError):
            RatingTable(items=("i1", "i2"), raters=("a",), values={("i1", "a"): 1})

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            RatingTable(items=("i1",), raters=("a",), values={("i1", "a"): 2})

    def test_from_records_conflict(self):
        with pytest.raises(ValueError):
            RatingTable.from_records([("i1", "a", 0), ("i1", "a", 1)])


class TestGroupedReport:
    def test_fixture_three_languages(self, corpus, gold_map, mock_map):
        from negcamp.annotate import parse_label

        predicted = {doc_id: parse_label(raw) for doc_id, raw in mock_map.items()}
        groups = {d.id: d.language for d in corpus}
        report = grouped_report(gold_map, predicted, groups)
        assert sorted(report.groups) == ["de", "en", "es"]
        assert report.pooled.n == 60
        assert sum(r.n for r in report.groups.values()) == 60

    def test_single_group_matches_pooled(self):
        gold, pred = maps([0, 1, 1, 0], [0, 1, 0, 0])
        report = grouped_report(gold, pred, {d: "only" for d in gold})
        assert report.groups["only"] == report.pooled

    def test_given_pooled_row_reused(self):
        gold, pred = maps([0, 1, 1, 0], [0, 1, 0, 0])
        by_first = grouped_report(gold, pred, {"i0": "a", "i1": "a", "i2": "b", "i3": "b"})
        by_parity = grouped_report(gold, pred, {"i0": "x", "i1": "y", "i2": "x", "i3": "y"}, pooled=by_first.pooled)
        assert by_parity.pooled is by_first.pooled
        assert by_parity == grouped_report(gold, pred, {"i0": "x", "i1": "y", "i2": "x", "i3": "y"})

    def test_degenerate_group_flagged_in_row(self):
        gold, pred = maps([1, 1, 0, 1], [1, 1, 0, 0])
        groups = {"i0": "g1", "i1": "g1", "i2": "g2", "i3": "g2"}
        report = grouped_report(gold, pred, groups)
        assert "alpha_undefined" in report.groups["g1"].flags
        assert report.groups["g1"].alpha_k is None
        assert report.groups["g1"].acc == 1.0

    def test_row_schema_keys(self, gold_map, mock_map):
        from negcamp.annotate import parse_label
        from negcamp.reliability import REPORT_KEYS

        predicted = {doc_id: parse_label(raw) for doc_id, raw in mock_map.items()}
        row = compare(gold_map, predicted).to_dict()
        assert tuple(row) == REPORT_KEYS

    def test_intersection_excludes_reported(self):
        gold, pred = maps([0, 1, 1], [0, 1, 1])
        gold["extra_gold"] = 1
        pred["extra_pred"] = 0
        report = grouped_report(gold, pred, {d: "g" for d in gold})
        assert report.n_gold_only == 1
        assert report.n_predicted_only == 1
        assert report.pooled.n == 3

    def test_table3_shaped_row(self):
        # a group with two positives and near-total agreement keeps a
        # total-ordered row instead of failing on the rare class
        gold = {f"i{k}": 0 for k in range(506)} | {"p1": 1, "p2": 1}
        pred = dict(gold)
        pred["i0"] = 1  # one disagreement
        report = compare(gold, pred)
        assert report.supp_0 == 506
        assert report.supp_1 == 2
        assert 0.99 < report.acc < 1.0
        assert report.kappa_bp == pytest.approx(2 * report.acc - 1, abs=1e-12)

    @given(
        st.dictionaries(doc_ids, st.integers(0, 1), min_size=1),
        st.dictionaries(doc_ids, st.integers(0, 1), min_size=1),
        st.dictionaries(doc_ids, st.sampled_from(["g1", "g2", "g3"])),
    )
    # d1 is shared but has no group, d2 is gold-only, d3 is predicted-only with a group
    @example({"d0": 1, "d1": 0, "d2": 1}, {"d0": 1, "d1": 1, "d3": 0}, {"d0": "g1", "d3": "g2"})
    def test_rows_equal_compare_on_group_subsets(self, gold, pred, groups):
        shared = gold.keys() & pred.keys()
        if not shared:
            with pytest.raises(EvaluationJoinError):
                grouped_report(gold, pred, groups)
            return
        report = grouped_report(gold, pred, groups)
        assert report.pooled == compare(gold, pred)
        assert list(report.groups) == sorted({groups[d] for d in shared if d in groups})
        for key, row in report.groups.items():
            ids = [d for d in shared if groups.get(d) == key]
            assert row == compare({d: gold[d] for d in ids}, {d: pred[d] for d in ids})
        assert report.n_gold_only == len(gold.keys() - shared)
        assert report.n_predicted_only == len(pred.keys() - shared)
