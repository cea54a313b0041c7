"""Tests for the end-to-end simulation substrate (repro.simulation)."""

import random

import pytest

from repro.simulation import (
    CatalogConfig,
    LearningCurve,
    SearchEngine,
    TrainedClassifier,
    TrainingLab,
    generate_catalog,
    run_end_to_end,
)
from repro.simulation.catalog import workload_from_catalog


class TestCatalog:
    @pytest.fixture(scope="class")
    def catalog(self):
        return generate_catalog(CatalogConfig(n_items=400, n_properties=30), seed=3)

    def test_size(self, catalog):
        assert len(catalog) == 400

    def test_listed_is_subset_of_latent(self, catalog):
        for item in catalog.items:
            assert item.listed <= item.latent

    def test_metadata_gap_exists(self, catalog):
        gaps = sum(
            1 for item in catalog.items if item.listed != item.latent
        )
        assert gaps > len(catalog) * 0.3

    def test_listed_results_subset_of_true(self, catalog):
        query = frozenset({"attr0"})
        listed = {i.item_id for i in catalog.listed_result_set(query)}
        truth = {i.item_id for i in catalog.true_result_set(query)}
        assert listed <= truth

    def test_prevalence_is_zipf_like(self, catalog):
        counts = catalog.property_prevalence()
        assert counts["attr0"] > counts["attr20"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate_catalog(CatalogConfig(n_items=0))
        with pytest.raises(ValueError):
            generate_catalog(CatalogConfig(disclosure=1.5))
        with pytest.raises(ValueError):
            generate_catalog(CatalogConfig(properties_per_item=(5, 2)))

    def test_workload_queries_nonempty_results(self, catalog):
        queries, utilities = workload_from_catalog(catalog, 20, seed=1)
        assert len(queries) == 20
        for q in queries:
            assert utilities[q] >= 1.0


class TestLearningCurve:
    def test_accuracy_monotone_in_labels(self):
        curve = LearningCurve()
        values = [curve.accuracy(n) for n in (1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_labels_for_inverse(self):
        curve = LearningCurve()
        labels = curve.labels_for(0.9)
        assert curve.accuracy(labels) == pytest.approx(0.9, abs=1e-6)

    def test_ceiling_unreachable(self):
        with pytest.raises(ValueError):
            LearningCurve(ceiling=0.95).labels_for(0.95)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LearningCurve(ceiling=1.2)
        with pytest.raises(ValueError):
            LearningCurve(amplitude=-1.0)


class TestTrainingLab:
    def test_specific_concepts_cheaper(self):
        lab = TrainingLab(seed=5)
        broad = frozenset({"wooden"})
        narrow = frozenset({"wooden", "table", "round"})
        # On average the 3-property concept needs fewer labels; check the
        # specificity discount via the curve amplitudes.
        assert lab.curve_for(narrow).amplitude < 1.0

    def test_estimates_deterministic(self):
        a = TrainingLab(seed=1).estimated_labels(frozenset({"x", "y"}))
        b = TrainingLab(seed=1).estimated_labels(frozenset({"x", "y"}))
        assert a == b

    def test_actual_biased_above_estimate_on_average(self):
        lab = TrainingLab(seed=2, estimation_bias=0.06, estimation_noise=0.05)
        concepts = [frozenset({f"p{i}"}) for i in range(40)]
        ratios = [
            lab.actual_labels(c) / lab.estimated_labels(c) for c in concepts
        ]
        mean = sum(ratios) / len(ratios)
        assert 1.0 < mean < 1.15  # ~ +6% as the paper reports

    def test_training_reaches_target(self):
        lab = TrainingLab(seed=3, target_accuracy=0.95)
        concept = frozenset({"a", "b"})
        model = lab.train(concept)
        assert model.accuracy >= 0.90  # paper: estimates almost always >90%

    def test_invalid_lab_configs(self):
        with pytest.raises(ValueError):
            TrainingLab(target_accuracy=1.5)
        with pytest.raises(ValueError):
            TrainingLab(estimation_bias=-0.1)


class TestTrainedClassifier:
    def test_asymmetric_rates(self):
        model = TrainedClassifier(frozenset({"a"}), accuracy=0.9, labels_used=10)
        assert model.recall_rate == 0.9
        assert model.false_positive_rate == pytest.approx(0.02)

    def test_prediction_statistics(self):
        model = TrainedClassifier(frozenset({"a"}), accuracy=0.9, labels_used=10)
        rng = random.Random(0)
        positives = sum(model.predict(True, rng) for _ in range(2000)) / 2000
        negatives = sum(model.predict(False, rng) for _ in range(2000)) / 2000
        assert positives == pytest.approx(0.9, abs=0.03)
        assert negatives == pytest.approx(0.02, abs=0.01)


class TestSearchEngine:
    @pytest.fixture(scope="class")
    def setup(self):
        catalog = generate_catalog(
            CatalogConfig(n_items=300, n_properties=20, disclosure=0.5), seed=7
        )
        lab = TrainingLab(seed=7)
        return catalog, lab

    def test_perfect_classifier_recovers_truth(self, setup):
        catalog, _ = setup
        engine = SearchEngine(catalog, seed=1)
        query = frozenset({"attr0"})
        engine.deploy(
            [TrainedClassifier(query, accuracy=1.0, labels_used=1.0)]
        )
        current = {i.item_id for i in engine.result_set(query)}
        truth = {i.item_id for i in catalog.true_result_set(query)}
        assert current == truth

    def test_deploy_grows_result_sets(self, setup):
        catalog, lab = setup
        engine = SearchEngine(catalog, seed=1)
        query = frozenset({"attr0", "attr1"})
        baseline = len(catalog.listed_result_set(query))
        engine.deploy([lab.train(frozenset({"attr0"})), lab.train(frozenset({"attr1"}))])
        assert len(engine.result_set(query)) >= baseline

    def test_covers_uses_bcc_semantics(self, setup):
        catalog, lab = setup
        engine = SearchEngine(catalog, seed=1)
        engine.deploy([lab.train(frozenset({"attr0"})), lab.train(frozenset({"attr1"}))])
        assert engine.covers(frozenset({"attr0", "attr1"}))
        assert not engine.covers(frozenset({"attr0", "attr2"}))

    def test_evaluate_query_fields(self, setup):
        catalog, lab = setup
        engine = SearchEngine(catalog, seed=1)
        engine.deploy([lab.train(frozenset({"attr0"}))])
        metrics = engine.evaluate_query(frozenset({"attr0"}))
        assert set(metrics) >= {
            "baseline_size",
            "current_size",
            "growth",
            "precision",
            "recall",
        }
        assert 0.0 <= metrics["precision"] <= 1.0
        assert 0.0 <= metrics["recall"] <= 1.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def report(self):
        return run_end_to_end(
            CatalogConfig(n_items=600, n_properties=40),
            n_queries=30,
            budget_fraction=0.25,
            seed=4,
        )

    def test_budget_respected(self, report):
        assert report.planned_cost_estimated <= report.budget + 1e-6

    def test_costs_underestimated_as_paper_reports(self, report):
        assert 0.0 < report.mean_estimation_error < 0.20

    def test_accuracy_above_90(self, report):
        # Paper: original estimates almost always sufficient to exceed 90%.
        assert report.min_accuracy >= 0.90

    def test_result_sets_grow_substantially(self, report):
        # Paper: result sets grew by more than 200% on sampled queries.
        assert report.mean_result_growth >= 1.0

    def test_precision_reasonable(self, report):
        assert report.mean_precision >= 0.6

    def test_summary_renders(self, report):
        text = report.summary()
        assert "estimation error" in text
        assert "result-set growth" in text
