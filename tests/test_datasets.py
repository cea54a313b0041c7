"""Tests for the dataset generators: paper-reported marginals must hold."""

import math

import pytest

from repro.datasets import (
    dataset_stats,
    generate_bestbuy,
    generate_private,
    generate_synthetic,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)


class TestBestBuy:
    @pytest.fixture(scope="class")
    def instance(self):
        return generate_bestbuy(seed=1)

    def test_size(self, instance):
        stats = dataset_stats(instance)
        assert stats["num_queries"] == 1000
        assert stats["num_properties"] <= 725

    def test_length_marginals(self, instance):
        stats = dataset_stats(instance)
        # Paper: 65% singletons, >95% length <= 2, average ~1.4.
        assert 0.60 <= stats["frac_length_1"] <= 0.70
        assert stats["frac_length_le_2"] >= 0.95
        assert 1.3 <= stats["avg_length"] <= 1.5

    def test_uniform_costs(self, instance):
        stats = dataset_stats(instance)
        assert stats["num_explicit_costs"] == 0
        assert instance.default_cost == 1.0

    def test_total_utility_around_1k(self, instance):
        # Paper: "the total utility possible over the BB dataset is ~1K".
        total = instance.total_utility()
        assert 800 <= total <= 1600

    def test_zipf_head(self, instance):
        stats = dataset_stats(instance)
        assert stats["max_utility"] >= 20

    def test_deterministic_per_seed(self):
        a = generate_bestbuy(seed=5)
        b = generate_bestbuy(seed=5)
        assert a.queries == b.queries
        assert all(a.utility(q) == b.utility(q) for q in a.queries)

    def test_different_seeds_differ(self):
        a = generate_bestbuy(seed=1)
        b = generate_bestbuy(seed=2)
        assert a.queries != b.queries

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_bestbuy(n_queries=0)
        with pytest.raises(ValueError):
            generate_bestbuy(n_properties=1)


class TestPrivate:
    @pytest.fixture(scope="class")
    def instance(self):
        # Note: the paper's stated 5K/2K ratio cannot host 55% *distinct*
        # singleton queries (see repro.datasets.lengths); tests use a
        # feasible ratio so the marginal checks are meaningful.
        return generate_private(n_queries=2000, n_properties=2400, seed=3)

    def test_size(self, instance):
        stats = dataset_stats(instance)
        assert stats["num_queries"] == 2000
        assert stats["num_properties"] <= 2400

    def test_length_marginals(self, instance):
        stats = dataset_stats(instance)
        # Paper: 55% singletons, >=95% length <= 2, lengths 1..5.
        assert 0.45 <= stats["frac_length_1"] <= 0.75
        assert stats["frac_length_le_2"] >= 0.90
        assert stats["max_length"] <= 5

    def test_cost_marginals(self, instance):
        stats = dataset_stats(instance)
        # Paper: costs in [0, 50], average ~8.
        assert stats["max_finite_cost"] <= 50
        assert 4 <= stats["avg_finite_cost"] <= 14

    def test_utilities_in_range(self, instance):
        for q in instance.queries:
            assert 1.0 <= instance.utility(q) <= 50.0

    def test_some_impractical_classifiers(self, instance):
        stats = dataset_stats(instance)
        assert stats["num_impractical"] > 0

    def test_popular_queries_have_popular_subqueries(self, instance):
        """For popular pair queries present with both their singleton
        subqueries, subquery utility should correlate with popularity."""
        query_set = set(instance.queries)
        pairs_with_subs = [
            q
            for q in instance.queries
            if len(q) == 2 and all(frozenset({p}) in query_set for p in q)
        ]
        # The subquery-boost mechanism must produce a meaningful number.
        assert len(pairs_with_subs) >= 50

    def test_deterministic_per_seed(self):
        a = generate_private(n_queries=300, n_properties=400, seed=9)
        b = generate_private(n_queries=300, n_properties=400, seed=9)
        assert a.queries == b.queries


class TestSynthetic:
    @pytest.fixture(scope="class")
    def instance(self):
        return generate_synthetic(n_queries=5000, n_properties=6000, seed=7)

    def test_size(self, instance):
        assert instance.num_queries == 5000

    def test_length_distribution(self, instance):
        stats = dataset_stats(instance)
        # Geometric: ~50% singletons, ~25% pairs, average ~1.9, max 6.
        assert 0.45 <= stats["frac_length_1"] <= 0.56
        assert stats["max_length"] <= 6
        assert 1.7 <= stats["avg_length"] <= 2.1

    def test_cost_and_utility_ranges(self, instance):
        stats = dataset_stats(instance)
        assert stats["max_finite_cost"] <= 50
        for q in list(instance.queries)[:100]:
            assert 1.0 <= instance.utility(q) <= 50.0

    def test_regeneration_differs(self):
        a = generate_synthetic(n_queries=200, n_properties=100, seed=1)
        b = generate_synthetic(n_queries=200, n_properties=100, seed=2)
        assert a.queries != b.queries

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(n_queries=0)
        with pytest.raises(ValueError):
            generate_synthetic(n_properties=2)


class TestSmallPropertyPools:
    """Every planned length fits the pool's distinct property combinations."""

    @pytest.mark.parametrize("generate", [generate_synthetic, generate_bestbuy])
    def test_small_pool_yields_distinct_queries(self, generate):
        # Capping only the singletons once planned 25 pairs (synthetic) or
        # 33 (bestbuy) out of 15, and rejection sampling never finished.
        instance = generate(n_queries=40, n_properties=6, seed=0)
        assert instance.num_queries == len(set(instance.queries)) == 40

    @pytest.mark.parametrize(
        "generate, n_queries",
        [(generate_synthetic, 2**6), (generate_bestbuy, 6 + 15 + 20 + 1)],
    )
    def test_request_beyond_pool_capacity_is_rejected(self, generate, n_queries):
        with pytest.raises(ValueError, match="distinct queries"):
            generate(n_queries=n_queries, n_properties=6)

    def test_private_plans_within_its_category_blocks(self):
        # Every private query lies inside one of 8 category blocks, here of
        # 5 properties each.  Planning against all 40 properties once asked
        # for 154 pairs out of the 80 in-block pairs, and rejection
        # sampling never finished.
        instance = generate_private(n_queries=200, n_properties=40, seed=0)
        assert instance.num_queries == len(set(instance.queries)) == 200
        assert instance.length_histogram()[2] == 80

    def test_private_request_beyond_block_capacity_is_rejected(self):
        # The 8 blocks of 5 properties hold 248 distinct queries, fewer
        # than the 300 asked for (the 40 properties alone would allow more).
        with pytest.raises(ValueError, match="only 248 exist"):
            generate_private(n_queries=300, n_properties=40, seed=0)


class TestSchema:
    def test_round_trip(self, fig1_b4):
        payload = instance_to_json(fig1_b4)
        rebuilt = instance_from_json(payload)
        assert rebuilt.queries == fig1_b4.queries
        assert rebuilt.budget == fig1_b4.budget
        for q in fig1_b4.queries:
            assert rebuilt.utility(q) == fig1_b4.utility(q)
        for c in fig1_b4.relevant_classifiers():
            assert rebuilt.cost(c) == fig1_b4.cost(c)

    def test_infinite_cost_round_trip(self, fig1_b4):
        rebuilt = instance_from_json(instance_to_json(fig1_b4))
        from repro.core import from_letters as fs

        assert math.isinf(rebuilt.cost(fs("xy")))

    def test_file_round_trip(self, tmp_path, fig1_b11):
        path = tmp_path / "instance.json"
        save_instance(fig1_b11, path)
        loaded = load_instance(path)
        assert loaded.queries == fig1_b11.queries
        assert loaded.budget == 11.0

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"format": 999})
