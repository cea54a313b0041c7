"""Tests for the RAND / IG1 / IG2 baselines in all stopping modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    ig1_bcc,
    ig1_ecc,
    ig1_gmc3,
    ig2_bcc,
    ig2_ecc,
    ig2_gmc3,
    rand_bcc,
    rand_ecc,
    rand_gmc3,
)
from repro.core import BCCInstance, ECCInstance, GMC3Instance, from_letters as fs
from tests.conftest import random_instance

BCC_BASELINES = [lambda i: rand_bcc(i, seed=3), ig1_bcc, ig2_bcc]


def small_workload():
    queries = [fs("x"), fs("y"), fs("xy"), fs("yz")]
    utilities = {fs("x"): 5.0, fs("y"): 2.0, fs("xy"): 4.0, fs("yz"): 3.0}
    costs = {
        fs("x"): 2.0,
        fs("y"): 1.0,
        fs("z"): 2.0,
        fs("xy"): 4.0,
        fs("yz"): 3.0,
    }
    return queries, utilities, costs


class TestBudgetMode:
    @pytest.mark.parametrize("baseline", BCC_BASELINES)
    def test_respects_budget(self, baseline):
        queries, utilities, costs = small_workload()
        instance = BCCInstance(queries, utilities, costs, budget=4.0)
        solution = baseline(instance)
        assert solution.cost <= 4.0 + 1e-9

    @pytest.mark.parametrize("baseline", BCC_BASELINES)
    def test_zero_budget(self, baseline):
        queries, utilities, costs = small_workload()
        instance = BCCInstance(queries, utilities, costs, budget=0.0)
        solution = baseline(instance)
        assert solution.cost == 0.0

    def test_ig1_prefers_high_ratio_query(self):
        queries, utilities, costs = small_workload()
        instance = BCCInstance(queries, utilities, costs, budget=2.0)
        solution = ig1_bcc(instance)
        # x has ratio 5/2; y has 2/1=2; xy needs 3 (X+Y) or 4 (XY).
        assert fs("x") in solution.covered
        assert solution.utility >= 5.0

    def test_ig2_counts_containing_queries(self):
        # Y appears in y, xy, yz: utility mass 9 at cost 1 -> picked first.
        queries, utilities, costs = small_workload()
        instance = BCCInstance(queries, utilities, costs, budget=1.0)
        solution = ig2_bcc(instance)
        assert solution.classifiers == frozenset({fs("y")})

    def test_rand_deterministic_per_seed(self):
        queries, utilities, costs = small_workload()
        instance = BCCInstance(queries, utilities, costs, budget=5.0)
        a = rand_bcc(instance, seed=11)
        b = rand_bcc(instance, seed=11)
        assert a.classifiers == b.classifiers

    def test_infinite_cost_never_selected(self, fig1_b11):
        for baseline in BCC_BASELINES:
            solution = baseline(fig1_b11)
            assert fs("xy") not in solution.classifiers

    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_all_feasible_on_random_instances(self, seed):
        instance = random_instance(seed)
        for baseline in BCC_BASELINES:
            solution = baseline(instance)
            assert solution.cost <= instance.budget + 1e-9


class TestTargetMode:
    def test_reaches_target(self):
        queries, utilities, costs = small_workload()
        instance = GMC3Instance(queries, utilities, costs, target=7.0)
        for baseline in (lambda i: rand_gmc3(i, seed=0), ig1_gmc3, ig2_gmc3):
            solution = baseline(instance)
            assert solution.utility >= 7.0
            assert solution.meta["reached_target"]

    def test_target_zero_trivial(self):
        queries, utilities, costs = small_workload()
        instance = GMC3Instance(queries, utilities, costs, target=0.0)
        solution = ig1_gmc3(instance)
        assert solution.cost == 0.0

    def test_greedy_cheaper_than_random(self):
        queries, utilities, costs = small_workload()
        instance = GMC3Instance(queries, utilities, costs, target=10.0)
        greedy = ig1_gmc3(instance)
        rand = rand_gmc3(instance, seed=5)
        assert greedy.cost <= rand.cost + 1e-9

    def test_unreachable_target_reports(self):
        queries, utilities, costs = small_workload()
        instance = GMC3Instance(queries, utilities, costs, target=10_000.0)
        solution = ig1_gmc3(instance)
        assert not solution.meta["reached_target"]


class TestCoverMode:
    def test_returns_best_ratio_snapshot(self):
        queries, utilities, costs = small_workload()
        instance = ECCInstance(queries, utilities, costs)
        for baseline in (lambda i: rand_ecc(i, seed=0), ig1_ecc, ig2_ecc):
            solution = baseline(instance)
            assert solution.utility > 0
            assert solution.ratio > 0

    def test_snapshot_at_least_final_ratio(self):
        queries, utilities, costs = small_workload()
        instance = ECCInstance(queries, utilities, costs)
        solution = ig2_ecc(instance)
        # The snapshot is the max over prefixes, so it is at least the
        # ratio of covering everything.
        from repro.mc3 import full_cover_cost

        full_ratio = sum(utilities.values()) / full_cover_cost(instance)
        assert solution.ratio >= full_ratio - 1e-9
