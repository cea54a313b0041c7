"""Tests for the future-work extensions (partial covers, shared costs)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BCCInstance, InvalidInstanceError, from_letters as fs
from repro.core.errors import BudgetCertificateError, UtilityCertificateError
from repro.extensions import (
    PartialCoverModel,
    SharedCostModel,
    linear_credit,
    quadratic_credit,
    solve_partial_bcc,
    solve_shared_cost_bcc,
    step_credit,
    threshold_credit,
)
from repro.extensions.partial_cover import certify_partial_cover
from repro.extensions.shared_costs import certify_shared_cost


class TestCreditFunctions:
    def test_step(self):
        assert step_credit(1.0) == 1.0
        assert step_credit(0.99) == 0.0
        assert step_credit(0.0) == 0.0

    def test_linear(self):
        assert linear_credit(0.5) == 0.5
        assert linear_credit(1.5) == 1.0
        assert linear_credit(-1.0) == 0.0

    def test_quadratic(self):
        assert quadratic_credit(0.5) == 0.25
        assert quadratic_credit(1.0) == 1.0

    def test_threshold(self):
        credit = threshold_credit(0.5)
        assert credit(0.4) == 0.0
        assert credit(0.75) == pytest.approx(0.5)
        assert credit(1.0) == 1.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            threshold_credit(1.5)

    def test_bad_credit_rejected(self):
        with pytest.raises(InvalidInstanceError):
            PartialCoverModel(
                BCCInstance([fs("x")], budget=1.0), credit=lambda f: 0.5
            )


class TestPartialCoverModel:
    def instance(self):
        return BCCInstance(
            [fs("xy"), fs("z")],
            {fs("xy"): 8.0, fs("z"): 2.0},
            {fs("x"): 2.0, fs("y"): 2.0, fs("xy"): 3.0, fs("z"): 1.0},
            budget=3.0,
        )

    def test_step_matches_base_model(self):
        model = PartialCoverModel(self.instance(), step_credit)
        assert model.utility_of([fs("xy")]) == 8.0
        assert model.utility_of([fs("x")]) == 0.0

    def test_linear_pays_partial(self):
        model = PartialCoverModel(self.instance(), linear_credit)
        assert model.utility_of([fs("x")]) == pytest.approx(4.0)

    def test_covered_fraction(self):
        model = PartialCoverModel(self.instance())
        assert model.covered_fraction(fs("xy"), [fs("x")]) == 0.5
        # Non-subset classifiers never contribute.
        assert model.covered_fraction(fs("xy"), [fs("xz")]) == 0.0

    def test_cost_of_deduplicates(self):
        model = PartialCoverModel(self.instance())
        assert model.cost_of([fs("x"), fs("x")]) == 2.0


class TestSolvePartial:
    def test_step_credit_reduces_to_base(self):
        instance = BCCInstance(
            [fs("xy"), fs("z")],
            {fs("xy"): 8.0, fs("z"): 2.0},
            {fs("x"): 2.0, fs("y"): 2.0, fs("xy"): 3.0, fs("z"): 1.0},
            budget=4.0,
        )
        model = PartialCoverModel(instance, step_credit)
        selection = solve_partial_bcc(model)
        assert model.cost_of(selection) <= instance.budget + 1e-9
        assert model.utility_of(selection) == 10.0  # XY + Z

    def test_linear_credit_spends_on_partials(self):
        # Budget buys only X; step credit yields nothing, linear yields 5.
        instance = BCCInstance(
            [fs("xy")],
            {fs("xy"): 10.0},
            {fs("x"): 1.0, fs("y"): 5.0, fs("xy"): 5.0},
            budget=1.0,
        )
        step = solve_partial_bcc(PartialCoverModel(instance, step_credit))
        linear_model = PartialCoverModel(instance, linear_credit)
        linear = solve_partial_bcc(linear_model)
        assert PartialCoverModel(instance, step_credit).utility_of(step) == 0.0
        assert linear_model.utility_of(linear) == pytest.approx(5.0)
        assert linear == frozenset({fs("x")})

    @given(seed=st.integers(0, 400))
    @settings(max_examples=20, deadline=None)
    def test_budget_respected_and_at_least_exact_fraction(self, seed):
        rng = random.Random(seed)
        properties = list("abcd")
        queries = set()
        while len(queries) < 4:
            queries.add(frozenset(rng.sample(properties, rng.randint(1, 2))))
        instance = BCCInstance(
            sorted(queries, key=sorted),
            costs=None,
            budget=rng.randint(1, 5),
            default_cost=float(rng.randint(1, 3)),
        )
        model = PartialCoverModel(instance, linear_credit)
        selection = solve_partial_bcc(model)
        assert model.cost_of(selection) <= instance.budget + 1e-9
        # Exhaustive oracle over singleton classifiers only (upper bound
        # restricted): greedy must reach at least half of it.
        classifiers = sorted(instance.relevant_classifiers(), key=sorted)
        best = 0.0
        for r in range(len(classifiers) + 1):
            for combo in itertools.combinations(classifiers, r):
                if model.cost_of(combo) <= instance.budget + 1e-9:
                    best = max(best, model.utility_of(combo))
        assert model.utility_of(selection) >= best / 2.0 - 1e-9


class TestSharedCostModel:
    def instance(self):
        return BCCInstance(
            [fs("xy"), fs("xz")],
            {fs("xy"): 5.0, fs("xz"): 5.0},
            {
                fs("x"): 1.0,
                fs("y"): 1.0,
                fs("z"): 1.0,
                fs("xy"): 2.0,
                fs("xz"): 2.0,
            },
            budget=10.0,
        )

    def test_zero_property_costs_match_base(self):
        model = SharedCostModel(self.instance())
        assert model.cost_of([fs("xy"), fs("x")]) == 3.0

    def test_shared_property_paid_once(self):
        model = SharedCostModel(
            self.instance(), property_costs={"x": 4.0, "y": 1.0, "z": 1.0}
        )
        # XY and XZ share x: 2 + 2 (marginal) + 4 + 1 + 1 (data) = 10.
        assert model.cost_of([fs("xy"), fs("xz")]) == 10.0

    def test_marginal_cost_discounts_paid(self):
        model = SharedCostModel(self.instance(), property_costs={"x": 4.0})
        assert model.marginal_cost(fs("xy"), set()) == 6.0
        assert model.marginal_cost(fs("xy"), {"x"}) == 2.0

    def test_negative_property_cost_rejected(self):
        with pytest.raises(InvalidInstanceError):
            SharedCostModel(self.instance(), property_costs={"x": -1.0})

    def test_subadditive(self):
        model = SharedCostModel(
            self.instance(), default_property_cost=3.0
        )
        separate = model.cost_of([fs("xy")]) + model.cost_of([fs("xz")])
        together = model.cost_of([fs("xy"), fs("xz")])
        assert together < separate


class TestSolveSharedCost:
    def test_prefers_shared_property_classifiers(self):
        # With a huge data cost on x, covering both queries via x-sharing
        # classifiers beats disjoint coverage.
        instance = BCCInstance(
            [fs("xy"), fs("xz")],
            {fs("xy"): 5.0, fs("xz"): 5.0},
            {
                fs("x"): 1.0,
                fs("y"): 1.0,
                fs("z"): 1.0,
                fs("xy"): 1.0,
                fs("xz"): 1.0,
            },
            budget=12.0,
        )
        model = SharedCostModel(instance, property_costs={"x": 6.0})
        selection = solve_shared_cost_bcc(model)
        assert model.cost_of(selection) <= instance.budget + 1e-9
        assert model.utility_of(selection) == 10.0

    def test_budget_respected(self):
        instance = BCCInstance(
            [fs("xy")],
            {fs("xy"): 5.0},
            None,
            budget=1.0,
            default_cost=1.0,
        )
        model = SharedCostModel(instance, default_property_cost=5.0)
        selection = solve_shared_cost_bcc(model)
        assert model.cost_of(selection) <= instance.budget + 1e-9

    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_never_worse_than_half_of_exhaustive(self, seed):
        rng = random.Random(seed)
        properties = list("abc")
        queries = set()
        while len(queries) < 3:
            queries.add(frozenset(rng.sample(properties, rng.randint(1, 2))))
        instance = BCCInstance(
            sorted(queries, key=sorted),
            costs=None,
            budget=float(rng.randint(2, 8)),
            default_cost=1.0,
        )
        model = SharedCostModel(
            instance,
            property_costs={p: float(rng.randint(0, 3)) for p in properties},
        )
        selection = solve_shared_cost_bcc(model)
        assert model.cost_of(selection) <= instance.budget + 1e-9
        classifiers = sorted(instance.relevant_classifiers(), key=sorted)
        best = 0.0
        for r in range(len(classifiers) + 1):
            for combo in itertools.combinations(classifiers, r):
                if model.cost_of(combo) <= instance.budget + 1e-9:
                    best = max(best, model.utility_of(combo))
        assert model.utility_of(selection) >= best / 2.0 - 1e-9


class TestCertifiers:
    """Each extension's own first-principles check, called on answers."""

    @staticmethod
    def shared_instance(budget):
        return BCCInstance(
            [fs("xy"), fs("xz")],
            {fs("xy"): 5.0, fs("xz"): 5.0},
            {fs("x"): 1.0, fs("y"): 1.0, fs("z"): 1.0, fs("xy"): 1.0, fs("xz"): 1.0},
            budget=budget,
        )

    @staticmethod
    def partial_instance(budget):
        return BCCInstance(
            [fs("xy")],
            {fs("xy"): 10.0},
            {fs("x"): 1.0, fs("y"): 5.0, fs("xy"): 5.0},
            budget=budget,
        )

    def test_shared_cost_accepts_its_solver_answer(self):
        model = SharedCostModel(self.shared_instance(12.0), property_costs={"x": 6.0})
        selection = solve_shared_cost_bcc(model)
        assert selection
        assert certify_shared_cost(model, selection) == model.cost_of(selection)

    def test_shared_cost_rejects_an_over_budget_selection(self):
        model = SharedCostModel(self.shared_instance(7.0), property_costs={"x": 6.0})
        assert model.cost_of([fs("xy"), fs("xz")]) == 8.0
        with pytest.raises(BudgetCertificateError):
            certify_shared_cost(model, [fs("xy"), fs("xz")])

    def test_partial_cover_accepts_its_solver_answer(self):
        model = PartialCoverModel(self.partial_instance(1.0), linear_credit)
        selection = solve_partial_bcc(model)
        assert selection == frozenset({fs("x")})
        assert certify_partial_cover(model, selection) == pytest.approx(5.0)

    def test_partial_cover_rejects_an_over_budget_selection(self):
        model = PartialCoverModel(self.partial_instance(1.0), linear_credit)
        with pytest.raises(BudgetCertificateError):
            certify_partial_cover(model, [fs("x"), fs("y")])

    def test_partial_cover_rejects_a_credit_below_one_at_full_cover(self):
        model = PartialCoverModel(self.partial_instance(5.0), step_credit)
        certify_partial_cover(model, [fs("xy")])
        # The model validates phi(1) = 1 on construction; swap the credit
        # afterwards so only the certifier stands between it and a caller.
        model.credit = lambda fraction: 0.5 * step_credit(fraction)
        with pytest.raises(UtilityCertificateError):
            certify_partial_cover(model, [fs("xy")])
