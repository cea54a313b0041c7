"""White-box tests for the baseline selectors (repro.baselines.selectors)."""

import math

from repro.baselines.selectors import IG1Selector, IG2Selector, RandomSelector
from repro.core import BCCInstance, from_letters as fs


def workload():
    return BCCInstance(
        [fs("x"), fs("xy"), fs("yz")],
        {fs("x"): 6.0, fs("xy"): 4.0, fs("yz"): 2.0},
        {
            fs("x"): 2.0,
            fs("y"): 1.0,
            fs("z"): 1.0,
            fs("xy"): 2.0,
            fs("yz"): 3.0,
        },
        budget=10.0,
    )


class TestBaseSelector:
    def test_pool_excludes_infinite(self):
        instance = BCCInstance(
            [fs("xy")], costs={fs("xy"): math.inf}, budget=5.0
        )
        selector = RandomSelector(instance)
        assert fs("xy") not in selector.pool
        assert fs("x") in selector.pool

    def test_add_returns_incremental_cost(self):
        selector = RandomSelector(workload())
        spent = selector.add(frozenset({fs("x"), fs("y")}))
        assert spent == 3.0
        # Re-adding costs nothing.
        assert selector.add(frozenset({fs("x")})) == 0.0

    def test_all_covered(self):
        selector = RandomSelector(workload())
        assert not selector.all_covered()
        selector.add(frozenset({fs("x"), fs("y"), fs("z"), fs("xy"), fs("yz")}))
        assert selector.all_covered()


class TestRandomSelector:
    def test_exhausts_pool_without_budget(self):
        selector = RandomSelector(workload(), seed=1)
        steps = 0
        while True:
            move = selector.step(None)
            if move is None:
                break
            selector.add(move)
            steps += 1
        assert steps == len(selector.pool)

    def test_budget_filtering(self):
        selector = RandomSelector(workload(), seed=2)
        move = selector.step(1.0)
        assert move is not None
        (classifier,) = move
        assert selector.workload.cost(classifier) <= 1.0

    def test_no_affordable_returns_none(self):
        selector = RandomSelector(workload(), seed=0)
        assert selector.step(0.0) is None


class TestIG1Selector:
    def test_picks_best_ratio_query_cover(self):
        selector = IG1Selector(workload())
        move = selector.step(None)
        # x: ratio 6/2 = 3 beats xy (4/2 via XY) and yz (2/2 via Y+Z).
        assert move == frozenset({fs("x")})

    def test_respects_remaining_budget(self):
        selector = IG1Selector(workload())
        move = selector.step(1.0)
        # Only covers costing <= 1 qualify; none cover a query at cost 1
        # except... yz needs 2, xy needs 2, x needs 2 -> nothing.
        assert move is None

    def test_cover_cache_invalidation(self):
        selector = IG1Selector(workload())
        selector.add(selector.step(None))  # picks X
        move = selector.step(None)
        # With X selected, xy's cheapest residual cover is Y (cost 1):
        # ratio 4 beats yz's 1.0.
        assert move == frozenset({fs("y")})

    def test_free_cover_selected_first(self):
        instance = BCCInstance(
            [fs("x"), fs("y")],
            {fs("x"): 1.0, fs("y"): 9.0},
            {fs("x"): 0.0, fs("y"): 5.0},
            budget=5.0,
        )
        selector = IG1Selector(instance)
        assert selector.step(None) == frozenset({fs("x")})


class TestIG2Selector:
    def test_aggregates_containing_queries(self):
        selector = IG2Selector(workload())
        move = selector.step(None)
        # Y appears in xy and yz: mass 6 at cost 1 -> ratio 6 wins.
        assert move == frozenset({fs("y")})

    def test_covered_queries_drop_out(self):
        selector = IG2Selector(workload())
        selector.add(frozenset({fs("x"), fs("y")}))  # covers x, xy
        move = selector.step(None)
        # Only yz is uncovered; Z has ratio 2/1, YZ has 2/3.
        assert move == frozenset({fs("z")})

    def test_zero_cost_classifier_preferred(self):
        instance = BCCInstance(
            [fs("x"), fs("y")],
            {fs("x"): 1.0, fs("y"): 9.0},
            {fs("x"): 0.0, fs("y"): 5.0},
            budget=5.0,
        )
        selector = IG2Selector(instance)
        assert selector.step(None) == frozenset({fs("x")})

    def test_none_when_nothing_gains(self):
        selector = IG2Selector(workload())
        selector.add(frozenset({fs("x"), fs("y"), fs("z")}))
        assert selector.step(None) is None
