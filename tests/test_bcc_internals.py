"""White-box tests for A^BCC internals (bonus augmentation, cover arm,
MC3 improvement, swap polish)."""

import math
import random

import pytest

from repro.algorithms.bcc import (
    _SINGLETON_BONUS,
    POLISH_EVAL_CAP,
    _augment_with_singleton_bonus,
    _cover_greedy_pick,
    _mc3_improve,
    _swap_polish,
)
from repro.algorithms.residual import ResidualProblem
from repro.core import BCCInstance, from_letters as fs
from repro.core.bitset import ENGINES, use_engine
from repro.core.model import powerset_classifiers
from repro.datasets.synthetic import generate_synthetic


class TestBonusAugmentation:
    def test_adds_virtual_node_and_exact_credits(self):
        instance = BCCInstance(
            [fs("xy"), fs("x")],
            {fs("xy"): 4.0, fs("x"): 2.0},
            {fs("x"): 1.0, fs("y"): 1.0, fs("xy"): 1.5},
            budget=5.0,
        )
        residual = ResidualProblem(instance)
        graph = residual.qk_graph(instance.budget)
        augmented = _augment_with_singleton_bonus(residual, graph, instance.budget)
        assert _SINGLETON_BONUS in augmented
        # Query x credits classifier X; query xy credits classifier XY.
        assert augmented.weight(_SINGLETON_BONUS, fs("x")) == 2.0
        assert augmented.weight(_SINGLETON_BONUS, fs("xy")) == 4.0

    def test_intermediate_supersets_not_credited(self):
        # xyz with YZ selected: missing {x}; XZ must NOT receive credit
        # (only X == missing and XYZ == query do).
        instance = BCCInstance(
            [fs("xyz")],
            {fs("xyz"): 8.0},
            {
                fs("x"): 1.0,
                fs("y"): 1.0,
                fs("z"): 1.0,
                fs("xy"): 1.0,
                fs("xz"): 1.0,
                fs("yz"): 0.0,
                fs("xyz"): 1.0,
            },
            budget=5.0,
        )
        residual = ResidualProblem(instance)
        residual.select([fs("yz")])
        graph = residual.qk_graph(instance.budget)
        augmented = _augment_with_singleton_bonus(residual, graph, instance.budget)
        bonus_neighbors = set(augmented.neighbors(_SINGLETON_BONUS))
        assert fs("x") in bonus_neighbors
        assert fs("xyz") in bonus_neighbors
        assert fs("xz") not in bonus_neighbors

    def test_no_bonus_no_augmentation(self):
        instance = BCCInstance(
            [fs("xy")], costs={fs("xy"): math.inf}, budget=5.0
        )
        residual = ResidualProblem(instance)
        graph = residual.qk_graph(instance.budget)
        augmented = _augment_with_singleton_bonus(residual, graph, 0.0)
        assert _SINGLETON_BONUS not in augmented


class TestCoverGreedyPick:
    def test_buys_whole_three_cover(self):
        instance = BCCInstance(
            [fs("xyz")],
            {fs("xyz"): 9.0},
            {
                fs("x"): 1.0,
                fs("y"): 1.0,
                fs("z"): 1.0,
                fs("xy"): math.inf,
                fs("xz"): math.inf,
                fs("yz"): math.inf,
                fs("xyz"): math.inf,
            },
            budget=3.0,
        )
        residual = ResidualProblem(instance)
        pick = _cover_greedy_pick(residual, 3.0)
        assert pick == frozenset({fs("x"), fs("y"), fs("z")})

    def test_respects_budget(self):
        instance = BCCInstance(
            [fs("xyz")],
            {fs("xyz"): 9.0},
            None,
            budget=2.0,
            default_cost=1.0,
        )
        residual = ResidualProblem(instance)
        pick = _cover_greedy_pick(residual, 2.0)
        cost = sum(instance.cost(c) for c in pick)
        assert cost <= 2.0 + 1e-9

    def test_prefers_high_ratio_query(self):
        instance = BCCInstance(
            [fs("ab"), fs("cd")],
            {fs("ab"): 10.0, fs("cd"): 1.0},
            {
                fs("ab"): 2.0,
                fs("cd"): 2.0,
                fs("a"): 5.0,
                fs("b"): 5.0,
                fs("c"): 5.0,
                fs("d"): 5.0,
            },
            budget=2.0,
        )
        residual = ResidualProblem(instance)
        pick = _cover_greedy_pick(residual, 2.0)
        assert pick == frozenset({fs("ab")})

    def test_reuses_selected_for_free(self):
        instance = BCCInstance(
            [fs("xy"), fs("xz")],
            {fs("xy"): 5.0, fs("xz"): 5.0},
            {
                fs("x"): 3.0,
                fs("y"): 1.0,
                fs("z"): 1.0,
                fs("xy"): 10.0,
                fs("xz"): 10.0,
            },
            budget=5.0,
        )
        residual = ResidualProblem(instance)
        pick = _cover_greedy_pick(residual, 5.0)
        # X shared: total cost 5 covers both queries.
        assert pick == frozenset({fs("x"), fs("y"), fs("z")})


class TestMc3Improve:
    def test_swaps_to_cheaper_cover(self, fig1_b11):
        residual = ResidualProblem(fig1_b11)
        # Cover xyz the expensive way: XYZ (3) plus X (5) covers xyz only.
        residual.select([fs("xyz"), fs("x")])
        before_cost = residual.spent()
        _mc3_improve(residual, fig1_b11)
        after_cost = residual.spent()
        assert after_cost <= before_cost
        # Coverage preserved.
        assert fs("xyz") in residual.tracker.covered

    def test_noop_when_already_cheapest(self, fig1_b3):
        residual = ResidualProblem(fig1_b3)
        residual.select([fs("xyz")])
        _mc3_improve(residual, fig1_b3)
        assert fs("xyz") in residual.selected


class TestSwapPolish:
    def test_improving_swap_found(self):
        instance = BCCInstance(
            [fs("a"), fs("b")],
            {fs("a"): 1.0, fs("b"): 10.0},
            {fs("a"): 1.0, fs("b"): 1.0},
            budget=1.0,
        )
        allowed = frozenset({fs("a"), fs("b")})
        polished = _swap_polish(instance, {fs("a")}, allowed, eval_cap=100)
        assert polished == {fs("b")}

    def test_no_negative_swaps(self, fig1_b4):
        allowed = frozenset(
            c for c in fig1_b4.relevant_classifiers()
            if not math.isinf(fig1_b4.cost(c))
        )
        start = {fs("yz"), fs("xz")}
        polished = _swap_polish(fig1_b4, start, allowed, eval_cap=100)
        from repro.core import evaluate

        assert evaluate(fig1_b4, polished).utility >= evaluate(fig1_b4, start).utility

    def test_eval_cap_zero_is_noop(self, fig1_b4):
        start = {fs("xyz")}
        polished = _swap_polish(fig1_b4, start, frozenset(), eval_cap=0)
        assert polished == start


def _reference_swap_polish(instance, selection, allowed, eval_cap):
    """Reference swap polish: re-enumerates ``2^q`` per query per trial.

    Coverage is tested from first principles on every trial, so no state
    carries over between accepted swaps.  :func:`_swap_polish` keeps a
    contributor map across swaps instead and must accept the same swaps
    in the same order.
    """

    def is_covered(query, chosen):
        remaining = set(query)
        for c in powerset_classifiers(query):
            if c in chosen:
                remaining -= c
                if not remaining:
                    return True
        return not remaining

    current = set(selection)
    spent = sum(instance.cost(c) for c in current)

    def swap_delta(out, incoming):
        affected = set(instance.queries_containing(incoming))
        if out is not None:
            affected |= set(instance.queries_containing(out))
        trial = (current - {out}) | {incoming} if out else current | {incoming}
        delta = 0.0
        for query in affected:
            before = is_covered(query, current)
            after = is_covered(query, trial)
            if before != after:
                delta += instance.utility(query) * (1.0 if after else -1.0)
        return delta

    gain_hint = {}
    for query in instance.queries:
        utility = instance.utility(query)
        for c in powerset_classifiers(query):
            if c in allowed and c not in current:
                gain_hint[c] = gain_hint.get(c, 0.0) + utility
    candidates = sorted(
        gain_hint,
        key=lambda c: (-gain_hint[c] / max(instance.cost(c), 1e-12), sorted(c)),
    )[:60]

    trials = 0
    improved = True
    while improved and trials < eval_cap:
        improved = False
        marginal = {}
        for out in current:
            if instance.cost(out) <= 0:
                continue
            loss = 0.0
            for query in instance.queries_containing(out):
                if is_covered(query, current) and not is_covered(query, current - {out}):
                    loss += instance.utility(query)
            marginal[out] = loss
        removable = sorted(
            marginal,
            key=lambda c: (marginal[c] / max(instance.cost(c), 1e-12), sorted(c)),
        )[:10]
        for out in removable:
            refund = instance.cost(out)
            for incoming in candidates:
                if incoming in current:
                    continue
                cost_in = instance.cost(incoming)
                if spent - refund + cost_in > instance.budget + 1e-9:
                    continue
                if trials >= eval_cap:
                    break
                trials += 1
                delta = swap_delta(out, incoming)
                if delta > 1e-9:
                    current = (current - {out}) | {incoming}
                    spent = spent - refund + cost_in
                    improved = True
                    break
            if improved:
                break
    return current


def _random_feasible_start(instance, allowed, seed):
    """A random selection from ``allowed`` that fits the budget."""
    pool = sorted(allowed, key=sorted)
    random.Random(seed).shuffle(pool)
    start, spent = set(), 0.0
    for classifier in pool:
        if spent + instance.cost(classifier) <= instance.budget:
            start.add(classifier)
            spent += instance.cost(classifier)
    return start


class TestSwapPolishReference:
    """``_swap_polish`` equals the stateless reference on random starts.

    Accepted swaps must update the contributor map; a stale entry makes
    a later trial misjudge coverage, which only a multi-swap run shows.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_from_random_start(self, engine, seed):
        instance = generate_synthetic(80, 40, budget=150.0, seed=seed)
        allowed = frozenset(instance.feasible_classifiers())
        start = _random_feasible_start(instance, allowed, seed)
        with use_engine(engine):
            polished = _swap_polish(instance, set(start), allowed, POLISH_EVAL_CAP)
        assert polished == _reference_swap_polish(instance, start, allowed, POLISH_EVAL_CAP)
