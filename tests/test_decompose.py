"""Property-based wall around the workload decomposition engine.

Structural invariants of :func:`repro.decompose.partition_workload`
(shards partition ``Q``, no usable classifier crosses shards, engines
agree), exactness of the allocator (grouped DP vs. pareto merge), and
end-to-end guarantees of :func:`repro.incremental.solve_bcc_sharded`
(feasibility, certificates, ≥-monolithic utility on the seeded corpus,
exact equality when the budget is non-binding, and the one-shard
fallback).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bcc import solve_bcc
from repro.core import BCCInstance, from_letters as fs
from repro.core.bitset import use_engine
from repro.datasets.fragmented import generate_fragmented
from repro.decompose import (
    ProfilePoint,
    allocate,
    budget_grid,
    pareto_profile,
    partition_workload,
)
from repro.decompose.allocator import _pareto_allocate
from repro.incremental import IncrementalConfig, solve_bcc_sharded
from repro.parallel import registry
from repro.verify.certificate import attach_certificate, verify_solution
from repro.verify.corpus import corpus

from .strategies import bcc_instances, solvable_instances

_TOL = 1e-9

#: Serial unless a test asks otherwise.
_SERIAL = IncrementalConfig(jobs=1)


def _saturation_budget(instance: BCCInstance) -> float:
    """Total finite relevant-classifier cost: past it the budget is slack."""
    return sum(
        cost
        for cost in (instance.cost(c) for c in instance.relevant_classifiers())
        if not math.isinf(cost)
    )


# ----------------------------------------------------------------------
# partition structure
# ----------------------------------------------------------------------
@given(instance=bcc_instances())
def test_shards_partition_the_queries(instance):
    partition = partition_workload(instance)
    flattened = [q for shard in partition.shards for q in shard]
    assert sorted(flattened, key=sorted) == sorted(instance.queries, key=sorted)
    assert len(flattened) == len(set(flattened)) == len(instance.queries)
    position = {query: i for i, query in enumerate(instance.queries)}
    for shard in partition.shards:
        assert list(shard) == sorted(shard, key=position.__getitem__)
    firsts = [position[shard[0]] for shard in partition.shards]
    assert firsts == sorted(firsts)


@given(instance=bcc_instances())
def test_no_usable_classifier_crosses_shards(instance):
    """The load-bearing invariant: every finite-cost relevant classifier's
    containing queries live in one shard, so selections cannot interact."""
    partition = partition_workload(instance)
    shard_of = {
        query: index for index, shard in enumerate(partition.shards) for query in shard
    }
    for classifier in instance.relevant_classifiers():
        if math.isinf(instance.cost(classifier)):
            continue
        owners = {shard_of[q] for q in instance.queries_containing(classifier)}
        assert len(owners) <= 1, (
            f"classifier {sorted(classifier)} is usable from shards {owners}"
        )


@given(instance=bcc_instances())
def test_partition_is_engine_identical(instance):
    with use_engine("sets"):
        sets_partition = partition_workload(instance)
    with use_engine("bits"):
        bits_partition = partition_workload(instance)
    assert sets_partition.shards == bits_partition.shards


@given(instance=bcc_instances())
def test_shard_workloads_preserve_semantics(instance):
    """Restricting keeps each kept query's utility and each still-relevant
    classifier's cost bit-identical to the parent workload."""
    partition = partition_workload(instance)
    for index in range(partition.num_shards):
        view = partition.shard_workload(index)
        for query in view.queries:
            assert view.utility(query) == instance.utility(query)
        for classifier in view.relevant_classifiers():
            assert view.cost(classifier) == instance.cost(classifier)


def test_dead_properties_do_not_merge_shards():
    # 'x' is shared by both queries but every classifier testing it is
    # infinite, so it cannot couple them: two shards.
    queries = [fs("ax"), fs("bx")]
    utilities = {fs("ax"): 4.0, fs("bx"): 2.0}
    costs = {
        fs("a"): 1.0,
        fs("b"): 1.0,
        fs("x"): math.inf,
        fs("ax"): math.inf,
        fs("bx"): math.inf,
    }
    instance = BCCInstance(queries, utilities, costs, budget=10.0)
    partition = partition_workload(instance)
    assert partition.num_shards == 2


def test_shared_finite_pair_merges_even_with_infinite_singleton():
    # The singleton {x} is priced infinite but the pair {a, x} is finite
    # and a subset of both queries, so the queries must share a shard.
    queries = [fs("axy"), fs("axz")]
    utilities = {fs("axy"): 3.0, fs("axz"): 3.0}
    costs = {fs("x"): math.inf, fs("a"): math.inf, fs("ax"): 2.0}
    instance = BCCInstance(
        queries, utilities, costs, budget=10.0, default_cost=math.inf
    )
    partition = partition_workload(instance)
    assert partition.num_shards == 1


# ----------------------------------------------------------------------
# budget grids and allocation
# ----------------------------------------------------------------------
@given(
    costs=st.lists(st.integers(0, 20).map(float), max_size=8),
    budget=st.floats(0.0, 100.0, allow_nan=False),
    max_points=st.integers(2, 12),
)
def test_budget_grid_shape(costs, budget, max_points):
    grid = budget_grid(costs, budget, max_points=max_points)
    assert grid == sorted(set(grid))
    assert len(grid) <= max_points
    assert grid[0] == 0.0
    top = min(budget, sum(costs))
    if top > _TOL:
        assert grid[-1] == pytest.approx(top)
    assert all(point <= budget + _TOL for point in grid)


def test_budget_grid_enumerates_reachable_spends():
    grid = budget_grid([3.0, 5.0], budget=100.0, max_points=12)
    assert grid == [0.0, 3.0, 5.0, 8.0]


def test_budget_grid_rejects_degenerate_cap():
    with pytest.raises(ValueError):
        budget_grid([1.0], 10.0, max_points=1)


@given(
    points=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=1,
        max_size=8,
    )
)
def test_pareto_profile_is_a_frontier(points):
    profile = pareto_profile(
        [
            ProfilePoint(cost=float(c), utility=float(u), key=f"k{i}")
            for i, (c, u) in enumerate(points)
        ]
    )
    costs = [p.cost for p in profile]
    utilities = [p.utility for p in profile]
    assert costs == sorted(costs)
    assert utilities == sorted(utilities)
    assert len(set(utilities)) == len(utilities)
    assert max(u for _, u in points) == pytest.approx(profile[-1].utility)


@given(
    profiles=st.lists(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
    budget=st.integers(0, 40),
)
def test_grouped_dp_and_pareto_merge_agree(profiles, budget):
    """The two allocator paths are both exact, so on integral costs they
    must find the same optimal value."""
    shaped = [
        [
            ProfilePoint(cost=float(c), utility=float(u), key=f"s{i}/p{j}")
            for j, (c, u) in enumerate(points)
        ]
        for i, points in enumerate(profiles)
    ]
    value, chosen, path = allocate(shaped, float(budget))
    assert path == "grouped-dp"
    merge_value, merge_chosen = _pareto_allocate(
        [pareto_profile(points) for points in shaped], float(budget)
    )
    assert value == pytest.approx(merge_value)
    spend = sum(p.cost for p in chosen if p is not None)
    assert spend <= budget + _TOL
    assert sum(p.utility for p in chosen if p is not None) == pytest.approx(value)


def test_allocate_falls_back_to_pareto_merge_on_float_costs():
    shaped = [
        [ProfilePoint(cost=math.pi / 10, utility=2.0, key="s0/a")],
        [ProfilePoint(cost=math.sqrt(2) / 10, utility=3.0, key="s1/a")],
    ]
    value, chosen, path = allocate(shaped, 1.0)
    assert path == "pareto-merge"
    assert value == pytest.approx(5.0)
    assert [p is not None for p in chosen] == [True, True]


# ----------------------------------------------------------------------
# the sharded solver, end to end
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(instance=solvable_instances())
def test_sharded_solution_is_feasible_and_certified(instance):
    solution = solve_bcc_sharded(instance, _SERIAL, seed=11)
    assert solution.cost <= instance.budget + _TOL
    attach_certificate(instance, solution, budget=instance.budget)
    certificate = solution.meta["certificate"]
    verify_solution(instance, solution, certificate=certificate, budget=instance.budget)


@pytest.mark.parametrize("case", corpus(seeds=range(2)), ids=lambda c: c.name)
def test_sharded_never_below_monolithic_on_corpus(case):
    monolithic = solve_bcc(case.instance)
    sharded = solve_bcc_sharded(case.instance, _SERIAL, seed=3)
    assert sharded.utility >= monolithic.utility - _TOL
    assert sharded.cost <= case.instance.budget + _TOL


def _fragmented_6x30() -> BCCInstance:
    """A 27-shard fragmented workload at a budget far above saturation."""
    return generate_fragmented(6, 30, budget=1e6, seed=3)


_NON_BINDING = [
    pytest.param(
        case.instance.with_budget(_saturation_budget(case.instance) + 1.0),
        id=case.name,
    )
    for case in corpus(seeds=range(2))
] + [pytest.param(_fragmented_6x30(), id="fragmented-6x30")]


@pytest.mark.parametrize("instance", _NON_BINDING)
def test_sharded_equals_monolithic_when_budget_non_binding(instance):
    monolithic = solve_bcc(instance)
    sharded = solve_bcc_sharded(instance, _SERIAL, seed=3)
    assert sharded.utility == pytest.approx(monolithic.utility)
    info = sharded.meta["incremental"]
    if info["shards"] > 1:
        assert info["path"] == "non-binding"


def test_single_shard_degrades_to_monolithic(fig1_b4):
    solution = solve_bcc_sharded(fig1_b4, _SERIAL)
    monolithic = solve_bcc(fig1_b4)
    assert solution.utility == pytest.approx(monolithic.utility)
    assert solution.classifiers == monolithic.classifiers
    assert solution.meta["incremental"]["path"] == "monolithic-fallback"


def test_single_shard_runs_the_inner_solver_once_on_the_whole_instance(
    fig1_b4, monkeypatch
):
    # At this binding budget the shard pipeline would solve a grid of
    # budgets on a copy of the shard; the fallback makes one direct call.
    inner = registry.get_solver("abcc")
    calls = []

    def spy(instance, seed=None):
        calls.append(instance)
        return inner(instance, seed)

    monkeypatch.setitem(registry._SOLVERS, "abcc", spy)
    solution = solve_bcc_sharded(fig1_b4, _SERIAL, seed=3)
    assert len(calls) == 1 and calls[0] is fig1_b4
    monolithic = solve_bcc(fig1_b4)
    assert solution.classifiers == monolithic.classifiers
    assert (solution.utility, solution.cost) == (monolithic.utility, monolithic.cost)


def test_sharded_meta_records_the_decomposition():
    queries = [fs("ab"), fs("cd"), fs("ef")]
    utilities = {q: 5.0 for q in queries}
    costs = {fs(x): 2.0 for x in "abcdef"}
    instance = BCCInstance(queries, utilities, costs, budget=4.0)
    solution = solve_bcc_sharded(instance, _SERIAL, seed=0)
    info = solution.meta["incremental"]
    assert info["shards"] == info["dirty_shards"] == 3
    assert info["reused_profiles"] == 0
    assert info["solved_tasks"] == sum(info["grid_sizes"]) >= 3
    assert len(info["grid_sizes"]) == 3
    assert solution.cost <= 4.0 + _TOL


def test_sharded_certificates_verify_under_both_engines():
    queries = [fs("ab"), fs("cd")]
    utilities = {fs("ab"): 4.0, fs("cd"): 6.0}
    costs = {fs(x): 1.0 for x in "abcd"}
    instance = BCCInstance(queries, utilities, costs, budget=10.0)
    for engine in ("sets", "bits"):
        with use_engine(engine):
            solution = solve_bcc_sharded(instance, _SERIAL)
            attach_certificate(instance, solution, budget=instance.budget)
            verify_solution(
                instance,
                solution,
                certificate=solution.meta["certificate"],
                budget=instance.budget,
            )
            assert solution.utility == pytest.approx(10.0)
