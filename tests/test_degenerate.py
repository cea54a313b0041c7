"""Degenerate-instance sweep: the shapes that crash naive solvers.

Every solver entry point is driven through the same catalogue of edge
instances — empty workloads, zero budgets, single-query shards,
all-infinite cost models, duplicate queries — and must either return a
well-formed feasible solution or raise the typed
:class:`~repro.core.errors.InvalidInstanceError` at construction.  The
sweep is parameterised so a new solver only needs one line here.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms.bcc import solve_bcc
from repro.algorithms.ecc import solve_ecc
from repro.algorithms.gmc3 import solve_gmc3
from repro.core import BCCInstance, ECCInstance, GMC3Instance, from_letters as fs
from repro.core.bitset import ENGINES, use_engine
from repro.core.errors import InfeasibleTargetError, InvalidInstanceError
from repro.incremental import IncrementalConfig, solve_bcc_sharded

_TOL = 1e-9


def _sharded(instance):
    return solve_bcc_sharded(instance, IncrementalConfig(jobs=1), seed=0)


BCC_SOLVERS = [
    pytest.param(solve_bcc, id="abcc"),
    pytest.param(_sharded, id="abcc-sharded"),
]


def _queries():
    return [fs("ab"), fs("c"), fs("de")]


def _utilities():
    return {fs("ab"): 4.0, fs("c"): 2.0, fs("de"): 3.0}


def _costs(value: float = 1.0):
    return {
        fs(letter): value for letter in "abcde"
    } | {fs("ab"): value, fs("de"): value}


# ----------------------------------------------------------------------
# invalid at construction: solvers never even see these
# ----------------------------------------------------------------------
def test_empty_workload_is_rejected_at_construction():
    with pytest.raises(InvalidInstanceError):
        BCCInstance([], {}, {}, budget=1.0)
    with pytest.raises(InvalidInstanceError):
        GMC3Instance([], {}, {}, target=1.0)
    with pytest.raises(InvalidInstanceError):
        ECCInstance([], {}, {})


def test_duplicate_queries_are_rejected_at_construction():
    queries = [fs("ab"), fs("ab")]
    with pytest.raises(InvalidInstanceError):
        BCCInstance(queries, {fs("ab"): 1.0}, {}, budget=1.0)
    with pytest.raises(InvalidInstanceError):
        GMC3Instance(queries, {fs("ab"): 1.0}, {}, target=1.0)
    with pytest.raises(InvalidInstanceError):
        ECCInstance(queries, {fs("ab"): 1.0}, {})


# ----------------------------------------------------------------------
# valid but degenerate: solvers must cope
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solver", BCC_SOLVERS)
def test_zero_budget_yields_free_coverage_only(solver):
    costs = _costs(1.0) | {fs("c"): 0.0}
    instance = BCCInstance(_queries(), _utilities(), costs, budget=0.0)
    solution = solver(instance)
    assert solution.cost == 0.0
    assert solution.utility == pytest.approx(2.0)  # the free singleton 'c'


@pytest.mark.parametrize("solver", BCC_SOLVERS)
def test_single_query_instance(solver):
    instance = BCCInstance(
        [fs("ab")], {fs("ab"): 5.0}, _costs(1.0), budget=10.0
    )
    solution = solver(instance)
    assert solution.utility == pytest.approx(5.0)
    assert solution.cost <= instance.budget + _TOL


@pytest.mark.parametrize("solver", BCC_SOLVERS)
def test_all_singleton_queries_decompose_fully(solver):
    queries = [fs(letter) for letter in "abcde"]
    utilities = {q: 1.0 for q in queries}
    costs = {q: 1.0 for q in queries}
    instance = BCCInstance(queries, utilities, costs, budget=3.0)
    solution = solver(instance)
    assert solution.utility == pytest.approx(3.0)
    assert solution.cost <= 3.0 + _TOL


@pytest.mark.parametrize("solver", BCC_SOLVERS)
def test_all_infinite_costs_yield_the_empty_solution(solver):
    costs = {c: math.inf for c in _costs()}
    instance = BCCInstance(
        _queries(), _utilities(), costs, budget=100.0, default_cost=math.inf
    )
    solution = solver(instance)
    assert solution.utility == 0.0
    assert solution.cost == 0.0
    assert solution.classifiers == frozenset()


def test_gmc3_degenerate_targets():
    # Target 0 is reachable by the empty selection; a target beyond the
    # coverable utility must raise the typed error, not leak an MC3 crash.
    instance_zero = GMC3Instance(_queries(), _utilities(), _costs(), target=0.0)
    solution = solve_gmc3(instance_zero)
    assert solution.utility >= 0.0

    costs = {c: math.inf for c in _costs()}
    unreachable = GMC3Instance(
        _queries(), _utilities(), costs, target=5.0, default_cost=math.inf
    )
    with pytest.raises(InfeasibleTargetError):
        solve_gmc3(unreachable)


def test_gmc3_reaches_target_despite_uncoverable_query():
    # Regression: one query walled off by infinite costs used to crash the
    # budget search (full-cover MC3) even though the target was reachable
    # through the other queries.
    costs = _costs(1.0) | {
        fs("a"): math.inf,
        fs("b"): math.inf,
        fs("ab"): math.inf,
    }
    instance = GMC3Instance(
        _queries(), _utilities(), costs, target=2.0, default_cost=math.inf
    )
    solution = solve_gmc3(instance)
    assert solution.utility >= 2.0 - _TOL


def test_ecc_degenerate_costs():
    solution = solve_ecc(ECCInstance(_queries(), _utilities(), _costs()))
    assert solution.utility >= 0.0

    costs = {c: math.inf for c in _costs()}
    all_infinite = ECCInstance(
        _queries(), _utilities(), costs, default_cost=math.inf
    )
    solution = solve_ecc(all_infinite)
    assert solution.classifiers == frozenset()


def test_ecc_single_query():
    instance = ECCInstance([fs("ab")], {fs("ab"): 5.0}, _costs(1.0))
    solution = solve_ecc(instance)
    assert solution.utility >= 0.0


# ----------------------------------------------------------------------
# engine sweep: the degenerate shapes under every coverage backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("solver", BCC_SOLVERS)
def test_degenerate_shapes_engine_identical(solver, engine):
    """Every backend must survive the degenerate catalogue and return the
    exact solution the ``sets`` reference does (zero budget, all-infinite
    costs, single query)."""
    catalogue = [
        BCCInstance(_queries(), _utilities(), _costs(1.0) | {fs("c"): 0.0}, budget=0.0),
        BCCInstance([fs("ab")], {fs("ab"): 5.0}, _costs(1.0), budget=10.0),
        BCCInstance(
            _queries(),
            _utilities(),
            {c: math.inf for c in _costs()},
            budget=100.0,
            default_cost=math.inf,
        ),
    ]
    for instance in catalogue:
        with use_engine("sets"):
            reference = solver(instance)
        with use_engine(engine):
            solution = solver(instance)
        assert solution.classifiers == reference.classifiers
        assert solution.utility == reference.utility
        assert solution.cost == reference.cost


# ----------------------------------------------------------------------
# the anytime SLO meta-solver against the degenerate catalogue
# ----------------------------------------------------------------------
def _slo_solver():
    from repro.slo import AnytimeMetaSolver, SloConfig, tier_prior_clock

    return AnytimeMetaSolver(SloConfig(clock=tier_prior_clock()))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("deadline_ms", [0.0, 50.0, None])
def test_slo_single_uncoverable_query_returns_certified_empty(engine, deadline_ms):
    # The only query is walled off by infinite costs: at every deadline —
    # 0ms included — the incumbent is the certified empty solution.
    instance = BCCInstance(
        [fs("ab")],
        {fs("ab"): 5.0},
        {c: math.inf for c in _costs()},
        budget=100.0,
        default_cost=math.inf,
    )
    with use_engine(engine):
        solver = _slo_solver()
        solution = solver.solve(instance, deadline_ms=deadline_ms)
    assert solution.classifiers == frozenset()
    assert solution.utility == 0.0
    assert "certificate" in solution.meta
    assert len(solution.meta["slo"]["schedule"]) >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_slo_all_infinite_costs_yield_certified_empty_incumbent(engine):
    from repro.verify import check_incumbent_trace

    instance = BCCInstance(
        _queries(),
        _utilities(),
        {c: math.inf for c in _costs()},
        budget=100.0,
        default_cost=math.inf,
    )
    with use_engine(engine):
        solver = _slo_solver()
        solution = solver.solve(instance, deadline_ms=None)
        check_incumbent_trace(instance, solver.last_trace)
    assert solution.classifiers == frozenset()
    assert solution.cost == 0.0


@pytest.mark.parametrize("engine", ENGINES)
def test_slo_zero_budget_takes_free_coverage_only(engine):
    costs = _costs(1.0) | {fs("c"): 0.0}
    instance = BCCInstance(_queries(), _utilities(), costs, budget=0.0)
    with use_engine(engine):
        solution = _slo_solver().solve(instance, deadline_ms=None)
    assert solution.cost == 0.0
    assert solution.utility == pytest.approx(2.0)
    assert "certificate" in solution.meta


def test_slo_empty_workload_is_rejected_at_construction():
    # The catalogue's empty-workload row: there is no instance to solve,
    # so the meta-solver can never even be reached.
    with pytest.raises(InvalidInstanceError):
        BCCInstance([], {}, {}, budget=1.0)


def test_sharded_zero_budget_many_shards_meta():
    queries = [fs(letter) for letter in "abc"]
    instance = BCCInstance(
        queries, {q: 1.0 for q in queries}, {q: 1.0 for q in queries}, budget=0.0
    )
    solution = _sharded(instance)
    assert solution.utility == 0.0
    assert solution.meta["incremental"]["shards"] == 3
