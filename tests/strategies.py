"""Shared hypothesis strategies for valid problem instances.

One home for instance generation: bounded query length, optional zero and
infinite costs, and raw duplicate-query streams that canonicalize through
:func:`repro.verify.metamorphic.merge_duplicate_queries`.  Used by
``test_verify.py``, ``test_coverage_engine.py`` and ``test_schema_fuzz.py``
instead of each hand-rolling its own generator.  :func:`hks_graphs` draws
the weighted graphs ``test_dks.py`` runs the HkS arms on.
"""

from __future__ import annotations

import math
from random import Random

from hypothesis import strategies as st

from repro.core import BCCInstance, powerset_classifiers
from repro.graphs import WeightedGraph
from repro.serving.requests import PlanRequest, ReplanRequest, WhatIfRequest
from repro.serving.traffic import ServingTrace, TraceItem
from repro.verify.incremental import random_delta_stream
from repro.verify.metamorphic import merge_duplicate_queries

_PROPERTY_ALPHABET = "abcdefgh"


def property_names(max_size: int = 3) -> st.SearchStrategy:
    """Short property names over a fixed alphabet."""
    return st.text(alphabet=_PROPERTY_ALPHABET, min_size=1, max_size=max_size)


def queries(max_length: int = 3) -> st.SearchStrategy:
    """Non-empty property sets of bounded cardinality (valid queries)."""
    return st.frozensets(property_names(), min_size=1, max_size=max_length)


@st.composite
def cost_maps(
    draw,
    query_list,
    allow_zero: bool = True,
    allow_inf: bool = True,
    max_cost: float = 50.0,
):
    """Costs for a random subset of the relevant classifiers of ``query_list``.

    Unlisted classifiers fall back to the instance default, matching how
    analysts under-specify costs in practice.
    """
    costs = {}
    for query in query_list:
        for classifier in powerset_classifiers(query):
            if not draw(st.booleans()):
                continue
            if allow_inf and draw(st.integers(0, 9)) == 0:
                costs[classifier] = math.inf
            elif allow_zero and draw(st.integers(0, 9)) == 0:
                costs[classifier] = 0.0
            else:
                costs[classifier] = draw(
                    st.floats(0.0, max_cost, allow_nan=False, allow_infinity=False)
                )
    return costs


@st.composite
def bcc_instances(
    draw,
    max_queries: int = 6,
    max_length: int = 3,
    allow_zero_cost: bool = True,
    allow_inf_cost: bool = True,
    max_cost: float = 50.0,
    max_budget: float = 1000.0,
):
    """Valid :class:`BCCInstance` values: bounded ``l``, zero/inf costs.

    Queries arrive as a raw duplicated stream and are canonicalized with
    the shared merge helper, so the strategies exercise the same
    duplicate-handling path production loaders use.
    """
    raw_queries = draw(st.lists(queries(max_length), min_size=1, max_size=2 * max_queries))
    entries = [
        (q, draw(st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False)))
        for q in raw_queries
    ]
    query_list, utilities = merge_duplicate_queries(entries)
    query_list = query_list[:max_queries]
    utilities = {q: utilities[q] for q in query_list}
    costs = draw(
        cost_maps(
            query_list,
            allow_zero=allow_zero_cost,
            allow_inf=allow_inf_cost,
            max_cost=max_cost,
        )
    )
    budget = draw(st.floats(0.0, max_budget, allow_nan=False, allow_infinity=False))
    return BCCInstance(query_list, utilities, costs, budget=budget)


@st.composite
def reencoded_bcc_pairs(draw, max_queries: int = 5, max_length: int = 3):
    """An instance plus a semantically identical re-encoding of it.

    The twin differs only in representation: permuted query order,
    shuffled utility/cost dict insertion order, and int-valued floats
    re-expressed as ``int`` (``2.0`` → ``2``).  Canonical fingerprints
    must treat the two as the same instance.
    """
    instance = draw(
        bcc_instances(max_queries=max_queries, max_length=max_length, allow_inf_cost=False)
    )

    def requote(value: float) -> float:
        if draw(st.booleans()) and float(value).is_integer() and abs(value) < 2**53:
            return int(value)
        return value

    queries = draw(st.permutations(list(instance.queries)))
    utilities = {q: requote(instance.utility(q)) for q in draw(st.permutations(queries))}
    cost_items = draw(st.permutations(sorted(instance._costs.items(), key=repr)))
    costs = {c: requote(cost) for c, cost in cost_items}
    twin = instance.__class__(
        list(queries),
        utilities,
        costs,
        budget=requote(instance.budget),
        default_utility=instance.default_utility,
        default_cost=instance.default_cost,
    )
    return instance, twin


@st.composite
def wide_bcc_instances(
    draw,
    min_queries: int = 70,
    max_queries: int = 110,
    max_length: int = 3,
    hub_properties: int = 4,
):
    """Wide-universe instances: hundreds of properties, short plans.

    The shape of the paper's wide sweeps, which the narrow
    ``abcdefgh`` alphabet of :func:`bcc_instances` can never produce:
    each query draws most of its (short) property set from its own block
    of a large universe, so the compiled :class:`PropertySpace` spans
    multiple 64-bit words while every individual mask stays sparse.  A
    few shared *hub* properties couple queries across blocks so coverage
    still interacts (otherwise every query is its own shard).  The
    query floor guarantees at least 65 distinct properties — every drawn
    instance genuinely spans multiple 64-bit words.
    """
    n_queries = draw(st.integers(min_queries, max_queries))
    query_list = []
    seen = set()
    for block in range(n_queries):
        size = draw(st.integers(1, max_length))
        props = {f"p{block * max_length + offset:04d}" for offset in range(size)}
        if size > 1 and draw(st.integers(0, 2)) == 0:
            hub = draw(st.integers(0, hub_properties - 1))
            props = set(sorted(props)[:-1]) | {f"hub{hub}"}
        query = frozenset(props)
        if query not in seen:
            seen.add(query)
            query_list.append(query)
    utilities = {
        q: float(draw(st.integers(1, 10))) for q in query_list
    }
    # Explicit costs for a sampled sliver of the relevant classifiers
    # (the default cost backs the rest — pricing every classifier of a
    # wide universe would dominate example generation).
    costs = {}
    for query in query_list:
        if draw(st.integers(0, 2)) == 0:
            costs[query] = float(draw(st.integers(0, 9)))
    budget = float(draw(st.integers(1, 2 * n_queries)))
    return BCCInstance(query_list, utilities, costs, budget=budget)


@st.composite
def request_streams(
    draw,
    max_tenants: int = 3,
    max_requests: int = 10,
    max_deltas: int = 3,
):
    """Small multi-tenant serving traces — the metamorphic serving unit.

    Tenants draw independent solvable workloads; each tenant's replan
    deltas come from :func:`repro.verify.incremental.random_delta_stream`,
    so every delta validates against the workload state it meets when the
    trace is served in arrival order.  The request mix covers all three
    kinds, budget overrides, and the deadline spectrum (unbounded,
    generous, zero) — ``test_serving.py`` replays each drawn trace under a
    virtual clock and demands byte-identical response sequences across
    runs and worker counts.
    """
    n_tenants = draw(st.integers(1, max_tenants))
    names = [f"tenant{index}" for index in range(n_tenants)]
    tenants = {}
    deltas = {}
    for name in names:
        instance = draw(solvable_instances(max_queries=4))
        tenants[name] = instance
        seed = draw(st.integers(0, 2**16))
        deltas[name] = random_delta_stream(
            instance, max_deltas, Random(seed), fraction=0.4
        )
    items = []
    arrival = 0.0
    for seq in range(draw(st.integers(1, max_requests))):
        arrival += draw(
            st.floats(0.0, 0.01, allow_nan=False, allow_infinity=False)
        )
        name = draw(st.sampled_from(names))
        deadline = draw(st.sampled_from([None, 0.0, 250.0]))
        roll = draw(st.integers(0, 9))
        if roll == 0 and deltas[name]:
            request = ReplanRequest(name, deltas[name].pop(0), deadline_ms=deadline)
        elif roll <= 2:
            budget = draw(
                st.sampled_from([None, round(tenants[name].budget * 0.5, 6)])
            )
            request = WhatIfRequest(name, budget=budget, deadline_ms=deadline)
        else:
            request = PlanRequest(name, deadline_ms=deadline)
        items.append(TraceItem(seq=seq, arrival_s=round(arrival, 9), request=request))
    return ServingTrace(tenants=tenants, items=items)


@st.composite
def solvable_instances(
    draw, max_queries: int = 6, max_length: int = 3, max_cost: int = 9
):
    """Small oracle-friendly instances: integer costs, no infinities,
    budget a fraction of the total cost — the shape solver tests sweep."""
    query_list = sorted(
        draw(st.sets(queries(max_length), min_size=1, max_size=max_queries)),
        key=sorted,
    )
    utilities = {
        q: float(draw(st.integers(1, 10))) for q in query_list
    }
    costs = {}
    total = 0.0
    for query in query_list:
        for classifier in powerset_classifiers(query):
            costs[classifier] = float(draw(st.integers(0, max_cost)))
            total += costs[classifier]
    fraction = draw(st.floats(0.2, 0.8))
    budget = max(1.0, round(total * fraction))
    return BCCInstance(query_list, utilities, costs, budget=budget)


#: First element of the two-int frozenset node names :func:`hks_graphs`
#: draws.  Ints hash to themselves, so ``x`` and ``x + 8`` share a slot in
#: a small set table and the set's member order follows its build order:
#: ``frozenset((x, x + 8))`` and its equal twin ``frozenset((x + 8, x))``
#: print differently in every process.
FROZENSET_NAME_BASE = 1_000_001


@st.composite
def hks_graphs(draw, max_nodes: int = 24, max_cost: int = 1, tied=None):
    """Weighted graphs for the HkS arm differentials.

    Nodes are plain string names or blow-up copies ``(name, i)``, inserted
    in a drawn order.  Weights come from a three-value set (ties
    everywhere) or a continuous range; ``tied`` fixes which instead of
    drawing it.  Nodes fall into one to three blocks with edges only
    inside a block, so graphs are often disconnected, and density 0 makes
    them edgeless.

    ``max_cost > 1`` draws blow-up inputs instead: integer node costs from
    1 to ``max_cost`` (so per-copy weights are fractional), names that are
    strings or two-int frozensets (see :data:`FROZENSET_NAME_BASE`), and
    sometimes the A_H^QK bonus node ``("__bonus__",)``, which compares
    with neither.
    """
    n = draw(st.integers(1, max_nodes))
    if max_cost > 1:
        if draw(st.booleans()):
            names = [f"v{index}" for index in range(n)]
        else:
            names = [
                frozenset((FROZENSET_NAME_BASE + 16 * index, FROZENSET_NAME_BASE + 16 * index + 8))
                for index in range(n)
            ]
        if draw(st.booleans()):
            names[-1] = ("__bonus__",)
    elif draw(st.booleans()):
        names = [f"v{index}" for index in range(n)]
    else:
        copies = draw(st.integers(1, 4))
        names = [(f"c{index // copies}", index % copies) for index in range(n)]
    names = draw(st.permutations(names))
    blocks = draw(st.integers(1, 3))
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 0.8]))
    if tied is None:
        tied = draw(st.booleans())
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    block_of = [rng.randrange(blocks) for _ in range(n)]
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if block_of[i] == block_of[j]
    ]
    rng.shuffle(pairs)
    graph = WeightedGraph()
    for name in names:
        graph.add_node(name, cost=float(rng.randint(1, max_cost)) if max_cost > 1 else 1.0)
    for i, j in pairs:
        if rng.random() < density:
            weight = rng.choice((0.5, 1.0, 2.0)) if tied else rng.uniform(0.01, 10.0)
            graph.add_edge(names[i], names[j], weight)
    return graph
