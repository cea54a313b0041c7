"""Best-of portfolio HkS solver — the default engine for ``A_H^QK``.

Runs a configurable set of heuristics (peeling, expansion, Lovász-style
relaxation, spectral rounding), polishes each with swap local search, and
returns the heaviest selection found.  The paper reports that the heuristic
of [41] typically recovers 65%–80%+ of the optimum; the portfolio plays the
same role here and is what "close to optimal in practice" rests on.

Arms are independent: every engine receives its *own* freshly seeded RNG
(``random.Random(seed)``), so no arm observes another's draws.  (This
matches the historical behavior: no engine ahead of the Lovász arm
consumed randomness from the formerly shared RNG.)  The arms run
in-process in configured engine order, and the winner is reduced in that
order with a strict improvement rule.

The portfolio runs on one :class:`~repro.graphs.indexed.IndexedGraph`
snapshot: ``A_H^QK`` hands it the one its
:class:`~repro.graphs.blowup.BlowupGraph` emits, and :func:`solve_hks`
converts a :class:`WeightedGraph` once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence

from repro.dks.expansion import solve_expansion
from repro.dks.local_search import improve_by_swaps
from repro.dks.lovasz import solve_lovasz
from repro.dks.peeling import solve_peeling
from repro.dks.spectral import solve_spectral
from repro.graphs.graph import Node, WeightedGraph
from repro.graphs.indexed import IndexedGraph

Solver = Callable[[IndexedGraph, int, Optional[random.Random]], FrozenSet[Node]]

ENGINES: Dict[str, Solver] = {
    "peeling": solve_peeling,
    "expansion": solve_expansion,
    "lovasz": solve_lovasz,
    "spectral": solve_spectral,
}

#: Engines polished with swap local search (the combinatorial ones; the
#: continuous engines polish internally).
_POLISHED = ("peeling", "expansion")

# Above this node count the continuous engines (eigen/relaxation) are skipped;
# the combinatorial engines remain.
_LARGE_GRAPH_NODES = 4_000


def _solve_arm(name: str, graph: IndexedGraph, k: int, seed: int) -> FrozenSet[Node]:
    """One portfolio arm, polished when it is a combinatorial one."""
    candidate = ENGINES[name](graph, k, random.Random(seed))
    if name in _POLISHED:
        candidate = improve_by_swaps(graph, candidate)
    return candidate


@dataclass
class HksPortfolio:
    """Composite HkS solver.

    Attributes:
        engines: names from :data:`ENGINES` to run.
        seed: RNG seed; every arm derives an independent RNG from it.
    """

    engines: Sequence[str] = ("peeling", "expansion", "lovasz", "spectral")
    seed: int = 0

    def solve(self, graph: IndexedGraph, k: int) -> FrozenSet[Node]:
        """Run every configured engine and return the heaviest selection."""
        for name in self.engines:
            if name not in ENGINES:
                raise ValueError(f"unknown HkS engine {name!r}; options: {sorted(ENGINES)}")
        if k <= 0:
            return frozenset()
        nodes_count = len(graph)
        if nodes_count <= k:
            return frozenset(graph.nodes)
        from repro.profile import phase

        runnable = [
            name
            for name in self.engines
            if not (nodes_count > _LARGE_GRAPH_NODES and name in ("lovasz", "spectral"))
        ]
        with phase("hks_arms"):
            candidates = [_solve_arm(name, graph, k, self.seed) for name in runnable]

        # Reduce in configured engine order with strict improvement.
        best_set: FrozenSet[Node] = frozenset()
        best_weight = -1.0
        for candidate in candidates:
            weight = graph.induced_weight(candidate)
            if weight > best_weight:
                best_weight = weight
                best_set = candidate
        return best_set


def solve_hks(
    graph: WeightedGraph,
    k: int,
    engines: Sequence[str] = ("peeling", "expansion", "lovasz", "spectral"),
    seed: int = 0,
) -> FrozenSet[Node]:
    """One-shot helper around :class:`HksPortfolio` for a :class:`WeightedGraph`."""
    return HksPortfolio(engines=engines, seed=seed).solve(
        IndexedGraph.from_graph(graph), k
    )
