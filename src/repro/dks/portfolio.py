"""Best-of portfolio HkS solver — the default engine for ``A_H^QK``.

Runs a configurable set of heuristics (peeling, expansion, Lovász-style
relaxation, spectral rounding), polishes each with swap local search, and
returns the heaviest selection found.  The paper reports that the heuristic
of [41] typically recovers 65%–80%+ of the optimum; the portfolio plays the
same role here and is what "close to optimal in practice" rests on.

Arms are independent: every engine receives its *own* freshly seeded RNG
(``random.Random(seed)``), so no arm observes another's draws and the
arms can run out of order — or in parallel (``jobs > 1``) — with results
bit-identical to the sequential sweep.  (This also matches the historical
serial behavior: no engine ahead of the Lovász arm consumed randomness
from the formerly shared RNG.)  The winner is reduced in configured
engine order with a strict improvement rule, so ties resolve identically
on every path.

The portfolio runs on one :class:`~repro.graphs.indexed.IndexedGraph`
snapshot: ``A_H^QK`` hands it the one its
:class:`~repro.graphs.blowup.BlowupGraph` emits, and :func:`solve_hks`
converts a :class:`WeightedGraph` once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

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


def _solve_arm(args: Tuple[str, IndexedGraph, int, int]) -> FrozenSet[Node]:
    """One portfolio arm (module-level so the process pool can pickle it)."""
    name, graph, k, seed = args
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
        jobs: worker processes for the arms (1 = sequential, the
            default; ``None`` defers to ``REPRO_JOBS``).  Results are
            identical for every value.
    """

    engines: Sequence[str] = ("peeling", "expansion", "lovasz", "spectral")
    seed: int = 0
    jobs: Optional[int] = 1

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
        arm_args = [(name, graph, k, self.seed) for name in runnable]

        from repro.parallel.pool import pmap, resolve_jobs

        jobs = resolve_jobs(self.jobs)
        with phase("hks_arms"):
            candidates = pmap(
                _solve_arm, arm_args, jobs=min(jobs, max(1, len(arm_args)))
            )

        # Reduce in configured engine order with strict improvement, so the
        # winner is independent of arm completion order.
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
    jobs: Optional[int] = 1,
) -> FrozenSet[Node]:
    """One-shot helper around :class:`HksPortfolio` for a :class:`WeightedGraph`."""
    return HksPortfolio(engines=engines, seed=seed, jobs=jobs).solve(
        IndexedGraph.from_graph(graph), k
    )
