"""Densest/Heaviest k-Subgraph (DkS/HkS) heuristic suite.

The paper's ``A_H^QK`` plugs in "the state-of-the-art HkS heuristic" of
Konar & Sidiropoulos [41] (Lovász-extension based) as a black box.  That
implementation is not publicly available, so this package provides a
from-scratch portfolio of HkS heuristics:

- :mod:`repro.dks.peeling` — Charikar-style greedy removal down to ``k``.
- :mod:`repro.dks.expansion` — greedy forward selection up to ``k``.
- :mod:`repro.dks.lovasz` — projected-supergradient ascent on the continuous
  relaxation over the capped simplex (the spirit of [41]).
- :mod:`repro.dks.spectral` — low-rank bilinear rounding (the spirit of [53]).
- :mod:`repro.dks.local_search` — swap-improvement polish.
- :mod:`repro.dks.exact` — exhaustive/branch-and-bound oracle for tests.
- :mod:`repro.dks.portfolio` — best-of composite (the default engine).

The heuristics share the signature ``solve(graph, k, rng=None) -> frozenset``
over an :class:`~repro.graphs.indexed.IndexedGraph` snapshot (the exact
oracle takes a :class:`~repro.graphs.graph.WeightedGraph`): they maximize
the total edge weight induced by at most ``k`` nodes.
"""

from repro.dks.peeling import solve_peeling
from repro.dks.expansion import solve_expansion
from repro.dks.local_search import improve_by_swaps
from repro.dks.lovasz import solve_lovasz
from repro.dks.spectral import solve_spectral
from repro.dks.exact import solve_exact
from repro.dks.portfolio import HksPortfolio, solve_hks
from repro.dks.projection import project_capped_simplex
from repro.dks.spes import solve_spes

__all__ = [
    "solve_peeling",
    "solve_expansion",
    "improve_by_swaps",
    "solve_lovasz",
    "solve_spectral",
    "solve_exact",
    "HksPortfolio",
    "solve_hks",
    "project_capped_simplex",
    "solve_spes",
]
