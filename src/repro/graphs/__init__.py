"""Lightweight graph substrate used by the DkS/HkS, QK, and densest-subgraph solvers.

The graphs in this package carry exactly the annotations that the paper's
reductions need: non-negative *node costs* (classifier construction costs)
and positive *edge weights* (query utilities).  Nodes are arbitrary hashable
objects so callers can use property names or classifier objects directly.
"""

from repro.graphs.graph import WeightedGraph
from repro.graphs.bipartite import BipartiteGraph, random_bipartition
from repro.graphs.hypergraph import Hypergraph
from repro.graphs.blowup import BlowupGraph, blow_up
from repro.graphs.indexed import IndexedGraph

__all__ = [
    "WeightedGraph",
    "BipartiteGraph",
    "random_bipartition",
    "Hypergraph",
    "BlowupGraph",
    "blow_up",
    "IndexedGraph",
]
