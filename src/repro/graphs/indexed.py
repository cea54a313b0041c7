"""Immutable indexed snapshot of a weighted graph — the form every HkS arm reads.

An :class:`IndexedGraph` numbers the nodes ``0..n-1`` in the order it is
given and stores, per node, its tiebreak string, its adjacency row of
``(neighbour_index, weight)`` pairs and its total weighted degree, plus
one scipy CSR adjacency matrix built on first use.  The HkS portfolio
(peeling, expansion, Lovász, spectral, swap polish) runs on these arrays
only, so one snapshot per solve replaces the per-arm conversions.

The arrays are exactly what the dict-of-dicts :class:`WeightedGraph`
walks: rows in adjacency-row order, degrees summed by the builtin ``sum``
in row order, reprs from :func:`node_repr`, and CSR rows with their
columns ascending (scipy's canonical layout).  Every float an arm sums
is therefore summed in the same order as on the source graph.  :class:`~repro.graphs.blowup.BlowupGraph` builds the
snapshot of a blow-up directly; :meth:`IndexedGraph.from_graph` converts
any other graph.  Callers treat every array as read-only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Node, WeightedGraph, node_repr

Row = List[Tuple[int, float]]


class IndexedGraph:
    """Index-addressed adjacency snapshot (see the module docstring).

    Attributes:
        nodes: the nodes; a node's position is its index.
        index_of: node -> index.
        reprs: ``node_repr`` of each node, the arms' tiebreak strings.
        adj: ``adj[i]`` lists ``(j, weight)`` for each neighbour ``j`` of
            node ``i``.  Rows may be shared objects (all copies of one
            blown-up node have the same row).
        degrees: ``degrees[i]`` is ``sum`` of row ``i``'s weights.
    """

    __slots__ = ("nodes", "index_of", "reprs", "adj", "degrees", "_matrix")

    def __init__(self, nodes: List[Node], adj: Sequence[Row], degrees: Sequence[float]) -> None:
        self.nodes = nodes
        self.index_of: Dict[Node, int] = {u: i for i, u in enumerate(nodes)}
        self.reprs = [node_repr(u) for u in nodes]
        self.adj = adj
        self.degrees = degrees
        self._matrix: Optional[object] = None

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "IndexedGraph":
        """Snapshot ``graph``: insertion-order nodes, adjacency-row order rows."""
        nodes = list(graph.nodes)
        index_of = {u: i for i, u in enumerate(nodes)}
        adj = [
            [(index_of[v], w) for v, w in graph.neighbors(u).items()] for u in nodes
        ]
        return cls(nodes, adj, [sum(w for _, w in row) for row in adj])

    def __len__(self) -> int:
        return len(self.nodes)

    def matrix(self):
        """The symmetric weighted adjacency as a CSR matrix, columns ascending.

        Built on first call and kept: the Lovász and spectral arms share it.
        """
        if self._matrix is None:
            from scipy.sparse import csr_matrix

            n = len(self.nodes)
            lengths = np.fromiter((len(row) for row in self.adj), dtype=np.int64, count=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            nnz = int(indptr[-1])
            cols = np.fromiter((j for row in self.adj for j, _ in row), dtype=np.int64, count=nnz)
            vals = np.fromiter((w for row in self.adj for _, w in row), dtype=float, count=nnz)
            order = np.lexsort((cols, np.repeat(np.arange(n), lengths)))
            self._matrix = csr_matrix((vals[order], cols[order], indptr), shape=(n, n))
        return self._matrix

    def induced_weight(self, nodes: Iterable[Node]) -> float:
        """Total edge weight induced by ``nodes``.

        Walks ``set(nodes)`` and each member's row in the order
        :meth:`WeightedGraph.induced_weight` does, so the sum is the same
        float.
        """
        index_of = self.index_of
        members = [index_of[u] for u in set(nodes)]
        inside = bytearray(len(self.nodes))
        for i in members:
            inside[i] = 1
        adj = self.adj
        total = 0.0
        for i in members:
            for j, w in adj[i]:
                if inside[j]:
                    total += w
        return total / 2.0
