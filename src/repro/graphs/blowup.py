"""Blow-up (copy) graph used by ``A_H^QK`` to eliminate node costs.

Each node ``v`` of integer cost ``c(v) >= 1`` is replaced by ``c(v)`` unit
copies; each edge ``{u, v}`` of weight ``w`` becomes ``c(u) * c(v)`` copy
edges of weight ``w / (c(u) * c(v))``, so the total weight carried between
the copy groups equals ``w``.  A cost budget ``B`` on the original graph then
becomes a plain cardinality bound ``k = B`` on copies — the HkS form.

Copies are addressed as ``(original_node, index)`` pairs.  The blow-up is
emitted directly as the :class:`~repro.graphs.indexed.IndexedGraph` the HkS
arms read: every copy of a node has the same neighbour row (for each
incident original edge, in ``original.edges()`` order, the other
endpoint's copies in copy order), so each row and its weighted degree are
built once per copy group and shared across the group.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graphs.graph import Node, WeightedGraph
from repro.graphs.indexed import IndexedGraph, Row

Copy = Tuple[Node, int]


class BlowupGraph:
    """The blown-up unit-cost graph, with bookkeeping back to the original.

    Attributes:
        graph: the blown-up graph's :class:`IndexedGraph` snapshot (nodes:
            each original node, in insertion order, as its copies
            ``(node, 0)`` .. ``(node, c - 1)``).
        copies: mapping original node -> list of its copy nodes.
    """

    def __init__(self, original: WeightedGraph) -> None:
        self.original = original
        self.copies: Dict[Node, List[Copy]] = {}
        nodes: List[Copy] = []
        first: Dict[Node, int] = {}
        for node in original.nodes:
            cost = original.cost(node)
            int_cost = int(round(cost))
            if int_cost != cost or int_cost < 1:
                raise ValueError(
                    f"blow-up requires integer node costs >= 1, got {cost!r} for {node!r}"
                )
            node_copies = [(node, i) for i in range(int_cost)]
            self.copies[node] = node_copies
            first[node] = len(nodes)
            nodes.extend(node_copies)

        rows: Dict[Node, Row] = {node: [] for node in first}
        for u, v, w in original.edges():
            cu = len(self.copies[u])
            cv = len(self.copies[v])
            per_copy = w / (cu * cv)
            rows[u].extend([(j, per_copy) for j in range(first[v], first[v] + cv)])
            rows[v].extend([(j, per_copy) for j in range(first[u], first[u] + cu)])

        adj: List[Row] = []
        degrees: List[float] = []
        for node, row in rows.items():
            degree = sum(w for _, w in row)
            count = len(self.copies[node])
            adj.extend([row] * count)
            degrees.extend([degree] * count)
        self.graph = IndexedGraph(nodes, adj, degrees)

    def original_node(self, copy: Copy) -> Node:
        """The original node a copy belongs to."""
        return copy[0]

    def num_copies(self, node: Node) -> int:
        """Number of unit copies of ``node`` (its integer cost)."""
        return len(self.copies[node])

    def group_selection(self, selected_copies) -> Dict[Node, int]:
        """Count how many copies of each original node ``selected_copies`` holds."""
        counts: Dict[Node, int] = {}
        for copy in selected_copies:
            node = copy[0]
            counts[node] = counts.get(node, 0) + 1
        return counts

    def size(self) -> int:
        """Total number of copies in the blown-up graph."""
        return len(self.graph)


def blow_up(graph: WeightedGraph) -> BlowupGraph:
    """Convenience constructor for :class:`BlowupGraph`."""
    return BlowupGraph(graph)


def total_integer_cost(graph: WeightedGraph) -> int:
    """Sum of (integer) node costs — the size of the blow-up graph."""
    return int(sum(graph.cost(v) for v in graph.nodes))
