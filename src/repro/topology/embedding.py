"""Embedding the refinement into arbitrary connected graphs.

Section 4.2 closes with: "the topology in Figure 2(d) can be embedded in
any connected graph: embed a tree in that graph and use the same tree
twice".  We build a BFS spanning tree rooted at process 0 (BFS minimizes
the height ``h``, and the barrier latency is ``O(h)``), renumber the
processes so the tree is a valid :class:`~repro.topology.graphs.Topology`
(root must be process 0), and return both the topology and the mapping
back to the original graph nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.errors import TopologyError
from repro.topology.graphs import DoubleTree, Topology

if TYPE_CHECKING:
    import networkx as nx


def spanning_tree_topology(
    graph: nx.Graph, root: Hashable = 0
) -> tuple[Topology, dict[int, Hashable]]:
    """BFS spanning tree of ``graph`` rooted at ``root``.

    Returns ``(topology, pid_to_node)``: process ids 0..N-1 in BFS order
    (so every parent has a smaller pid than its children, which the
    :class:`Topology` validator exploits) and the mapping from pid back
    to the original node labels.
    """
    import networkx as nx

    if root not in graph:
        raise TopologyError(f"root {root!r} not in graph")
    if graph.number_of_nodes() < 2:
        raise TopologyError("graph needs at least 2 nodes")
    if not nx.is_connected(graph):
        raise TopologyError("graph must be connected")

    order: list[Hashable] = [root]
    pid_of: dict[Hashable, int] = {root: 0}
    parent: list[int] = [-1]
    for u, v in nx.bfs_edges(graph, root):
        pid_of[v] = len(order)
        order.append(v)
        parent.append(pid_of[u])
    topo = Topology(f"bfs-tree({graph.number_of_nodes()})", tuple(parent))
    return topo, dict(enumerate(order))


def embed_graph(
    graph: nx.Graph, root: Hashable = 0
) -> tuple[DoubleTree, dict[int, Hashable]]:
    """Embed the Figure 2(d) double tree into ``graph``.

    Per the paper's note, the same BFS spanning tree is used twice (once
    for detection, once for dissemination).
    """
    topo, mapping = spanning_tree_topology(graph, root)
    return DoubleTree(up=topo, down=topo), mapping
