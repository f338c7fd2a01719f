"""Topologies for the refined barrier programs (Figure 2 of the paper).

A :class:`~repro.topology.graphs.Topology` captures the *branching ring*
structure all Section 4 refinements share: every non-root process copies
the token from exactly one predecessor; the root (process 0) waits for a
set of *final* processes (ring: process N; tree: the leaves) before
creating the next token.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.topology.graphs import (
        Topology,
        double_tree,
        kary_tree,
        ring,
        two_ring,
    )
    from repro.topology.embedding import embed_graph, spanning_tree_topology

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "graphs": ("Topology", "double_tree", "kary_tree", "ring", "two_ring"),
        "embedding": ("embed_graph", "spanning_tree_topology"),
    },
)

__all__ = [
    "Topology",
    "ring",
    "two_ring",
    "kary_tree",
    "double_tree",
    "embed_graph",
    "spanning_tree_topology",
]
