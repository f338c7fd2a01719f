"""Section 4.2 refinements: two rings, trees, and arbitrary graphs.

These are thin instantiations of the generic RB construction over the
Figure 2 topologies:

* :func:`make_rb_two_ring` -- Figure 2(b), two rings intersecting in a
  shared prefix; process 0 checks both ring tails (N1, N2) before T1,
  T3 runs at both tails, T4 at every other process against all its
  successors (items 1-4 of Section 4.2);
* :func:`make_rb_tree` -- Figure 2(c), a k-ary tree with all leaves
  (conceptually) connected back to the root, giving ``O(h)`` barrier
  latency;
* :func:`make_rb_for_graph` -- the closing remark of Section 4.2: embed
  a (BFS) spanning tree into any connected graph and run the tree
  refinement on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.barrier.rb import make_rb
from repro.gc.program import Program
from repro.topology.embedding import spanning_tree_topology
from repro.topology.graphs import kary_tree, two_ring

if TYPE_CHECKING:
    import networkx as nx


def make_rb_two_ring(
    branch_a: int,
    branch_b: int,
    shared: int = 1,
    nphases: int = 2,
    k: int | None = None,
) -> Program:
    """Program RB' on the Figure 2(b) two-ring topology."""
    return make_rb(topology=two_ring(branch_a, branch_b, shared), nphases=nphases, k=k)


def make_rb_tree(
    nprocs: int,
    arity: int = 2,
    nphases: int = 2,
    k: int | None = None,
) -> Program:
    """Program RB on the Figure 2(c) tree topology."""
    return make_rb(topology=kary_tree(nprocs, arity), nphases=nphases, k=k)


def make_rb_for_graph(
    graph: nx.Graph,
    root: Hashable = 0,
    nphases: int = 2,
    k: int | None = None,
) -> tuple[Program, dict[int, Hashable]]:
    """Program RB on a spanning tree embedded in an arbitrary connected
    graph; returns the program and the pid -> original-node mapping."""
    topology, mapping = spanning_tree_topology(graph, root)
    return make_rb(topology=topology, nphases=nphases, k=k), mapping
