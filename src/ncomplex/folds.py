"""Folds: removing a vertex whose neighborhood another vertex dominates.

Folding preserves the homotopy type of the neighborhood complex, so all
consumers downstream compare homology of the reduced graph, never its shape.

Every fold sequence ends at the same stiff graph up to isomorphism
(Brightwell & Winkler 2000, "Gibbs measures and dismantlable graphs"): if u
and u' can both be folded, each can still be folded after the other goes,
unless N(u) = N(u'), when G-u and G-u' are isomorphic; induction on |V|
does the rest. So the greedy residual decides what G folds onto.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, induced_subgraph


@dataclass(frozen=True)
class FoldTrace:
    steps: tuple          # (removed, dominator) pairs, original vertex ids
    result: Graph         # re-indexed stiff residual


def fold_reduction(G):
    """Fold greedily until stiff, always taking the lexicographically
    smallest pair (u, v), u != v, with N(u) a subset of N(v)."""
    adj = {v: set(nbrs) for v, nbrs in enumerate(G.adjacency)}
    steps = []

    def smallest_fold():
        for u, nu in adj.items():
            for v in adj:
                if v != u and nu <= adj[v]:
                    return u, v
        return None

    while pair := smallest_fold():
        steps.append(pair)
        u = pair[0]
        for w in adj.pop(u):
            adj[w].discard(u)
    return FoldTrace(tuple(steps), induced_subgraph(G, adj.keys()))


def folds_onto_clique(G, p):
    """The greedy FoldTrace if G folds onto a complete graph on p vertices,
    else None. A complete graph is stiff, so a fold sequence that reaches one
    ends there, and every residual is isomorphic to the greedy one."""
    if p < 1:
        raise ValueError("target clique size must be positive")
    trace = fold_reduction(G)
    return trace if trace.result.n == p and trace.result.is_complete() else None
