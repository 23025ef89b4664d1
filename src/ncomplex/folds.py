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
    result_vertices: tuple  # original ids of the residual, ascending


def _find_fold_in(adj, order):
    for u in order:
        nu = adj[u]
        for v in order:
            if v != u and nu <= adj[v]:
                return (u, v)
    return None


def find_fold(G):
    """Lexicographically smallest (u, v) with N(u) a subset of N(v), or None."""
    return _find_fold_in(G.adjacency, range(G.n))


def is_stiff(G):
    return find_fold(G) is None


def fold_reduction(G):
    """Fold greedily until stiff, always taking the smallest fold pair."""
    adj = {v: set(nbrs) for v, nbrs in enumerate(G.adjacency)}
    alive = list(range(G.n))
    steps = []
    while True:
        pair = _find_fold_in(adj, alive)
        if pair is None:
            break
        u, v = pair
        steps.append((u, v))
        for w in adj[u]:
            adj[w].discard(u)
        del adj[u]
        alive.remove(u)
    return FoldTrace(tuple(steps), induced_subgraph(G, alive), tuple(alive))


def folds_onto_clique(G, p):
    """The greedy FoldTrace if G folds onto a complete graph on p vertices,
    else None. A complete graph is stiff, so a fold sequence that reaches one
    ends there, and every residual is isomorphic to the greedy one."""
    if p < 1:
        raise ValueError("target clique size must be positive")
    trace = fold_reduction(G)
    return trace if trace.result.n == p and trace.result.is_complete() else None
