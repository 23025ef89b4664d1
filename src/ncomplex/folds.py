"""Folds: removing a vertex whose neighborhood another vertex dominates.

Folding preserves the homotopy type of the neighborhood complex, so all
consumers downstream compare homology of the reduced graph, never its shape.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, induced_subgraph, is_complete_on, restricted_adjacency


@dataclass(frozen=True)
class FoldTrace:
    original: Graph
    steps: tuple          # (removed, dominator) pairs, original vertex ids
    result: Graph         # re-indexed stiff residual
    result_vertices: tuple  # original ids of the residual, ascending


@dataclass(frozen=True)
class FoldDecision:
    status: str           # "yes" | "no" | "unknown"
    trace: FoldTrace | None


def _find_fold_in(adj, order):
    for u in order:
        nu = adj[u]
        for v in order:
            if v != u and nu <= adj[v]:
                return (u, v)
    return None


def find_fold(G):
    """Lexicographically smallest (u, v) with N(u) a subset of N(v), or None."""
    return _find_fold_in(restricted_adjacency(G, frozenset(range(G.n))), range(G.n))


def is_stiff(G):
    return find_fold(G) is None


def fold_reduction(G):
    """Fold greedily until stiff, always taking the smallest fold pair."""
    adj = restricted_adjacency(G, frozenset(range(G.n)))
    alive = sorted(adj)
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
    return FoldTrace(G, tuple(steps), induced_subgraph(G, alive), tuple(alive))


# Largest graph on which every fold sequence is searched; the search is
# exponential in the vertex count.
FOLD_SEARCH_CAP = 12


def folds_onto_clique(G, p):
    """Can some fold sequence shrink G to a complete graph on p vertices?

    Greedy reduction is tried first (checking every intermediate state).
    When that misses and the graph fits under FOLD_SEARCH_CAP, all fold
    sequences are searched with memoization on the surviving vertex set;
    otherwise the answer is "unknown".
    """
    if p < 1:
        raise ValueError("target clique size must be positive")
    if p > G.n:
        return FoldDecision("no", None)
    greedy = fold_reduction(G)
    alive = set(range(G.n))
    prefix = []
    for step in (None,) + greedy.steps:
        if step is not None:
            prefix.append(step)
            alive.discard(step[0])
        if len(alive) == p and is_complete_on(restricted_adjacency(G, alive), alive):
            trace = FoldTrace(G, tuple(prefix),
                              induced_subgraph(G, sorted(alive)), tuple(sorted(alive)))
            return FoldDecision("yes", trace)
    if G.n > FOLD_SEARCH_CAP:
        return FoldDecision("unknown", None)

    memo = {}

    def search(alive):
        if alive in memo:
            return memo[alive]
        adj = restricted_adjacency(G, alive)
        if len(alive) == p:
            ans = [] if is_complete_on(adj, alive) else None
            memo[alive] = ans
            return ans
        if len(alive) < p:
            memo[alive] = None
            return None
        ans = None
        for u in sorted(alive):
            # the residual depends only on the removed vertex, so one
            # dominator per candidate removal suffices
            dom = next((v for v in sorted(alive) if v != u and adj[u] <= adj[v]), None)
            if dom is None:
                continue
            rest = search(alive - {u})
            if rest is not None:
                ans = [(u, dom)] + rest
                break
        memo[alive] = ans
        return ans

    steps = search(frozenset(range(G.n)))
    if steps is None:
        return FoldDecision("no", None)
    alive = set(range(G.n)) - {u for u, _ in steps}
    trace = FoldTrace(G, tuple(steps),
                      induced_subgraph(G, sorted(alive)), tuple(sorted(alive)))
    return FoldDecision("yes", trace)
