"""Executable verifiers: each one checks a structural claim about
neighborhood complexes over fixed fixtures or seeded corpora and emits a
deterministic report.

A pass means "checked N instances, found no counterexample", never a proof.
Reports carry a regime tag: `certified-topological` when the topological
connectivity values involved are pinned down exactly (complete graphs,
chordal graphs via their wedge-of-spheres complexes, or an explicit
extension-chain certificate), `homological-surrogate` when homological
connectivity stands in for the real thing. Surrogate checks are one-sided:
a pass is still conclusive whenever the surrogate bound is the stronger
claim, and anything else is reported as inconclusive rather than failed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations

from .chordal import (
    cut_apex_property,
    is_chordal,
    is_weakly_triangulated,
    maximal_cliques,
    simplicial_vertices,
)
from .complexes import certify_connectivity, neighborhood_complex
from .connectivity import vertex_connectivity
from .folds import fold_reduction, folds_onto_clique
from .graph import (
    Graph,
    canonical_json,
    chromatic_number,
    complement,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_connected,
    king_graph,
    mycielskian,
    path_graph,
    queen_graph,
    random_chordal_graph,
)
from .homology import ConnectivityBound, connectivity_of_complex, reduced_homology

CERTIFIED = "certified-topological"
SURROGATE = "homological-surrogate"


# ---------------------------------------------------------------------------
# fixtures and reference data
# ---------------------------------------------------------------------------

# 12-vertex graph: a K4 and a cube joined through one K4 vertex. Its cut
# vertex makes kappa = 1 while the neighborhood complex is simply connected
# with third homology of rank three spheres' worth in degree two.
COUNTEREXAMPLE_EDGES = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (4, 5), (4, 6), (5, 7), (6, 7),
    (8, 9), (8, 10), (9, 11), (10, 11),
    (4, 8), (5, 10), (6, 9), (7, 11),
    (1, 6), (1, 8),
)


def counterexample_graph():
    """1-connected graph whose neighborhood complex is simply connected."""
    return Graph(12, COUNTEREXAMPLE_EDGES)


# Expected reduced homology of queen-board neighborhood complexes for
# k = 0..3, as (betti, torsion) per degree. Independently recomputable with
# `reduced_homology(neighborhood_complex(queen_graph(m, n)), 3)`.
QUEEN_HOMOLOGY_TABLE = {
    (2, 2): (0, 0, 1, 0),
    (2, 3): (0, 0, 1, 0),
    (2, 4): (0, 0, 1, 0),
    (2, 5): (0, 0, 0, 3),
    (2, 6): (0, 0, 0, 1),
    (2, 7): (0, 0, 0, 1),
    (2, 8): (0, 0, 0, 1),
    (2, 9): (0, 0, 0, 1),
    (2, 10): (0, 0, 0, 1),
    (3, 3): (0, 0, 0, 3),
    (3, 4): (0, 0, 0, 5),
    (3, 5): (0, 0, 0, 11),
    (3, 6): (0, 0, 0, 8),
    (3, 7): (0, 0, 0, 5),
    (3, 8): (0, 0, 0, 3),
    (4, 2): (0, 0, 1, 0),
    (4, 4): (0, 0, 0, 5),
    (4, 5): (0, 0, 0, 9),
    (4, 6): (0, 0, 0, 4),
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    theorem_id: str
    instances_checked: int = 0
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    regime: str = CERTIFIED
    seed: int = 0
    # per-instance HomologyReports a verifier keeps for display; not serialised
    homology: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def passed(self):
        return not self.failures

    def add_failure(self, graph, expected, observed):
        record = {
            "graph": json.loads(graph.to_json()),
            "expected": expected,
            "observed": observed,
        }
        self.failures.append(record)

    def skip(self, description, reason):
        self.skipped.append({"instance": description, "reason": reason})

    def to_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "pass": self.passed,
            "instances_checked": self.instances_checked,
            "failures": self.failures,
            "skipped": self.skipped,
            "regime": self.regime,
            "seed": self.seed,
        }

    def to_json(self):
        return canonical_json(self.to_dict())


def group_data(report):
    """Homology report groups as JSON-ready [betti, [torsion...]] rows."""
    return [[g.betti, list(g.torsion)] for g in report.groups]


# ---------------------------------------------------------------------------
# corpus builders and order builders
# ---------------------------------------------------------------------------

def random_chordal_corpus(count, seed):
    """Seeded (seed, chordal graph) pairs: 2..6 glued cliques of size 3..6."""
    return [(s, random_chordal_graph(random.Random(s).randint(2, 6), (3, 6), 1, seed=s)[0])
            for s in range(seed, seed + count)]


def random_graphs(count, max_n, seed, connected=False, min_n=2):
    """Seeded Erdos-Renyi style graphs; optionally resampled until connected."""
    out = []
    for offset in range(count):
        base = seed + offset
        for attempt in range(200):
            rng = random.Random(base * 1009 + attempt)
            n = rng.randint(min_n, max_n)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            if not connected or is_connected(g):
                out.append((base, g))
                break
        else:
            raise RuntimeError("could not sample a connected graph")
    return out


def board_removal_order(m, n):
    """Vertex removal order that shrinks an m-by-n board to its 2-by-2 core,
    one added square at a time, last columns first, then extra rows; one
    order serves queen and king boards."""
    if m < 2 or n < 2:
        raise ValueError("boards need both sides at least 2")
    adds = []
    for p in range(3, m + 1):
        adds.extend([(p, 1), (p, 2)])
    for q in range(3, n + 1):
        adds.extend((i, q) for i in range(1, m + 1))
    return [(i - 1) * n + (j - 1) for i, j in reversed(adds)]


def chordal_shelling_order(G):
    """Simplicial-vertex removals down to a complete core, each the first
    simplicial vertex that some maximum clique avoids; None when stuck. The
    clique number stays omega(G) and kappa never drops below kappa(G):
    (a) removing a simplicial v from a non-complete graph never lowers
    kappa: N(v) is a clique, so it meets at most one component of G-v-S and
    every separator S of G-v still separates G; if G-v is complete,
    kappa(G) <= deg v <= |G|-2 = kappa(G-v). (b) omega(G-v) = omega(G)
    exactly when some maximum clique of G avoids v."""
    order = []
    alive = list(range(G.n))
    cur = G
    while not cur.is_complete():
        cliques = maximal_cliques(cur)
        w = max(len(c) for c in cliques)
        shared = frozenset.intersection(*(c for c in cliques if len(c) == w))
        v = next((v for v in simplicial_vertices(cur) if v not in shared), None)
        if v is None:
            return None
        order.append(alive.pop(v))
        cur = induced_subgraph(cur, [u for u in range(cur.n) if u != v])
    return order


def overlay_graphs(G1, G2, shared):
    """Union of two graphs identified along equal vertex indices.

    `shared` must index vertices present in both graphs, with identical
    induced edges; remaining G2 vertices are appended after G1's range.
    """
    shared = frozenset(shared)
    for v in shared:
        if v >= G1.n or v >= G2.n:
            raise ValueError("shared vertices must exist in both graphs")
    inside1 = {e for e in G1.edges if e[0] in shared and e[1] in shared}
    inside2 = {e for e in G2.edges if e[0] in shared and e[1] in shared}
    if inside1 != inside2:
        raise ValueError("graphs disagree on the shared subgraph")
    others = sorted(set(range(G2.n)) - shared)
    remap = {v: v for v in shared}
    for i, v in enumerate(others):
        remap[v] = G1.n + i
    edges = set(G1.edges)
    edges.update(tuple(sorted((remap[u], remap[v]))) for u, v in G2.edges)
    return Graph(G1.n + len(others), edges)


def _has_apex(G, shared):
    """Is some vertex outside `shared` adjacent to all of it?"""
    return any(v not in shared and shared <= G.adjacency[v] for v in range(G.n))


def _side_connectivity(G, dim_cap):
    """(connectivity bound, certified?) for a component graph's complex."""
    if G.is_complete():
        return ConnectivityBound(G.n - 3, True), True
    bound = connectivity_of_complex(neighborhood_complex(G), dim_cap)
    return bound, is_chordal(G).chordal


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_queen_table():
    """Reduced homology of queen-board complexes against the reference table."""
    report = VerificationReport("queen-table")
    for (m, n), want_betti in sorted(QUEEN_HOMOLOGY_TABLE.items()):
        G = queen_graph(m, n)
        hom = reduced_homology(neighborhood_complex(G), 3)
        report.homology[(m, n)] = hom
        want = [[b, []] for b in want_betti]
        got = group_data(hom)
        report.instances_checked += 1
        if got != want:
            report.add_failure(G, {"cell": [m, n], "groups": want},
                               {"cell": [m, n], "groups": got})
    return report


def verify_counterexample():
    """The 12-vertex fixture: kappa 1, complex homology of three 2-spheres."""
    report = VerificationReport("counterexample")
    G = counterexample_graph()
    cut = vertex_connectivity(G)
    hom = reduced_homology(neighborhood_complex(G), 2)
    expected = {"kappa": 1, "groups": [[0, []], [0, []], [3, []]]}
    observed = {"kappa": cut.kappa, "groups": group_data(hom)}
    report.instances_checked += 1
    if observed != expected:
        report.add_failure(G, expected, observed)
    return report


def verify_board_simple_connectivity():
    """Extension-chain certificates at level 1 for queen and king boards,
    cross-checked by homology vanishing through degree one."""
    report = VerificationReport("queen-king")
    for kind, gen in (("queen", queen_graph), ("king", king_graph)):
        for m in range(2, 5):
            for n in range(2, 5):
                G = gen(m, n)
                cert = certify_connectivity(G, board_removal_order(m, n), 1)
                bound = connectivity_of_complex(neighborhood_complex(G), 1)
                report.instances_checked += 1
                if not (cert and bound.value >= 1):
                    report.add_failure(
                        G,
                        {"board": [kind, m, n], "certificate": True, "vanishing_through": 1},
                        {"board": [kind, m, n], "certificate": cert,
                         "connectivity": bound.describe()})
    return report


def verify_mycielskian_shift(count=20, seed=1):
    """N(M(G)) looks like a suspension: homology shifts up one degree, and
    the construction strictly raises vertex connectivity."""
    report = VerificationReport("mycielskian", seed=seed)
    corpus = [complete_graph(2), complete_graph(3), cycle_graph(4),
              cycle_graph(5), path_graph(4)]
    corpus.extend(g for _, g in random_graphs(count, 8, seed, connected=True))
    for G in corpus:
        M = mycielskian(G)
        base = group_data(reduced_homology(neighborhood_complex(G), 3))
        shifted = group_data(reduced_homology(neighborhood_complex(M), 4))[1:]
        kappa_ok = vertex_connectivity(M).kappa > vertex_connectivity(G).kappa
        report.instances_checked += 1
        if not (base == shifted and kappa_ok):
            report.add_failure(G, {"shifted": base, "kappa_grows": True},
                               {"shifted": shifted, "kappa_grows": kappa_ok})
    return report


def _stiff_connectivity(residual):
    """(predicted, bound) for the stiff residual R of a chordal graph:
    conn N(R) is R.n - 3 when R is complete and kappa(R) - 1 otherwise, and
    the scan confirms it when bound == ConnectivityBound(predicted, True).
    Folds keep the homotopy type, so this is also conn N(G)."""
    if residual.is_complete():
        predicted = residual.n - 3
    else:
        predicted = vertex_connectivity(residual).kappa - 1
    # a single-vertex residual predicts -2 and passes the scan's least cap,
    # -1: the complex is just the empty face
    return predicted, connectivity_of_complex(neighborhood_complex(residual), predicted + 1)


def verify_lovasz_bound(count=100, seed=1):
    """Chromatic number at least complex connectivity plus three, on
    instances whose connectivity is certified."""
    report = VerificationReport("lovasz-bound", seed=seed)
    instances = [("chordal", g) for _, g in random_chordal_corpus(count, seed)]
    instances.extend(("queen", mn) for mn in [(2, 2), (2, 3), (3, 3)])
    for kind, item in instances:
        if kind == "chordal":
            G = item
            conn, bound = _stiff_connectivity(fold_reduction(G).result)
            if bound != ConnectivityBound(conn, True):
                report.add_failure(
                    G, {"confirmed_connectivity": True},
                    {"note": "homology disagrees with wedge prediction",
                     "predicted": conn})
                continue
        else:
            # simple connectivity certificate makes the homological value exact
            m, n = item
            G = queen_graph(m, n)
            if not certify_connectivity(G, board_removal_order(m, n), 1):
                report.skip(f"queen board {m}x{n}", "no simple-connectivity certificate")
                continue
            bound = connectivity_of_complex(neighborhood_complex(G), 4)
            if not bound.exact:
                report.skip(f"queen board {m}x{n}", "connectivity beyond scan cap")
                continue
            conn = bound.value
        chi = chromatic_number(G)
        report.instances_checked += 1
        if chi < conn + 3:
            report.add_failure(G, {"chi_at_least": conn + 3},
                               {"chi": chi, "connectivity": conn})
    return report


def verify_stiff_chordal(count=100, seed=1):
    """Fold-reduced chordal residuals: complex connectivity is exactly one
    less than vertex connectivity."""
    report = VerificationReport("chordal-main", seed=seed)
    for s, g in random_chordal_corpus(count, seed):
        residual = fold_reduction(g).result
        if residual.is_complete():
            report.skip(f"seed {s}", "residual is complete")
            continue
        predicted, bound = _stiff_connectivity(residual)
        report.instances_checked += 1
        if bound != ConnectivityBound(predicted, True):
            report.add_failure(residual, {"connectivity": predicted},
                               {"connectivity": bound.describe(), "kappa": predicted + 1})
    return report


def verify_chordal_fold_connectivity(count=24, seed=1):
    """Chordal graphs that do not fold onto the critical clique: the complex
    is n-connected both homologically and by certificate."""
    report = VerificationReport("chordal-connected", seed=seed)
    for offset in range(count):
        s = seed + offset
        g, _ = random_chordal_graph(3, (4, 5), 2, seed=s)
        kappa = vertex_connectivity(g).kappa
        n = kappa - 1
        if folds_onto_clique(g, n + 2) is not None:
            report.skip(f"seed {s}", f"folds onto clique of size {n + 2}: yes")
            continue
        order = chordal_shelling_order(g)
        cert = order is not None and certify_connectivity(g, order, n)
        bound = connectivity_of_complex(neighborhood_complex(g), n)
        homology_ok = bound.value >= n
        report.instances_checked += 1
        if not (cert and homology_ok):
            report.add_failure(
                g,
                {"certificate": True, "vanishing_through": n},
                {"certificate": cert, "connectivity": bound.describe()})
    return report


def default_clique_cut_instances():
    """Glued pairs (G1, G2, shared, n) for the clique-cut connectivity check."""
    out = []
    for n in (1, 2, 3):
        side = complete_graph(n + 2)
        out.append((side, side, frozenset(range(n)), n))
    # apex precondition violated: the second side carries the glue edge on a
    # square, so no vertex sees both glue endpoints
    bad = Graph(4, [(0, 1), (0, 2), (2, 3), (3, 1)])
    out.append((complete_graph(4), bad, frozenset({0, 1}), 2))
    return out


def verify_clique_cut(instances=None):
    """Gluing two pieces over a complete cut pins complex connectivity at
    one below the cut size."""
    report = VerificationReport("cut-complete")
    if instances is None:
        instances = default_clique_cut_instances()
    for G1, G2, shared, n in instances:
        label = f"glue n={n} sides {G1.n}+{G2.n}"
        if len(shared) != n:
            report.skip(label, "precondition failed: glue size differs from n")
            continue
        if not all(G1.has_edge(u, v) for u, v in combinations(sorted(shared), 2)):
            report.skip(label, "precondition failed: glue is not a clique")
            continue
        if not (_has_apex(G1, shared) and _has_apex(G2, shared)):
            report.skip(label, "precondition failed: missing apex adjacent to the glue")
            continue
        side_cap = max(n - 1, 0)
        if any(connectivity_of_complex(neighborhood_complex(side), side_cap).value < n - 1
               for side in (G1, G2)):
            report.skip(label, "precondition failed: side complex not (n-1)-connected")
            continue
        G = overlay_graphs(G1, G2, shared)
        bound = connectivity_of_complex(neighborhood_complex(G), n)
        report.instances_checked += 1
        if not is_chordal(G).chordal:
            report.regime = SURROGATE
        if not (bound.exact and bound.value == n - 1):
            report.add_failure(G, {"vanishing_below": n, "nonzero_at": n},
                               {"connectivity": bound.describe()})
    return report


def default_cut_bound_instances():
    """(G1, G2, shared, variant) for the two-block connectivity bounds."""
    k5 = complete_graph(5)
    k3 = complete_graph(3)
    # weakly triangulated: two nonadjacent hubs 0,1 over a K5 block
    hub_edges = list(combinations(range(2, 7), 2)) + [
        (h, v) for h in (0, 1) for v in range(2, 7)]
    hub_side = Graph(7, hub_edges)
    # chordal chain of two K5 blocks meeting in a K4
    chain_edges = (list(combinations([0, 1, 2, 3, 4], 2))
                   + list(combinations([4, 5, 6, 7, 8], 2)))
    chain_side = Graph(9, chain_edges)
    return [
        (k5, k5, frozenset({0, 1}), "i"),
        (k3, k3, frozenset(), "i"),
        (hub_side, hub_side, frozenset({0, 1}), "i"),
        (chain_side, chain_side, frozenset({0, 1, 2, 3}), "ii"),
    ]


def verify_cut_bounds(instances=None):
    """Two overlapping blocks with apexes bound the complex connectivity of
    the union in terms of the overlap size."""
    report = VerificationReport("cut-bounds")
    if instances is None:
        instances = default_cut_bound_instances()
    for G1, G2, shared, variant in instances:
        n = len(shared)
        label = f"variant {variant} overlap {n} sides {G1.n}+{G2.n}"
        if not (_has_apex(G1, shared) and _has_apex(G2, shared)):
            report.skip(label, "precondition failed: missing apex over the overlap")
            continue
        cap = max(n + 1, 1)
        b1, cert1 = _side_connectivity(G1, cap)
        b2, cert2 = _side_connectivity(G2, cap)
        if not (cert1 and cert2):
            report.skip(label, "side connectivity not certified")
            continue
        # for certified sides an inexact bound still means "at least cap"
        k = min(b1.value, b2.value)
        k_exact = b1.exact and b2.exact
        G = overlay_graphs(G1, G2, shared)
        union_certified = is_chordal(G).chordal
        # route through the weak-triangulation theorem where it applies: an
        # anticonnected minimal cut must see an apex in every component
        if shared and not union_certified:
            wt = is_weakly_triangulated(G)
            co_connected = is_connected(complement(induced_subgraph(G, sorted(shared))))
            if wt.holds and co_connected:
                kappa_report = vertex_connectivity(G)
                if kappa_report.kappa == n and not cut_apex_property(G, shared):
                    report.add_failure(
                        G, {"apex_in_every_component": True},
                        {"apex_in_every_component": False, "cut": sorted(shared)})
                    continue
        if variant == "i":
            if k < n:
                report.skip(label, "premise k >= |S| does not hold")
                continue
            allowance = 1
        else:
            if not k_exact:
                report.skip(label, "premise needs the exact minimum side connectivity")
                continue
            S_complex = neighborhood_complex(induced_subgraph(G, sorted(shared)))
            s_bound = connectivity_of_complex(S_complex, max(k + 1, 0))
            s_conn_high_enough = (not s_bound.exact) or s_bound.value >= k
            if not s_conn_high_enough:
                report.skip(label, "premise k <= conn(N(G[S])) does not hold")
                continue
            allowance = 3
        bound = connectivity_of_complex(neighborhood_complex(G), max(n - allowance + 1, 0))
        if not union_certified:
            report.regime = SURROGATE
        holds = bound.exact and n >= bound.value + allowance
        if not (holds or union_certified):
            report.skip(label, "surrogate-failure (inconclusive)")
            continue
        report.instances_checked += 1
        if not holds:
            report.add_failure(
                G,
                {"overlap_at_least": f"connectivity + {allowance}"},
                {"overlap": n, "connectivity": bound.describe()})
    return report


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

# id -> (run(seed=, count=), count cap). A verifier with a cap never checks
# more than that many seeded instances, whatever `count` asks.
VERIFIERS = {
    "queen-table": (lambda **_: verify_queen_table(), None),
    "counterexample": (lambda **_: verify_counterexample(), None),
    "queen-king": (lambda **_: verify_board_simple_connectivity(), None),
    "mycielskian": (lambda seed, count: verify_mycielskian_shift(count, seed), 20),
    "lovasz-bound": (lambda seed, count: verify_lovasz_bound(count, seed), None),
    "chordal-main": (lambda seed, count: verify_stiff_chordal(count, seed), None),
    "chordal-connected": (
        lambda seed, count: verify_chordal_fold_connectivity(count, seed), 24),
    "cut-complete": (lambda **_: verify_clique_cut(), None),
    "cut-bounds": (lambda **_: verify_cut_bounds(), None),
}

VERIFIER_IDS = tuple(VERIFIERS)

VERIFIER_ALIASES = {"table1": "queen-table"}


def run_verifier(which, seed=1, count=100):
    """Run one verifier by id; `seed` and `count` apply where meaningful."""
    which = VERIFIER_ALIASES.get(which, which)
    if which not in VERIFIERS:
        raise ValueError(f"unknown verifier {which!r}")
    if count < 0:
        raise ValueError(f"count must be non-negative, not {count}")
    run, cap = VERIFIERS[which]
    return run(seed=seed, count=count if cap is None else min(count, cap))
