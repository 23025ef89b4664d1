"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line. Expected values are exact integers throughout; no
tolerances apply anywhere.
"""
import time

from ncomplex.complexes import certify_connectivity, neighborhood_complex
from ncomplex.connectivity import vertex_connectivity
from ncomplex.chordal import is_chordal
from ncomplex.folds import fold_reduction, is_stiff
from ncomplex.graph import (
    complete_graph,
    cycle_graph,
    king_graph,
    mycielskian,
    path_graph,
    queen_graph,
)
from ncomplex.homology import reduced_homology
from ncomplex.verify import (
    QUEEN_HOMOLOGY_TABLE,
    board_removal_order,
    counterexample_graph,
    random_chordal_corpus,
    verify_lovasz_bound,
    verify_stiff_chordal,
)

from conftest import brute_force_kappa, naive_chordal, reversed_labels, seeded_graphs


def report_line(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def groups_of(X, max_dim, method="smith"):
    rep = reduced_homology(X, max_dim, method=method)
    return [(g.betti, g.torsion) for g in rep.groups]


def test_acceptance_queen_homology_table():
    """Every reference cell matches: Betti numbers exact, no torsion."""
    t0 = time.time()
    failures = []
    for (m, n), betti in sorted(QUEEN_HOMOLOGY_TABLE.items()):
        X = neighborhood_complex(queen_graph(m, n))
        got = groups_of(X, 3)
        want = [(betti[k], ()) for k in range(4)]
        if got != want:
            failures.append(((m, n), want, got))
    detail = f"(19 cells, {time.time() - t0:.1f}s)"
    report_line("queen-homology-table", not failures, detail)
    assert not failures, failures


def test_acceptance_counterexample_fixture():
    """kappa = 1 and the complex carries exactly three 2-spheres of homology."""
    G = counterexample_graph()
    kappa = vertex_connectivity(G).kappa
    got = groups_of(neighborhood_complex(G), 2)
    ok = kappa == 1 and got == [(0, ()), (0, ()), (3, ())]
    report_line("counterexample-fixture", ok)
    assert kappa == 1
    assert got == [(0, ()), (0, ()), (3, ())]


def test_acceptance_board_simple_connectivity():
    """Level-1 certificates for all queen and king boards up to 4x4."""
    failures = []
    for kind, gen in (("queen", queen_graph), ("king", king_graph)):
        for m in range(2, 5):
            for n in range(2, 5):
                G = gen(m, n)
                cert = certify_connectivity(G, board_removal_order(kind, m, n), 1)
                hom = groups_of(neighborhood_complex(G), 1)
                if not cert or hom != [(0, ()), (0, ())]:
                    failures.append((kind, m, n, cert, hom))
    report_line("board-simple-connectivity", not failures, "(18 boards)")
    assert not failures, failures


def test_acceptance_stiff_chordal_equivalence():
    """Complex connectivity is vertex connectivity minus one, on 100 seeded
    fold-reduced chordal graphs."""
    t0 = time.time()
    report = verify_stiff_chordal(count=100, seed=1)
    elapsed = time.time() - t0
    detail = f"(checked {report.instances_checked}, " \
             f"skipped {len(report.skipped)}, {elapsed:.1f}s)"
    report_line("stiff-chordal-equivalence", report.passed, detail)
    assert report.passed, report.failures
    assert report.instances_checked >= 50
    assert elapsed < 120


def test_acceptance_fold_invariance():
    """Folding changes neither the homology of the complex (dims <= 4) nor
    the outcome across two different fold orders, on 100 seeded graphs."""
    failures = []
    corpus = seeded_graphs(60, 14, seed=101, min_n=4, density=0.35)
    corpus += seeded_graphs(40, 10, seed=201, min_n=4, density=0.55)
    assert len(corpus) == 100
    for i, g in enumerate(corpus):
        low = fold_reduction(g)
        high = fold_reduction(reversed_labels(g))
        base = groups_of(neighborhood_complex(g), 4)
        a = groups_of(neighborhood_complex(low.result), 4)
        b = groups_of(neighborhood_complex(high.result), 4)
        if not (base == a == b):
            failures.append((i, base, a, b))
        if not (is_stiff(low.result) and is_stiff(high.result)):
            failures.append((i, "residual not stiff"))
    report_line("fold-invariance", not failures, "(100 graphs)")
    assert not failures, failures[:3]


def test_acceptance_mycielskian_shift():
    """H~_{k+1} of N(M(G)) equals H~_k of N(G) for k <= 3, and the
    construction raises vertex connectivity."""
    failures = []
    corpus = [complete_graph(2), complete_graph(3), cycle_graph(4),
              cycle_graph(5), path_graph(4)]
    corpus += seeded_graphs(20, 8, seed=301, min_n=2, density=0.5, connected=True)
    for i, g in enumerate(corpus):
        M = mycielskian(g)
        base = groups_of(neighborhood_complex(g), 3)
        lifted = groups_of(neighborhood_complex(M), 4)
        if lifted[1:] != base:
            failures.append((i, base, lifted))
        if not vertex_connectivity(M).kappa > vertex_connectivity(g).kappa:
            failures.append((i, "connectivity did not grow"))
    report_line("mycielskian-shift", not failures, f"({len(corpus)} graphs)")
    assert not failures, failures[:3]


def test_acceptance_lovasz_bound():
    """Chromatic number beats certified complex connectivity plus three on
    the whole chordal corpus."""
    report = verify_lovasz_bound(count=100, seed=1)
    ok = report.passed and report.regime == "certified-topological"
    report_line("lovasz-bound", ok, f"(checked {report.instances_checked})")
    assert report.passed, report.failures
    assert report.regime == "certified-topological"
    assert report.instances_checked >= 100


def test_acceptance_oracle_equivalences():
    """Independent oracles agree: lex-BFS chordality vs naive elimination,
    flow connectivity vs exhaustive separators, Smith vs rational-rank
    Betti numbers."""
    chordal_corpus = seeded_graphs(250, 9, seed=401, min_n=1, density=0.35)
    chordal_corpus += seeded_graphs(250, 9, seed=701, min_n=1, density=0.6)
    chordal_bad = [g for g in chordal_corpus if is_chordal(g).chordal != naive_chordal(g)]

    kappa_corpus = seeded_graphs(200, 12, seed=501, min_n=2, density=0.4)
    kappa_bad = [g for g in kappa_corpus
                 if vertex_connectivity(g).kappa != brute_force_kappa(g)]

    betti_bad = []
    complexes = [neighborhood_complex(queen_graph(m, n))
                 for (m, n) in sorted(QUEEN_HOMOLOGY_TABLE)]
    complexes += [neighborhood_complex(g) for g in seeded_graphs(30, 9, seed=601)]
    complexes += [neighborhood_complex(g)
                  for _, g, _ in random_chordal_corpus(30, seed=801)]
    complexes.append(neighborhood_complex(counterexample_graph()))
    for i, X in enumerate(complexes):
        smith = [b for b, _ in groups_of(X, 3)]
        if smith != [b for b, _ in groups_of(X, 3, method="rank")]:
            betti_bad.append(i)

    ok = not (chordal_bad or kappa_bad or betti_bad)
    detail = (f"(chordal {len(chordal_corpus)}, kappa {len(kappa_corpus)}, "
              f"betti {len(complexes)})")
    report_line("oracle-equivalences", ok, detail)
    assert not chordal_bad
    assert not kappa_bad
    assert not betti_bad
