"""The three workloads: how each builds its inputs from the seed, runs one
pass through the library's public entry points, and checks what came out.

A pass repeats the same operations on the same inputs every time, so pass
times can be compared within a run and outputs must be byte-identical
between passes. The checks lean on references of the benchmark's own (the
paper's table, a rational-rank recomputation, exhaustive separator search,
a greedy colouring) rather than on recorded output.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations
from time import perf_counter

from tracing import Recorder

# Reduced Betti numbers of queen-board neighbourhood complexes for k = 0..3,
# all torsion-free, as the paper tabulates them.
PAPER_QUEEN_TABLE = {
    (2, 2): (0, 0, 1, 0), (2, 3): (0, 0, 1, 0), (2, 4): (0, 0, 1, 0),
    (2, 5): (0, 0, 0, 3), (2, 6): (0, 0, 0, 1), (2, 7): (0, 0, 0, 1),
    (2, 8): (0, 0, 0, 1), (2, 9): (0, 0, 0, 1), (2, 10): (0, 0, 0, 1),
    (3, 3): (0, 0, 0, 3), (3, 4): (0, 0, 0, 5), (3, 5): (0, 0, 0, 11),
    (3, 6): (0, 0, 0, 8), (3, 7): (0, 0, 0, 5), (3, 8): (0, 0, 0, 3),
    (4, 2): (0, 0, 1, 0), (4, 4): (0, 0, 0, 5), (4, 5): (0, 0, 0, 9),
    (4, 6): (0, 0, 0, 4),
}


class Outcome:
    """What one pass produced: each operation's output and time, how many
    operations raised or exited non-zero, and the instances they completed."""

    def __init__(self):
        self.outputs = []
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.instances = 0

    def attempt(self, operation):
        self.attempted += 1
        start = perf_counter()
        try:
            output = operation()
        except Exception as exc:  # a failed operation is counted, not fatal
            output = exc
            self.failed += 1
        self.times.append(perf_counter() - start)
        self.outputs.append(output)
        return None if isinstance(output, Exception) else output


def _serialised(outcome):
    return [o.to_json() if hasattr(o, "to_json") else repr(o) for o in outcome.outputs]


# ---------------------------------------------------------------------------
# queen-table: a few large boundary matrices, Smith reduction dominates
# ---------------------------------------------------------------------------

class QueenTable:
    name = "queen-table"
    modules = ("ncomplex", "ncomplex.verify")

    def generate(self, seed, workdir):
        # the 19 reference cells are fixed; the seed plays no part
        from ncomplex import queen_graph
        return {cell: queen_graph(*cell) for cell in sorted(PAPER_QUEEN_TABLE)}

    def run_pass(self, inputs):
        from ncomplex.verify import run_verifier
        outcome = Outcome()
        report = outcome.attempt(lambda: run_verifier("queen-table"))
        if report is not None:
            outcome.instances += report.instances_checked + len(report.skipped)
        return outcome

    def check(self, inputs, outcomes):
        from ncomplex import neighborhood_complex, reduced_homology
        from ncomplex.verify import QUEEN_HOMOLOGY_TABLE
        errors = []
        if QUEEN_HOMOLOGY_TABLE != PAPER_QUEEN_TABLE:
            errors.append("library reference table differs from the paper's")
        for outcome in outcomes:
            for report in outcome.outputs:
                if isinstance(report, Exception):
                    continue
                # a pass compares each cell's Smith groups, torsion included,
                # with [[betti, []], ...] from the library table checked above
                if not report.passed or report.skipped:
                    errors.append(f"queen-table report: {report.to_json()[:300]}")
                if report.instances_checked != len(PAPER_QUEEN_TABLE):
                    errors.append(f"queen-table checked {report.instances_checked} cells")
        errors += _identical_passes(outcomes)
        for cell, G in inputs.items():
            rank = reduced_homology(neighborhood_complex(G), 3, method="rank")
            betti = tuple(g.betti for g in rank.groups)
            if betti != PAPER_QUEEN_TABLE[cell]:
                errors.append(f"queen {cell}: rational-rank Betti {betti}")
            if betti[0] or betti[1]:
                errors.append(f"queen {cell}: not simply connected")
        return errors


# ---------------------------------------------------------------------------
# corpus: the other eight verifiers, many small matrices and flows
# ---------------------------------------------------------------------------

FIXED = ("counterexample", "queen-king", "cut-complete", "cut-bounds")
# The Mycielskian check reduces N(M(G)) through degree 4 for twenty random G.
# Its time and memory follow a few large complexes: one verifier seed can
# cost 2.5 times another and raise peak memory by half. So it runs on fixed
# verifier seeds (with disjoint graphs), like the fixed verifiers.
MYCIELSKI_SEEDS = (1, 21)
MYCIELSKI_COUNT = 20
# The chordal verifiers' work varies by 15 to 20% from one verifier seed to
# the next. Two fixed verifier seeds (with disjoint corpora) keep the pass
# steady; one more, drawn from --seed, runs every change on fresh inputs.
CHORDAL = {"lovasz-bound": 100, "chordal-main": 100, "chordal-connected": 24}
CHORDAL_SEEDS = (1, 101)


class Corpus:
    name = "corpus"
    modules = ("ncomplex", "ncomplex.verify")

    def generate(self, seed, workdir):
        """Verifier calls (id, seed, count) and the number of instances the
        corpus builders generate for each. The calls whose inputs change
        with --seed come first, after the fixed verifiers and Mycielskian."""
        from ncomplex import king_graph, queen_graph
        from ncomplex import verify
        boards = [gen(m, n) for gen in (queen_graph, king_graph)
                  for m in range(2, 5) for n in range(2, 5)]
        calls = [(which, 1, 100) for which in FIXED]
        expected = [1, len(boards), len(verify.default_clique_cut_instances()),
                    len(verify.default_cut_bound_instances())]
        for m in MYCIELSKI_SEEDS:
            graphs = verify.random_graphs(MYCIELSKI_COUNT, 8, m, connected=True)
            calls.append(("mycielskian", m, MYCIELSKI_COUNT))
            expected.append(5 + len(graphs))  # after K2, K3, C4, C5 and P4
        drawn = random.Random(seed).randrange(1000, 10**9)
        for s in (drawn, *CHORDAL_SEEDS):
            chordal = verify.random_chordal_corpus(CHORDAL["chordal-main"], s)
            calls += [(which, s, count) for which, count in CHORDAL.items()]
            expected += [len(chordal) + 3, len(chordal), CHORDAL["chordal-connected"]]
        return {"calls": calls, "expected": expected}

    def run_pass(self, inputs):
        from ncomplex.verify import run_verifier
        outcome = Outcome()
        for which, s, count in inputs["calls"]:
            report = outcome.attempt(
                lambda: run_verifier(which, seed=s, count=count))
            if report is not None:
                outcome.instances += report.instances_checked + len(report.skipped)
        return outcome

    def check(self, inputs, outcomes):
        errors = []
        for outcome in outcomes:
            for (which, s, _), want, report in zip(
                    inputs["calls"], inputs["expected"], outcome.outputs):
                if isinstance(report, Exception):
                    continue
                if not report.passed:
                    errors.append(f"{which} seed {s}: {report.to_json()[:300]}")
                got = report.instances_checked + len(report.skipped)
                if got != want:
                    errors.append(f"{which} seed {s}: {got} instances, generated {want}")
        errors += _identical_passes(outcomes)
        errors += self._check_homology(inputs, outcomes)
        return errors

    def _check_homology(self, inputs, outcomes):
        """The calls up to those of the drawn verifier seed once more,
        untimed, recording every complex they reduce. The rational-rank
        route reduces each again: its Betti numbers must match what the
        Smith route gave, and where the whole complex is reduced they must
        satisfy the Euler identity."""
        from ncomplex import reduced_homology
        calls = inputs["calls"][:len(FIXED) + len(MYCIELSKI_SEEDS) + len(CHORDAL)]
        full = Recorder("homology", "reduced_homology")
        scans = Recorder("homology", "connectivity_of_complex")
        try:
            extra = self.run_pass({"calls": calls})
        finally:
            scans.close()
            full.close()
        errors = []
        if _serialised(extra) != _serialised(outcomes[0])[:len(calls)]:
            errors.append("outputs differ between passes")
        rank = {}

        def betti(X, degree):
            if (X, degree) not in rank:
                report = reduced_homology(X, degree, method="rank")
                rank[(X, degree)] = [g.betti for g in report.groups]
                errors.extend(_euler(X, report))
            return rank[(X, degree)]

        for args, report in full.calls:
            X = args["X"]
            if [g.betti for g in report.groups] != betti(X, args["max_dim"]):
                errors.append(f"Smith and rational rank disagree on {X!r}")
        for args, bound in scans.calls:
            X, cap = args["X"], args["dim_cap"]
            if bound.value == -2:
                if X.vertices:
                    errors.append(f"connectivity -2 for {X!r}, which has vertices")
                continue
            first = bound.value + 1 if bound.exact else cap + 1
            b = betti(X, cap)
            if any(b[:first]):
                errors.append(f"scan of {X!r} ran past nonzero homology")
            # a scan that stops where the Betti number is 0 saw torsion there
            if bound.exact and not b[first] and \
                    not reduced_homology(X, first).group(first).torsion:
                errors.append(f"scan of {X!r} stopped at zero homology")
        if not rank:
            errors.append("no complex was reduced in the check pass")
        return errors


def _euler(X, report):
    """Where the whole complex is reduced, the reduced Euler characteristic
    (the empty face counted) equals the alternating sum of Betti numbers."""
    if X.is_void or not X.vertices or report.max_dim < X.dim:
        return []
    faces = -1 + sum((-1) ** k * X.face_count(k) for k in range(X.dim + 1))
    betti = sum((-1) ** g.dim * g.betti for g in report.groups)
    return [] if faces == betti else [f"Euler identity fails on {X!r}"]


# ---------------------------------------------------------------------------
# analyze: graph invariants through the command line, no complexes
# ---------------------------------------------------------------------------

CHORDAL_SIZES = range(6, 21)    # five graphs of each size
RANDOM_SIZES = range(4, 17)     # eight connected graphs of each size
BOARD_SIDES = range(2, 6)       # queen and king boards m x n, m <= n <= 5
MYCIELSKI_CYCLES = range(3, 14)
EXHAUSTIVE_MAX_N = 12


def _chordal_of_size(n, rng):
    """The first n vertices of twelve glued cliques: every glued clique
    meets earlier vertices, so any prefix is a connected chordal graph."""
    from ncomplex import induced_subgraph, random_chordal_graph
    while True:
        g, _ = random_chordal_graph(12, (3, 6), 1, rng.randrange(2**31))
        if g.n >= n:
            return induced_subgraph(g, range(n))


def _connected_of_size(n, rng):
    from ncomplex.verify import random_graphs
    return random_graphs(1, n, rng.randrange(2**31), connected=True, min_n=n)[0][1]


class Analyze:
    name = "analyze"
    modules = ("ncomplex", "ncomplex.cli")

    def generate(self, seed, workdir):
        from ncomplex import cycle_graph, king_graph, mycielskian, queen_graph
        rng = random.Random(seed)
        graphs = []
        for _ in range(5):
            graphs += [("chordal", _chordal_of_size(n, rng)) for n in CHORDAL_SIZES]
        for _ in range(8):
            graphs += [("random", _connected_of_size(n, rng)) for n in RANDOM_SIZES]
        graphs += [("board", gen(m, n)) for gen in (queen_graph, king_graph)
                   for m in BOARD_SIDES for n in BOARD_SIDES if m <= n]
        graphs += [("mycielskian", mycielskian(cycle_graph(k))) for k in MYCIELSKI_CYCLES]
        rng.shuffle(graphs)
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for i, (kind, G) in enumerate(graphs):
            path = workdir / f"graph-{i:03d}.json"
            text = G.to_json()
            # overwriting 210 files took from 9 to 156 ms here, more than the
            # rest of set-up, so a file is written only when it changes
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                path.write_text(text, encoding="utf-8")
            inputs.append((kind, G, str(path)))
        return inputs

    def run_pass(self, inputs):
        from ncomplex.cli import main
        outcome = Outcome()
        for _, _, path in inputs:
            buf = io.StringIO()

            def analyze():
                with contextlib.redirect_stdout(buf):
                    code = main(["analyze", path])
                if code != 0:
                    raise RuntimeError(f"analyze {path} exited {code}")
                return buf.getvalue()
            if outcome.attempt(analyze) is not None:
                outcome.instances += 1
        return outcome

    def check(self, inputs, outcomes):
        errors = _identical_passes(outcomes)
        for (kind, G, path), text in zip(inputs, outcomes[0].outputs):
            if isinstance(text, Exception):
                continue
            errors += [f"{path} ({kind}): {e}" for e in _check_summary(kind, G, json.loads(text))]
        return errors


def _components(n, adj, removed):
    seen = set(removed)
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _greedy_colours(n, adj):
    colour = {}
    for v in sorted(range(n), key=lambda v: (-len(adj[v]), v)):
        taken = {colour[w] for w in adj[v] if w in colour}
        colour[v] = next(c for c in range(n) if c not in taken)
    assert all(colour[u] != colour[v] for u in range(n) for v in adj[u])
    return max(colour.values()) + 1 if n else 0


def _check_summary(kind, G, s):
    errors = []
    n = G.n
    adj = [set() for _ in range(n)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    if (s["n"], s["edge_count"]) != (n, len(G.edges)):
        errors.append("size does not match the input")
    kappa, cut = s["kappa"], s["witness_cut"]
    complete = len(G.edges) == n * (n - 1) // 2
    if complete:
        if kappa != n - 1:
            errors.append(f"complete graph with kappa {kappa}")
    else:
        if cut is None or len(cut) != kappa or _components(n, adj, cut) < 2:
            errors.append(f"witness cut {cut} does not certify kappa {kappa}")
        if n <= EXHAUSTIVE_MAX_N:
            for size in range(kappa):
                if any(_components(n, adj, sub) != 1
                       for sub in combinations(range(n), size)):
                    errors.append(f"a separator smaller than kappa {kappa} exists")
                    break
    omega, chi = s["max_clique_size"], s["chromatic_number"]
    if isinstance(chi, int):
        if not omega <= chi <= _greedy_colours(n, adj):
            errors.append(f"chromatic number {chi} outside [{omega}, greedy]")
        if (s["chordal"] or s["weakly_triangulated"] is True) and chi != omega:
            errors.append("perfect graph with chromatic number above clique size")
    if s["chordal"] and s["weakly_triangulated"] is False:
        errors.append("chordal but not weakly triangulated")
    if kind == "chordal" and not s["chordal"]:
        errors.append("glued cliques reported non-chordal")
    if s["stiff"] != (s["fold_steps"] == 0):
        errors.append("stiff disagrees with the fold count")
    return errors


def _identical_passes(outcomes):
    first = _serialised(outcomes[0])
    if any(_serialised(o) != first for o in outcomes[1:]):
        return ["outputs differ between passes"]
    return []


WORKLOADS = {w.name: w for w in (QueenTable(), Corpus(), Analyze())}
