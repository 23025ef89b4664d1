"""Command line front end.

Machine-readable output goes to stdout (or --output), diagnostics to stderr.
Exit codes: 0 success or verification pass, 1 verification failure, 2 usage
or parse errors. Identical inputs and seeds produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys

from .chordal import clique_number, is_chordal, is_weakly_triangulated
from .complexes import SimplicialComplex, neighborhood_complex
from .connectivity import vertex_connectivity
from .errors import CapExceededError
from .folds import fold_reduction
from .graph import (
    Graph,
    chromatic_number,
    complete_graph,
    cycle_graph,
    king_graph,
    mycielskian,
    path_graph,
    queen_graph,
    random_chordal_graph,
)
from .homology import reduced_homology
from .verify import VERIFIER_ALIASES, VERIFIER_IDS, VERIFIERS, run_verifier


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path):
    text = _read_text(path)
    head = text.lstrip()
    if head.startswith("{"):
        return Graph.from_json(text)
    return Graph.from_edge_list(text)


def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _homology_table(report):
    lines = ["k  | group", "---+------"]
    for g in report.groups:
        lines.append(f"{g.dim:<2} | {g.describe()}")
    return "\n".join(lines)


def _cmd_gen(args):
    if args.kind == "complete":
        g = complete_graph(args.p)
    elif args.kind == "cycle":
        g = cycle_graph(args.k)
    elif args.kind == "path":
        g = path_graph(args.k)
    elif args.kind == "queen":
        g = queen_graph(args.m, args.n)
    elif args.kind == "king":
        g = king_graph(args.m, args.n)
    elif args.kind == "mycielskian":
        g = mycielskian(_load_graph(args.input))
    else:
        g, _ = random_chordal_graph(
            args.cliques, (args.size_min, args.size_max), args.overlap_min, args.seed)
    _emit(g.to_json(), args.output)
    return 0


def _cmd_homology(args):
    if args.complex:
        X = SimplicialComplex.from_json(_read_text(args.input))
        source = args.input
    else:
        G = _load_graph(args.input)
        X = neighborhood_complex(G)
        source = args.input
    report = reduced_homology(X, args.max_dim, source=source)
    if args.format == "table":
        _emit(_homology_table(report), args.output)
    else:
        _emit(report.to_json(), args.output)
    return 0


def _capped(fn, G):
    try:
        return fn(G)
    except CapExceededError:
        return "skipped(cap)"


def _cmd_analyze(args):
    G = _load_graph(args.input)
    cut = vertex_connectivity(G)
    chord = is_chordal(G)
    trace = fold_reduction(G)
    summary = {
        "n": G.n,
        "edge_count": len(G.edges),
        "kappa": cut.kappa,
        "witness_cut": sorted(cut.witness_cut) if cut.witness_cut is not None else None,
        "chordal": chord.chordal,
        "stiff": not trace.steps,
        "fold_steps": len(trace.steps),
        "max_clique_size": clique_number(G),
    }
    wt = _capped(is_weakly_triangulated, G)
    summary["weakly_triangulated"] = wt if isinstance(wt, str) else wt.holds
    summary["chromatic_number"] = _capped(chromatic_number, G)
    _emit(json.dumps(summary, sort_keys=True, separators=(",", ":")), args.output)
    return 0


def _queen_grid(report):
    """The queen-table verifier's homology as a grid: rows k, columns (m,n)."""
    cells = sorted(report.homology)
    columns = {c: [g.describe() for g in report.homology[c].groups] for c in cells}
    width = max(6, max(len(v) for col in columns.values() for v in col) + 1)
    head = "k\\(m,n) " + " ".join(f"({m},{n})".rjust(width) for m, n in cells)
    lines = [head, "-" * len(head)]
    for k in range(4):
        row = f"{k:<8} " + " ".join(columns[c][k].rjust(width) for c in cells)
        lines.append(row)
    return "\n".join(lines)


def _cmd_verify(args):
    ids = list(VERIFIER_IDS) if args.which == "all" else [args.which]
    reports = []
    for which in ids:
        print(f"running {which} ...", file=sys.stderr)
        cap = VERIFIERS[VERIFIER_ALIASES.get(which, which)][1]
        if cap is not None and args.count > cap:
            print(f"note: {which} checks at most {cap} seeded instances, "
                  f"not --count {args.count}", file=sys.stderr)
        reports.append(run_verifier(which, seed=args.seed, count=args.count))
    if args.format == "table":
        lines = [_queen_grid(r) for r in reports if r.theorem_id == "queen-table"]
        for r in reports:
            lines.append(f"{r.theorem_id}: {'pass' if r.passed else 'FAIL'} "
                         f"(checked {r.instances_checked}, skipped {len(r.skipped)})")
        _emit("\n".join(lines), args.output)
    else:
        if len(reports) == 1:
            payload = reports[0].to_dict()
        else:
            payload = [r.to_dict() for r in reports]
        _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")), args.output)
    return 0 if all(r.passed for r in reports) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncomplex",
        description="Neighborhood complexes of graphs: generation, analysis, "
                    "exact homology, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph as canonical JSON")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    p = gen_sub.add_parser("complete")
    p.add_argument("p", type=int)
    for name in ("cycle", "path"):
        p = gen_sub.add_parser(name)
        p.add_argument("k", type=int)
    for name in ("queen", "king"):
        p = gen_sub.add_parser(name)
        p.add_argument("m", type=int)
        p.add_argument("n", type=int)
    p = gen_sub.add_parser("mycielskian")
    p.add_argument("input")
    p = gen_sub.add_parser("random-chordal")
    p.add_argument("--cliques", type=int, default=4)
    p.add_argument("--size-min", type=int, default=3)
    p.add_argument("--size-max", type=int, default=6)
    p.add_argument("--overlap-min", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    for p in gen_sub.choices.values():
        p.add_argument("--output", default=None)

    hom = sub.add_parser("homology", help="reduced homology of the neighborhood complex")
    hom.add_argument("input")
    hom.add_argument("--complex", action="store_true",
                     help="treat the input as a simplicial-complex JSON file")
    hom.add_argument("--max-dim", type=int, default=4)
    hom.add_argument("--format", choices=("json", "table"), default="json")
    hom.add_argument("--output", default=None)

    ana = sub.add_parser("analyze", help="summary of graph invariants")
    ana.add_argument("input")
    ana.add_argument("--output", default=None)

    ver = sub.add_parser("verify", help="run a verifier (or all of them)")
    ver.add_argument("which", choices=sorted(set(VERIFIER_IDS) | set(VERIFIER_ALIASES) | {"all"}))
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--count", type=int, default=100)
    ver.add_argument("--format", choices=("json", "table"), default="json")
    ver.add_argument("--output", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "homology": _cmd_homology,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, json.JSONDecodeError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
