"""Spans and counters recorded from outside the library.

The benchmark does not edit `ncomplex`: it swaps wrappers in for the public
functions of each module while a traced pass runs and puts the originals
back afterwards. A function imported elsewhere with `from .x import y` is a
second reference to the same object, so `patch` replaces every reference it
finds in the loaded `ncomplex` modules, not only the defining one.
"""
from __future__ import annotations

import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer group). Spans in one group are summed only where
# no enclosing span belongs to the same group, so nested calls are not
# counted twice.
LAYERS = (
    ("graph", "complete_graph", "graph.generate"),
    ("graph", "cycle_graph", "graph.generate"),
    ("graph", "path_graph", "graph.generate"),
    ("graph", "queen_graph", "graph.generate"),
    ("graph", "king_graph", "graph.generate"),
    ("graph", "mycielskian", "graph.generate"),
    ("graph", "random_chordal_graph", "graph.generate"),
    ("graph", "Graph.from_json", "graph.generate"),
    ("verify", "random_chordal_corpus", "graph.generate"),
    ("verify", "random_graphs", "graph.generate"),
    ("graph", "chromatic_number", "graph.chromatic"),
    ("connectivity", "vertex_connectivity", "connectivity.vertex_connectivity"),
    ("chordal", "is_weakly_triangulated", "chordal.weak_triangulation"),
    ("chordal", "is_chordal", "chordal.recognition"),
    ("chordal", "maximal_cliques", "chordal.recognition"),
    ("chordal", "simplicial_vertices", "chordal.recognition"),
    ("chordal", "cut_apex_property", "chordal.recognition"),
    ("folds", "fold_reduction", "folds.fold_reduction"),
    ("folds", "folds_onto_clique", "folds.folds_onto_clique"),
    ("complexes", "neighborhood_complex", "complexes.neighborhood_complex"),
    ("complexes", "certify_connectivity", "complexes.certify"),
    ("complexes", "SimplicialComplex.faces", "complexes.faces"),
    ("homology", "reduced_homology", "homology.reduced_homology"),
    ("homology", "connectivity_of_complex", "homology.connectivity_scan"),
    ("homology", "boundary_matrix", "homology.boundary"),
    ("snf", "smith_normal_form", "snf.smith"),
    ("verify", "run_verifier", "verify"),
    ("cli", "main", "cli.main"),
)

VERIFIER_IDS = (
    "queen-table", "counterexample", "queen-king", "mycielskian",
    "lovasz-bound", "chordal-main", "chordal-connected", "cut-complete",
    "cut-bounds",
)

# name -> unit; every traced run reports all of them
PER_LAYER = {
    "graph.generate_s": "s",
    "graph.chromatic_s": "s",
    "graph.chromatic_calls": "count",
    "connectivity.vertex_connectivity_s": "s",
    "connectivity.vertex_connectivity_calls": "count",
    "chordal.weak_triangulation_s": "s",
    "chordal.weak_triangulation_calls": "count",
    "chordal.recognition_s": "s",
    "folds.fold_reduction_s": "s",
    "folds.fold_steps": "count",
    "folds.folds_onto_clique_s": "s",
    "complexes.neighborhood_complex_s": "s",
    "complexes.certify_s": "s",
    "complexes.faces_s": "s",
    "complexes.faces_enumerated": "count",
    "complexes.enumerations_per_skeleton": "ratio",
    "homology.reduced_homology_s": "s",
    "homology.connectivity_scan_s": "s",
    "homology.boundary_s": "s",
    "homology.boundaries": "count",
    "homology.boundary_nnz": "count",
    "snf.smith_s": "s",
    "snf.smith_calls": "count",
    "snf.smith_nnz_in": "count",
    "snf.smith_rank": "count",
    "snf.smith_max_call_s": "s",
    **{f"verify.{which}_s": "s" for which in VERIFIER_IDS},
    "verify.instances_checked": "count",
    "verify.instances_skipped": "count",
    "verify.checked_ratio": "ratio",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ncomplex" or name.startswith("ncomplex."))]


def _resolve(module, attribute):
    """(owner, name, raw attribute) for `attribute` on an ncomplex module,
    where a dotted attribute names a class member."""
    owner = sys.modules[f"ncomplex.{module}"]
    if "." in attribute:
        cls_name, attribute = attribute.split(".")
        owner = getattr(owner, cls_name)
    return owner, attribute, inspect.getattr_static(owner, attribute)


def patch(module, attribute, make_wrapper):
    """Replace a library function everywhere it is referenced.

    `make_wrapper(fn)` returns the replacement for the plain function `fn`;
    class and static methods are re-wrapped in their descriptor. Returns a
    callable that puts the original references back.
    """
    owner, name, raw = _resolve(module, attribute)
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(make_wrapper(raw.__func__))
    else:
        replacement = make_wrapper(raw)
    if inspect.isclass(owner):
        places = [(owner, name)]
    else:
        places = [(m, key) for m in _package_modules()
                  for key, value in vars(m).items() if value is raw]
    for target, key in places:
        setattr(target, key, replacement)

    def undo():
        for target, key in places:
            setattr(target, key, raw)
    return undo


class Recorder:
    """Keeps (arguments, result) of every call to one library function,
    for output checks made after a pass."""

    def __init__(self, module, attribute):
        self.calls = []
        self._undo = patch(module, attribute, self._wrap)

    def _wrap(self, fn):
        signature = inspect.signature(fn)

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls.append((bound.arguments, result))
            return result
        return recorded

    def close(self):
        self._undo()


def _span_name(group, args):
    if group == "verify":
        which = args[0] if args else "?"
        return f"verify.{which}"
    return group


class Tracer:
    """Spans (name, start, end, parent, phase) and counters, kept in memory.

    `install` swaps the wrappers in and `remove` takes them out again, so
    passes run between the two are traced and all others run the library
    untouched. Counters are kept for the "pass" phase only.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent, outermost, phase]
        self.counts = {}
        self._phase = None
        self._stack = []
        self._depth = {}
        self._undo = []
        self._skeletons = {}     # (id(complex), k) -> enumerations
        self._alive = []         # complexes kept so their ids stay unique

    def install(self):
        for module, attribute, group in LAYERS:
            if f"ncomplex.{module}" not in sys.modules:
                continue  # a module the workload never imports has no calls
            self._undo.append(patch(module, attribute,
                                    lambda fn, g=group: self._wrap(fn, g)))

    def remove(self):
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def phase(self, name):
        """Tags the spans recorded inside the block ("setup" or "pass")."""
        self._phase = name
        try:
            yield
        finally:
            self._phase = None

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, group):
        spans, stack, depth = self.spans, self._stack, self._depth
        observe = _OBSERVERS.get(group)

        def traced(*args, **kwargs):
            outermost = not depth.get(group)
            span = [_span_name(group, args), 0.0, 0.0,
                    stack[-1] if stack else -1, outermost, self._phase]
            stack.append(len(spans))
            spans.append(span)
            depth[group] = depth.get(group, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[group] -= 1
                stack.pop()
                span[1] = start
                span[2] = end
            if observe is not None and self._phase == "pass":
                observe(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def metrics(self, passes, overhead_s):
        """Per-layer metrics, per traced pass; graph.generate_s per set-up."""
        inclusive, self_time, calls, longest, child_time = {}, {}, {}, {}, {}
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        generate = 0.0
        for idx, (name, start, end, parent, outermost, phase) in enumerate(self.spans):
            dur = end - start
            if phase == "setup" and name == "graph.generate" and outermost:
                generate += dur
            if phase != "pass":
                continue
            calls[name] = calls.get(name, 0) + 1
            longest[name] = max(longest.get(name, 0.0), dur)
            self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(idx, 0.0)
            if outermost:
                inclusive[name] = inclusive.get(name, 0.0) + dur

        def s(name):
            return inclusive.get(name, 0.0) / passes

        def n(name):
            return calls.get(name, 0) / passes

        def c(key):
            return self.counts.get(key, 0) / passes

        checked, skipped = self.counts.get("instances_checked", 0), \
            self.counts.get("instances_skipped", 0)
        pairs = len(self._skeletons)
        out = {
            "graph.generate_s": generate,
            "graph.chromatic_s": s("graph.chromatic"),
            "graph.chromatic_calls": n("graph.chromatic"),
            "connectivity.vertex_connectivity_s": s("connectivity.vertex_connectivity"),
            "connectivity.vertex_connectivity_calls": n("connectivity.vertex_connectivity"),
            "chordal.weak_triangulation_s": s("chordal.weak_triangulation"),
            "chordal.weak_triangulation_calls": n("chordal.weak_triangulation"),
            "chordal.recognition_s": s("chordal.recognition"),
            "folds.fold_reduction_s": s("folds.fold_reduction"),
            "folds.fold_steps": c("fold_steps"),
            "folds.folds_onto_clique_s": s("folds.folds_onto_clique"),
            "complexes.neighborhood_complex_s": s("complexes.neighborhood_complex"),
            "complexes.certify_s": s("complexes.certify"),
            "complexes.faces_s": s("complexes.faces"),
            "complexes.faces_enumerated": c("faces_enumerated"),
            "complexes.enumerations_per_skeleton":
                sum(self._skeletons.values()) / pairs if pairs else 0.0,
            "homology.reduced_homology_s": s("homology.reduced_homology"),
            "homology.connectivity_scan_s": s("homology.connectivity_scan"),
            "homology.boundary_s": self_time.get("homology.boundary", 0.0) / passes,
            "homology.boundaries": n("homology.boundary"),
            "homology.boundary_nnz": c("boundary_nnz"),
            "snf.smith_s": s("snf.smith"),
            "snf.smith_calls": n("snf.smith"),
            "snf.smith_nnz_in": c("smith_nnz_in"),
            "snf.smith_rank": c("smith_rank"),
            "snf.smith_max_call_s": longest.get("snf.smith", 0.0),
            **{f"verify.{which}_s": s(f"verify.{which}") for which in VERIFIER_IDS},
            "verify.instances_checked": checked / passes,
            "verify.instances_skipped": skipped / passes,
            "verify.checked_ratio": checked / (checked + skipped) if checked + skipped else 0.0,
            "cli.main_self_s": self_time.get("cli.main", 0.0) / passes,
            "trace.overhead_s": overhead_s,
        }
        assert set(out) == set(PER_LAYER)
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _, phase in self.spans:
                fh.write(json.dumps([name, start, end, parent, phase]) + "\n")


# -- counters taken from arguments and results ------------------------------

def _faces(tracer, args, result):
    complex_, k = args[0], args[1]
    if k < 0:
        return
    tracer._count("faces_enumerated", len(result))
    key = (id(complex_), k)
    if key not in tracer._skeletons:
        tracer._alive.append(complex_)
        tracer._skeletons[key] = 0
    tracer._skeletons[key] += 1


def _boundary(tracer, args, result):
    tracer._count("boundary_nnz", len(result.entries))


def _smith(tracer, args, result):
    tracer._count("smith_nnz_in", len(args[0]))
    tracer._count("smith_rank", result.rank)


def _folds(tracer, args, result):
    tracer._count("fold_steps", len(result.steps))


def _verifier(tracer, args, result):
    tracer._count("instances_checked", result.instances_checked)
    tracer._count("instances_skipped", len(result.skipped))


_OBSERVERS = {
    "complexes.faces": _faces,
    "homology.boundary": _boundary,
    "snf.smith": _smith,
    "folds.fold_reduction": _folds,
    "verify": _verifier,
}
