"""Neighborhood complexes of graphs: construction, exact integral homology,
connectivity certificates, graph invariants, and theorem verifiers."""

from .graph import (
    Graph,
    chromatic_number,
    complement,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    king_graph,
    mycielskian,
    path_graph,
    queen_graph,
    random_chordal_graph,
)
from .connectivity import CutReport, cut_components, vertex_connectivity
from .chordal import (
    cut_apex_property,
    is_chordal,
    is_weakly_triangulated,
    maximal_cliques,
    simplicial_vertices,
)
from .folds import FoldTrace, find_fold, fold_reduction, folds_onto_clique, is_stiff
from .complexes import (
    SimplicialComplex,
    certify_connectivity,
    neighborhood_complex,
    suspension,
)
from .homology import (
    ConnectivityBound,
    HomologyReport,
    boundary_matrix,
    connectivity_of_complex,
    reduced_homology,
)
from .errors import CapExceededError

__version__ = "0.1.0"
