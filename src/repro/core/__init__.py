"""Core algorithms: peeling, SND, AND, degree levels, hierarchy, queries.

The public entry points most users need are re-exported here:

* :func:`repro.core.decomposition.nucleus_decomposition` — run any of the
  algorithms for any (r, s) pair and get a :class:`DecompositionResult`.
* :func:`core_decomposition`, :func:`truss_decomposition`,
  :func:`three_four_decomposition` — convenience wrappers for the three
  instances evaluated in the paper.
* :class:`repro.core.space.NucleusSpace` — the r-clique / s-clique view of a
  graph shared by every algorithm.
* :class:`repro.core.csr.CSRSpace` — the same view flattened into CSR int
  arrays.  The space's type picks the kernels: a ``NucleusSpace`` runs the
  dict kernels (Algorithms 1–3 as written, the readable oracle), anything
  else — a ``CSRSpace``, a graph, an opened bundle — the CSR kernels.
"""

from repro.core.space import NucleusSpace
from repro.core.protocol import SpaceLike, space_graph, vertices_of
from repro.core.csr import CSRSpace, and_decomposition_csr, snd_decomposition_csr
from repro.core.hindex import h_index, sustains_h
from repro.core.result import DecompositionResult
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.asynd import and_decomposition
from repro.core.levels import degree_levels, convergence_upper_bound
from repro.core.decomposition import (
    core_decomposition,
    nucleus_decomposition,
    three_four_decomposition,
    truss_decomposition,
)
from repro.core.hierarchy import Nucleus, NucleusHierarchy, build_hierarchy
from repro.core.intervals import HierarchyIndex
from repro.core.densest import (
    best_nucleus,
    charikar_densest_subgraph,
    max_core_subgraph,
)
from repro.core.query import estimate_local_indices
from repro.core.metrics import (
    accuracy_report_from_results,
    exact_match_fraction,
    kendall_tau,
    mean_absolute_error,
    mean_relative_error,
)

__all__ = [
    "NucleusSpace",
    "CSRSpace",
    "SpaceLike",
    "space_graph",
    "vertices_of",
    "and_decomposition_csr",
    "snd_decomposition_csr",
    "h_index",
    "sustains_h",
    "DecompositionResult",
    "peeling_decomposition",
    "snd_decomposition",
    "and_decomposition",
    "degree_levels",
    "convergence_upper_bound",
    "nucleus_decomposition",
    "core_decomposition",
    "truss_decomposition",
    "three_four_decomposition",
    "Nucleus",
    "NucleusHierarchy",
    "build_hierarchy",
    "HierarchyIndex",
    "best_nucleus",
    "charikar_densest_subgraph",
    "max_core_subgraph",
    "estimate_local_indices",
    "accuracy_report_from_results",
    "kendall_tau",
    "exact_match_fraction",
    "mean_absolute_error",
    "mean_relative_error",
]
