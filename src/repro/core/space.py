"""The (r, s) clique space: the shared substrate of every decomposition.

A :class:`NucleusSpace` turns a graph into the structure that the peeling,
SND and AND algorithms actually operate on:

* the list of r-cliques ``R(G)`` (indexed ``0..m-1``),
* for every r-clique, one entry per containing s-clique listing the *other*
  r-cliques inside that s-clique (the values the ρ computation takes a
  minimum over),
* the S-degrees (number of containing s-cliques), and
* the neighbour relation ``Ns(R)`` used by the notification mechanism.

Specialised constructors exist for the three instances studied in the paper —
(1, 2) vertex/edge, (2, 3) edge/triangle, (3, 4) triangle/4-clique — plus a
generic path for any r < s.  All of them discover s-clique participation on
the fly from adjacency intersections (never materialising a hypergraph),
mirroring the implementation choice in Section 5 of the paper.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.cliques import canonical_clique, enumerate_k_cliques, is_clique
from repro.graph.graph import Graph, Vertex, sorted_vertices

__all__ = ["NucleusSpace"]

Clique = Tuple[Vertex, ...]


class NucleusSpace:
    """Indexed view of the r-cliques of a graph and their s-clique contexts.

    Parameters
    ----------
    graph:
        The input graph.
    r, s:
        Positive integers with ``r < s``.  (1, 2) gives the k-core view,
        (2, 3) the k-truss view, (3, 4) the paper's sweet-spot nucleus view.

    Attributes
    ----------
    cliques:
        List of canonical r-clique tuples; index ``i`` identifies clique
        ``cliques[i]`` everywhere else in the package.
    """

    def __init__(self, graph: Graph, r: int, s: int) -> None:
        if r < 1 or s <= r:
            raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
        self.graph = graph
        self.r = r
        self.s = s
        self.cliques: List[Clique] = []
        self.index: Dict[Clique, int] = {}
        # _contexts[i] = list with one entry per s-clique containing clique i;
        # each entry is the tuple of the *other* r-clique indices in that
        # s-clique.
        self._contexts: List[List[Tuple[int, ...]]] = []
        self._neighbors: List[Set[int]] = []
        self._csr = None  # memoised CSR flattening (see to_csr)
        self._build()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cliques)

    def clique_of(self, index: int) -> Clique:
        """Return the r-clique tuple for an index."""
        return self.cliques[index]

    def index_of(self, clique: Sequence[Vertex]) -> int:
        """Return the index of an r-clique given in any vertex order."""
        return self.index[canonical_clique(tuple(clique))]

    def find_index(self, clique: Sequence[Vertex]) -> Optional[int]:
        """Index of an r-clique given in any vertex order, or ``None``.

        The non-raising variant of :meth:`index_of`; part of the space
        protocol (:mod:`repro.core.protocol`) the query pipeline uses to
        resolve tuple-shaped queries back to indices.
        """
        return self.index.get(canonical_clique(tuple(clique)))

    def s_degree(self, index: int) -> int:
        """Number of s-cliques containing r-clique ``index`` (the d_s value)."""
        return len(self._contexts[index])

    def s_degrees(self) -> List[int]:
        """S-degrees of every r-clique, indexed consistently with ``cliques``."""
        return [len(ctx) for ctx in self._contexts]

    def contexts(self, index: int) -> List[Tuple[int, ...]]:
        """One entry per containing s-clique: the other r-cliques' indices."""
        return self._contexts[index]

    def neighbors(self, index: int) -> Set[int]:
        """Indices of r-cliques sharing at least one s-clique with ``index``."""
        return self._neighbors[index]

    def s_clique_groups(self) -> List[Tuple[int, ...]]:
        """Every s-clique exactly once, as its sorted member-index tuple.

        Each s-clique appears ``C(s, r)`` times across the per-owner contexts
        (once per member); the group is emitted only from the context whose
        owner is the smallest member index, so the list has one entry per
        s-clique.  Groups and the list itself are sorted, making the output
        directly comparable across space representations.
        """
        groups: List[Tuple[int, ...]] = []
        for i, contexts in enumerate(self._contexts):
            for others in contexts:
                if all(i < o for o in others):
                    groups.append(tuple(sorted((i, *others))))
        groups.sort()
        return groups

    def number_of_s_cliques(self) -> int:
        """Total number of s-cliques in the graph.

        Each s-clique contains ``C(s, r)`` r-cliques, so it is counted that
        many times across the contexts; divide to recover the true count.
        """
        total_contexts = sum(len(ctx) for ctx in self._contexts)
        per_s_clique = _binomial(self.s, self.r)
        return total_contexts // per_s_clique if per_s_clique else 0

    def as_dict(self, values: Sequence[int]) -> Dict[Clique, int]:
        """Map a per-index value array back onto clique tuples."""
        if len(values) != len(self.cliques):
            raise ValueError("value array length does not match clique count")
        return {self.cliques[i]: values[i] for i in range(len(values))}

    def to_csr(self) -> "CSRSpace":
        """Flatten into the CSR array backend (:class:`repro.core.csr.CSRSpace`).

        The CSR form is index-compatible with this space (clique ``i`` is the
        same r-clique in both), compact, picklable, and what the array-native
        kernels operate on.  The flattening is memoised: the space is
        immutable after construction, so repeated CSR-kernel runs on the
        same space reuse one ``CSRSpace`` (and its cached reverse index)
        instead of re-flattening per call.
        """
        from repro.core.csr import CSRSpace

        if self._csr is None:
            self._csr = CSRSpace.from_space(self)
        return self._csr

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        if (self.r, self.s) == (1, 2):
            self._build_vertex_edge()
        elif (self.r, self.s) == (2, 3):
            self._build_edge_triangle()
        elif (self.r, self.s) == (3, 4):
            self._build_triangle_four_clique()
        else:
            self._build_generic()

    def _register(self, clique: Clique) -> int:
        idx = self.index.get(clique)
        if idx is None:
            idx = len(self.cliques)
            self.index[clique] = idx
            self.cliques.append(clique)
            self._contexts.append([])
            self._neighbors.append(set())
        return idx

    def _add_context(self, owner: int, others: Tuple[int, ...]) -> None:
        self._contexts[owner].append(others)
        self._neighbors[owner].update(others)

    def _build_vertex_edge(self) -> None:
        """(1, 2): r-cliques are vertices, s-cliques are edges."""
        for v in sorted_vertices(self.graph.vertices()):
            self._register((v,))
        for u, v in self.graph.edges():
            iu = self.index[(u,)]
            iv = self.index[(v,)]
            self._add_context(iu, (iv,))
            self._add_context(iv, (iu,))

    def _build_edge_triangle(self) -> None:
        """(2, 3): r-cliques are edges, s-cliques are triangles."""
        for edge in enumerate_k_cliques(self.graph, 2):
            self._register(canonical_clique(edge))
        for triangle in enumerate_k_cliques(self.graph, 3):
            tri = canonical_clique(triangle)
            edge_indices = [
                self.index[canonical_clique(pair)]
                for pair in combinations(tri, 2)
            ]
            for i, owner in enumerate(edge_indices):
                others = tuple(e for j, e in enumerate(edge_indices) if j != i)
                self._add_context(owner, others)

    def _build_triangle_four_clique(self) -> None:
        """(3, 4): r-cliques are triangles, s-cliques are 4-cliques."""
        for triangle in enumerate_k_cliques(self.graph, 3):
            self._register(canonical_clique(triangle))
        for four in enumerate_k_cliques(self.graph, 4):
            quad = canonical_clique(four)
            tri_indices = [
                self.index[canonical_clique(tri)]
                for tri in combinations(quad, 3)
            ]
            for i, owner in enumerate(tri_indices):
                others = tuple(t for j, t in enumerate(tri_indices) if j != i)
                self._add_context(owner, others)

    def _build_generic(self) -> None:
        """Any r < s: enumerate both clique sets and connect them."""
        for clique in enumerate_k_cliques(self.graph, self.r):
            self._register(canonical_clique(clique))
        for s_clique in enumerate_k_cliques(self.graph, self.s):
            big = canonical_clique(s_clique)
            sub_indices = [
                self.index[tuple(sub)] for sub in combinations(big, self.r)
            ]
            for i, owner in enumerate(sub_indices):
                others = tuple(x for j, x in enumerate(sub_indices) if j != i)
                self._add_context(owner, others)

    # ------------------------------------------------------------------
    # restricted spaces (query-driven scenario)
    # ------------------------------------------------------------------
    @classmethod
    def restricted_to(
        cls, graph: Graph, r: int, s: int, vertices: Set[Vertex]
    ) -> "NucleusSpace":
        """Build the space of the subgraph induced by ``vertices``.

        Used by the query-driven estimator: the τ iteration is run on the
        induced neighbourhood only, so estimates are local both in data and
        in computation.
        """
        return cls(graph.subgraph(vertices), r, s)

    def validate(self) -> None:
        """Internal consistency checks (used by tests and debug assertions).

        Verifies that every registered clique really is a clique of the graph
        and that context sizes are symmetric across the r-cliques of each
        s-clique (every s-clique contributes exactly C(s, r) contexts).
        """
        for clique in self.cliques:
            if not is_clique(self.graph, clique):
                raise AssertionError(f"{clique!r} is not a clique of the graph")
        per_s_clique = _binomial(self.s, self.r)
        total = sum(len(ctx) for ctx in self._contexts)
        if per_s_clique and total % per_s_clique != 0:
            raise AssertionError(
                "total context count is not a multiple of C(s, r); "
                "the space is inconsistent"
            )


def _binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i
    return result
