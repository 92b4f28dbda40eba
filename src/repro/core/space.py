"""The (r, s) clique space: the shared substrate of every decomposition.

A :class:`NucleusSpace` turns a graph into the structure that the peeling,
SND and AND algorithms actually operate on:

* the list of r-cliques ``R(G)`` (indexed ``0..m-1``),
* for every r-clique, one entry per containing s-clique listing the *other*
  r-cliques inside that s-clique (the values the ρ computation takes a
  minimum over),
* the S-degrees (number of containing s-cliques), and
* the neighbour relation ``Ns(R)`` used by the notification mechanism.

The r-cliques are indexed as :meth:`repro.core.csr.CSRSpace.from_graph`
indexes them (lexicographic order of their vertex ids, ids given in
:func:`~repro.graph.graph.sorted_vertices` order), so κ travels by index
between the two tiers.  One builder serves every r < s: both clique sets are
enumerated on the fly from adjacency intersections (never materialising a
hypergraph), mirroring the implementation choice in Section 5 of the paper.
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
        ``cliques[i]`` everywhere else in the package.  The order is the
        one :meth:`CSRSpace.from_graph <repro.core.csr.CSRSpace.from_graph>`
        gives the same graph, and :meth:`to_csr` is that space.

    Examples
    --------
    >>> from repro.core.csr import CSRSpace
    >>> from repro.graph.graph import Graph
    >>> graph = Graph([(10, 2), (2, 3), (3, 10), (3, 4)])
    >>> space = NucleusSpace(graph, 2, 3)
    >>> space.cliques
    [(2, 3), (2, 10), (3, 4), (3, 10)]
    >>> space.contexts(0)          # (2, 3) lies in one triangle, with (2, 10), (3, 10)
    [(1, 3)]
    >>> csr = space.to_csr()
    >>> list(csr.cliques) == list(CSRSpace.from_graph(graph, 2, 3).cliques) == space.cliques
    True
    >>> csr.contexts(0), space.to_csr() is csr
    ([(1, 3)], True)
    """

    def __init__(self, graph: Graph, r: int, s: int) -> None:
        if r < 1 or s <= r:
            raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
        self.graph = graph
        self.r = r
        self.s = s
        self._csr = None  # memoised array twin (see to_csr)
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
        """This space on the CSR array tier: ``CSRSpace.from_graph(graph, r, s)``.

        Both tiers index the r-cliques alike, so clique ``i`` is the same
        r-clique in both and κ lines up by index.  The CSR space is built
        once and memoised: the space is immutable after construction, so
        repeated CSR-kernel runs on it reuse one ``CSRSpace``.
        """
        from repro.core.csr import CSRSpace

        if self._csr is None:
            self._csr = CSRSpace.from_graph(self.graph, self.r, self.s)
        return self._csr

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Index the r-cliques in id order, then attach one context per s-clique member.

        Vertices are ranked by :func:`sorted_vertices`, the order in which
        :meth:`CSRGraph.from_graph <repro.graph.csr_graph.CSRGraph.from_graph>`
        gives ids, and the r-cliques are listed in lexicographic order of
        their sorted rank tuples: the order of
        :meth:`CSRSpace.from_graph <repro.core.csr.CSRSpace.from_graph>`.
        """
        graph, r = self.graph, self.r
        rank = {v: i for i, v in enumerate(sorted_vertices(graph.vertices()))}
        self.cliques: List[Clique] = sorted(
            map(canonical_clique, enumerate_k_cliques(graph, r)),
            key=lambda clique: sorted(rank[v] for v in clique),
        )
        self.index: Dict[Clique, int] = {c: i for i, c in enumerate(self.cliques)}
        # _contexts[i] has one entry per s-clique containing clique i: the
        # tuple of the *other* r-clique indices in that s-clique
        self._contexts: List[List[Tuple[int, ...]]] = [[] for _ in self.cliques]
        self._neighbors: List[Set[int]] = [set() for _ in self.cliques]
        for s_clique in enumerate_k_cliques(graph, self.s):
            members = [
                self.index[canonical_clique(sub)]
                for sub in combinations(canonical_clique(s_clique), r)
            ]
            for i, owner in enumerate(members):
                others = tuple(members[:i] + members[i + 1:])
                self._contexts[owner].append(others)
                self._neighbors[owner].update(others)

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
