"""The space protocol: what the application layer needs from a clique space.

The decomposition kernels already run on two representations of the (r, s)
clique space — the dict-of-tuples :class:`repro.core.space.NucleusSpace` and
the flat-array :class:`repro.core.csr.CSRSpace`.  The *applications* built on
top of the κ indices (hierarchy construction, densest-subgraph extraction,
degree levels, query-driven estimation) historically demanded the dict space,
forcing every CSR-backed run through an array → dict-of-tuples round-trip
that dwarfed the kernel speedup.

:class:`SpaceLike` names the small set of operations those applications
actually need, and both space classes satisfy it:

* identification — ``r``, ``s``, ``__len__``;
* **κ lookup by index** — results are index-aligned with ``cliques``, so an
  application never needs a tuple-keyed dict (``find_index`` resolves the
  occasional tuple-shaped query back to an index);
* **s-clique contexts** — ``contexts(i)`` / ``s_degree(i)`` /
  ``s_clique_groups()`` expose the s-clique incidence the degree levels
  traverse;
* **S-connectivity neighbours** — ``neighbors(i)``;
* **vertex materialisation** — ``clique_of(i)`` (and the :func:`vertices_of`
  helper) turn clique indices back into vertex sets, lazily and only where a
  human-facing answer needs them.

Adding a third backend means implementing this protocol, plus
``to_csr()`` for ``hierarchy``, which reads the flat incidence arrays of
:class:`repro.core.csr.CSRSpace`; nothing in ``densest`` / ``levels`` /
``metrics`` / ``query`` inspects the concrete class beyond an optional CSR
fast path.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

try:  # typing.Protocol requires Python >= 3.8; runtime_checkable with it
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - not reachable on supported versions
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.csr_graph import CSRGraph
    from repro.graph.graph import Graph, Vertex

__all__ = ["SpaceLike", "space_graph", "vertices_of", "find_index"]

Clique = Tuple


@runtime_checkable
class SpaceLike(Protocol):
    """Structural protocol satisfied by every clique-space representation.

    ``NucleusSpace`` and ``CSRSpace`` both conform; the application layer
    (:mod:`repro.core.hierarchy`, :mod:`repro.core.densest`,
    :mod:`repro.core.levels`, :mod:`repro.core.query`) is written against
    this surface only, so it runs natively on either backend.
    """

    r: int
    s: int

    def __len__(self) -> int:
        """Number of r-cliques (the index range of every κ array)."""
        ...

    def clique_of(self, index: int) -> Clique:
        """The canonical r-clique tuple for an index (vertex materialisation)."""
        ...

    def s_degree(self, index: int) -> int:
        """Number of s-cliques containing r-clique ``index``."""
        ...

    def s_degrees(self) -> List[int]:
        """All S-degrees, index-aligned with the cliques."""
        ...

    def contexts(self, index: int) -> List[Tuple[int, ...]]:
        """One tuple per containing s-clique: the *other* member indices."""
        ...

    def neighbors(self, index: int) -> Sequence[int]:
        """Indices sharing at least one s-clique with ``index`` (Ns(R))."""
        ...

    def s_clique_groups(self) -> List[Tuple[int, ...]]:
        """Every s-clique exactly once, as its sorted member-index tuple."""
        ...

    def number_of_s_cliques(self) -> int:
        """Total number of s-cliques in the space."""
        ...

    def find_index(self, clique: Sequence["Vertex"]) -> Optional[int]:
        """Index of an r-clique given in any vertex order, or ``None``."""
        ...

    def as_dict(self, values: Sequence[int]) -> Dict[Clique, int]:
        """Map an index-aligned value array back onto clique tuples."""
        ...


def space_graph(space: SpaceLike) -> Optional[Union["Graph", "CSRGraph"]]:
    """The source graph of a space, or ``None`` if it was detached.

    ``NucleusSpace`` always carries its :class:`Graph`, and so does its
    flattening ``to_csr()``; a ``CSRSpace`` built by ``from_graph`` carries
    the :class:`CSRGraph` it was enumerated from (a dict ``Graph`` source is
    converted first), and one reopened from a bundle the stored graph.  A
    space reconstructed from raw arrays (deserialisation, shared-memory
    attach in a worker) has none — density queries are a driver-side
    concern, so the graph reference is deliberately dropped from pickles.
    """
    return getattr(space, "graph", None)


def vertices_of(space: SpaceLike, indices: Sequence[int]) -> Set["Vertex"]:
    """Union of the vertices of the given r-cliques (lazy materialisation)."""
    out: Set["Vertex"] = set()
    for i in indices:
        out.update(space.clique_of(i))
    return out


def find_index(space: SpaceLike, clique: Sequence["Vertex"]) -> Optional[int]:
    """Index of an r-clique in any representation, ``None`` when absent."""
    return space.find_index(clique)
