"""Result objects returned by every decomposition algorithm.

All algorithms (peeling, SND, AND, query-driven) return a
:class:`DecompositionResult` so that experiments, tests and user code can
treat them uniformly: the κ (kappa) indices per r-clique, iteration history,
operation counters and convergence metadata all live here.

Examples
--------
>>> from repro.core.decomposition import core_decomposition
>>> from repro.graph.generators import ring_of_cliques
>>> result = core_decomposition(ring_of_cliques(3, 4))
>>> result.r, result.s, result.algorithm, result.converged
(1, 2, 'and', True)
>>> result.max_kappa()
3
>>> result.kappa_at(0) == result.kappa_of(result.cliques[0])
True
>>> result.kappa_histogram()
{3: 12}

The result persists (and reopens memmap-backed) through the on-disk store —
see :func:`repro.store.save_bundle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.space import Clique, NucleusSpace
from repro.graph.csr_graph import CliqueArrayView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (csr imports result)
    from repro.core.csr import CSRSpace

__all__ = ["DecompositionResult", "IterationStats"]


def _same_cliques(a: Sequence[Clique], b: Sequence[Clique]) -> bool:
    """True when two clique tables list the same r-cliques in the same order."""
    if a is b:
        return True
    if len(a) != len(b):
        return False
    if isinstance(a, CliqueArrayView) and isinstance(b, CliqueArrayView):
        if a.labels is b.labels or list(a.labels) == list(b.labels):
            return bool(_np.array_equal(a.ids, b.ids))
    return list(a) == list(b)


@dataclass
class IterationStats:
    """Per-iteration bookkeeping for the local (SND / AND) algorithms."""

    iteration: int
    updated: int                     # r-cliques whose τ changed this iteration
    processed: int                   # r-cliques looked at (checked or re-ranked)
    skipped: int                     # r-cliques not looked at because they cannot drop:
                                     # support ≥ τ (serial CSR AND) or not notified
                                     # (per-visit and pool AND)
    max_change: int                  # largest τ decrease observed
    converged_count: int             # r-cliques already equal to their final κ

    def as_row(self) -> Tuple[int, int, int, int, int, int]:
        return (
            self.iteration,
            self.updated,
            self.processed,
            self.skipped,
            self.max_change,
            self.converged_count,
        )


@dataclass
class DecompositionResult:
    """Outcome of a core / truss / nucleus decomposition run.

    Attributes
    ----------
    r, s:
        The decomposition instance, e.g. (1, 2) for k-core.
    algorithm:
        Name of the algorithm that produced the result
        (``"peeling"``, ``"snd"``, ``"and"``, ``"query"``).
    kappa:
        Final κ_s index per r-clique index (aligned with ``space.cliques``
        when a space is attached).  May be passed as an int64 array, as the
        CSR kernels do: the result lists it and keeps the array, read-only,
        for the array readers (:meth:`kappa_histogram`, the hierarchy, the
        store), so none of them converts the list again.
    cliques:
        The r-clique tuples, index-aligned with ``kappa``.
    iterations:
        Number of update iterations executed (0 for peeling).
    converged:
        True if the run reached its fixed point (always true for peeling and
        for local runs not cut short by ``max_iterations``).
    tau_history:
        Optional list of per-iteration τ snapshots (τ_0 is the S-degrees).
        Only recorded when requested, because it is O(iterations · |R|).
    iteration_stats:
        Optional per-iteration counters (updates, skips, ...).
    operations:
        Coarse operation counters, e.g. ``{"rho_evaluations": ..., "h_index_calls": ...}``,
        plus the space the kernels ran on (``"backend": "dict"`` for a
        :class:`NucleusSpace`, ``"csr"`` otherwise) and internal
        payloads (the peel order).  Counters are backend-dependent: the CSR
        AND kernel charges the full context count per scan (comparable with
        the dict backend) but never rescans cliques whose τ reached 0, so
        its ``rho_evaluations`` and ``h_index_calls`` come out lower for the
        same τ trajectory.
    """

    r: int
    s: int
    algorithm: str
    kappa: List[int]
    cliques: List[Clique]
    iterations: int = 0
    converged: bool = True
    tau_history: Optional[List[List[int]]] = None
    iteration_stats: List[IterationStats] = field(default_factory=list)
    operations: Dict[str, Any] = field(default_factory=dict)
    # memoised clique → κ mapping; built once on first tuple-keyed access so
    # CSR-backed results that are only ever read by index never pay for it
    _by_clique: Optional[Dict[Clique, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # memoised (lowest κ, bincount from it), shared by max_kappa and
    # kappa_histogram
    _counts: Optional[Tuple[int, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # κ as a read-only int64 array (see _kappa_values)
    _kappa_array: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if isinstance(self.kappa, _np.ndarray):
            values = self.kappa
            # an array the result does not own could still change under it
            if values.dtype != _np.int64 or not values.flags.owndata:
                values = _np.array(values, dtype=_np.int64)
            values.flags.writeable = False
            self._kappa_array = values
            self.kappa = values.tolist()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kappa)

    def kappa_at(self, index: int) -> int:
        """κ index of the r-clique at ``index`` (aligned with ``cliques``).

        The index-native lookup: results produced on any backend are
        index-aligned with their space, so the application layer reads κ by
        clique index and never needs the tuple-keyed dict.
        """
        return self.kappa[index]

    def kappa_of(self, clique: Clique) -> int:
        """κ index of a specific r-clique (given as a canonical tuple).

        Uses the memoised clique → κ mapping, so repeated point lookups cost
        one dict probe instead of rebuilding the full mapping per call.
        """
        return self._mapping()[clique]

    def as_dict(self) -> Dict[Clique, int]:
        """Map r-clique tuple → κ index.

        The mapping is built once and cached; the returned dict is shared
        with the cache, so treat it as read-only (like ``cliques``/``kappa``,
        the result object is immutable by convention once constructed).
        """
        return self._mapping()

    def check_aligned(self, cliques: Sequence[Clique]) -> None:
        """Raise ValueError unless ``cliques`` index the r-cliques of this result.

        κ travels by index, so a result pairs with a space (or with another
        result) only when both clique tables list the same r-cliques in the
        same order.  Both space tiers of one graph list them alike
        (``NucleusSpace`` and ``CSRSpace.from_graph`` sort by vertex id);
        a space of another graph, a ``restrict``-ed space or a bundle
        written in another order does not.  The check is free when both
        sides hold the same table object, as a result computed on the space
        does; two :class:`~repro.graph.csr_graph.CliqueArrayView` tables
        are compared as id arrays, without building a tuple.
        """
        if not _same_cliques(self.cliques, cliques):
            raise ValueError(
                "the result indexes its r-cliques differently from the space "
                "(or result) it is paired with; use the space it was computed "
                "on, or compare by clique with as_dict()"
            )

    def _mapping(self) -> Dict[Clique, int]:
        if self._by_clique is None:
            self._by_clique = {c: k for c, k in zip(self.cliques, self.kappa)}
        return self._by_clique

    def _kappa_values(self):
        """κ as a read-only int64 array, index-aligned with :attr:`kappa`.

        The array the result was built from, or (for a result built from a
        list) the list converted once and kept.
        """
        if self._kappa_array is None:
            values = _np.fromiter(self.kappa, dtype=_np.int64, count=len(self.kappa))
            values.flags.writeable = False
            self._kappa_array = values
        return self._kappa_array

    def _kappa_counts(self) -> Tuple[int, Any]:
        """``(low, counts)``: ``counts[k - low]`` r-cliques have κ = k."""
        if self._counts is None:
            kappa = self._kappa_values()
            low = int(kappa.min(initial=0))  # 0 unless some κ is negative
            self._counts = (low, _np.bincount(kappa - low if low else kappa))
        return self._counts

    def max_kappa(self) -> int:
        """Largest κ index (0 for an empty clique set)."""
        low, counts = self._kappa_counts()
        return low + len(counts) - 1 if len(counts) else 0

    def kappa_histogram(self) -> Dict[int, int]:
        """Number of r-cliques per κ value, sorted by κ."""
        low, counts = self._kappa_counts()
        values = _np.flatnonzero(counts)
        return dict(zip((values + low).tolist(), counts[values].tolist()))

    def vertices_with_kappa_at_least(self, k: int) -> set:
        """Union of vertices of r-cliques whose κ index is >= k."""
        out = set()
        for clique, kappa in zip(self.cliques, self.kappa):
            if kappa >= k:
                out.update(clique)
        return out

    def summary(self) -> str:
        """One-line human-readable summary used by the CLI and examples."""
        return (
            f"{self.algorithm} ({self.r},{self.s})-decomposition: "
            f"{len(self.kappa)} r-cliques, max kappa={self.max_kappa()}, "
            f"iterations={self.iterations}, converged={self.converged}"
        )

    @classmethod
    def from_space(
        cls,
        space: Union[NucleusSpace, "CSRSpace"],
        algorithm: str,
        kappa: List[int],
        **kwargs: Any,
    ) -> "DecompositionResult":
        """Build a result aligned with a :class:`NucleusSpace` or :class:`CSRSpace`.

        Both space representations expose index-aligned ``r``, ``s`` and
        ``cliques``, which is all the result needs.  ``kappa`` is a list or
        an int64 array; an array the result owns is kept, not copied.
        """
        cliques = space.cliques
        if isinstance(cliques, list):
            cliques = list(cliques)
        # otherwise: an immutable lazy sequence (CliqueArrayView) — keep it
        # as-is so building the result never materialises per-clique tuples
        return cls(
            r=space.r,
            s=space.s,
            algorithm=algorithm,
            kappa=kappa if isinstance(kappa, _np.ndarray) else list(kappa),
            cliques=cliques,
            **kwargs,
        )
