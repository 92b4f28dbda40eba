"""High-level decomposition API: one call for any (r, s), any algorithm.

These are the functions most users (and all examples) should call:

>>> from repro.core.decomposition import (
...     core_decomposition, truss_decomposition, nucleus_decomposition)
>>> from repro.graph.generators import ring_of_cliques
>>> graph = ring_of_cliques(num_cliques=4, clique_size=5)
>>> core_decomposition(graph).max_kappa()
4
>>> truss_decomposition(graph, algorithm="and").max_kappa()
3
>>> nucleus_decomposition(graph, r=3, s=4).converged
True
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.asynd import and_decomposition
from repro.core.csr import CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.result import DecompositionResult
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CSRGraph
from repro.graph.graph import Edge, Graph, Vertex

__all__ = [
    "nucleus_decomposition",
    "core_decomposition",
    "truss_decomposition",
    "three_four_decomposition",
    "core_numbers",
    "truss_numbers",
    "ALGORITHMS",
    "PARALLEL_MODES",
]

ALGORITHMS = ("peeling", "snd", "and")

#: Valid values of the ``parallel=`` parameter (``None`` means serial).
PARALLEL_MODES = ("process",)


def nucleus_decomposition(
    source: Union[Graph, CSRGraph, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    algorithm: str = "and",
    parallel: Optional[str] = None,
    workers: Optional[int] = None,
    resilience=None,
    **options,
) -> DecompositionResult:
    """Compute the (r, s) nucleus decomposition with the chosen algorithm.

    Parameters
    ----------
    source:
        A :class:`Graph` or array-native :class:`CSRGraph` (then ``r`` and
        ``s`` are required) or a prebuilt :class:`NucleusSpace` /
        :class:`CSRSpace` (then ``r``/``s`` are taken from it).  The type
        of the space picks the kernels: a ``NucleusSpace`` runs the dict
        kernels over its tuple/set structure, Algorithms 1–3 as written;
        everything else runs the CSR kernels over flat int arrays (see
        :mod:`repro.core.csr`).  A graph is flattened directly by
        :meth:`CSRSpace.from_graph` — the dict space is never built.  An
        opened store :class:`~repro.store.bundle.Bundle` is accepted too:
        its memmapped space is used when the (r, s) instance matches, its
        stored graph otherwise.  κ does not depend on the space.
    algorithm:
        ``"peeling"`` (exact global baseline, Algorithm 1),
        ``"snd"`` (synchronous local, Algorithm 2) or
        ``"and"`` (asynchronous local, Algorithm 3 — the default).
    parallel:
        ``None`` (serial, the default) or ``"process"`` (AND on the
        shared-memory process pool of :mod:`repro.parallel.procpool`, which
        runs the CSR kernels on any source; a ``NucleusSpace`` is flattened
        with :meth:`NucleusSpace.to_csr`).  Peeling and SND have no pool
        route.
    workers:
        Worker count for the parallel modes (default 4); requires
        ``parallel``.
    resilience:
        Supervision for ``parallel="process"``: ``True`` (default policy), a
        :class:`~repro.resilience.supervisor.ResiliencePolicy`, or a dict of
        its fields.  The job then runs under a
        :class:`~repro.resilience.supervisor.SupervisedPool` — per-job
        deadline, bounded retries with pool rebuild, serial-kernel fallback
        — and the result carries ``operations["resilience"]`` event
        counters.  κ is unchanged in every recovery path.
    options:
        Forwarded to the selected algorithm (e.g. ``max_iterations``,
        ``record_history``, ``order``, ``notification``).  For serial
        AND any option that reads the schedule runs the per-visit loop;
        see :func:`repro.core.asynd.and_decomposition`.  Peeling takes no
        option, and the process pool ``max_iterations`` only (it always
        runs the notified round kernel per chunk).

    Returns
    -------
    DecompositionResult
        κ per r-clique (index-aligned with the space), plus algorithm
        metadata: iteration count, convergence flag, operation counters.

    Raises
    ------
    TypeError
        An option the selected route does not take; the message names it.
    ValueError
        Unknown ``algorithm``/``parallel`` value, ``parallel`` with an
        algorithm other than AND, a graph source without ``r``/``s``, or
        ``workers`` without ``parallel``.

    Examples
    --------
    >>> from repro.graph.generators import ring_of_cliques
    >>> graph = ring_of_cliques(num_cliques=3, clique_size=4)
    >>> result = nucleus_decomposition(graph, 2, 3, algorithm="peeling")
    >>> result.max_kappa()
    2
    >>> local = nucleus_decomposition(graph, 2, 3, algorithm="and")
    >>> local.kappa == result.kappa and local.converged
    True

    The space never changes κ keyed by clique, only the data structures
    the kernels run on and, with them, the clique indexing:

    >>> oracle = nucleus_decomposition(NucleusSpace(graph, 2, 3),
    ...                                algorithm="peeling")
    >>> oracle.operations["backend"], result.operations["backend"]
    ('dict', 'csr')
    >>> oracle.as_dict() == result.as_dict()
    True
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if isinstance(source, (Graph, CSRGraph)) and (r is None or s is None):
        raise ValueError("r and s are required when passing a graph")

    if parallel is not None:
        return _parallel_dispatch(
            source, r, s, algorithm, parallel, workers, resilience, options,
        )
    if workers is not None:
        raise ValueError("workers= requires parallel='process'")
    if resilience not in (None, False):
        raise ValueError("resilience= requires parallel='process'")

    if algorithm == "peeling":
        return peeling_decomposition(source, r, s, **options)
    if algorithm == "snd":
        return snd_decomposition(source, r, s, **options)
    return and_decomposition(source, r, s, **options)


def _parallel_dispatch(
    source: Union[Graph, CSRGraph, NucleusSpace, CSRSpace],
    r: Optional[int],
    s: Optional[int],
    algorithm: str,
    parallel: str,
    workers: Optional[int],
    resilience,
    options: Dict[str, object],
) -> DecompositionResult:
    """Route ``parallel=`` requests to the process pool."""
    if parallel not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel mode {parallel!r}; expected one of {PARALLEL_MODES}"
        )
    workers = 4 if workers is None else workers
    if algorithm != "and":
        raise ValueError(
            f"parallel execution runs AND ('and') only; {algorithm!r} has no "
            "pool route"
        )
    unsupported = sorted(set(options) - {"max_iterations"})
    if unsupported:
        raise TypeError(
            f"parallel='process' got unexpected keyword arguments {unsupported}; "
            "it takes max_iterations only"
        )
    policy = None
    if resilience is not None:
        from repro.resilience.supervisor import SupervisedPool, coerce_policy

        policy = coerce_policy(resilience)
    if policy is not None:
        with SupervisedPool(workers=workers, policy=policy) as pool:
            return pool.run_and(source, r, s, **options)

    from repro.parallel.procpool import process_and_decomposition

    return process_and_decomposition(source, r, s, workers=workers, **options)


def core_decomposition(
    graph: Graph, *, algorithm: str = "and", **options
) -> DecompositionResult:
    """k-core decomposition, i.e. the (1, 2) nucleus decomposition."""
    return nucleus_decomposition(graph, 1, 2, algorithm=algorithm, **options)


def truss_decomposition(
    graph: Graph, *, algorithm: str = "and", **options
) -> DecompositionResult:
    """k-truss decomposition, i.e. the (2, 3) nucleus decomposition.

    Following the paper (and unlike Cohen's original definition) an edge's
    truss number here is the number of triangles, not triangles + 2.
    """
    return nucleus_decomposition(graph, 2, 3, algorithm=algorithm, **options)


def three_four_decomposition(
    graph: Graph, *, algorithm: str = "and", **options
) -> DecompositionResult:
    """(3, 4) nucleus decomposition — the paper's sweet spot for dense subgraphs."""
    return nucleus_decomposition(graph, 3, 4, algorithm=algorithm, **options)


def core_numbers(
    graph: Graph, *, algorithm: str = "and", **options
) -> Dict[Vertex, int]:
    """Convenience wrapper returning ``{vertex: core number}``."""
    result = core_decomposition(graph, algorithm=algorithm, **options)
    return {clique[0]: k for clique, k in zip(result.cliques, result.kappa)}


def truss_numbers(
    graph: Graph, *, algorithm: str = "and", **options
) -> Dict[Edge, int]:
    """Convenience wrapper returning ``{edge: truss number}``."""
    result = truss_decomposition(graph, algorithm=algorithm, **options)
    return {clique: k for clique, k in zip(result.cliques, result.kappa)}
