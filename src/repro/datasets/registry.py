"""Registry of synthetic stand-ins for the paper's Table 3 datasets.

The paper evaluates on ten real-world graphs (as-skitter, facebook,
soc-LiveJournal, soc-orkut, soc-sign-epinions, soc-twitter-higgs, twitter,
web-Google, web-NotreDame, wikipedia-200611) with up to ~10^8 edges.  Those
graphs cannot ship with the repository and pure-Python decomposition at that
scale is out of reach, so each one gets a *named synthetic stand-in* with:

* the same short code the paper uses (``fb``, ``ask``, ``wiki``, ...),
* a generator and parameters chosen to mimic its salient structure
  (heavy-tailed social graphs → heterogeneous-attachment power-law cluster
  graphs with broad core-number distributions, web graphs → hierarchical
  community or planted-clique graphs, topology/hyperlink graphs →
  Barabási–Albert graphs), and
* a fixed seed, so every run sees byte-identical data.

The mapping and its rationale are recorded in DESIGN.md §3; the measured
statistics go into the Table 3 reproduction (experiment E1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List

from repro.graph.cliques import count_k_cliques
from repro.graph.csr_graph import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    heterogeneous_cluster_graph,
    hierarchical_community_graph,
    planted_clique_graph,
    ring_of_cliques,
    watts_strogatz_graph,
)
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "REPRESENTATIONS",
    "dataset_names",
    "load_dataset",
    "dataset_statistics",
]


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic dataset: paper code, description, and builder."""

    name: str
    paper_name: str
    description: str
    builder: Callable[[], Graph]


def _fb() -> Graph:
    # facebook: small, very dense social graph with strong clustering and a
    # broad degree (hence core-number) distribution
    return heterogeneous_cluster_graph(n=280, m_min=2, m_max=18, p=0.6, seed=101)


def _ask() -> Graph:
    # as-skitter: internet topology, heavy-tailed, sparse triangles
    return barabasi_albert_graph(n=1200, m=4, seed=102)


def _slj() -> Graph:
    # soc-LiveJournal: large social network, moderately clustered
    return heterogeneous_cluster_graph(n=900, m_min=1, m_max=12, p=0.35, seed=103)


def _ork() -> Graph:
    # soc-orkut: dense social network with very many triangles
    return heterogeneous_cluster_graph(n=600, m_min=2, m_max=15, p=0.5, seed=104)


def _sse() -> Graph:
    # soc-sign-epinions: trust network, medium density
    return heterogeneous_cluster_graph(n=700, m_min=1, m_max=10, p=0.4, seed=105)


def _hg() -> Graph:
    # soc-twitter-higgs: follower network around an event, bursty density
    return planted_clique_graph(n=500, clique_size=25, p=0.02, seed=106)


def _tw() -> Graph:
    # twitter (ego networks): small, extremely dense neighbourhoods
    return heterogeneous_cluster_graph(n=240, m_min=3, m_max=20, p=0.55, seed=107)


def _wgo() -> Graph:
    # web-Google: web graph with nested community structure
    return hierarchical_community_graph(
        levels=3, branching=4, leaf_size=16, p_intra=0.55, p_decay=0.18, seed=108
    )


def _wnd() -> Graph:
    # web-NotreDame: web graph with a few very dense cores
    return planted_clique_graph(n=450, clique_size=30, p=0.015, seed=109)


def _wiki() -> Graph:
    # wikipedia-200611: large, sparse, weak clustering
    return barabasi_albert_graph(n=1500, m=3, seed=110)


def _toy_core() -> Graph:
    # the small illustrative example graph family used in unit tests / docs
    return ring_of_cliques(num_cliques=6, clique_size=5)


def _smallworld() -> Graph:
    # extra dataset exercising low-degeneracy, high-diameter structure
    return watts_strogatz_graph(n=400, k=8, p=0.05, seed=112)


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec("fb", "facebook", "dense social graph stand-in", _fb),
        DatasetSpec("ask", "as-skitter", "internet topology stand-in", _ask),
        DatasetSpec("slj", "soc-LiveJournal", "large social network stand-in", _slj),
        DatasetSpec("ork", "soc-orkut", "dense social network stand-in", _ork),
        DatasetSpec("sse", "soc-sign-epinions", "trust network stand-in", _sse),
        DatasetSpec("hg", "soc-twitter-higgs", "event follower network stand-in", _hg),
        DatasetSpec("tw", "twitter", "dense ego-network stand-in", _tw),
        DatasetSpec("wgo", "web-Google", "hierarchical web graph stand-in", _wgo),
        DatasetSpec("wnd", "web-NotreDame", "web graph with dense cores stand-in", _wnd),
        DatasetSpec("wiki", "wikipedia-200611", "sparse hyperlink graph stand-in", _wiki),
        DatasetSpec("toy", "illustrative example", "ring of cliques used in docs", _toy_core),
        DatasetSpec("sw", "small-world extra", "Watts-Strogatz control dataset", _smallworld),
    ]
}


def dataset_names(include_extras: bool = True) -> List[str]:
    """Names of the registered datasets.

    The first ten mirror the paper's Table 3; ``toy`` and ``sw`` are extras
    used by documentation and ablations.  With ``include_extras=False`` only
    the Table 3 stand-ins are returned.
    """
    names = list(DATASETS)
    if include_extras:
        return names
    return [n for n in names if n not in ("toy", "sw")]


#: Valid values of the ``representation=`` parameter of :func:`load_dataset`.
REPRESENTATIONS = ("dict", "csr")


def load_dataset(
    name: str, representation: str = "dict", *, cache_dir=None, space=None,
):
    """Build (and memoise) the named dataset.

    ``representation`` selects the graph substrate: ``"dict"`` (default)
    returns the reference :class:`Graph`, ``"csr"`` the array-native
    :class:`~repro.graph.csr_graph.CSRGraph` (converted once from the dict
    build and memoised separately, so mixed-representation suites pay each
    conversion at most once per process).  Raises ``KeyError`` with the list
    of valid names for typos.

    ``cache_dir`` (CSR only) is an on-disk cache directory: the first call
    builds the graph and persists it as a bundle under
    ``<cache_dir>/<name>``, every later call — in any process — reopens the
    stored buffers via memmap instead of regenerating.  Warm opens verify
    buffer checksums; a cache entry that is missing, invalid or corrupt is
    quarantined (renamed to ``<name>.corrupt-<n>``), logged, counted in
    :data:`CACHE_EVENTS`, and rebuilt from source.

    ``space`` (CSR only) is an ``(r, s)`` pair: the return value becomes a
    ``(graph, space)`` tuple with the decomposition-ready
    :class:`~repro.core.csr.CSRSpace` built alongside the graph.  Spaces
    are not memoised (they can dwarf the graph); callers wanting reuse
    should keep the tuple or store a bundle.
    """
    if representation not in REPRESENTATIONS:
        raise ValueError(
            f"unknown representation {representation!r}; "
            f"expected one of {REPRESENTATIONS}"
        )
    if name not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        )
    if space is not None and representation != "csr":
        raise ValueError(
            "space=(r, s) requires representation='csr': the space is "
            "built from the array-native graph"
        )
    if cache_dir is not None:
        if representation != "csr":
            raise ValueError(
                "cache_dir requires representation='csr': only the "
                "array-native graph has an on-disk form"
            )
        graph = _load_cached_csr(name, cache_dir)
    elif representation == "csr":
        graph = _load_csr(name)
    else:
        return _load_dict(name)
    if space is None:
        return graph
    r, s = space
    from repro.core.csr import CSRSpace

    return graph, CSRSpace.from_graph(graph, int(r), int(s))


@lru_cache(maxsize=None)
def _load_dict(name: str) -> Graph:
    return DATASETS[name].builder()


@lru_cache(maxsize=None)
def _load_csr(name: str) -> CSRGraph:
    return CSRGraph.from_graph(_load_dict(name))


#: Observable cache-health counters (process-wide): ``quarantined`` counts
#: corrupt on-disk bundles moved aside and rebuilt from source.
CACHE_EVENTS: Dict[str, int] = {"quarantined": 0}


def _quarantine_bundle(entry):
    """Move a corrupt bundle directory aside as ``<name>.corrupt-<n>``."""
    n = 0
    while True:
        candidate = entry.with_name(f"{entry.name}.corrupt-{n}")
        if not candidate.exists():
            break
        n += 1
    entry.rename(candidate)
    return candidate


def _load_cached_csr(name: str, cache_dir) -> CSRGraph:
    import logging
    from pathlib import Path

    from repro.store import StoreFormatError, open_bundle, save_bundle

    entry = Path(cache_dir) / name
    if entry.exists():
        try:
            # warm path: verify CRCs so silent on-disk corruption surfaces
            # here, as StoreFormatError, not as wrong κ downstream
            return open_bundle(entry, verify=True).graph
        except StoreFormatError as exc:
            quarantined = _quarantine_bundle(entry)
            CACHE_EVENTS["quarantined"] += 1
            logging.getLogger(__name__).warning(
                "dataset cache %s is corrupt (%s); quarantined as %s, "
                "rebuilding from source",
                entry, exc, quarantined.name,
            )
    save_bundle(entry, graph=_load_csr(name))
    return open_bundle(entry).graph


def dataset_statistics(name: str, *, max_clique_size: int = 4) -> Dict[str, int]:
    """|V|, |E|, |Δ|, |K4| for a dataset — the columns of Table 3.

    ``max_clique_size`` can be lowered to 3 to skip the (comparatively
    expensive) 4-clique count when only core/truss statistics are needed.
    """
    graph = load_dataset(name)
    stats = {
        "vertices": graph.number_of_vertices(),
        "edges": graph.number_of_edges(),
        "triangles": count_triangles(graph),
    }
    if max_clique_size >= 4:
        stats["four_cliques"] = count_k_cliques(graph, 4)
    return stats
