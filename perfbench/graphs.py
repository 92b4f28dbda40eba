"""Seeded input graphs for the benchmark, written as plain edge-list files.

The generators live here, not in the program under test, so a change to the
program's own generators cannot change the benchmark's inputs.  Each family
is chosen so that its work (triangle and 4-clique counts) varies by only a
few per cent from seed to seed, which the benchmark's bounds need.
"""

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Set, Tuple

Adjacency = List[Set[int]]


@dataclass(frozen=True)
class PowerlawCluster:
    """Holme-Kim graph: preferential attachment of ``m`` edges per vertex,
    each after the first closing a triangle with probability ``p``."""

    n: int
    m: int
    p: float

    def describe(self) -> str:
        return f"powerlaw_cluster(n={self.n}, m={self.m}, p={self.p})"

    def generate(self, seed: int) -> Adjacency:
        rng = random.Random(seed)
        start = self.m + 1
        adj: Adjacency = [set() for _ in range(self.n)]
        for u in range(start):
            adj[u].update(v for v in range(start) if v != u)
        # every endpoint of every edge, so a uniform draw is degree-proportional
        targets: List[int] = [u for u in range(start) for _ in range(self.m)]
        for new in range(start, self.n):
            mine = adj[new]
            last = None
            while len(mine) < self.m:
                target = None
                if last is not None and rng.random() < self.p:
                    closing = [w for w in adj[last] if w != new and w not in mine]
                    if closing:
                        target = rng.choice(closing)
                if target is None:
                    target = rng.choice(targets)
                    if target == new or target in mine:
                        continue
                mine.add(target)
                adj[target].add(new)
                targets.append(target)
                last = target
            targets.extend([new] * self.m)
        return adj


@dataclass(frozen=True)
class Communities:
    """Dense communities plus sparse random links between them.

    Community sizes run through ``c_min..c_max`` in turn (fixed by the
    spec, not the seed); each pair inside a community is an edge with
    probability ``p_in``, and each vertex adds ``m_out`` links to uniformly
    random vertices.  The seed draws the edges and scatters the communities
    over the vertex ids, so no community is a contiguous id range.
    """

    n: int
    c_min: int
    c_max: int
    p_in: float
    m_out: int

    def describe(self) -> str:
        return (
            f"communities(n={self.n}, sizes={self.c_min}..{self.c_max}, "
            f"p_in={self.p_in}, m_out={self.m_out})"
        )

    def generate(self, seed: int) -> Adjacency:
        rng = random.Random(seed)
        ids = list(range(self.n))
        rng.shuffle(ids)
        adj: Adjacency = [set() for _ in range(self.n)]
        start, size = 0, self.c_min
        while start < self.n:
            members = ids[start:start + size]
            for a, u in enumerate(members):
                for v in members[a + 1:]:
                    if rng.random() < self.p_in:
                        adj[u].add(v)
                        adj[v].add(u)
            start += size
            size = size + 1 if size < self.c_max else self.c_min
        for u in range(self.n):
            for _ in range(self.m_out):
                v = rng.randrange(self.n)
                if v != u:
                    adj[u].add(v)
                    adj[v].add(u)
        return adj


def edge_list(adj: Adjacency) -> List[Tuple[int, int]]:
    """Every edge once, as ``(u, v)`` with ``u < v``, in file order."""
    return [(u, v) for u, nbrs in enumerate(adj) for v in sorted(nbrs) if u < v]


def write_edge_list(edges: List[Tuple[int, int]], path: Path) -> None:
    """Write one ``u v`` line per edge."""
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
