"""API001 bad: routing parameters accepted, then silently dropped."""

from repro.core.decomposition import nucleus_decomposition


def run_report(graph, r, s, parallel=None):
    return nucleus_decomposition(graph, r, s)


def run_half_wired(graph, r, s, parallel=None, workers=None):
    return nucleus_decomposition(graph, r, s, workers=workers)
