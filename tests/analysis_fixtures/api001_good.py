"""API001 good: routing parameters reach nucleus_decomposition."""

from repro.core.decomposition import nucleus_decomposition


def run_report(graph, r, s, parallel=None):
    return nucleus_decomposition(graph, r, s, parallel=parallel)


def run_forwarded(graph, r, s, **options):
    return nucleus_decomposition(graph, r, s, **options)


def run_splatted(graph, r, s, parallel=None, workers=None, **extra):
    options = {"parallel": parallel, "workers": workers}
    return nucleus_decomposition(graph, r, s, **options)


def _private_helper(graph, r, s, parallel=None):
    # private helpers are outside the public-surface contract
    return nucleus_decomposition(graph, r, s)


def no_routing(graph, r, s):
    return nucleus_decomposition(graph, r, s)
