"""Accuracy metrics comparing approximate τ estimates to exact κ indices.

The paper reports Kendall-Tau rank correlation between the decomposition
obtained after ``i`` iterations and the exact decomposition (Figures 1a / 6),
plus coarser measures like the fraction of r-cliques whose estimate is
already exact.  These are pure functions over two equal-length integer
sequences, so they work for any (r, s) instance — and, via
:func:`accuracy_report_from_results`, directly over two
:class:`~repro.core.result.DecompositionResult` objects from *any* backend:
results are index-aligned with their space, so the comparison never builds a
tuple-keyed κ dict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.result import DecompositionResult

__all__ = [
    "kendall_tau",
    "exact_match_fraction",
    "mean_absolute_error",
    "mean_relative_error",
    "max_absolute_error",
    "accuracy_report",
    "accuracy_report_from_results",
    "assert_comparable",
]


def kendall_tau(estimate: Sequence[int], exact: Sequence[int]) -> float:
    """Kendall-Tau-b rank correlation between two index vectors.

    Returns 1.0 when the estimate orders the r-cliques exactly like the exact
    κ indices (including ties), -1.0 for a perfectly reversed order, and 0.0
    when either vector is constant (no rank information) — except that two
    identical constant vectors score 1.0, matching the intuition that an
    already-exact answer is perfect.

    Delegates to :func:`scipy.stats.kendalltau` for the heavy lifting.
    """
    _check_lengths(estimate, exact)
    if len(estimate) == 0:
        return 1.0
    if len(set(estimate)) == 1 and len(set(exact)) == 1:
        return 1.0 if list(estimate) == list(exact) else 0.0
    if len(set(estimate)) == 1 or len(set(exact)) == 1:
        return 0.0
    from scipy.stats import kendalltau as scipy_kendalltau

    statistic, _ = scipy_kendalltau(list(estimate), list(exact))
    if statistic != statistic:  # NaN guard
        return 0.0
    return float(statistic)


def exact_match_fraction(estimate: Sequence[int], exact: Sequence[int]) -> float:
    """Fraction of positions where the estimate equals the exact value."""
    _check_lengths(estimate, exact)
    if len(exact) == 0:
        return 1.0
    matches = sum(1 for a, b in zip(estimate, exact) if a == b)
    return matches / len(exact)


def mean_absolute_error(estimate: Sequence[int], exact: Sequence[int]) -> float:
    """Mean of |estimate - exact| over all r-cliques."""
    _check_lengths(estimate, exact)
    if len(exact) == 0:
        return 0.0
    return sum(abs(a - b) for a, b in zip(estimate, exact)) / len(exact)


def max_absolute_error(estimate: Sequence[int], exact: Sequence[int]) -> int:
    """Largest |estimate - exact| over all r-cliques."""
    _check_lengths(estimate, exact)
    return max((abs(a - b) for a, b in zip(estimate, exact)), default=0)


def mean_relative_error(estimate: Sequence[int], exact: Sequence[int]) -> float:
    """Mean of |estimate - exact| / max(exact, 1) over all r-cliques.

    The denominator is clamped to 1 so r-cliques with κ = 0 contribute their
    absolute error instead of dividing by zero.
    """
    _check_lengths(estimate, exact)
    if len(exact) == 0:
        return 0.0
    total = sum(abs(a - b) / max(b, 1) for a, b in zip(estimate, exact))
    return total / len(exact)


def accuracy_report(estimate: Sequence[int], exact: Sequence[int]) -> Dict[str, float]:
    """All accuracy metrics in one dict (used by the experiment harness)."""
    return {
        "kendall_tau": kendall_tau(estimate, exact),
        "exact_fraction": exact_match_fraction(estimate, exact),
        "mean_absolute_error": mean_absolute_error(estimate, exact),
        "max_absolute_error": float(max_absolute_error(estimate, exact)),
        "mean_relative_error": mean_relative_error(estimate, exact),
    }


def assert_comparable(
    estimate: "DecompositionResult", exact: "DecompositionResult"
) -> None:
    """Raise ValueError unless two results are index-aligned.

    Two results are comparable when they were computed on the same (r, s)
    instance and index the same r-cliques in the same order
    (:meth:`~repro.core.result.DecompositionResult.check_aligned`); κ
    arrays are then aligned index-for-index regardless of which kernels
    produced them, so no tuple-keyed reconciliation is needed.  Results on
    two spaces that index differently (``CSRSpace.from_graph`` against
    ``NucleusSpace``) are compared by clique, through ``as_dict()``.
    """
    if (estimate.r, estimate.s) != (exact.r, exact.s):
        raise ValueError(
            f"results compare different instances: "
            f"({estimate.r},{estimate.s}) vs ({exact.r},{exact.s})"
        )
    _check_lengths(estimate.kappa, exact.kappa)
    estimate.check_aligned(exact.cliques)


def accuracy_report_from_results(
    estimate: "DecompositionResult", exact: "DecompositionResult"
) -> Dict[str, float]:
    """All accuracy metrics between two decomposition results.

    Backend-agnostic: compares the index-aligned κ arrays directly (after
    :func:`assert_comparable`), so a CSR-backed estimate can be scored
    against a dict-backed exact run (or vice versa) without either side
    materialising a clique → κ dict.
    """
    assert_comparable(estimate, exact)
    return accuracy_report(estimate.kappa, exact.kappa)


def _check_lengths(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ValueError(
            f"sequence lengths differ: {len(a)} vs {len(b)}"
        )
