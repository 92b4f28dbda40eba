"""Supervised execution layer: structured errors, fault injection, healing.

Three modules, layered bottom-up:

* :mod:`repro.resilience.errors` — the exception taxonomy every layer
  raises from; classifies failures as retryable or fatal.
* :mod:`repro.resilience.faults` — deterministic fault injection
  (``REPRO_FAULT_PLAN`` or API) used by the chaos suite and CI.
* :mod:`repro.resilience.supervisor` — :class:`SupervisedPool`, the
  self-healing facade over the process pool: deadlines, bounded retries,
  pool rebuilds, segment reaping, serial fallback.

``errors`` and ``faults`` are imported eagerly (they have no dependencies
inside the package, and the execution layer needs them at import time);
``supervisor`` is loaded lazily on first attribute access because it imports
the process pool, which imports this package — PEP 562 keeps the cycle open.
"""

from repro.resilience.errors import (
    JobTimeoutError,
    PoolPoisonedError,
    ReproError,
    StoreFormatError,
    WorkerCrashError,
)
from repro.resilience.faults import FaultInjector, fault_plan

__all__ = [
    "ReproError",
    "WorkerCrashError",
    "JobTimeoutError",
    "PoolPoisonedError",
    "StoreFormatError",
    "FaultInjector",
    "fault_plan",
    "ResiliencePolicy",
    "ResilienceEvents",
    "SupervisedPool",
    "coerce_policy",
    "reap_orphan_segments",
]

_SUPERVISOR_NAMES = {
    "ResiliencePolicy",
    "ResilienceEvents",
    "SupervisedPool",
    "coerce_policy",
    "reap_orphan_segments",
}


def __getattr__(name):
    if name in _SUPERVISOR_NAMES:
        from repro.resilience import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUPERVISOR_NAMES)
