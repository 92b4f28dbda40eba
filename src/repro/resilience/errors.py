"""Structured exception taxonomy for the supervised execution layer.

Every failure the parallel and storage paths can surface is classified here
so callers — :class:`repro.resilience.supervisor.SupervisedPool` first among
them — can tell *retryable* faults (a crashed worker, a missed deadline, a
poisoned pool: rebuild and try again, or degrade to the serial kernel) from
*fatal* ones (a corrupt on-disk bundle will be exactly as corrupt on the
next attempt: quarantine and rebuild from source instead).

All classes derive from :class:`ReproError`, which itself derives from
``RuntimeError`` so pre-taxonomy call sites catching ``RuntimeError`` keep
working unchanged.  The class attribute :attr:`ReproError.retryable` is the
single machine-readable retry signal; the supervisor consults nothing else.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "ReproError",
    "WorkerCrashError",
    "JobTimeoutError",
    "PoolPoisonedError",
    "StoreFormatError",
]


class ReproError(RuntimeError):
    """Base of all structured errors raised by this package.

    Subclasses set :attr:`retryable` to ``True`` when re-running the failed
    operation (possibly after rebuilding the execution substrate) can
    plausibly succeed — transient process-level faults — and leave it
    ``False`` for deterministic failures that will recur identically.
    """

    #: Whether a supervisor may retry the operation that raised this.
    retryable = False


class WorkerCrashError(ReproError):
    """A pool worker process died mid-job (exception, signal or hard exit).

    Retryable: the sweep kernels are deterministic and side-effect-free on
    the input buffers, so respawning the workers and re-running the job from
    the freshly reset τ buffers yields the same κ a healthy run would have.

    Parameters
    ----------
    message:
        Human-readable description (includes the worker traceback when one
        was captured).
    worker:
        Id of the failed worker, when a single one is known.
    exit_codes:
        Nonzero exit codes observed across the pool, when the failure was
        detected from process death rather than a raised exception.
    """

    retryable = True

    def __init__(
        self,
        message: str,
        *,
        worker: Optional[int] = None,
        exit_codes: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.exit_codes = list(exit_codes) if exit_codes is not None else None


class JobTimeoutError(ReproError):
    """A pool job missed its deadline (stalled worker, wedged barrier).

    Retryable: the stall is assumed transient (descheduled worker, injected
    fault); the supervisor tears the pool down, rebuilds it and re-runs.

    Parameters
    ----------
    message:
        Human-readable description.
    timeout:
        The deadline, in seconds, that was exceeded.
    """

    retryable = True

    def __init__(self, message: str, *, timeout: Optional[float] = None) -> None:
        super().__init__(message)
        self.timeout = timeout


class PoolPoisonedError(ReproError):
    """A pool was used after a failed job (or an explicit close) poisoned it.

    A failed or interrupted job leaves worker barriers and pipes in an
    unknown state, so :class:`~repro.parallel.procpool.PersistentPool`
    refuses further jobs.  Retryable — with a *new* pool, which is exactly
    what the supervisor's rebuild path provides.
    """

    retryable = True


class StoreFormatError(ReproError):
    """A bundle on disk violates the format: missing/corrupt/mismatched.

    Raised for unreadable or schema-violating manifests, unknown format
    versions, missing or truncated buffer files, dtype/shape disagreements
    and (under ``verify=True``) checksum mismatches — always with a message
    naming the offending file, instead of a numpy error surfacing from the
    middle of an open.

    Not retryable: the bytes on disk do not change between attempts.  The
    recovery path is quarantine-and-rebuild (see
    ``load_dataset(cache_dir=)``), never a blind re-read.
    """

    retryable = False
