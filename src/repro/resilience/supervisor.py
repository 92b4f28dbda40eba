"""Supervised execution: retries, pool rebuilds, reaping, serial fallback.

:class:`~repro.parallel.procpool.PersistentPool` is deliberately fragile —
any failed job poisons it, because the worker barriers and pipes are then in
an unknown state.  :class:`SupervisedPool` is the layer that turns that
fragility into availability:

* every job runs under a **deadline** (``policy.job_timeout``) so a stalled
  worker or wedged barrier surfaces as
  :class:`~repro.resilience.errors.JobTimeoutError` instead of hanging;
* a **retryable** failure (worker crash, timeout, poisoned pool — see
  :mod:`repro.resilience.errors`) triggers a bounded number of retries with
  capped exponential backoff, each on a **freshly rebuilt pool** (respawned
  workers, recreated shared segments);
* at startup (and on demand) a **reaper** unlinks shared-memory segments
  left behind by dead processes — the pool's name scheme embeds the creating
  pid, so orphans are identified without heuristics;
* a ``SIGTERM`` handler and an ``atexit`` hook close the pool on the way
  out, so an externally terminated run leaks neither workers nor segments;
* when the retry budget is exhausted the job **falls back to the serial CSR
  kernel** — the AND fixed point is unique, so the degraded path
  returns κ byte-identical to what the healthy pool would have produced.

Every robustness event is counted in :class:`ResilienceEvents` (exposed as
``pool.events`` and attached to each result under
``result.operations["resilience"]``) so benchmarks and a future server can
observe recovery behaviour, not just survive it.

Examples
--------
>>> from repro.core.csr import CSRSpace
>>> from repro.graph.generators import ring_of_cliques
>>> space = CSRSpace.from_graph(ring_of_cliques(3, 4), 1, 2)
>>> with SupervisedPool(workers=2) as pool:
...     result = pool.run_and(space)
>>> result.converged and result.operations["resilience"]["fallback"]
False
"""

from __future__ import annotations

import atexit
import contextlib
import os
import re
import signal
import threading
import time
from dataclasses import asdict, dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Optional, Union

from repro.core.csr import _as_csr, and_decomposition_csr
from repro.core.result import DecompositionResult
from repro.parallel.procpool import PersistentPool
from repro.resilience.errors import PoolPoisonedError, ReproError

__all__ = [
    "ResiliencePolicy",
    "ResilienceEvents",
    "SupervisedPool",
    "coerce_policy",
    "reap_orphan_segments",
]

#: Shared-memory name pattern of the pool arenas: ``<prefix>-<pid>-<hex>-<tag>``
#: (``rn`` = default :class:`SharedCSRBuffers` prefix, ``rp`` = persistent pool).
_SEGMENT_NAME = re.compile(r"^(?:rn|rp)-(\d+)-[0-9a-f]+-")

#: Where POSIX shared memory is mounted (the reaper scans it when present).
_SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables of the supervision layer.

    Attributes
    ----------
    max_retries:
        Retryable failures tolerated per job before degrading.  ``0`` means
        one attempt, then (if enabled) straight to the serial fallback.
    backoff_base:
        First retry delay in seconds; each further retry doubles it.
    backoff_cap:
        Upper bound on any single backoff sleep.
    job_timeout:
        Per-job deadline in seconds (``None`` = no deadline).  Passed to the
        underlying pool; a missed deadline counts as a retryable failure.
    serial_fallback:
        After the retry budget: compute on the serial CSR kernel instead of
        raising.  κ is byte-identical (unique fixed point) — only wall-clock
        degrades.
    reap_on_start:
        Scan for and unlink orphaned pool segments when the supervised pool
        is constructed.
    install_handlers:
        Register the ``atexit`` hook and (main thread only) a chaining
        ``SIGTERM`` handler that close the pool on interpreter shutdown or
        external termination.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    job_timeout: Optional[float] = None
    serial_fallback: bool = True
    reap_on_start: bool = True
    install_handlers: bool = True


@dataclass
class ResilienceEvents:
    """Counters of every robustness event a supervised pool observed."""

    retries: int = 0
    rebuilds: int = 0
    fallbacks: int = 0
    reaped_segments: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def coerce_policy(
    value: Union[None, bool, dict, ResiliencePolicy]
) -> Optional[ResiliencePolicy]:
    """Normalise the public ``resilience=`` argument into a policy.

    ``None``/``False`` → ``None`` (unsupervised), ``True`` → defaults, a
    dict → ``ResiliencePolicy(**dict)``, a policy → itself.
    """
    if value is None or value is False:
        return None
    if value is True:
        return ResiliencePolicy()
    if isinstance(value, ResiliencePolicy):
        return value
    if isinstance(value, dict):
        return ResiliencePolicy(**value)
    raise ValueError(
        "resilience must be None, a bool, a dict of ResiliencePolicy "
        f"fields, or a ResiliencePolicy; got {type(value).__name__}"
    )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    return True


def reap_orphan_segments(shm_dir: str = _SHM_DIR) -> int:
    """Unlink pool shared-memory segments whose creating process is dead.

    The pool arenas name every segment ``<prefix>-<pid>-<hex>-<tag>``; any
    segment whose embedded pid no longer exists is an orphan from a crashed
    or killed run and is closed and unlinked.  Segments of live processes
    (including this one) are never touched.  Returns the number reaped; on
    platforms without a scannable shm directory this is a no-op.
    """
    directory = Path(shm_dir)
    if not directory.is_dir():  # pragma: no cover - non-POSIX platforms
        return 0
    reaped = 0
    for entry in sorted(directory.iterdir()):
        match = _SEGMENT_NAME.match(entry.name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            segment = shared_memory.SharedMemory(name=entry.name)
        except (FileNotFoundError, OSError):  # pragma: no cover - race
            continue
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent reaper
            continue
        reaped += 1
    return reaped


class SupervisedPool:
    """A self-healing facade over :class:`PersistentPool`.

    Same ``run_and`` surface and the same κ contract, plus the
    supervision semantics described in the module docstring.  Use it as a
    context manager (or call :meth:`close`); it owns the underlying pool and
    rebuilds it as needed.

    Parameters
    ----------
    workers:
        Worker process count of each underlying pool.
    policy:
        A :class:`ResiliencePolicy`; defaults apply when omitted.
    start_method, barrier_timeout:
        Forwarded to every :class:`PersistentPool` built.

    Attributes
    ----------
    events:
        The :class:`ResilienceEvents` counters, cumulative over the
        supervised pool's lifetime.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        policy: Optional[ResiliencePolicy] = None,
        start_method: Optional[str] = None,
        barrier_timeout: float = 600.0,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.events = ResilienceEvents()
        self._workers = workers
        self._start_method = start_method
        self._barrier_timeout = barrier_timeout
        self._pool: Optional[PersistentPool] = None
        self._had_pool = False
        self._closed = False
        self._previous_sigterm = None
        self._owner_pid = os.getpid()
        if self.policy.reap_on_start:
            self.events.reaped_segments += reap_orphan_segments()
        if self.policy.install_handlers:
            self._install_handlers()

    # ------------------------------------------------------------------
    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the underlying pool and deregister the cleanup hooks."""
        if os.getpid() != self._owner_pid:
            # a forked worker inherited this object (and possibly the atexit
            # hook / SIGTERM handler that calls it); the pool's processes
            # are not its children and must only be torn down by the owner
            return
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._remove_handlers()
        self._closed = True

    # ------------------------------------------------------------------
    def run_and(
        self,
        source,
        r: Optional[int] = None,
        s: Optional[int] = None,
        *,
        max_iterations: Optional[int] = None,
    ) -> DecompositionResult:
        """Supervised AND; κ matches the serial kernels (unique fixed point)."""
        if self._closed:
            raise PoolPoisonedError("SupervisedPool is closed")
        # convert once: retries and the fallback reuse the same space, so a
        # crashed attempt never pays enumeration again
        space = _as_csr(source, r, s)
        policy = self.policy
        last_error: Optional[ReproError] = None
        for attempt in range(policy.max_retries + 1):
            if attempt:
                self.events.retries += 1
                delay = min(
                    policy.backoff_cap,
                    policy.backoff_base * (2 ** (attempt - 1)),
                )
                if delay > 0:
                    time.sleep(delay)
            pool = self._ensure_pool()
            try:
                result = pool.run_and(space, max_iterations=max_iterations)
            except ReproError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
                continue
            result.operations["resilience"] = dict(
                self.events.as_dict(), attempts=attempt + 1, fallback=False
            )
            return result
        if policy.serial_fallback:
            self.events.fallbacks += 1
            return self._serial_fallback(space, max_iterations, last_error)
        raise last_error

    def _ensure_pool(self) -> PersistentPool:
        """The live underlying pool, rebuilding after a poisoning."""
        if self._pool is None or self._pool.closed:
            if self._had_pool:
                self.events.rebuilds += 1
            self._pool = PersistentPool(
                self._workers,
                start_method=self._start_method,
                barrier_timeout=self._barrier_timeout,
                job_timeout=self.policy.job_timeout,
            )
            self._had_pool = True
        return self._pool

    def _serial_fallback(
        self, space, max_iterations: Optional[int], cause: Optional[ReproError]
    ) -> DecompositionResult:
        """Degrade to the serial CSR kernel; κ is byte-identical by fixed-point
        uniqueness, only wall-clock suffers."""
        result = and_decomposition_csr(space, max_iterations=max_iterations)
        result.algorithm = "and-serial-fallback"
        result.operations.update(
            parallel="process",
            workers=0,
            resilience=dict(
                self.events.as_dict(),
                attempts=self.policy.max_retries + 1,
                fallback=True,
                cause=str(cause) if cause is not None else None,
            ),
        )
        return result

    # ------------------------------------------------------------------
    # cleanup hooks
    # ------------------------------------------------------------------
    def _install_handlers(self) -> None:
        atexit.register(self.close)
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous_sigterm = signal.signal(
                    signal.SIGTERM, self._handle_sigterm
                )
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                self._previous_sigterm = None

    def _remove_handlers(self) -> None:
        atexit.unregister(self.close)
        if self._previous_sigterm is not None:
            with contextlib.suppress(ValueError, OSError):  # pragma: no cover
                if signal.getsignal(signal.SIGTERM) == self._handle_sigterm:
                    signal.signal(signal.SIGTERM, self._previous_sigterm)
            self._previous_sigterm = None

    def _handle_sigterm(self, signum, frame):  # pragma: no cover - signal path
        previous = self._previous_sigterm
        self.close()
        if callable(previous):
            previous(signum, frame)
        else:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
