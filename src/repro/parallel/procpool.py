"""Shared-memory process-pool decomposition over CSR buffers.

This module is the multi-core path of the AND (Algorithm 3):

* the two numpy int64 incidence buffers of a
  :class:`repro.core.csr.CSRSpace` (``ctx_offsets``, ``ctx_members``) are
  placed into :mod:`multiprocessing.shared_memory` segments **once** by the
  parent (:class:`SharedCSRBuffers`), next to the τ, flag and control
  segments;
* worker processes attach to the segments **zero-copy** (``np.frombuffer``
  straight over the shared mapping — no per-worker copy of the space) and
  sweep contiguous index chunks balanced by context count
  (:func:`repro.core.csr.weighted_ranges`) with the round kernel
  :func:`repro.core.csr._and_sweep`;
* the AND runs the paper's partitioned asynchronous schedule: each worker
  *owns* one static contiguous chunk of τ, updates it in place using the
  freshest own values plus the neighbours' latest published values.  A
  shared per-clique *active bitmap* carries the paper's notification
  mechanism across chunk boundaries: after a first full sweep a worker
  sweeps only the active cliques of its chunk, and a τ decrease
  re-activates only the context partners whose τ lies above the new value —
  also those owned by other workers — read straight off the context rows
  the sweep already gathered (no neighbour relation is stored).  A
  two-phase barrier ends every round (publish per-worker update counts,
  then agree on convergence).  Termination is confirmed by a full
  verification sweep, so the result is a true fixed point even under
  cross-process flag races;
* cleanup is unconditional: segments are closed and unlinked on normal
  exit, worker failure and ``KeyboardInterrupt`` alike, and a failing
  worker aborts the barrier so its peers exit instead of deadlocking.

SND has no pool route: its serial Jacobi passes
(:func:`repro.core.csr.snd_decomposition_csr`) run the AND's pass kernel.

Space *construction* stays serial: the parent builds the space
(:meth:`repro.core.csr.CSRSpace.from_graph`) and the pool shares its
buffers.  ``CSRSpace.from_graph(..., pool=pool)`` binds the new space at
once (:meth:`PersistentPool.bind`), so the sweeps that follow run on the
same single fork batch.

:class:`PersistentPool` is the one parent-side lifecycle: the first call on
a space forks the workers and creates the segments; subsequent calls only
reset the τ/meta buffers and send a job description down a pipe, so
experiment sweeps (many decompositions of the same space) amortise the
setup across calls.  A single run (:func:`process_and_decomposition`) is
simply ``with PersistentPool(...)``.

κ equals the serial kernels' by fixed-point uniqueness, which the
test-suite asserts; the round count depends on the partitioning.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import secrets
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple, Union

import numpy as _np

from repro.core.csr import (
    CSRSpace,
    _and_sweep,
    _as_csr,
    and_decomposition_csr,
    weighted_ranges,
)
from repro.core.result import DecompositionResult
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CSRGraph
from repro.graph.graph import Graph
from repro.resilience.errors import (
    JobTimeoutError,
    PoolPoisonedError,
    WorkerCrashError,
)
from repro.resilience.faults import get_active as _active_faults

__all__ = [
    "SharedCSRBuffers",
    "WorkerSpec",
    "JobSpec",
    "PersistentPool",
    "process_and_decomposition",
]

_ITEMSIZE = 8  # int64

# meta segment slots (int64): written by worker 0, read by the parent
_META_ROUNDS = 0
_META_CONVERGED = 1
_META_UPDATES = 2
_META_SLOTS = 3

# how long a shutdown waits on a worker before escalating: graceful join ->
# terminate (SIGTERM) -> kill (SIGKILL).  A wedged worker can therefore
# never hang interpreter shutdown for more than a few grace periods.
_SHUTDOWN_GRACE = 5.0


def _stop_processes(procs: List, *, graceful_join: float = 0.0) -> None:
    """Stop worker processes with bounded escalation; never blocks forever.

    ``graceful_join`` first waits that long for a voluntary exit (used after
    a shutdown command was sent); survivors get ``terminate()`` (SIGTERM), a
    bounded join, then ``kill()`` (SIGKILL) and one final bounded join — so
    a worker wedged in uninterruptible state cannot hang interpreter
    shutdown, it is simply abandoned after the last grace period.
    """
    if graceful_join > 0:
        for p in procs:
            p.join(timeout=graceful_join)
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=_SHUTDOWN_GRACE)
        if p.is_alive():
            p.kill()
            p.join(timeout=_SHUTDOWN_GRACE)


def _reset_inherited_signals() -> None:
    """Restore the default SIGTERM disposition in a freshly forked worker.

    A fork copies the parent's signal table; if a supervisor had installed
    a cleanup handler there, an inherited copy would make ``terminate()``
    run supervisor code inside the worker instead of killing it, stretching
    every pool teardown into the SIGKILL escalation path.
    """
    # ValueError/OSError: not the main thread / exotic host — nothing to reset
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _fire_fault(directive: dict) -> None:
    """Execute one injected crash directive inside a worker process."""
    mode = directive.get("mode", "raise")
    if mode == "hard-exit":
        os._exit(9)  # no cleanup at all, like an OOM kill
    if mode == "interrupt":
        raise KeyboardInterrupt("injected worker fault")
    # Injection deliberately simulates an arbitrary, non-taxonomy crash — the
    # supervisor must classify it from process state, not from the type.
    raise RuntimeError(f"injected worker fault: {directive.get('kind')}")  # repro: noqa[ERR001]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, pickled across the start method.

    Frozen: a spec crosses a process boundary at fork/spawn time, so
    parent-side mutation after ``Process.start`` could never reach the
    worker anyway — immutability makes that impossible to rely on.  Every
    field is picklable by construction (strings, ints, tuples of dicts);
    ``tests/test_procpool_pickling.py`` asserts the round-trip under both
    start methods.  The jobs themselves arrive later as :class:`JobSpec`
    objects over a pipe.
    """

    names: Dict[str, str]
    n: int
    stride: int
    bounds: Tuple[int, int]
    wid: int
    barrier_timeout: float
    faults: Optional[Tuple[dict, ...]] = None


@dataclass(frozen=True)
class JobSpec:
    """One AND decomposition, sent down a pipe.

    Frozen for the same reason as :class:`WorkerSpec`; per-worker fault
    directives are attached with :func:`dataclasses.replace`, never by
    mutating the shared instance.
    """

    max_iterations: Optional[int] = None
    gen: int = 0
    faults: Optional[Tuple[dict, ...]] = None


def _fire_entry_faults(spec: WorkerSpec) -> None:
    """Run any injected crash-on-entry directives carried by a worker spec.

    Directives are computed parent-side by the active
    :class:`repro.resilience.faults.FaultInjector` and travel inside the
    pickled spec, so injection works under any start method.
    """
    for directive in spec.faults or ():
        if directive.get("kind") == "crash-entry":
            _fire_fault(directive)


def _fire_round_faults(job: JobSpec, round_no: int) -> None:
    """Run injected crash/stall directives scheduled for sweep round ``round_no``."""
    for directive in job.faults or ():
        if directive.get("round") != round_no:
            continue
        kind = directive.get("kind")
        if kind == "stall":
            time.sleep(float(directive.get("seconds", 30.0)))
        elif kind == "crash":
            _fire_fault(directive)


class SharedCSRBuffers:
    """Owns a set of named shared-memory segments and guarantees cleanup.

    The parent creates segments (copying each flat buffer into shared memory
    exactly once); workers attach by name.  :meth:`destroy` closes and
    unlinks everything and is safe to call twice — it is the single cleanup
    point the ``finally`` blocks rely on.
    """

    def __init__(self, prefix: str = "rn") -> None:
        self.prefix = prefix
        self._token = f"{prefix}-{os.getpid()}-{secrets.token_hex(3)}"
        self._segments: List[shared_memory.SharedMemory] = []
        self.names: dict = {}

    def create(self, tag: str, nbytes: int) -> shared_memory.SharedMemory:
        """Create a zero-initialised segment of at least ``nbytes`` bytes.

        Sizes are rounded up to a multiple of the int64 item size so the
        attach side can always ``memoryview.cast("q")`` the mapping: a space
        with r-cliques but zero s-cliques has an *empty* ``ctx_members``
        buffer, and the 1-byte minimum segment it used to get cannot be cast
        to int64 (the workers crashed on such inputs).
        """
        size = max(_ITEMSIZE, -(-nbytes // _ITEMSIZE) * _ITEMSIZE)
        shm = shared_memory.SharedMemory(
            name=f"{self._token}-{tag}", create=True, size=size
        )
        self._segments.append(shm)
        self.names[tag] = shm.name
        return shm

    def create_from(self, tag: str, data) -> shared_memory.SharedMemory:
        """Create a segment holding a copy of an int64 buffer.

        ``data`` is a numpy int64 array: a space buffer, in memory or
        memmapped.
        """
        raw = data.tobytes()
        shm = self.create(tag, len(raw))
        shm.buf[:len(raw)] = raw
        return shm

    def get(self, tag: str) -> shared_memory.SharedMemory:
        """Return the (parent-side) segment created under ``tag``."""
        name = self.names[tag]
        return next(seg for seg in self._segments if seg.name == name)

    def nbytes(self) -> int:
        return sum(seg.size for seg in self._segments)

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent, never raises)."""
        for seg in self._segments:
            # a live view pins the mapping; unlinking still works
            with contextlib.suppress(OSError, BufferError):
                seg.close()
            # FileNotFoundError: already unlinked (e.g. destroy called twice)
            with contextlib.suppress(FileNotFoundError):
                seg.unlink()
        self._segments = []


def _attach(name: str, attached: List[shared_memory.SharedMemory]):
    """Attach to a named segment created by the parent.

    Workers spawned through :mod:`multiprocessing` inherit the parent's
    resource tracker, so the attach-side registration dedups against the
    parent's own (the tracker cache is a set) and the parent's ``unlink``
    remains the single deregistration — no extra bookkeeping needed.
    """
    shm = shared_memory.SharedMemory(name=name)
    attached.append(shm)
    return shm


def _attach_int64(name: str, attached: List[shared_memory.SharedMemory], count: int):
    """Attach a named segment as a zero-copy int64 view of ``count`` elements.

    The count is explicit because segment sizes are rounded up to an 8-byte
    minimum, so they do not encode it.
    """
    return _np.frombuffer(
        _attach(name, attached).buf, dtype=_np.int64, count=count
    )


def _create_shared_space(
    arena: SharedCSRBuffers, space: CSRSpace, degrees, num_workers: int
) -> None:
    """Create every segment a space binding needs.

    That is the context incidence, the τ buffer, the per-clique active
    bitmap and the counts/proc/meta control segments.
    """
    n = len(space)
    arena.create_from("ctx_offsets", space.ctx_offsets)
    arena.create_from("ctx_members", space.ctx_members)
    arena.create_from("tau", degrees)
    active = arena.create("active", n)
    active.buf[:n] = b"\x01" * n
    arena.create("counts", num_workers * _ITEMSIZE)
    arena.create("proc", num_workers * _ITEMSIZE)
    arena.create("meta", _META_SLOTS * _ITEMSIZE)


def _read_int64(shm: shared_memory.SharedMemory, count: int):
    """Copy ``count`` int64 values out of a segment.

    Copies with ``bytes()`` so no view outlives the segment
    (``SharedMemory.close`` refuses to run with exported pointers).
    """
    return _np.frombuffer(bytes(shm.buf[:count * _ITEMSIZE]), dtype=_np.int64)


def _extract_result(arena: SharedCSRBuffers, n: int, num_workers: int):
    """Read one finished job's outputs back out of the shared segments.

    Returns ``(rounds, converged, updates_total, processed, kappa)``.
    """
    meta = _read_int64(arena.get("meta"), _META_SLOTS).tolist()
    rounds = meta[_META_ROUNDS]
    converged = bool(meta[_META_CONVERGED])
    updates_total = meta[_META_UPDATES]
    processed = int(_read_int64(arena.get("proc"), num_workers).sum())
    kappa = _read_int64(arena.get("tau"), n)
    return rounds, converged, updates_total, processed, kappa


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _attach_views(
    spec: WorkerSpec, attached: List[shared_memory.SharedMemory]
) -> dict:
    """Attach to every segment named in ``spec`` and build the typed views.

    Called once per worker process; the views live across jobs (the round
    kernel is bound lazily under ``"and_sweep"``).
    Every space buffer becomes a zero-copy numpy view; the element counts
    come from ``spec.n`` / ``spec.stride`` and the offsets.
    """
    names = spec.names
    n = spec.n
    ctx_off = _attach_int64(names["ctx_offsets"], attached, n + 1)
    return {
        "counts": memoryview(_attach(names["counts"], attached).buf).cast("q"),
        "proc": memoryview(_attach(names["proc"], attached).buf).cast("q"),
        "meta": memoryview(_attach(names["meta"], attached).buf).cast("q"),
        "ctx_off": ctx_off,
        "members": _attach_int64(
            names["ctx_members"], attached, int(ctx_off[n]) * spec.stride
        ),
        "tau": _attach_int64(names["tau"], attached, n),
        # byte-wide shared flags, never reinterpreted as int64 anywhere
        "active": _np.frombuffer(  # repro: noqa[ARR002]
            _attach(names["active"], attached).buf, dtype=_np.uint8, count=n
        ),
    }


def _close_attached(
    attached: List[shared_memory.SharedMemory], views: Optional[dict] = None
) -> None:
    if views is not None:
        # drop the memoryview casts / numpy views first: they pin the
        # mappings, and leaving them alive would resurface as noisy
        # ``BufferError`` "exception ignored" reports from SharedMemory's
        # __del__ at interpreter shutdown
        views.clear()
    for shm in attached:
        # BufferError: a surviving view still pins the mapping; process exit
        # unmaps it regardless, and the parent still unlinks the name
        with contextlib.suppress(BufferError):
            shm.close()


def _round_sync(barrier, counts_mv, wid: int, updated: int, timeout: float) -> int:
    """Two-phase round barrier; returns the global update count.

    Phase one publishes this worker's count and waits for everyone, phase
    two keeps peers from starting the next round (and overwriting the
    counts) before all of them have read the total.
    """
    counts_mv[wid] = updated
    barrier.wait(timeout)
    total = sum(counts_mv)
    barrier.wait(timeout)
    return total


def _and_job(views: dict, spec: WorkerSpec, job: JobSpec, barrier) -> None:
    """Asynchronous AND rounds over one *owned* chunk of a single shared τ.

    The worker is the only writer of ``τ[lo:hi]``; within a round it applies
    its chunk's updates (one batched frontier pass of the round kernel
    :func:`repro.core.csr._and_sweep`) while neighbours in other chunks are read
    at their latest published value — any published value is valid because
    τ only decreases.

    The first round sweeps the whole chunk; later rounds sweep only the
    cliques flagged in the shared active bitmap since their last scan.  The
    flag is *claimed* (cleared) before the scan, so a concurrent
    cross-chunk τ decrease either lands in the values the scan reads or
    re-raises the flag for the next round.  Because flag stores from
    another process may still race the snapshot, a zero-update flagged
    round is only a *candidate* fixed point: it is confirmed by one full
    verification sweep, and any update found there resumes the flagged
    rounds.  Termination therefore always means a full sweep saw zero
    updates — exactly the serial criterion — so κ equals the serial
    kernels' unique fixed point regardless of flag races.
    """
    lo, hi = spec.bounds
    wid = spec.wid
    timeout = spec.barrier_timeout
    max_rounds = job.max_iterations
    counts_mv = views["counts"]
    meta_mv = views["meta"]
    if "and_sweep" not in views:
        views["and_sweep"] = _and_sweep(
            views["ctx_off"],
            views["members"],
            spec.stride,
            views["tau"],
            views["active"],
        )
    sweep = views["and_sweep"]

    rounds = 0
    converged = False
    updates_total = 0
    processed = 0
    # the first round always sweeps everything; later the flag is
    # re-entered as the verification sweep before stopping
    full_sweep = True
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            break
        _fire_round_faults(job, rounds)
        updated, done, _, _ = sweep(lo, hi, full_sweep)
        processed += done
        total = _round_sync(barrier, counts_mv, wid, updated, timeout)
        updates_total += total
        rounds += 1
        if total == 0:
            if full_sweep:
                converged = True
                break
            full_sweep = True  # verify the candidate fixed point fully
        else:
            full_sweep = False
    views["proc"][wid] = processed
    if wid == 0:
        meta_mv[_META_ROUNDS] = rounds
        meta_mv[_META_CONVERGED] = 1 if converged else 0
        meta_mv[_META_UPDATES] = updates_total


def _persistent_worker_main(
    spec: WorkerSpec, barrier, conn, doneq, errq, inherited=()
) -> None:
    """Job loop of one persistent worker: attach once, sweep many jobs.

    Jobs arrive over ``conn`` (one :class:`JobSpec` per decomposition call,
    ``None`` to shut down); each finished job is acknowledged on ``doneq`` together with
    its generation number so the parent never mistakes a stale message for
    the current job's completion.

    ``inherited`` holds the parent-side pipe ends this worker's fork copied
    (earlier workers' and its own).  They must be closed here: as long as
    any process holds a copy of the parent end, the parent closing *its*
    copy can never deliver EOF to ``conn.recv()``, and a worker whose pipe
    the parent dropped would block forever instead of exiting.
    """
    _reset_inherited_signals()
    attached: List[shared_memory.SharedMemory] = []
    views: Optional[dict] = None
    try:
        for stale in inherited:
            stale.close()
        _fire_entry_faults(spec)
        views = _attach_views(spec, attached)
        while True:
            try:
                job = conn.recv()
            except EOFError:
                break  # parent vanished; nothing left to sweep
            if job is None:
                break
            _and_job(views, spec, job, barrier)
            doneq.put((spec.wid, job.gen))
    except threading.BrokenBarrierError:
        sys.exit(3)
    except BaseException:
        errq.put((spec.wid, traceback.format_exc()))
        barrier.abort()
    finally:
        _close_attached(attached, views)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class PersistentPool:
    """Reusable process pool: fork once per space, decompose many times.

    The first :meth:`run_and` call on a space creates the
    shared segments and forks the workers; subsequent calls on the *same*
    space object only reset the τ/meta buffers and send a job description
    down each worker's pipe, so a sweep of many decompositions pays the fork
    and segment setup once.  Calling with a different space tears the old
    binding down and rebinds.  Always release the pool — it is a context
    manager, or call :meth:`close` explicitly:

    >>> from repro.core.csr import CSRSpace
    >>> from repro.graph.generators import ring_of_cliques
    >>> space = CSRSpace.from_graph(ring_of_cliques(3, 4), 1, 2)
    >>> with PersistentPool(workers=2) as pool:
    ...     first = pool.run_and(space)    # forks + creates segments
    ...     second = pool.run_and(space)   # reuses both
    ...     capped = pool.run_and(space, max_iterations=1)
    >>> first.kappa == second.kappa and pool.forks
    2

    A failed or interrupted job leaves the worker barriers in an unknown
    state, so any error closes the pool.  The source-reuse cache is keyed on the source
    object *and* its ``(r, s)`` instance — the same Graph at a different
    instance rebinds — but a source **mutated in place** between calls is
    not detected; rebuild or re-pass a fresh object after mutating.

    Parameters
    ----------
    workers : int, default 4
        Worker process count (≥ 1).  The r-clique range is partitioned
        contiguously across them.
    start_method : str, optional
        ``multiprocessing`` start method; the platform default when
        omitted.  ``"fork"`` binds fastest; ``"spawn"`` re-imports but
        works everywhere.
    barrier_timeout : float, default 600.0
        Seconds a worker waits at a round barrier before declaring the
        pool wedged and failing the job (guards against a crashed peer).
    job_timeout : float, optional
        Parent-side per-job deadline in seconds: a job that has not
        completed within it raises
        :class:`~repro.resilience.errors.JobTimeoutError` and poisons the
        pool.  ``None`` (default) waits indefinitely (the barrier timeout
        remains the worker-side safety net).
        :class:`~repro.resilience.supervisor.SupervisedPool` sets this from
        its policy.

    Attributes
    ----------
    forks:
        Total worker processes forked over the pool's lifetime — one batch
        per binding, **not** per call; tests and benchmarks assert on it.

    See Also
    --------
    repro.core.decomposition.nucleus_decomposition : the
        ``parallel="process"`` path constructs and drives one of these.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        start_method: Optional[str] = None,
        barrier_timeout: float = 600.0,
        job_timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if start_method is None and "fork" in mp.get_all_start_methods():
            start_method = "fork"
        self.workers = workers
        self.barrier_timeout = barrier_timeout
        self.job_timeout = job_timeout
        self.forks = 0
        self._ctx = mp.get_context(start_method)
        self._closed = False
        self._source = None
        self._source_rs: Optional[tuple] = None
        self._space: Optional[CSRSpace] = None
        self._arena: Optional[SharedCSRBuffers] = None
        self._procs: List = []
        self._conns: List = []
        self._doneq = None
        self._errq = None
        self._barrier = None
        self._num_workers = 0
        self._degree_bytes = b""
        self._generation = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        self._teardown(graceful=True)
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def bind(self, space: CSRSpace) -> None:
        """Share ``space`` and fork the workers now (idempotent).

        A later :meth:`run_and` on the same space only
        resets the buffers and sends jobs.  ``CSRSpace.from_graph(...,
        pool=pool)`` calls this, so construction and the sweeps that follow
        cost one fork batch.
        """
        self._check_open()
        if len(space):  # an empty space never reaches the workers
            self._bind(space, space, (None, None))

    def _check_open(self) -> None:
        if self._closed:
            raise PoolPoisonedError(
                "PersistentPool is closed (shut down or poisoned by a "
                "failed job); build a new pool to continue"
            )

    # ------------------------------------------------------------------
    def run_and(
        self,
        source: Union[Graph, NucleusSpace, CSRSpace],
        r: Optional[int] = None,
        s: Optional[int] = None,
        *,
        max_iterations: Optional[int] = None,
    ) -> DecompositionResult:
        """Asynchronous AND on the persistent workers; κ matches serial."""
        self._check_open()
        if (
            source is self._source
            and (r, s) == self._source_rs
            and self._space is not None
        ):
            # repeated call on the same source *and* instance: skip the
            # conversion (same Graph at a different (r, s) is a new space)
            space = self._space
        else:
            space = _as_csr(source, r, s)
        n = len(space)
        if n == 0:
            result = and_decomposition_csr(space, max_iterations=max_iterations)
            result.algorithm = "and-process"
            result.operations = {
                "workers": 0, "parallel": "process", "backend": "csr",
                "persistent": True,
            }
            return result
        try:
            self._bind(space, source, (r, s))
            self._reset_buffers()
            self._generation += 1
            self._send_jobs(
                JobSpec(max_iterations=max_iterations, gen=self._generation)
            )
            self._collect(self._generation)
            rounds, converged, updates_total, processed, kappa = _extract_result(
                self._arena, n, self._num_workers
            )
            shared_nbytes = self._arena.nbytes()
        except BaseException:
            # a failed or interrupted job leaves the round barrier and the
            # worker pipes in an unknown state: the pool cannot be reused
            self._teardown(graceful=False)
            self._closed = True
            raise

        operations = {
            "workers": self._num_workers,
            "parallel": "process",
            "backend": "csr",
            "chunks": self._num_workers,
            "updates": updates_total,
            "processed": processed,
            "shared_nbytes": shared_nbytes,
            "persistent": True,
            "forks": self.forks,
        }
        return DecompositionResult.from_space(
            space,
            algorithm="and-process",
            kappa=kappa,
            iterations=rounds,
            converged=converged,
            operations=operations,
        )

    # ------------------------------------------------------------------
    def _send_jobs(self, job: JobSpec) -> None:
        """Send ``job`` to every worker, with any injected faults attached."""
        injector = _active_faults()
        for wid, conn in enumerate(self._conns):
            wjob = job
            if injector is not None:
                directives, drop_pipe = injector.dispatch_faults(wid)
                if drop_pipe:
                    # injected pipe EOF: the worker sees end-of-file and
                    # exits silently; _collect must notice the vanishing
                    conn.close()
                    continue
                if directives:
                    wjob = replace(wjob, faults=tuple(directives))
            # BrokenPipeError/OSError: the worker died before the job
            # could even be sent; _collect reports the death with its
            # exit code
            with contextlib.suppress(BrokenPipeError, OSError):
                conn.send(wjob)

    # ------------------------------------------------------------------
    def _bind(self, space: CSRSpace, source, rs: tuple) -> None:
        """Create segments and fork workers for ``space`` (idempotent)."""
        if space is self._space:
            # same binding; refresh the source cache key (e.g. the same
            # CSRSpace passed with explicit instead of implicit r/s)
            self._source = source
            self._source_rs = rs
            return
        self._teardown(graceful=True)  # rebinding: drop the old workers
        n = len(space)
        ranges = weighted_ranges(space.ctx_offsets, self.workers)
        degrees = _np.diff(space.ctx_offsets)
        self._degree_bytes = degrees.tobytes()
        self._arena = SharedCSRBuffers(prefix="rp")
        try:
            _create_shared_space(self._arena, space, degrees, len(ranges))
            names = dict(self._arena.names)
            self._fork([
                WorkerSpec(
                    names=names,
                    n=n,
                    stride=space.stride,
                    bounds=bounds,
                    wid=wid,
                    barrier_timeout=self.barrier_timeout,
                )
                for wid, bounds in enumerate(ranges)
            ])
        except BaseException:
            self._teardown(graceful=False)
            raise
        self._space = space
        self._source = source
        self._source_rs = rs

    def _fork(self, specs: List[WorkerSpec]) -> None:
        """Start one worker per spec, all sharing one round barrier."""
        self._num_workers = len(specs)
        barrier = self._ctx.Barrier(len(specs))
        # keep a reference for the binding's lifetime: under spawn the
        # children *rebuild* the barrier's named semaphores from the
        # pickled spec, and dropping the last parent-side reference
        # would finalize (sem_unlink) them before a slow child attaches
        self._barrier = barrier
        self._doneq = self._ctx.SimpleQueue()
        self._errq = self._ctx.SimpleQueue()
        injector = _active_faults()
        for spec in specs:
            if injector is not None:
                entry = injector.entry_faults(spec.wid)
                if entry:
                    spec = replace(spec, faults=tuple(entry))
            parent_conn, child_conn = self._ctx.Pipe()
            self._conns.append(parent_conn)
            # under fork the child's fd table copies every parent-side
            # pipe end created so far; hand them over for closing so a
            # parent-side close can actually deliver EOF (under spawn
            # nothing is inherited and there is nothing to close)
            stale = (
                list(self._conns)
                if self._ctx.get_start_method() == "fork"
                else []
            )
            proc = self._ctx.Process(
                target=_persistent_worker_main,
                args=(
                    spec, barrier, child_conn, self._doneq, self._errq,
                    stale,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
        self.forks += len(specs)

    def _reset_buffers(self) -> None:
        """Re-initialise the per-call buffers (τ, counts, flags, meta)."""
        arena = self._arena
        n = len(self._space)
        arena.get("tau").buf[:len(self._degree_bytes)] = self._degree_bytes
        for tag, nbytes in (
            ("counts", self._num_workers * _ITEMSIZE),
            ("proc", self._num_workers * _ITEMSIZE),
            ("meta", _META_SLOTS * _ITEMSIZE),
        ):
            arena.get(tag).buf[:nbytes] = bytes(nbytes)
        arena.get("active").buf[:n] = b"\x01" * n

    def _collect(self, generation: int) -> None:
        """Wait for every worker's done message, failing fast on any death.

        Three abnormal endings, in detection order: a worker that raised
        (traceback on the error queue), a worker that *died* — any exit
        while a job is outstanding is abnormal, **including exit code 0**
        (a worker that lost its job pipe unwinds cleanly without answering)
        — and, when :attr:`job_timeout` is set, a missed parent-side
        deadline (stalled worker, wedged barrier).
        """
        deadline = (
            None
            if self.job_timeout is None
            else time.monotonic() + self.job_timeout
        )
        done = 0
        while done < self._num_workers:
            while not self._doneq.empty():
                _, gen = self._doneq.get()
                if gen == generation:
                    done += 1
            if done >= self._num_workers:
                return
            if not self._errq.empty():
                wid, tb = self._errq.get()
                raise WorkerCrashError(
                    f"persistent-pool worker {wid} failed:\n{tb}", worker=wid
                )
            dead = [p.exitcode for p in self._procs if p.exitcode is not None]
            if dead:
                # give a raising worker a moment to land its traceback — the
                # exit code can become visible before the queue message
                grace = time.monotonic() + 1.0
                while time.monotonic() < grace and self._errq.empty():
                    time.sleep(0.01)
                if not self._errq.empty():
                    wid, tb = self._errq.get()
                    raise WorkerCrashError(
                        f"persistent-pool worker {wid} failed:\n{tb}",
                        worker=wid,
                    )
                raise WorkerCrashError(
                    f"persistent-pool workers died with exit codes {dead} "
                    "while a job was outstanding",
                    exit_codes=dead,
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise JobTimeoutError(
                    f"pool job missed its {self.job_timeout:.3g}s deadline "
                    f"({done}/{self._num_workers} workers finished)",
                    timeout=self.job_timeout,
                )
            time.sleep(0.002)

    def _teardown(self, *, graceful: bool) -> None:
        """Stop workers and destroy segments; safe to call repeatedly."""
        procs, conns, arena = self._procs, self._conns, self._arena
        self._procs, self._conns, self._arena = [], [], None
        self._space = None
        self._source = None
        self._source_rs = None
        self._num_workers = 0
        if graceful:
            for conn in conns:
                with contextlib.suppress(BrokenPipeError, OSError):
                    conn.send(None)  # shutdown command
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.close()
        _stop_processes(
            procs, graceful_join=_SHUTDOWN_GRACE if graceful else 0.0
        )
        self._barrier = None  # workers are gone: let the semaphores unlink
        if arena is not None:
            arena.destroy()


def process_and_decomposition(
    source: Union[Graph, CSRGraph, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    workers: int = 4,
    max_iterations: Optional[int] = None,
    start_method: Optional[str] = None,
) -> DecompositionResult:
    """Asynchronous AND on a fresh pool with per-chunk τ ownership.

    Each worker owns a contiguous chunk of the shared τ array and updates it
    in place; a shared per-clique active bitmap makes each round after the
    first sweep only the cliques whose neighbourhood changed, with
    cross-chunk re-activation.  The final κ equals the serial algorithms'
    output (unique fixed point), though the round count depends on the
    partitioning.  A :class:`Graph` or :class:`CSRGraph` source is built
    serially by :meth:`CSRSpace.from_graph` before the one fork batch.
    """
    with PersistentPool(workers, start_method=start_method) as pool:
        return pool.run_and(source, r, s, max_iterations=max_iterations)
