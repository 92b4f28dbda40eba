"""Deterministic, configurable fault injection for the execution layer.

Chaos testing a process pool by hoping the scheduler misbehaves is not a
test.  This module makes every failure mode the supervision layer claims to
survive *reproducible on demand*:

* **worker crash** — on entry (before attaching to the shared segments) or
  at the start of sweep round *N*, either as a raised exception or as a
  cleanup-free hard exit (``os._exit``, as an OOM kill would);
* **barrier stall** — a worker sleeps at the start of round *N*, wedging its
  peers at the round barrier until the parent's job deadline fires;
* **pipe EOF** — the parent's end of one worker's job pipe is closed before
  dispatch, so the worker sees end-of-file, exits cleanly, and the pool must
  detect the silent disappearance;
* **bundle corruption** — a byte is flipped inside a just-saved store
  buffer, so the next verified open fails its checksum and the cache's
  quarantine-and-rebuild path runs.

Space construction is serial (the pool only sweeps), so no fault kind
targets it.

A *fault plan* is a JSON document (or an equivalent Python dict)::

    {"faults": [
        {"kind": "crash", "worker": 0, "round": 1, "mode": "hard-exit"},
        {"kind": "stall", "worker": 1, "round": 0, "seconds": 5.0},
        {"kind": "pipe-eof", "worker": 2},
        {"kind": "corrupt", "buffer": "graph.indices", "offset": 3}
    ]}

Each spec fires ``times`` times (default 1, ``-1`` = unlimited) and is
consulted **parent-side only**: the pool asks the active injector for
directives when it forks workers and when it dispatches jobs, and embeds
them in the (pickled) worker specs — so injection is deterministic under
any ``multiprocessing`` start method and independent of scheduling.  A
crashed-and-respawned pool therefore retries *without* the fault once its
``times`` budget is consumed, which is exactly the recovery the supervisor
is meant to demonstrate.

Activation, in precedence order:

1. :func:`install` / the :func:`fault_plan` context manager (tests, API);
2. the ``REPRO_FAULT_PLAN`` environment variable, holding either the JSON
   plan itself or ``@/path/to/plan.json`` (CI chaos matrix).

With neither, :func:`get_active` returns ``None`` and every hook is a no-op
— production runs pay one dict lookup per dispatch, nothing more.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "FAULT_KINDS",
    "CRASH_MODES",
    "PLAN_ENV",
    "FaultInjector",
    "install",
    "clear",
    "fault_plan",
    "get_active",
]

#: Environment variable carrying a fault plan (JSON text or ``@file-path``).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Every fault kind a plan may request.
FAULT_KINDS = ("crash-entry", "crash", "stall", "pipe-eof", "corrupt")

#: How a crash fault manifests: a raised exception, a raised
#: ``KeyboardInterrupt``, or a cleanup-free ``os._exit`` (like an OOM kill).
CRASH_MODES = ("raise", "interrupt", "hard-exit")

#: Kinds executed inside worker processes at the start of a sweep round.
_ROUND_KINDS = ("crash", "stall")


class _Spec:
    """One parsed fault spec plus its remaining-fires budget."""

    __slots__ = ("kind", "worker", "round", "mode", "seconds", "buffer",
                 "offset", "remaining")

    def __init__(self, raw: Dict[str, Any]) -> None:
        unknown = set(raw) - {
            "kind", "worker", "round", "mode", "seconds", "buffer", "offset",
            "times",
        }
        if unknown:
            raise ValueError(f"unknown fault spec fields {sorted(unknown)}")
        kind = raw.get("kind")
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        mode = raw.get("mode", "raise")
        if mode not in CRASH_MODES:
            raise ValueError(
                f"unknown crash mode {mode!r}; expected one of {CRASH_MODES}"
            )
        self.kind = kind
        self.worker = int(raw.get("worker", 0))
        self.round = int(raw.get("round", 0))
        self.mode = mode
        self.seconds = float(raw.get("seconds", 30.0))
        self.buffer = str(raw.get("buffer", "*"))
        self.offset = int(raw.get("offset", 0))
        self.remaining = int(raw.get("times", 1))

    def take(self) -> bool:
        """Consume one firing; ``False`` once the budget is exhausted."""
        if self.remaining == 0:
            return False
        if self.remaining > 0:
            self.remaining -= 1
        return True

    def directive(self) -> Dict[str, Any]:
        """The worker-side instruction this spec expands to."""
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind in _ROUND_KINDS:
            out["round"] = self.round
        if self.kind in ("crash", "crash-entry"):
            out["mode"] = self.mode
        if self.kind == "stall":
            out["seconds"] = self.seconds
        return out


class FaultInjector:
    """A parsed fault plan with per-spec firing budgets (thread-safe).

    Construct directly from a plan dict/list/JSON string, or let
    :func:`install` / :func:`get_active` manage a process-global one.

    Examples
    --------
    >>> inj = FaultInjector({"faults": [{"kind": "crash", "round": 2}]})
    >>> inj.dispatch_faults(0)
    ([{'kind': 'crash', 'round': 2, 'mode': 'raise'}], False)
    >>> inj.dispatch_faults(0)  # the default budget is one firing
    ([], False)
    >>> inj.fired
    {'crash': 1}
    """

    def __init__(self, plan: Union[str, Dict[str, Any], List[Dict[str, Any]], None]) -> None:
        if isinstance(plan, str):
            plan = json.loads(plan)
        if plan is None:
            raw_specs: List[Dict[str, Any]] = []
        elif isinstance(plan, dict):
            raw_specs = list(plan.get("faults", []))
        elif isinstance(plan, list):
            raw_specs = list(plan)
        else:
            raise ValueError(
                f"a fault plan is a dict, list or JSON string, not {type(plan).__name__}"
            )
        self._specs = [_Spec(dict(raw)) for raw in raw_specs]
        self._lock = threading.Lock()
        #: Count of firings per kind — observability for tests and benches.
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _consume(self, predicate) -> List[_Spec]:
        with self._lock:
            taken = []
            for spec in self._specs:
                if predicate(spec) and spec.take():
                    self.fired[spec.kind] = self.fired.get(spec.kind, 0) + 1
                    taken.append(spec)
            return taken

    def entry_faults(self, worker: int) -> List[Dict[str, Any]]:
        """Directives to execute when worker ``worker`` starts up."""
        taken = self._consume(
            lambda s: s.kind == "crash-entry" and s.worker == worker
        )
        return [s.directive() for s in taken]

    def dispatch_faults(
        self, worker: int, *, pipe: bool = True
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """``(round directives, drop_pipe)`` for one job dispatch to ``worker``.

        ``drop_pipe`` asks the parent to close its end of the worker's job
        pipe *instead of* sending the job — the worker observes EOF and
        exits, simulating a vanished peer.  One-shot pools have no job pipe;
        they pass ``pipe=False`` so ``pipe-eof`` specs are left unconsumed
        for a later persistent dispatch rather than silently swallowed.
        """
        taken = self._consume(
            lambda s: s.kind in _ROUND_KINDS and s.worker == worker
        )
        eof = (
            self._consume(lambda s: s.kind == "pipe-eof" and s.worker == worker)
            if pipe
            else []
        )
        return [s.directive() for s in taken], bool(eof)

    def corrupt_bundle(self, path: Union[str, os.PathLike]) -> int:
        """Flip bytes in a saved bundle's buffer files; returns files hit.

        Each consumed ``corrupt`` spec XORs one byte (``offset`` from the
        end of the file, clear of the ``.npy`` header so dtype/shape still
        parse and the corruption is caught by the CRC check, not a parse
        error) in every buffer file matching its ``buffer`` name (``"*"``
        matches all).
        """
        taken = self._consume(lambda s: s.kind == "corrupt")
        if not taken:
            return 0
        target = Path(path)
        hit = 0
        for spec in taken:
            pattern = "*.npy" if spec.buffer == "*" else f"{spec.buffer}.npy"
            for file in sorted(target.glob(pattern)):
                size = file.stat().st_size
                pos = size - 1 - max(0, spec.offset)
                if pos <= 0:
                    continue
                with open(file, "r+b") as fh:
                    fh.seek(pos)
                    byte = fh.read(1)
                    fh.seek(pos)
                    fh.write(bytes([byte[0] ^ 0xFF]))
                hit += 1
        return hit

    @property
    def exhausted(self) -> bool:
        """True once every spec's firing budget is spent."""
        with self._lock:
            return all(s.remaining == 0 for s in self._specs)


# ----------------------------------------------------------------------
# process-global activation
# ----------------------------------------------------------------------
_installed: Optional[FaultInjector] = None
_env_injector: Optional[FaultInjector] = None
_env_loaded = False


def install(plan: Union[str, Dict[str, Any], List[Dict[str, Any]], FaultInjector]) -> FaultInjector:
    """Install ``plan`` as the process-global active injector."""
    global _installed
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _installed = injector
    return injector


def clear() -> None:
    """Deactivate any injector installed via :func:`install`."""
    global _installed
    _installed = None


@contextmanager
def fault_plan(plan: Union[str, Dict[str, Any], List[Dict[str, Any]], FaultInjector]):
    """Context manager: install ``plan``, yield the injector, then restore."""
    global _installed
    previous = _installed
    injector = install(plan)
    try:
        yield injector
    finally:
        _installed = previous


def get_active() -> Optional[FaultInjector]:
    """The active injector: installed plan first, then ``REPRO_FAULT_PLAN``.

    The environment plan is parsed once per process (its firing budgets are
    stateful, so re-parsing per call would make ``times`` meaningless).
    Returns ``None`` — hooks become no-ops — when neither source is set.
    """
    global _env_injector, _env_loaded
    if _installed is not None:
        return _installed
    if not _env_loaded:
        _env_loaded = True
        raw = os.environ.get(PLAN_ENV, "").strip()
        if raw:
            if raw.startswith("@"):
                raw = Path(raw[1:]).read_text(encoding="utf-8")
            _env_injector = FaultInjector(raw)
    return _env_injector


def _reset_env_cache() -> None:
    """Forget the parsed environment plan (test seam)."""
    global _env_injector, _env_loaded
    _env_injector = None
    _env_loaded = False
