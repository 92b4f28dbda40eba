"""The project-specific rules: each one encodes an invariant the
array/pool/store stack depends on, grounded in a real past bug.

============  ==========================================================
``RES001``    every ``SharedMemory(create=True)`` is released on all
              paths (``try/finally`` or handoff to a cleanup owner) —
              the orphan-segment class the PR 7 runtime reaper mops up
``ARR001``    numpy buffer constructors in ``core/``/``graph/``/
              ``store/`` carry an explicit ``dtype=`` (the implicit
              platform default silently produced int32 buffers on
              Windows, breaking the all-int64 format contract)
``ARR002``    buffers built in the persisted/shared tiers (``store/``,
              ``parallel/``, ``core/csr.py``) are int64, matching
              ``docs/FORMAT.md`` and ``SharedCSRBuffers``
``ARR003``    no bare 1-D ``np.unique(...)`` in ``core/``/``graph/``:
              numpy 2.x dedupes it through a hash table, tens of times
              slower than the sort-based ``_sorted_unique``
``KER001``    ``@kernel``-registered functions stay free of interpreted
              per-element Python (``for i in range(...)``, ``.tolist()``,
              dict/set building) — the raw-speed tier must not rot
``PAR001``    worker payloads (``WorkerSpec``/``JobSpec`` construction,
              pipe ``.send``, ``Process(...)`` dispatch) carry no
              unpicklable values (lambdas, open handles, locks, memmaps,
              ``Graph`` construction)
``ERR001``    public paths raise the :mod:`repro.resilience.errors`
              taxonomy, not anonymous ``RuntimeError``/``Exception``,
              and never swallow with a bare ``except:``
``API001``    public entry points that accept ``parallel=`` thread it
              through to ``nucleus_decomposition`` instead of silently
              dropping the caller's routing choice
============  ==========================================================

Every rule is registered at import time; ``python -m repro.analysis`` and
the test-suite load this module for its side effect.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.core import Rule, register

__all__ = [
    "SharedMemoryReleaseRule",
    "ExplicitDtypeRule",
    "Int64BufferRule",
    "SortedUniqueRule",
    "KernelPurityRule",
    "PicklableWorkerPayloadRule",
    "ErrorTaxonomyRule",
    "BackendThreadingRule",
]

#: Module aliases under which numpy appears in this codebase.
_NUMPY_ALIASES = {"np", "_np", "numpy"}

#: Constructors that allocate a fresh buffer whose dtype would otherwise be
#: guessed (ARR001 scope).
_NUMPY_ALLOCATORS = {"array", "empty", "zeros", "ones", "arange", "full", "fromiter"}

#: Constructors that additionally *reinterpret* existing data (ARR002 adds
#: these: an explicit wrong dtype here corrupts a shared/persisted buffer).
_NUMPY_CASTERS = _NUMPY_ALLOCATORS | {"asarray", "frombuffer", "fromstring"}


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _call_name(call: ast.Call) -> str:
    return _dotted(call.func)


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _keyword(call: ast.Call, name: str) -> Optional[ast.keyword]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw
    return None


def _is_true(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _walk_skipping_nested_defs(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
@register
class SharedMemoryReleaseRule(Rule):
    """RES001 — ``SharedMemory(create=True)`` must be released on every path.

    A created segment that is neither guarded by a ``try/finally`` that
    closes/unlinks it, nor handed to a registered cleanup owner (appended to
    a tracked list, passed into a registration call), leaks a ``/dev/shm``
    file when any later statement raises — exactly the orphan class the
    runtime reaper in :mod:`repro.resilience.supervisor` exists to mop up.
    Static enforcement keeps new call sites from relying on the mop.
    """

    code = "RES001"
    name = "shared-memory-release"
    description = (
        "SharedMemory(create=True) without try/finally cleanup or handoff "
        "to a registered cleanup owner"
    )

    _CLEANUP_ATTRS = {"close", "unlink", "destroy"}
    _HANDOFF_ATTRS = {"append", "add", "register", "push"}

    def visit_Call(self, node: ast.Call) -> None:
        create = _keyword(node, "create")
        if (
            _last(_call_name(node)) == "SharedMemory"
            and create is not None
            and _is_true(create.value)
        ):
            if not self._released(node):
                self.report(
                    node,
                    "shared-memory segment is created but not released on "
                    "every path: wrap in try/finally (close + unlink) or "
                    "hand it to a registered cleanup owner",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def _released(self, call: ast.Call) -> bool:
        parent = self.ctx.parent(call)
        # handoff: the segment is directly an argument of another call
        # (e.g. ``arena.adopt(SharedMemory(...))``)
        if isinstance(parent, ast.Call) and call in parent.args:
            return True
        if self._under_guarding_try(call):
            return True
        # ``name = SharedMemory(...)`` followed (same scope) by a handoff
        # like ``self._segments.append(name)``
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Name):
                return self._handed_off(call, target.id)
        return False

    def _under_guarding_try(self, call: ast.Call) -> bool:
        for ancestor in self.ctx.ancestors(call):
            if isinstance(ancestor, ast.Try) and self._finally_cleans(ancestor):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False

    def _finally_cleans(self, try_node: ast.Try) -> bool:
        for stmt in try_node.finalbody:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._CLEANUP_ATTRS
                ):
                    return True
        return False

    def _handed_off(self, call: ast.Call, name: str) -> bool:
        scope: ast.AST = self.ctx.tree
        for ancestor in self.ctx.ancestors(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = ancestor
                break
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in self._HANDOFF_ATTRS
            ):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
        return False


# ----------------------------------------------------------------------
class _DtypeRuleBase(Rule):
    """Shared numpy-constructor matching for the two dtype rules."""

    _members: Set[str] = set()

    def _numpy_constructor(self, node: ast.Call) -> Optional[str]:
        name = _call_name(node)
        if "." not in name:
            return None
        alias, member = name.rsplit(".", 1)
        if _last(alias) in _NUMPY_ALIASES and member in self._members:
            return member
        return None


@register
class ExplicitDtypeRule(_DtypeRuleBase):
    """ARR001 — numpy buffer constructors must pass an explicit ``dtype=``.

    Scoped to ``core/``, ``graph/`` and ``store/``: everything these tiers
    allocate either becomes (or indexes into) a persisted/shared buffer, and
    numpy's implicit integer default is platform-dependent (C ``long``:
    int32 on Windows), silently violating the all-int64 format contract of
    ``docs/FORMAT.md`` and ``SharedCSRBuffers``.
    """

    code = "ARR001"
    name = "explicit-dtype"
    description = (
        "numpy buffer constructor without explicit dtype= in the array tiers "
        "(core/, graph/, store/)"
    )

    _members = _NUMPY_ALLOCATORS
    _SCOPE = {"core", "graph", "store"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return bool(cls._SCOPE.intersection(path.split("/")))

    def visit_Call(self, node: ast.Call) -> None:
        member = self._numpy_constructor(node)
        if member is not None and _keyword(node, "dtype") is None:
            self.report(
                node,
                f"np.{member}(...) without explicit dtype= — the implicit "
                "default is platform-dependent; buffers in this tier are "
                "int64 by contract",
            )
        self.generic_visit(node)


@register
class Int64BufferRule(_DtypeRuleBase):
    """ARR002 — persisted/shared buffer tiers build int64 only.

    In ``store/``, ``parallel/`` and ``core/csr.py``, a numpy constructor
    with an explicit non-int64 dtype is a buffer that cannot legally reach
    ``SharedCSRBuffers`` or an on-disk bundle: ``docs/FORMAT.md`` mandates
    int64 for every persisted buffer, and the shared-memory attach side
    unconditionally casts mappings as int64.
    """

    code = "ARR002"
    name = "int64-buffers"
    description = (
        "non-int64 dtype flowing into the persisted/shared buffer tier "
        "(store/, parallel/, core/csr.py)"
    )

    _members = _NUMPY_CASTERS
    _OK_ATTRS = {"int64"}
    _OK_STRINGS = {"int64", "q", "<i8"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        parts = path.split("/")
        return (
            "store" in parts
            or "parallel" in parts
            or ("core" in parts and parts[-1] == "csr.py")
        )

    def visit_Call(self, node: ast.Call) -> None:
        member = self._numpy_constructor(node)
        if member is not None:
            kw = _keyword(node, "dtype")
            if kw is not None and not self._is_int64(kw.value):
                self.report(
                    node,
                    f"np.{member}(...) with non-int64 dtype in the "
                    "persisted/shared buffer tier — docs/FORMAT.md and the "
                    "shared-memory attach path require int64",
                )
        self.generic_visit(node)

    def _is_int64(self, value: ast.AST) -> bool:
        name = _dotted(value)
        if name and _last(name) in self._OK_ATTRS:
            return True
        return isinstance(value, ast.Constant) and value.value in self._OK_STRINGS


# ----------------------------------------------------------------------
@register
class SortedUniqueRule(Rule):
    """ARR003 — no bare 1-D ``np.unique`` in the array tiers.

    numpy 2.x answers ``np.unique(keys)`` without further arguments from a
    hash table and sorts only the distinct values afterwards.  On the large,
    nearly sorted int64 key arrays of ``core/`` and ``graph/`` that costs
    tens of times more than a sort plus an adjacent-difference pass, which
    is what :func:`repro.graph.csr_graph._sorted_unique` does with the same
    result.  ``axis=``, ``return_index=``, ``return_inverse=`` or
    ``return_counts=`` already take numpy's sort path and are allowed.
    """

    code = "ARR003"
    name = "sorted-unique"
    description = (
        "bare 1-D np.unique(...) in core/ or graph/ (hash-based under "
        "numpy 2.x); use _sorted_unique"
    )

    _SCOPE = {"core", "graph"}
    _SORT_PATH_KEYWORDS = {
        "axis",
        "return_index",
        "return_inverse",
        "return_counts",
    }

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return bool(cls._SCOPE.intersection(path.split("/")))

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if (
            "." in name
            and _last(name) == "unique"
            and _last(name.rsplit(".", 1)[0]) in _NUMPY_ALIASES
            and not self._takes_sort_path(node)
        ):
            self.report(
                node,
                "bare np.unique(...) dedupes through a hash table under "
                "numpy 2.x — use repro.graph.csr_graph._sorted_unique for "
                "1-D int64 keys",
            )
        self.generic_visit(node)

    def _takes_sort_path(self, call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg not in self._SORT_PATH_KEYWORDS:
                continue
            value = kw.value
            # ``is``: ``axis=0`` must not compare equal to ``False``
            if not (
                isinstance(value, ast.Constant)
                and (value.value is None or value.value is False)
            ):
                return True
        return False


# ----------------------------------------------------------------------
@register
class KernelPurityRule(Rule):
    """KER001 — ``@kernel`` functions stay free of interpreted Python.

    A function registered through :func:`repro.core.kernels.kernel` promises
    to run as a fixed number of vectorised array passes.  Per-element
    ``for/comprehension over range(...)`` loops, ``.tolist()`` round-trips
    and dict/set building are the constructs that quietly re-introduce the
    interpreted tier the CSR backend exists to escape (the ROADMAP's AND
    kernel gap is exactly this failure mode).
    """

    code = "KER001"
    name = "kernel-purity"
    description = (
        "interpreted-Python construct (range loop, .tolist(), dict/set "
        "building) inside a @kernel-registered function"
    )

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._reported: Set[int] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def _visit_def(self, node) -> None:
        if any(_last(_dotted(d)) == "kernel" for d in node.decorator_list):
            for child in ast.walk(node):
                self._check(child)
        self.generic_visit(node)

    def _check(self, node: ast.AST) -> None:
        if id(node) in self._reported:
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "tolist":
                self._fire(node, ".tolist() materialises per-element Python objects")
            elif isinstance(func, ast.Name) and func.id in {"dict", "set"}:
                self._fire(node, f"{func.id}() builds a per-element container")
        elif isinstance(node, ast.For) and self._is_range(node.iter):
            self._fire(node, "per-element `for ... in range(...)` loop")
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            if any(self._is_range(gen.iter) for gen in node.generators):
                self._fire(node, "per-element comprehension over range(...)")
            elif isinstance(node, (ast.DictComp, ast.SetComp)):
                self._fire(node, "dict/set building comprehension")

    def _fire(self, node: ast.AST, what: str) -> None:
        self._reported.add(id(node))
        self.report(
            node,
            f"{what} inside a @kernel function — restructure as a "
            "vectorised array pass (or drop the @kernel marker)",
        )

    @staticmethod
    def _is_range(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and _last(_call_name(node)) == "range"


# ----------------------------------------------------------------------
@register
class PicklableWorkerPayloadRule(Rule):
    """PAR001 — worker payloads carry no obviously unpicklable values.

    Everything routed into a :class:`~repro.parallel.procpool.WorkerSpec` /
    ``JobSpec``, sent down a worker pipe (``conn.send(...)``) or passed to a
    ``Process(...)`` dispatch must survive pickling under *any* start
    method: under ``spawn`` there is no fork-time memory sharing to hide
    behind.  Lambdas, open file handles, freshly constructed locks, memmaps
    and ``Graph`` objects are the classes of values that work under fork
    and explode (or silently copy gigabytes) under spawn.
    """

    code = "PAR001"
    name = "picklable-worker-payload"
    description = (
        "unpicklable value (lambda, open handle, lock, memmap, Graph) "
        "routed into a worker-spec dataclass or pool dispatch call"
    )

    _SINK_NAMES = {"WorkerSpec", "JobSpec", "Process"}
    _BAD_CALLS = {
        "open": "an open file handle",
        "Lock": "a lock",
        "RLock": "a lock",
        "Semaphore": "a synchronisation primitive",
        "Condition": "a synchronisation primitive",
        "memmap": "a memory-mapped array",
        "Graph": "a Graph object (ship flat buffers instead)",
    }

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_sink(node):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                self._scan_payload(arg)
        self.generic_visit(node)

    def _is_sink(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "send":
            return True
        return _last(_call_name(node)) in self._SINK_NAMES

    def _scan_payload(self, arg: ast.AST) -> None:
        for node in ast.walk(arg):
            if isinstance(node, ast.Lambda):
                self.report(
                    node,
                    "lambda routed into a worker payload — lambdas cannot "
                    "be pickled under the spawn start method; use a "
                    "module-level function",
                )
            elif isinstance(node, ast.Call):
                what = self._BAD_CALLS.get(_last(_call_name(node)))
                if what is not None:
                    self.report(
                        node,
                        f"{what} routed into a worker payload — it cannot "
                        "(or must not) cross the process boundary by pickle",
                    )


# ----------------------------------------------------------------------
@register
class ErrorTaxonomyRule(Rule):
    """ERR001 — raise the taxonomy, never anonymous errors; no bare except.

    ``raise RuntimeError``/``raise Exception`` in library paths denies the
    supervisor its single retry signal (:attr:`ReproError.retryable`) and
    callers any way to classify the failure; a bare ``except:`` additionally
    swallows ``KeyboardInterrupt``/``SystemExit``, wedging pool teardown.
    Use (or extend) :mod:`repro.resilience.errors`.
    """

    code = "ERR001"
    name = "error-taxonomy"
    description = (
        "raise RuntimeError/Exception (use the repro.resilience.errors "
        "taxonomy) or bare except:"
    )

    _ANONYMOUS = {"RuntimeError", "Exception"}

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = ""
        if isinstance(exc, ast.Call):
            name = _last(_call_name(exc))
        elif exc is not None:
            name = _last(_dotted(exc))
        if name in self._ANONYMOUS:
            self.report(
                node,
                f"raise {name} in a library path — raise a class from the "
                "repro.resilience.errors taxonomy so supervisors can "
                "classify the failure",
            )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` swallows KeyboardInterrupt/SystemExit — "
                "catch the narrowest exception class that can actually occur",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
@register
class BackendThreadingRule(Rule):
    """API001 — public entry points thread ``parallel=`` through.

    A public function that accepts the execution-backend parameter and then
    calls ``nucleus_decomposition`` without forwarding it silently pins the
    caller to serial execution.  Forwarding via ``**options`` counts.  (The
    space representation needs no parameter: the type of the space passed
    picks the kernels.)
    """

    code = "API001"
    name = "backend-threading"
    description = (
        "public entry point accepts parallel= but does not forward "
        "it to nucleus_decomposition"
    )

    _ROUTING = ("parallel",)
    _TARGET = "nucleus_decomposition"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def _visit_def(self, node) -> None:
        if not node.name.startswith("_"):
            params = self._param_names(node)
            routing = [p for p in self._ROUTING if p in params]
            if routing:
                for call in self._target_calls(node):
                    missing = [p for p in routing if not self._forwards(call, p)]
                    if missing:
                        self.report(
                            call,
                            f"{node.name}() accepts {', '.join(missing)} but "
                            f"calls {self._TARGET} without forwarding "
                            "it/them — the caller's routing choice is "
                            "silently dropped",
                        )
        self.generic_visit(node)

    @staticmethod
    def _param_names(node) -> Set[str]:
        args = node.args
        every = (
            list(getattr(args, "posonlyargs", []))
            + list(args.args)
            + list(args.kwonlyargs)
        )
        return {a.arg for a in every}

    def _target_calls(self, node) -> Iterator[ast.Call]:
        for child in _walk_skipping_nested_defs(node.body):
            if isinstance(child, ast.Call) and _last(_call_name(child)) == self._TARGET:
                yield child

    @staticmethod
    def _forwards(call: ast.Call, param: str) -> bool:
        for kw in call.keywords:
            if kw.arg is None or kw.arg == param:  # **options counts
                return True
        return False
