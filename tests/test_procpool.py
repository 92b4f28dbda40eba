"""Process-pool backend: κ parity and shared-memory segment lifecycle.

Three contracts under test:

* the pool's AND output is byte-identical to exact peeling and the serial
  kernels, for one-shot and reused pools alike, with the notification
  bitmap at one to five workers;
* every shared-memory segment the parent creates is unlinked again on
  normal exit, on worker failure, on KeyboardInterrupt and on
  ``PersistentPool.close`` — no leaked ``/dev/shm`` entries, no matter how
  the run ends;
* the persistent pool actually persists: repeated calls on the same space
  fork no new workers, and the τ/meta buffer reset makes every call produce
  the same answer as a fresh pool.
"""

import multiprocessing as mp
import os
import time
from multiprocessing import shared_memory

import pytest

from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CSRGraph
from repro.graph.generators import powerlaw_cluster_graph, ring_of_cliques
from repro.graph.graph import Graph
from repro.parallel.procpool import (
    PersistentPool,
    SharedCSRBuffers,
    process_and_decomposition,
)
from repro.resilience import faults

HAVE_FORK = "fork" in mp.get_all_start_methods()


@pytest.fixture
def captured_segments(monkeypatch):
    """Record every shared-memory segment name the pool creates."""
    names = []
    original = SharedCSRBuffers.create

    def create(self, tag, nbytes):
        shm = original(self, tag, nbytes)
        names.append(shm.name)
        return shm

    monkeypatch.setattr(SharedCSRBuffers, "create", create)
    return names


def assert_all_unlinked(names):
    assert names, "expected the run to create shared-memory segments"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def assert_capped_runs(run, csr):
    """A capped AND run stops after ``cap`` rounds with an upper bound of κ,
    and the full run that follows still reaches κ."""
    exact = peeling_decomposition(csr).kappa
    for cap in (0, 1, 3):
        capped = run(csr, max_iterations=cap)
        assert capped.iterations == cap
        assert not capped.converged
        assert all(t >= k for t, k in zip(capped.kappa, exact))
    assert run(csr, max_iterations=0).kappa == csr.s_degrees()
    assert run(csr).kappa == exact


class TestKappaParity:
    @pytest.mark.parametrize("rs", [(1, 2), (2, 3)])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_and_matches_exact(self, small_powerlaw_graph, rs, workers):
        csr = CSRSpace.from_graph(small_powerlaw_graph, *rs)
        exact = peeling_decomposition(csr).kappa
        result = process_and_decomposition(csr, workers=workers)
        assert result.kappa == and_decomposition_csr(csr).kappa == exact
        assert result.converged
        assert result.operations["parallel"] == "process"

    def test_graph_source_and_space_source(self, small_powerlaw_graph):
        exact = peeling_decomposition(small_powerlaw_graph, 1, 2).kappa
        from_graph = process_and_decomposition(small_powerlaw_graph, 1, 2, workers=2)
        from_space = process_and_decomposition(
            NucleusSpace(small_powerlaw_graph, 1, 2), workers=2
        )
        assert from_graph.kappa == from_space.kappa == exact

    def test_max_iterations_caps_rounds(self, small_powerlaw_graph):
        csr = CSRSpace.from_graph(small_powerlaw_graph, 2, 3)
        assert_capped_runs(
            lambda space, **options: process_and_decomposition(
                space, workers=2, **options
            ),
            csr,
        )

    def test_empty_graph(self):
        result = process_and_decomposition(Graph(), 1, 2)
        assert result.kappa == []
        assert result.converged

    def test_more_workers_than_cliques(self):
        graph = ring_of_cliques(2, 3)
        exact = peeling_decomposition(graph, 1, 2).kappa
        result = process_and_decomposition(graph, 1, 2, workers=64)
        assert result.kappa == exact
        assert result.operations["workers"] <= len(exact)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            PersistentPool(0)
        with pytest.raises(ValueError):
            process_and_decomposition(ring_of_cliques(2, 3), 1, 2, workers=0)

    @pytest.mark.parametrize("rs", [(2, 3), (3, 4)])
    def test_zero_s_clique_space(self, rs):
        """r-cliques without any s-clique: empty shared context buffers.

        Regression test — the 1-byte minimum segment an empty buffer used to
        get cannot be ``cast("q")``, which crashed every worker.
        """
        path = Graph([(0, 1), (1, 2), (2, 3)])  # no triangles, no 4-cliques
        csr = CSRSpace.from_graph(path, *rs)
        assert len(csr) > 0 if rs == (2, 3) else len(csr) == 0
        result = process_and_decomposition(csr, workers=2)
        assert result.kappa == [0] * len(csr)
        assert result.converged


class TestNotificationAND:
    """The shared active bitmap of the AND pool (cross-chunk notification)."""

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3)])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_active_sweep_parity(self, small_powerlaw_graph, rs, workers):
        csr = CSRSpace.from_graph(small_powerlaw_graph, *rs)
        result = process_and_decomposition(csr, workers=workers)
        assert result.kappa == peeling_decomposition(csr).kappa
        assert result.converged

    def test_active_sweep_visits_fewer_cliques(self, small_powerlaw_graph):
        csr = CSRSpace.from_graph(small_powerlaw_graph, 2, 3)
        result = process_and_decomposition(csr, workers=3)
        assert result.kappa == peeling_decomposition(csr).kappa
        # the whole point of the bitmap: strictly fewer clique scans than
        # full sweeps would make over the same rounds
        assert result.operations["processed"] < result.iterations * len(csr)

    def test_dispatch_rejects_notification(self, small_powerlaw_graph):
        from repro.core.decomposition import nucleus_decomposition

        # the pool always notifies; the knob is rejected, not ignored
        with pytest.raises(TypeError, match="notification"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, algorithm="and",
                parallel="process", workers=2, notification=False,
            )


class TestActiveBitmapScan:
    """Workers scan their range of the shared active bitmap while peers
    set flags in it; the scan must read a private snapshot."""

    def test_oversubscribed_repeated_runs_keep_kappa(self):
        # more workers than cores makes peers write mid-scan often; the
        # live-bitmap scan used to raise "number of non-zero array elements
        # changed" within a few calls here
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(1000, 8, 0.9, seed=5))
        csr = CSRSpace.from_graph(graph, 2, 3)
        exact = peeling_decomposition(csr).kappa
        workers = min(8, max(4, 2 * (os.cpu_count() or 1)))
        deadline = time.monotonic() + 10.0
        runs = 0
        with PersistentPool(workers=workers) as pool:
            while runs < 80 and time.monotonic() < deadline:
                assert pool.run_and(csr).kappa == exact
                runs += 1
        assert runs >= 3


class TestOneChunkContract:
    """One worker runs the pool's round kernel over the one chunk [0, n).

    The pool's flagged AND kernel takes the serial counted AND's
    trajectory, so a single-worker pool must walk the serial trajectory:
    the same κ and updates, plus the verification sweep the pool adds
    before it accepts a zero-update notification round as the fixed point.
    """

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_single_worker_follows_serial_engine(self, rs):
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(120, 5, 0.7, seed=13))
        space = CSRSpace.from_graph(graph, *rs)
        and_serial = and_decomposition_csr(space)
        with PersistentPool(1) as pool:
            and_pool = pool.run_and(space)
        assert and_pool.kappa == and_serial.kappa
        assert and_pool.operations["updates"] == sum(
            st.updated for st in and_serial.iteration_stats
        )
        if and_serial.iterations > 1:
            assert and_pool.iterations == and_serial.iterations + 1
        else:
            assert and_pool.iterations == and_serial.iterations


class TestPersistentPool:
    def test_repeated_calls_match_serial(self, small_powerlaw_graph):
        csr = CSRSpace.from_graph(small_powerlaw_graph, 2, 3)
        exact = peeling_decomposition(csr).kappa
        with PersistentPool(workers=3) as pool:
            for _ in range(3):  # the buffer reset must make calls identical
                result = pool.run_and(csr)
                assert result.kappa == exact
                assert result.converged
                assert result.operations["persistent"] is True

    def test_forks_once_per_space(self, small_powerlaw_graph):
        csr = CSRSpace.from_graph(small_powerlaw_graph, 1, 2)
        with PersistentPool(workers=2) as pool:
            pool.run_and(csr)
            forks_after_first = pool.forks
            assert forks_after_first == 2
            pool.run_and(csr)
            pool.run_and(csr, max_iterations=1)
            assert pool.forks == forks_after_first  # reused, not re-forked

    def test_rebind_to_new_space(self, small_powerlaw_graph):
        first = CSRSpace.from_graph(small_powerlaw_graph, 1, 2)
        second = CSRSpace.from_graph(small_powerlaw_graph, 2, 3)
        with PersistentPool(workers=2) as pool:
            assert pool.run_and(first).kappa == peeling_decomposition(first).kappa
            assert pool.run_and(second).kappa == peeling_decomposition(second).kappa
            assert pool.forks == 4  # one fork batch per binding
            # returning to the first space rebinds again (no space cache)
            assert pool.run_and(first).kappa == peeling_decomposition(first).kappa

    def test_graph_source_converted_once(self, small_powerlaw_graph):
        exact = peeling_decomposition(small_powerlaw_graph, 1, 2).kappa
        with PersistentPool(workers=2) as pool:
            a = pool.run_and(small_powerlaw_graph, 1, 2)
            b = pool.run_and(small_powerlaw_graph, 1, 2)
            assert a.kappa == b.kappa == exact
            assert pool.forks == 2  # same source object: no reconversion/rebind

    def test_same_graph_different_instance_rebinds(self, small_powerlaw_graph):
        """Regression: the reuse cache must key on (r, s), not the source
        object alone — the same Graph at a new instance is a new space."""
        with PersistentPool(workers=2) as pool:
            cores = pool.run_and(small_powerlaw_graph, 1, 2)
            trusses = pool.run_and(small_powerlaw_graph, 2, 3)
            assert cores.kappa == peeling_decomposition(
                small_powerlaw_graph, 1, 2
            ).kappa
            assert trusses.kappa == peeling_decomposition(
                small_powerlaw_graph, 2, 3
            ).kappa
            assert len(cores.kappa) != len(trusses.kappa)
            assert pool.forks == 4  # one fork batch per instance binding

    def test_max_iterations_caps_rounds(self, small_powerlaw_graph):
        csr = CSRSpace.from_graph(small_powerlaw_graph, 2, 3)
        with PersistentPool(workers=2) as pool:
            assert_capped_runs(pool.run_and, csr)
            assert pool.forks == 2

    def test_no_snd_route(self):
        import repro.parallel
        from repro.resilience.supervisor import SupervisedPool

        assert not hasattr(PersistentPool, "run_snd")
        assert not hasattr(SupervisedPool, "run_snd")
        assert not hasattr(repro.parallel, "process_snd_decomposition")

    def test_empty_space(self):
        with PersistentPool(workers=2) as pool:
            result = pool.run_and(Graph(), 1, 2)
            assert result.kappa == []
            assert result.converged
            assert pool.forks == 0  # nothing to sweep, nothing forked

    def test_more_workers_than_cliques(self):
        graph = ring_of_cliques(2, 3)
        exact = peeling_decomposition(graph, 1, 2).kappa
        with PersistentPool(workers=64) as pool:
            result = pool.run_and(graph, 1, 2)
            assert result.kappa == exact
            assert result.operations["workers"] <= len(exact)

    def test_close_is_idempotent_and_final(self, small_powerlaw_graph):
        pool = PersistentPool(workers=2)
        csr = CSRSpace.from_graph(small_powerlaw_graph, 1, 2)
        pool.run_and(csr)
        pool.close()
        pool.close()  # second close must be a no-op
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_and(csr)

    def test_segments_unlinked_on_close(
        self, small_powerlaw_graph, captured_segments
    ):
        with PersistentPool(workers=2) as pool:
            pool.run_and(CSRSpace.from_graph(small_powerlaw_graph, 1, 2))
        assert_all_unlinked(captured_segments)

    def test_segments_unlinked_on_rebind(
        self, small_powerlaw_graph, captured_segments
    ):
        first = CSRSpace.from_graph(small_powerlaw_graph, 1, 2)
        second = CSRSpace.from_graph(small_powerlaw_graph, 2, 3)
        with PersistentPool(workers=2) as pool:
            pool.run_and(first)
            first_segments = list(captured_segments)
            pool.run_and(second)
            # the old binding's segments are gone as soon as the pool rebinds
            assert_all_unlinked(first_segments)
        assert_all_unlinked(captured_segments)

    def test_worker_fault_closes_pool(
        self, small_powerlaw_graph, captured_segments
    ):
        with faults.fault_plan({"faults": [{"kind": "crash", "worker": 0}]}):
            pool = PersistentPool(workers=3)
            with pytest.raises(RuntimeError):
                pool.run_and(CSRSpace.from_graph(small_powerlaw_graph, 1, 2))
        assert pool.closed  # a failed job poisons the pool
        assert_all_unlinked(captured_segments)

    def test_hard_killed_worker_fails_fast(
        self, small_powerlaw_graph, captured_segments
    ):
        import time

        plan = {"faults": [{"kind": "crash", "worker": 1, "mode": "hard-exit"}]}
        with faults.fault_plan(plan):
            pool = PersistentPool(workers=3)
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="exit codes"):
                pool.run_and(CSRSpace.from_graph(small_powerlaw_graph, 1, 2))
        assert time.perf_counter() - t0 < 30.0  # far below barrier_timeout
        assert pool.closed
        assert_all_unlinked(captured_segments)


class TestSegmentLifecycle:
    def test_unlinked_on_normal_exit(self, small_powerlaw_graph, captured_segments):
        result = process_and_decomposition(small_powerlaw_graph, 1, 2, workers=2)
        assert result.converged
        assert_all_unlinked(captured_segments)

    def test_unlinked_on_worker_exception(
        self, small_powerlaw_graph, captured_segments
    ):
        plan = {"faults": [{"kind": "crash-entry", "worker": 0}]}
        with faults.fault_plan(plan):
            with pytest.raises(RuntimeError, match="injected worker fault"):
                process_and_decomposition(small_powerlaw_graph, 1, 2, workers=3)
        assert_all_unlinked(captured_segments)

    def test_unlinked_on_worker_keyboard_interrupt(
        self, small_powerlaw_graph, captured_segments
    ):
        plan = {"faults": [{"kind": "crash-entry", "worker": 0, "mode": "interrupt"}]}
        with faults.fault_plan(plan):
            with pytest.raises(RuntimeError):
                process_and_decomposition(small_powerlaw_graph, 1, 2, workers=3)
        assert_all_unlinked(captured_segments)

    def test_hard_killed_worker_fails_fast(
        self, small_powerlaw_graph, captured_segments
    ):
        """A worker dying without cleanup (as an OOM kill would) must not
        stall its peers until the barrier safety timeout."""
        import time

        plan = {"faults": [{"kind": "crash", "worker": 2, "mode": "hard-exit"}]}
        with faults.fault_plan(plan):
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="exit codes"):
                process_and_decomposition(small_powerlaw_graph, 1, 2, workers=3)
        assert time.perf_counter() - t0 < 30.0  # far below barrier_timeout
        assert_all_unlinked(captured_segments)

    def test_unlinked_on_parent_keyboard_interrupt(
        self, small_powerlaw_graph, captured_segments
    ):
        class InterruptedPool(PersistentPool):
            def _collect(self, generation):
                raise KeyboardInterrupt

        csr = CSRSpace.from_graph(small_powerlaw_graph, 1, 2)
        pool = InterruptedPool(2)
        with pytest.raises(KeyboardInterrupt):
            pool.run_and(csr)
        assert pool.closed
        assert_all_unlinked(captured_segments)

    def test_destroy_is_idempotent(self):
        arena = SharedCSRBuffers()
        arena.create("x", 64)
        arena.destroy()
        arena.destroy()  # second call must be a no-op, not an error

    def test_create_from_round_trips(self):
        from array import array

        arena = SharedCSRBuffers()
        try:
            data = array("q", [3, 1, 4, 1, 5, 9, 2, 6])
            shm = arena.create_from("buf", data)
            out = array("q")
            out.frombytes(bytes(shm.buf[:8 * len(data)]))
            assert list(out) == list(data)
        finally:
            arena.destroy()
