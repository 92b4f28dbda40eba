"""Supervision layer: taxonomy, fault injector, supervised pool, API, CLI.

The contract under test is the acceptance criterion of the resilience PR: a
supervised job that loses a worker mid-sweep — by exception, hard exit,
stall or silent pipe EOF — still completes with κ byte-identical to the
serial kernel, leaks no shared-memory segments, and reports what happened
through the event counters.
"""

import json
import signal
import threading
from multiprocessing import shared_memory

import pytest

from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.decomposition import nucleus_decomposition
from repro.resilience import faults
from repro.resilience.errors import (
    JobTimeoutError,
    PoolPoisonedError,
    ReproError,
    StoreFormatError,
    WorkerCrashError,
)
from repro.resilience.supervisor import (
    ResilienceEvents,
    ResiliencePolicy,
    SupervisedPool,
    coerce_policy,
    reap_orphan_segments,
)

pytestmark = pytest.mark.usefixtures("no_env_plan")


@pytest.fixture
def no_env_plan(monkeypatch):
    """Isolate every test from an ambient REPRO_FAULT_PLAN (CI chaos jobs)."""
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    faults._reset_env_cache()
    yield
    faults._reset_env_cache()


@pytest.fixture
def space(small_powerlaw_graph):
    return CSRSpace.from_graph(small_powerlaw_graph, 1, 2)


@pytest.fixture
def serial_kappa(space):
    return and_decomposition_csr(space).kappa


def fast_policy(**overrides):
    defaults = dict(backoff_base=0.01, backoff_cap=0.05)
    defaults.update(overrides)
    return ResiliencePolicy(**defaults)


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_hierarchy(self):
        for cls in (WorkerCrashError, JobTimeoutError, PoolPoisonedError,
                    StoreFormatError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, RuntimeError)  # legacy catch sites

    def test_retryable_classification(self):
        assert WorkerCrashError.retryable
        assert JobTimeoutError.retryable
        assert PoolPoisonedError.retryable
        assert not StoreFormatError.retryable
        assert not ReproError.retryable

    def test_structured_fields(self):
        crash = WorkerCrashError("boom", worker=3, exit_codes=[9])
        assert crash.worker == 3 and crash.exit_codes == [9]
        timeout = JobTimeoutError("late", timeout=1.5)
        assert timeout.timeout == 1.5

    def test_store_error_importable_from_store(self):
        from repro.store import StoreFormatError as FromStore
        from repro.store.bundle import StoreFormatError as FromBundle

        assert FromStore is StoreFormatError is FromBundle


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_parses_dict_list_and_json(self):
        spec = {"kind": "crash", "worker": 1, "round": 2}
        for plan in ({"faults": [spec]}, [spec], json.dumps({"faults": [spec]})):
            inj = faults.FaultInjector(plan)
            directives, eof = inj.dispatch_faults(1)
            assert directives == [{"kind": "crash", "round": 2, "mode": "raise"}]
            assert not eof

    @pytest.mark.parametrize("bad", [
        {"faults": [{"kind": "meteor"}]},
        {"faults": [{"kind": "crash", "mode": "gently"}]},
        {"faults": [{"kind": "crash", "severity": 11}]},
        42,
    ])
    def test_rejects_malformed_plans(self, bad):
        with pytest.raises(ValueError):
            faults.FaultInjector(bad)

    def test_budget_default_is_one_firing(self):
        inj = faults.FaultInjector([{"kind": "crash", "worker": 0}])
        assert inj.dispatch_faults(0)[0]
        assert not inj.dispatch_faults(0)[0]
        assert inj.exhausted
        assert inj.fired == {"crash": 1}

    def test_unlimited_budget(self):
        inj = faults.FaultInjector([{"kind": "crash", "worker": 0, "times": -1}])
        for _ in range(5):
            assert inj.dispatch_faults(0)[0]
        assert not inj.exhausted

    def test_worker_selectivity(self):
        inj = faults.FaultInjector([{"kind": "crash-entry", "worker": 2}])
        assert inj.entry_faults(0) == []
        assert inj.entry_faults(2) == [{"kind": "crash-entry", "mode": "raise"}]

    def test_pipe_eof_not_consumed_by_one_shot_dispatch(self):
        inj = faults.FaultInjector([{"kind": "pipe-eof", "worker": 0}])
        assert inj.dispatch_faults(0, pipe=False) == ([], False)
        assert inj.dispatch_faults(0) == ([], True)

    def test_env_activation(self, monkeypatch, tmp_path):
        plan = {"faults": [{"kind": "stall", "worker": 1}]}
        monkeypatch.setenv(faults.PLAN_ENV, json.dumps(plan))
        faults._reset_env_cache()
        active = faults.get_active()
        assert active is not None
        # parsed once: budgets persist across get_active() calls
        assert faults.get_active() is active

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        monkeypatch.setenv(faults.PLAN_ENV, f"@{path}")
        faults._reset_env_cache()
        assert faults.get_active() is not None
        faults._reset_env_cache()

    def test_install_beats_env(self, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, '{"faults": []}')
        faults._reset_env_cache()
        with faults.fault_plan({"faults": []}) as inj:
            assert faults.get_active() is inj
        faults._reset_env_cache()


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------
class TestSupervisedPool:
    def test_healthy_run_has_no_events(self, space, serial_kappa):
        with SupervisedPool(workers=2, policy=fast_policy()) as pool:
            result = pool.run_and(space)
        assert result.kappa == serial_kappa
        meta = result.operations["resilience"]
        assert meta["attempts"] == 1 and not meta["fallback"]
        assert meta["retries"] == meta["rebuilds"] == meta["fallbacks"] == 0

    @pytest.mark.parametrize("plan", [
        [{"kind": "crash", "worker": 0, "round": 0}],
        [{"kind": "crash", "worker": 1, "round": 1, "mode": "hard-exit"}],
        [{"kind": "crash-entry", "worker": 0, "mode": "interrupt"}],
        [{"kind": "pipe-eof", "worker": 1}],
    ], ids=["crash-raise", "crash-hard-exit", "entry-interrupt", "pipe-eof"])
    def test_retry_recovers_with_kappa_parity(self, space, serial_kappa, plan):
        with faults.fault_plan({"faults": plan}):
            with SupervisedPool(workers=2, policy=fast_policy()) as pool:
                result = pool.run_and(space)
        assert result.kappa == serial_kappa
        meta = result.operations["resilience"]
        assert meta["retries"] == 1 and meta["rebuilds"] == 1
        assert not meta["fallback"]

    def test_stall_hits_deadline_then_recovers(self, space, serial_kappa):
        plan = [{"kind": "stall", "worker": 0, "round": 0, "seconds": 30}]
        with faults.fault_plan({"faults": plan}):
            policy = fast_policy(job_timeout=1.0)
            with SupervisedPool(workers=2, policy=policy) as pool:
                result = pool.run_and(space)
        assert result.kappa == serial_kappa
        assert result.operations["resilience"]["retries"] == 1

    def test_serial_fallback_after_budget(self, space, serial_kappa):
        plan = [{"kind": "crash", "worker": 0, "round": 0, "times": -1}]
        with faults.fault_plan({"faults": plan}):
            policy = fast_policy(max_retries=1)
            with SupervisedPool(workers=2, policy=policy) as pool:
                result = pool.run_and(space)
        assert result.kappa == serial_kappa
        assert result.algorithm == "and-serial-fallback"
        meta = result.operations["resilience"]
        assert meta["fallback"] and meta["fallbacks"] == 1
        assert "injected worker fault" in meta["cause"]

    def test_fallback_disabled_raises_last_error(self, space):
        plan = [{"kind": "crash", "worker": 0, "round": 0, "times": -1}]
        with faults.fault_plan({"faults": plan}):
            policy = fast_policy(max_retries=1, serial_fallback=False)
            with SupervisedPool(workers=2, policy=policy) as pool:
                with pytest.raises(WorkerCrashError):
                    pool.run_and(space)

    def test_pool_survives_for_next_job(self, space, serial_kappa):
        """One crashed job must not degrade the following healthy ones."""
        plan = [{"kind": "crash", "worker": 0, "round": 0}]
        with faults.fault_plan({"faults": plan}):
            with SupervisedPool(workers=2, policy=fast_policy()) as pool:
                first = pool.run_and(space)
                second = pool.run_and(space)
        assert first.kappa == serial_kappa and second.kappa == serial_kappa
        # the second job reused the rebuilt pool: no further events
        meta = second.operations["resilience"]
        assert meta["retries"] == 1 and meta["attempts"] == 1

    def test_closed_pool_refuses_jobs(self, space):
        pool = SupervisedPool(workers=2, policy=fast_policy())
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_and(space)

    def test_nonretryable_error_propagates(self, space, monkeypatch):
        from repro.parallel.procpool import PersistentPool

        def explode(self, *a, **k):
            raise StoreFormatError("fatal by design")

        monkeypatch.setattr(PersistentPool, "run_and", explode)
        with SupervisedPool(workers=2, policy=fast_policy()) as pool:
            with pytest.raises(StoreFormatError):
                pool.run_and(space)

    def test_signal_handler_restored_on_close(self):
        before = signal.getsignal(signal.SIGTERM)
        pool = SupervisedPool(workers=2, policy=fast_policy())
        assert signal.getsignal(signal.SIGTERM) != before
        pool.close()
        assert signal.getsignal(signal.SIGTERM) == before

    def test_no_handlers_off_main_thread(self, space):
        """Constructing a supervised pool off the main thread must not try
        to install a signal handler (signal.signal would raise)."""
        outcome = {}

        def build():
            try:
                pool = SupervisedPool(
                    workers=2, policy=fast_policy(reap_on_start=False)
                )
                pool.close()
                outcome["ok"] = True
            except Exception as exc:  # pragma: no cover - the failure mode
                outcome["error"] = exc

        thread = threading.Thread(target=build)
        thread.start()
        thread.join()
        assert outcome.get("ok"), outcome.get("error")


# ----------------------------------------------------------------------
# reaper
# ----------------------------------------------------------------------
class TestReaper:
    def test_reaps_only_dead_pid_segments(self):
        dead_pid = 2 ** 22 + 12345  # beyond any default pid_max
        orphan = shared_memory.SharedMemory(
            name=f"rp-{dead_pid}-abcdef-tau", create=True, size=64
        )
        orphan.close()
        import os
        live = shared_memory.SharedMemory(
            name=f"rp-{os.getpid()}-abcdef-tau", create=True, size=64
        )
        try:
            assert reap_orphan_segments() >= 1
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=orphan.name)
            # our own segment is untouched
            shared_memory.SharedMemory(name=live.name).close()
        finally:
            live.close()
            live.unlink()

    def test_ignores_foreign_names(self):
        foreign = shared_memory.SharedMemory(
            name="unrelated-segment-xyz", create=True, size=64
        )
        try:
            reap_orphan_segments()
            shared_memory.SharedMemory(name=foreign.name).close()
        finally:
            foreign.close()
            foreign.unlink()

    def test_supervised_pool_reaps_on_start(self):
        dead_pid = 2 ** 22 + 54321
        orphan = shared_memory.SharedMemory(
            name=f"rn-{dead_pid}-012345-kappa", create=True, size=64
        )
        orphan.close()
        with SupervisedPool(workers=2, policy=fast_policy()) as pool:
            assert pool.events.reaped_segments >= 1


# ----------------------------------------------------------------------
# policy plumbing
# ----------------------------------------------------------------------
class TestPolicy:
    def test_coerce(self):
        assert coerce_policy(None) is None
        assert coerce_policy(False) is None
        assert coerce_policy(True) == ResiliencePolicy()
        policy = ResiliencePolicy(max_retries=5)
        assert coerce_policy(policy) is policy
        assert coerce_policy({"max_retries": 5}) == policy
        with pytest.raises(ValueError):
            coerce_policy("aggressive")
        with pytest.raises(TypeError):
            coerce_policy({"not_a_field": 1})

    def test_events_as_dict(self):
        events = ResilienceEvents(retries=2, fallbacks=1)
        assert events.as_dict() == {
            "retries": 2, "rebuilds": 0, "fallbacks": 1, "reaped_segments": 0,
        }


# ----------------------------------------------------------------------
# public API + CLI surface
# ----------------------------------------------------------------------
class TestPublicSurface:
    def test_nucleus_decomposition_resilience(self, small_powerlaw_graph):
        serial = nucleus_decomposition(small_powerlaw_graph, 1, 2, algorithm="and")
        plan = [{"kind": "crash", "worker": 0, "round": 0}]
        with faults.fault_plan({"faults": plan}):
            result = nucleus_decomposition(
                small_powerlaw_graph, 1, 2,
                algorithm="and", parallel="process", workers=2,
                resilience={"backoff_base": 0.01},
            )
        assert result.kappa == serial.kappa
        assert result.operations["resilience"]["retries"] == 1

    def test_resilience_requires_process(self, small_powerlaw_graph):
        with pytest.raises(ValueError, match="parallel='process'"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, resilience=True
            )

    def test_resilience_false_is_unsupervised(self, small_powerlaw_graph):
        result = nucleus_decomposition(
            small_powerlaw_graph, 1, 2,
            algorithm="and", parallel="process", workers=2, resilience=False,
        )
        assert "resilience" not in result.operations

    def test_package_exports(self):
        import repro

        assert repro.resilience.SupervisedPool is SupervisedPool
        assert repro.StoreFormatError is StoreFormatError

    def test_cli_resilient_flag(self, capsys):
        from repro.cli import main

        plan = [{"kind": "crash", "worker": 0, "round": 0}]
        with faults.fault_plan({"faults": plan}):
            code = main([
                "decompose", "--dataset", "fb", "--algorithm", "and",
                "--parallel", "process", "--workers", "2", "--resilient",
            ])
        out = capsys.readouterr().out
        assert code == 0
        assert "resilience: attempts=" in out
        assert "retries=1" in out

    def test_cli_resilient_requires_process(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["decompose", "--dataset", "fb", "--resilient"])
        assert "--resilient requires" in capsys.readouterr().err
