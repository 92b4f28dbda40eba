"""Chaos suite: random fault schedules against the supervised pool.

This is the acceptance test of the resilience layer.  Each case draws a
random fault plan — crashes (raise / interrupt / hard-exit), barrier
stalls, silent pipe EOFs, at random workers and rounds — from a seeded RNG,
runs a supervised decomposition under it, and asserts the two invariants
that must hold no matter what was injected:

* **κ parity**: the result is byte-identical to the serial CSR kernel,
  whether it came from a clean run, a rebuilt-pool retry, or the serial
  fallback;
* **no leaks**: every pool shared-memory segment visible in ``/dev/shm``
  before the run is exactly what is visible after — crashed workers and
  torn-down pools leave nothing behind.

The env-plan cases exercise the ``REPRO_FAULT_PLAN`` activation path the CI
chaos matrix uses.
"""

import json
import os
import random
from pathlib import Path

import pytest

from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.decomposition import nucleus_decomposition
from repro.graph.generators import powerlaw_cluster_graph
from repro.resilience import faults
from repro.resilience.supervisor import ResiliencePolicy, SupervisedPool

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="chaos leak scan needs a /dev/shm mount"
)


@pytest.fixture(autouse=True)
def ambient_plan(monkeypatch):
    """Clear the ambient ``REPRO_FAULT_PLAN`` so every case is driven by its
    own schedule — but yield the raw ambient value, so the dedicated
    :class:`TestAmbientPlan` case can re-apply whatever the CI chaos matrix
    exported and prove recovery under it."""
    raw = os.environ.get(faults.PLAN_ENV)
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    faults._reset_env_cache()
    yield raw
    faults._reset_env_cache()


def pool_segments():
    """Names of pool shared-memory segments currently in /dev/shm."""
    return {
        p.name
        for p in SHM_DIR.iterdir()
        if p.name.startswith(("rn-", "rp-"))
    }


def random_plan(rng: random.Random, workers: int) -> dict:
    """A random schedule of 1–4 faults over the first rounds of a job."""
    plan = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["crash", "crash", "stall", "pipe-eof", "crash-entry"])
        spec = {"kind": kind, "worker": rng.randrange(workers)}
        if kind in ("crash", "stall"):
            spec["round"] = rng.randint(0, 3)
        if kind in ("crash", "crash-entry"):
            spec["mode"] = rng.choice(["raise", "interrupt", "hard-exit"])
        if kind == "stall":
            spec["seconds"] = 30.0  # far beyond the job deadline
        plan.append(spec)
    return {"faults": plan}


CHAOS_POLICY = ResiliencePolicy(
    max_retries=4,          # enough to outlast any 4-fault schedule
    backoff_base=0.01,
    backoff_cap=0.05,
    job_timeout=2.0,        # stalls resolve via the deadline, not 600s
)


class TestChaosSchedules:
    @pytest.mark.parametrize("seed", range(6))
    def test_and_kappa_parity_and_no_leaks(self, seed):
        rng = random.Random(seed)
        graph = powerlaw_cluster_graph(90 + 10 * seed, 3, 0.4, seed=seed)
        space = CSRSpace.from_graph(graph, 1, 2)
        serial = and_decomposition_csr(space)
        before = pool_segments()
        plan = random_plan(rng, workers=3)
        with faults.fault_plan(plan) as injector:
            with SupervisedPool(workers=3, policy=CHAOS_POLICY) as pool:
                result = pool.run_and(space)
        assert result.kappa == serial.kappa, f"plan={plan}"
        assert pool_segments() == before, f"leaked segments, plan={plan}"
        meta = result.operations["resilience"]
        # something was injected, so something must have been observed:
        # either a retry recovered or the fallback took over
        assert injector.fired, f"plan never fired: {plan}"
        assert meta["retries"] > 0 or meta["fallback"], f"plan={plan}"

    def test_worst_case_everything_fails(self):
        """Unlimited crashes defeat every retry; the fallback must still
        deliver serial-identical κ and leak nothing."""
        space = CSRSpace.from_graph(powerlaw_cluster_graph(80, 3, 0.4, seed=3), 1, 2)
        serial = and_decomposition_csr(space)
        before = pool_segments()
        plan = {"faults": [
            {"kind": "crash", "worker": w, "round": 0, "times": -1}
            for w in range(3)
        ]}
        with faults.fault_plan(plan):
            policy = ResiliencePolicy(
                max_retries=2, backoff_base=0.01, backoff_cap=0.05
            )
            with SupervisedPool(workers=3, policy=policy) as pool:
                result = pool.run_and(space)
        assert result.kappa == serial.kappa
        assert result.operations["resilience"]["fallback"]
        assert pool_segments() == before


class TestAmbientPlan:
    """The CI acceptance case: whatever fault plan the chaos matrix entry
    exported in ``REPRO_FAULT_PLAN``, a supervised job loses workers to it
    and still completes with κ byte-identical to serial and no leaks."""

    DEFAULT = {"faults": [
        {"kind": "crash", "worker": 0, "round": 0, "mode": "hard-exit"},
    ]}

    def test_matrix_plan_recovers(self, monkeypatch, ambient_plan):
        raw = ambient_plan or json.dumps(self.DEFAULT)
        graph = powerlaw_cluster_graph(110, 3, 0.4, seed=21)
        before = pool_segments()
        monkeypatch.setenv(faults.PLAN_ENV, raw)
        faults._reset_env_cache()
        serial = nucleus_decomposition(graph, 1, 2, algorithm="and")
        result = nucleus_decomposition(
            graph, 1, 2, algorithm="and", parallel="process", workers=3,
            resilience={
                "max_retries": 3, "backoff_base": 0.01,
                "backoff_cap": 0.05, "job_timeout": 2.0,
            },
        )
        assert result.kappa == serial.kappa
        assert pool_segments() == before
        meta = result.operations["resilience"]
        assert meta["retries"] > 0 or meta["fallback"], f"plan={raw}"


class TestEnvPlanActivation:
    """The activation path of the CI chaos matrix: plan via environment."""

    @pytest.mark.parametrize("plan", [
        [{"kind": "crash", "worker": 0, "round": 1}],
        [{"kind": "stall", "worker": 1, "round": 0, "seconds": 30.0}],
        [{"kind": "pipe-eof", "worker": 2}],
    ], ids=["crash", "stall", "pipe-eof"])
    def test_env_plan_survives_with_parity(self, monkeypatch, plan):
        graph = powerlaw_cluster_graph(100, 3, 0.4, seed=7)
        serial = nucleus_decomposition(graph, 1, 2, algorithm="and")
        monkeypatch.setenv(faults.PLAN_ENV, json.dumps({"faults": plan}))
        faults._reset_env_cache()
        before = pool_segments()
        result = nucleus_decomposition(
            graph, 1, 2, algorithm="and", parallel="process", workers=3,
            resilience={
                "max_retries": 3, "backoff_base": 0.01,
                "backoff_cap": 0.05, "job_timeout": 2.0,
            },
        )
        assert result.kappa == serial.kappa
        assert pool_segments() == before
        meta = result.operations["resilience"]
        assert meta["retries"] > 0 or meta["fallback"]
