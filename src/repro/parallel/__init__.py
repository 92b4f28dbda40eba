"""Shared-memory parallel execution substrate.

The paper parallelises the local algorithms with OpenMP and studies static vs
dynamic scheduling.  This package provides two complementary pieces:

* :class:`repro.parallel.scheduler.SimulatedScheduler` — a deterministic cost
  model that assigns per-r-clique work to ``p`` virtual threads under static
  or dynamic scheduling and reports the makespan.  The simulated scalability
  experiments (E5) are produced from these makespans, which reproduce the
  load-imbalance behaviour the paper discusses.
* :class:`repro.parallel.procpool.PersistentPool` — worker *processes*
  attached zero-copy to the CSR buffers via ``multiprocessing.shared_memory``:
  the real multi-core path of the AND, with per-chunk τ ownership and a
  shared notification bitmap.  The pool keeps its workers and segments
  alive across decomposition calls so experiment sweeps pay the fork once;
  a single run is a ``with PersistentPool(...)`` block
  (:func:`repro.parallel.procpool.process_and_decomposition`).
"""

from repro.parallel.procpool import (
    PersistentPool,
    SharedCSRBuffers,
    process_and_decomposition,
)
from repro.parallel.runner import (
    simulate_local_scalability,
    simulate_peeling_scalability,
)
from repro.parallel.scheduler import ScheduleReport, SimulatedScheduler

__all__ = [
    "PersistentPool",
    "ScheduleReport",
    "SharedCSRBuffers",
    "SimulatedScheduler",
    "process_and_decomposition",
    "simulate_local_scalability",
    "simulate_peeling_scalability",
]
