"""Static/dynamic scheduling simulation for the scalability experiments.

The central object is :class:`SimulatedScheduler`: given a list of task costs
(one per r-clique, typically its S-degree, i.e. the number of ρ evaluations
its update performs), it assigns tasks to ``p`` virtual threads either

* **statically** — contiguous chunks of the task list, the OpenMP default the
  paper argues against, or
* **dynamically** — each thread grabs the next chunk when it finishes, the
  policy the paper adopts;

and reports the *makespan* (the busiest thread's total work).  Speedup is the
single-thread work divided by the makespan.  This models exactly the
load-imbalance phenomenon behind Figure 1b / the scalability section without
needing real threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["ScheduleReport", "SimulatedScheduler"]


@dataclass
class ScheduleReport:
    """Outcome of scheduling one batch of tasks onto virtual threads."""

    num_threads: int
    policy: str
    total_work: int
    makespan: int
    per_thread_work: List[int]

    @property
    def speedup(self) -> float:
        """Speedup over a single thread executing all the work serially."""
        if self.makespan == 0:
            return float(self.num_threads)
        return self.total_work / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup divided by the number of threads (1.0 = perfect scaling)."""
        if self.num_threads == 0:
            return 0.0
        return self.speedup / self.num_threads

    @property
    def imbalance(self) -> float:
        """Max thread work divided by mean thread work (1.0 = perfectly balanced)."""
        busy = [w for w in self.per_thread_work]
        if not busy or self.makespan == 0:
            return 1.0
        mean = sum(busy) / len(busy)
        if mean == 0:
            return 1.0
        return self.makespan / mean


class SimulatedScheduler:
    """Deterministic scheduling cost model for a fixed thread count.

    Parameters
    ----------
    num_threads:
        Number of virtual threads.
    policy:
        ``"static"`` (contiguous chunking) or ``"dynamic"`` (work stealing via
        a shared queue of chunks).
    chunk_size:
        Number of tasks handed out at a time under the dynamic policy
        (OpenMP's ``schedule(dynamic, chunk)``; the default 1 matches
        OpenMP's default dynamic chunk).  Ignored for static.
    """

    def __init__(
        self, num_threads: int, policy: str = "dynamic", chunk_size: int = 1
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if policy not in ("static", "dynamic"):
            raise ValueError("policy must be 'static' or 'dynamic'")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.num_threads = num_threads
        self.policy = policy
        self.chunk_size = chunk_size

    def schedule(self, costs: Sequence[int]) -> ScheduleReport:
        """Assign tasks with the given costs and return the schedule report."""
        costs = list(costs)
        total = sum(costs)
        if self.policy == "static":
            per_thread = self._static(costs)
        else:
            per_thread = self._dynamic(costs)
        makespan = max(per_thread, default=0)
        return ScheduleReport(
            num_threads=self.num_threads,
            policy=self.policy,
            total_work=total,
            makespan=makespan,
            per_thread_work=per_thread,
        )

    def _static(self, costs: List[int]) -> List[int]:
        """Contiguous equal-count chunks, one per thread."""
        n = len(costs)
        per_thread = [0] * self.num_threads
        if n == 0:
            return per_thread
        base = n // self.num_threads
        remainder = n % self.num_threads
        start = 0
        for t in range(self.num_threads):
            size = base + (1 if t < remainder else 0)
            per_thread[t] = sum(costs[start:start + size])
            start += size
        return per_thread

    def _dynamic(self, costs: List[int]) -> List[int]:
        """Greedy simulation of a shared chunk queue.

        Threads repeatedly take the next ``chunk_size`` tasks; the thread with
        the least accumulated work takes the next chunk (an idealised but
        deterministic model of "whoever finishes first grabs more work").
        """
        per_thread = [0] * self.num_threads
        n = len(costs)
        position = 0
        while position < n:
            chunk = costs[position:position + self.chunk_size]
            position += self.chunk_size
            # thread that is least loaded picks up the chunk
            target = min(range(self.num_threads), key=lambda t: per_thread[t])
            per_thread[target] += sum(chunk)
        return per_thread

