"""Pickle round-trips for every worker-spec dataclass in the process pool.

A :class:`WorkerSpec` crosses the process boundary at fork/spawn time and a
:class:`JobSpec` travels down a live pipe, so both must survive
``multiprocessing``'s pickling under **every** start method the platform
offers — under ``spawn`` there is no inherited memory to hide an
unpicklable field behind.  The example registry below is asserted complete
against the module: adding a new dataclass to ``procpool`` without a
round-trip example here fails the suite.
"""

import dataclasses
import multiprocessing as mp
import pickle
import unittest

from repro.parallel import procpool
from repro.parallel.procpool import JobSpec, WorkerSpec

#: One representative, fully-populated instance per worker-facing dataclass.
EXAMPLES = {
    WorkerSpec: WorkerSpec(
        names={"tau": "rp-1-abc-tau", "meta": "rp-1-abc-meta"},
        n=12,
        stride=2,
        bounds=(4, 9),
        wid=1,
        barrier_timeout=600.0,
        faults=({"kind": "crash-entry", "mode": "raise"},),
    ),
    JobSpec: JobSpec(
        max_iterations=3,
        gen=5,
        faults=({"kind": "stall", "round": 2, "seconds": 0.01},),
    ),
}


def _module_dataclasses():
    return {
        obj
        for name, obj in vars(procpool).items()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == procpool.__name__
    }


class TestExampleRegistryIsComplete(unittest.TestCase):
    def test_every_dataclass_has_an_example(self):
        missing = _module_dataclasses() - set(EXAMPLES)
        self.assertEqual(
            missing,
            set(),
            "add a pickle round-trip example for every new worker dataclass",
        )

    def test_specs_are_frozen(self):
        for cls in EXAMPLES:
            self.assertTrue(cls.__dataclass_params__.frozen, cls.__name__)
            with self.assertRaises(dataclasses.FrozenInstanceError):
                object_instance = EXAMPLES[cls]
                setattr(object_instance, "wid", 99)


class TestPlainPickleRoundTrip(unittest.TestCase):
    def test_round_trip_all_protocols(self):
        for cls, example in EXAMPLES.items():
            for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
                with self.subTest(cls=cls.__name__, protocol=proto):
                    clone = pickle.loads(pickle.dumps(example, protocol=proto))
                    self.assertEqual(clone, example)
                    self.assertIsNot(clone, example)

    def test_default_instances_round_trip(self):
        # a space binding leaves the graph fields at their defaults
        spec = WorkerSpec(
            names={}, n=1, stride=1, bounds=(0, 1), wid=0, barrier_timeout=1.0
        )
        self.assertEqual(pickle.loads(pickle.dumps(spec)), spec)
        job = JobSpec()
        self.assertEqual(pickle.loads(pickle.dumps(job)), job)

    def test_replace_for_fault_attachment_round_trips(self):
        # the parent attaches per-worker faults with dataclasses.replace;
        # the derived instance must pickle exactly like a directly-built one
        base = JobSpec(gen=2)
        derived = dataclasses.replace(
            base, faults=({"kind": "crash", "round": 0},)
        )
        clone = pickle.loads(pickle.dumps(derived))
        self.assertEqual(clone, derived)
        self.assertIsNone(base.faults)


class TestPipeTransferUnderEveryStartMethod(unittest.TestCase):
    def test_specs_survive_a_context_pipe(self):
        # Pipe connections pickle with the context's reduction machinery —
        # the exact path a live pool dispatch takes
        for method in mp.get_all_start_methods():
            ctx = mp.get_context(method)
            for cls, example in EXAMPLES.items():
                with self.subTest(start_method=method, cls=cls.__name__):
                    parent, child = ctx.Pipe()
                    try:
                        parent.send(example)
                        received = child.recv()
                    finally:
                        parent.close()
                        child.close()
                    self.assertEqual(received, example)


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class TestUnpicklablePayloadFailsLoudly(unittest.TestCase):
    def test_bad_fault_payload_raises_at_dump_time(self):
        # the frozen specs cannot stop a caller putting garbage inside a
        # fault directive dict, but pickling must fail before dispatch, not
        # inside a worker
        bad = JobSpec(faults=({"hook": _Unpicklable()},))
        with self.assertRaises(TypeError):
            pickle.dumps(bad)


if __name__ == "__main__":
    unittest.main()
