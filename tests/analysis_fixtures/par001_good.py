"""PAR001 good: payloads are flat picklable data; handles stay parent-side."""

from repro.parallel.procpool import JobSpec, WorkerSpec


def dispatch(ctx, conn, run, names):
    spec = WorkerSpec(
        names=names,
        n=4,
        stride=2,
        bounds=(0, 4),
        wid=0,
        barrier_timeout=600.0,
    )
    job = JobSpec(gen=1)
    conn.send(job)
    proc = ctx.Process(target=run, args=(spec,), daemon=True)
    lock = ctx.Lock()  # parent-side only: never enters a payload
    return proc, lock
