"""PAR001 bad: unpicklable values routed into worker payloads."""

from repro.parallel.procpool import JobSpec, WorkerSpec


def dispatch(ctx, conn, run, path):
    spec = WorkerSpec(
        names={},
        n=1,
        stride=1,
        bounds=(0, 1),
        wid=0,
        barrier_timeout=1.0,
        faults=(lambda wid: wid,),
    )
    conn.send({"handle": open(path)})
    proc = ctx.Process(target=run, args=(ctx.Lock(),))
    job = JobSpec(faults=(ctx.memmap(path),))
    return spec, proc, job
