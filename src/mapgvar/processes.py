"""The one process map, which runs ``mc_variance``'s kinds, ``verify``'s games
and ``serialize_game``'s transition ranges on the CPUs this process may use."""
from __future__ import annotations

import os
import pickle
import signal
import threading


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask's size, or 1 where
    the platform has no affinity mask."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _in_processes(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, the tasks run in W processes. W is the
    smaller of the task count and the CPUs this process may run on, at least
    1, and 1 while other Python threads run, since a forked child could
    inherit a lock one of them holds. Task g runs in process g mod W, each
    process taking its tasks in order: process 0 is the caller, each other
    one a forked child that pipes back a pickle of its (results, exception
    or None) pair and leaves by ``os._exit``, so no exit handler runs and no
    inherited stdio buffer is flushed. The caller unpickles each pickle as
    soon as it has read it, so it holds one child's pickle at a time. A
    process stops at its first task that raises an Exception; once all are
    done, the lowest-index failing task's exception re-raises here, as one
    loop over the tasks would raise it. A child that writes nothing (it died, or a task raised a
    BaseException that is not an Exception) raises RuntimeError. No child
    outlives the call: each pipe is read to its end and its child reaped,
    and if anything here raises first, every child left is killed and
    reaped."""
    workers = 1 if threading.active_count() > 1 else max(1, min(len(tasks), _cpu_count()))

    def share(w: int) -> tuple:
        results = []
        try:
            for task in tasks[w::workers]:
                results.append(fn(task))
        except Exception as exc:  # this share's later tasks come after it
            return results, exc
        return results, None

    children, done = [], False  # (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(share(w)))
                    os._exit(0)
                finally:  # reached only when the write did not happen
                    os._exit(1)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        shares = [share(0)]
        for _, pipe in children:  # one child's pickle alive at a time
            data = pipe.read()
            shares.append(pickle.loads(data) if data else None)
            del data
        done = True
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for output, status in zip(shares[1:], statuses):
        if output is None:
            raise RuntimeError(f"worker process exited with status {status} "
                               "and no result")
    failures = [(w + workers * len(results), exc)
                for w, (results, exc) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[g % workers][0][g // workers] for g in range(len(tasks))]
