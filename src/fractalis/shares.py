"""Work cut into one share per usable CPU.

`cuts` splits a range into contiguous shares, and `run_shares` runs the
shares of a call on joined threads: share 0 on the caller, each later
share on a thread of its own, every thread joined before the call
returns.  The callers run numpy loops that release the GIL and write
disjoint slices, so a threaded result is bit-identical to a one-share
run.  `io` forks a process per share instead, over the same cuts.
"""
from __future__ import annotations

import contextvars
import os
import threading

__all__ = ["MIN_SHARE", "usable_cpus", "cuts", "run_shares"]

MIN_SHARE = 1 << 16   # elements per threaded share; a smaller job runs as one share


def usable_cpus():
    """CPUs this process may run on: len(os.sched_getaffinity(0)), else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def cuts(count, minimum=1):
    """Bounds 0 = c_0 <= ... <= c_k = count of k contiguous shares of
    range(count): one per usable CPU, fewer where a share would hold under
    `minimum` items, and never none."""
    shares = max(1, min(usable_cpus(), count // minimum))
    return [count * s // shares for s in range(shares + 1)]


def run_shares(count, work):
    """work(k) for k in range(count): share 0 on the caller, each later
    share on its own thread, started in a copy of the caller's context so
    that the caller's np.errstate holds there too.

    Every thread is joined before this returns or raises.  An exception of
    the caller's share propagates; else the first failed share's
    exception is raised again in the caller.
    """
    errors = [None] * count

    def run(k):
        try:
            work(k)
        except BaseException as exc:   # handed to the caller after the join
            errors[k] = exc

    threads = []
    try:
        for k in range(1, count):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, k))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
