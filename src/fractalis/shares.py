"""Work cut into one share per usable CPU.

`cuts` splits a range into contiguous shares, and `run_shares` runs the
shares of a call on joined threads: share 0 on the caller, each later
share on a thread of its own, every thread joined before the call
returns.  `run_blocks` cuts the rows of a 2-D array into such shares and
walks each share in row blocks of about BLOCK_BYTES, with one reusable
scratch array per thread, so a sweep over a large array allocates no
array of its size.  The callers run numpy loops that release the GIL and
write disjoint slices, elementwise or per row, so a threaded or blocked
result is bit-identical to a one-share, one-block run.  `io`'s text
writers fork a process per share instead, over the same cuts.
"""
from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

__all__ = ["MIN_SHARE", "BLOCK_BYTES", "usable_cpus", "cuts", "run_shares", "run_blocks"]

MIN_SHARE = 1 << 16   # elements per threaded share; a smaller job runs as one share
BLOCK_BYTES = 1 << 19   # bytes a row block holds; 256 KB to 2 MB timed alike at 2049^2


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


def run_blocks(rows, width, work, step=1):
    """work(lo, hi, scratch) over consecutive row blocks [lo, hi) of
    range(rows), a band of them per share of `run_shares`.

    A row holds `width` float64 values, and `rows` is a multiple of
    `step`; lo and hi are multiples of `step` too.  The rows are cut by
    `cuts` into bands of whole steps, at least MIN_SHARE values a band,
    and each band is walked in blocks of as many whole steps as fit in
    BLOCK_BYTES, at least one.  Each band gets one float64 scratch array
    of shape (steps per block, width), one row per step, which every
    block of the band reuses; work(lo, hi, scratch) may use its first
    (hi - lo) // step rows.
    """
    size = step * width
    bands = cuts(rows // step, -(-MIN_SHARE // size))
    block = max(1, BLOCK_BYTES // (8 * size))

    def band(k):
        start, stop = bands[k], bands[k + 1]
        scratch = np.empty((min(block, stop - start), width))
        for lo in range(start, stop, block):
            work(lo * step, min(lo + block, stop) * step, scratch)

    run_shares(len(bands) - 1, band)
