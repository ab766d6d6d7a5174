"""Work cut into one share per usable CPU.

`cuts` splits a range into contiguous shares.  `run_blocks` runs the
shares of a 2-D array's rows, its bands, on joined threads, and walks
each band in row blocks with one reusable scratch array, so a sweep over
a large array allocates no array of its size.  The callers run numpy
loops that release the GIL and write disjoint slices, elementwise or per
row, so their results are bit-identical to a one-band, one-block run.
`io`'s text writers fork a process per share instead, over the same
cuts.  A site keeps its threads or forks only where they are measured to
pay (`scripts/thread_sites.py`): the surface box counter runs on the
caller's thread.
"""
from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

__all__ = ["MIN_SHARE", "BLOCK_BYTES", "usable_cpus", "cuts", "run_blocks"]

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


def run_blocks(rows, width, work):
    """work(lo, hi, scratch) over consecutive row blocks [lo, hi) of
    range(rows), a row holding `width` float64 values.

    `cuts` cuts the rows into bands of at least MIN_SHARE values: band 0
    runs on the caller, each later band on its own thread, started in a
    copy of the caller's context so that the caller's np.errstate holds
    there too.  A band is walked in blocks of as many rows as fit in
    BLOCK_BYTES, at least one, which all reuse the band's float64 scratch
    array of shape (rows per block, width); work may use its first hi - lo
    rows.  Every thread is joined before this returns or raises.  An
    exception of the caller's band propagates; else the first failed
    band's exception is raised again in the caller.
    """
    bands = cuts(rows, -(-MIN_SHARE // width))
    block = max(1, BLOCK_BYTES // (8 * width))
    errors = [None] * (len(bands) - 1)

    def band(k):
        try:
            start, stop = bands[k], bands[k + 1]
            scratch = np.empty((min(block, stop - start), width))
            for lo in range(start, stop, block):
                work(lo, min(lo + block, stop), scratch)
        except BaseException as exc:   # raised in the caller after the join
            errors[k] = exc

    threads = []
    try:
        for k in range(1, len(bands) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(band, k))
            thread.start()
            threads.append(thread)
        band(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
