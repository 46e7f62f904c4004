"""Worker-pool helpers.  PDLAB_THREADS caps the worker count.

A pool runs only where it pays.  `pmap` is told each task's work as
`points`, in grid points of a paradifferential-split task: N^n for a site
whose tasks do what a split task does per point, scaled where a task does
more or less.  It runs the tasks inline, on the calling thread, below
POOL_GUARD points; at or above it, on a pool of at most PDLAB_THREADS
workers.  A `pmap` called from a pool worker runs inline too, so pools
never nest.  Where a task runs changes no result: every output is the same
inline and pooled.

POOL_GUARD's value and each site's work measure come from
`tools/pool_sweep.py`, which times every kind of pool task inline and on a
pool of 2 workers over a range of grids.  On a 2-CPU machine the split
pooled took 2.3x as long at 1-d 2^10, where each task is a few short numpy
calls, and 0.9-1.1x at 2^13; at 2^14 it read 0.76-1.21x over three runs
of the split and a continuity grid, and from 2^15 on the pool won
(0.6-0.9x).  The other sites' pools stop losing elsewhere, and they pass
their work scaled to match: vfm 2 N^n (the pool won from 2^13), the sigma
onset probes N^n / 4 (even at 2^16), the Peetre maximal scan N^n / 8 (won
from 2^17), moment decay's N^n x N^n kernel entries / 16 (even at 1-d 512,
won from 2-d 32), sigma order's dense route (N^n)^2 (even at 1-d 128) and
its Gram route N^n R^2 for R rows (won from 1-d 512).  Embedding passes
N^n: its pool lost at 1-d 2^10-2^12 (1.1-2.3x), read 0.90-1.26x at 2^13
and won from 2^14 (0.70-0.82x).  The counterexample's mode-space route,
pure-Python mode sums, passes 0.
"""
from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

POOL_GUARD = 16384  # points of work per task below which pmap runs inline

_local = threading.local()  # in_worker: this thread belongs to a pmap pool


def worker_count(task_count: int) -> int:
    cap = os.environ.get("PDLAB_THREADS")
    limit = os.cpu_count() or 1
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError as exc:
            raise ValueError(f"PDLAB_THREADS must be an integer, got {cap!r}") from exc
        if limit < 1:
            raise ValueError(f"PDLAB_THREADS must be >= 1, got {limit}")
    return max(1, min(limit, task_count))


def pmap(fn: Callable, items: Iterable, *, points: int) -> list:
    """map preserving order, where each task's work is `points` grid points
    of a split task (0 for work off the grid); runs on a thread pool when
    the tasks are large enough to pay for it, and inline otherwise or when
    called from a pool worker, so pools never nest."""
    seq: Sequence = list(items)
    workers = worker_count(len(seq))
    if (workers <= 1 or len(seq) <= 1 or points < POOL_GUARD
            or getattr(_local, "in_worker", False)):
        return [fn(item) for item in seq]
    mark = (_local, "in_worker", True)  # set on each pool thread as it starts
    with ThreadPoolExecutor(workers, initializer=setattr, initargs=mark) as pool:
        return list(pool.map(fn, seq))
