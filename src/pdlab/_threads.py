"""Worker-pool helpers.  PDLAB_THREADS caps the worker count."""
from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

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


def pmap(fn: Callable, items: Iterable) -> list:
    """map preserving order; runs on a thread pool when it can help, and
    inline when called from a pool worker, so pools never nest."""
    seq: Sequence = list(items)
    workers = worker_count(len(seq))
    if workers <= 1 or len(seq) <= 1 or getattr(_local, "in_worker", False):
        return [fn(item) for item in seq]
    mark = (_local, "in_worker", True)  # set on each pool thread as it starts
    with ThreadPoolExecutor(workers, initializer=setattr, initargs=mark) as pool:
        return list(pool.map(fn, seq))
