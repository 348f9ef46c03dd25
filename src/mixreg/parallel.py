"""Deterministic chunked parallelism for Monte Carlo loops.

MIXREG_THREADS caps the worker count (a positive integer, default 1 =
serial).  Work is split into chunks processed in a fixed order, and partial
results are merged in chunk order, so results do not depend on scheduling;
switching the worker count can change results only through floating-point
summation order (within ~1e-10 relative).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count() -> int:
    raw = os.environ.get("MIXREG_THREADS", "1")
    count = int(raw) if raw.strip().isdecimal() else 0
    if count < 1:
        raise ValueError(f"MIXREG_THREADS must be a positive integer, got {raw!r}")
    return count


def chunk_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(n_chunks, n_items))
    edges = [round(i * n_items / n_chunks) for i in range(n_chunks + 1)]
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def map_chunks(fn, chunk_args: list, workers: int | None = None) -> list:
    """Apply fn to every chunk argument, returning results in input order."""
    workers = worker_count() if workers is None else workers
    if workers <= 1 or len(chunk_args) <= 1:
        return [fn(arg) for arg in chunk_args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunk_args))
