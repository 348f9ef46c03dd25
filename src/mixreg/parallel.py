"""The trial engine: every Monte Carlo estimate in mixreg is an average over
independent seeded trials, and `map_trials` is the one loop that runs them.

A caller supplies a draw (a trajectory from a seed, see `draw_process` and
`draw_decoupled`) and a statistic (one trajectory in, `(values, totals)` out).
The engine derives trial t's seed as `derive_seed(seed, t)` (independent sets
of trials need seeds of their own), splits the trials into chunks, maps the
chunks, stacks the values in trial order and sums the totals in chunk order.
Each chunk derives its trials' seeds in one pass (`derive_seeds`).

MIXREG_THREADS caps the worker count (a positive integer, default 1 =
serial).  Chunks are fixed by the trial count and MIXREG_THREADS, not by
the pool size, and partial results are merged in chunk order, so results
depend on neither scheduling nor the CPU count; switching MIXREG_THREADS
can change results only through floating-point summation order (within
~1e-10 relative).  Draws and statistics reach the pool by pickling, so they
must be module-level functions or `partial`s of them.

The process pool, and with it `multiprocessing`, is imported on the first
`map_chunks` call whose pool holds more than one process, so a serial run
never loads it (on CPython 3.11 the import alone adds 1.3 MB to peak RSS
and takes about 20 ms).
"""

from __future__ import annotations

import os

import numpy as np

from .blocking import decoupled_resample
from .processes import simulate
from .seeding import derive_seeds


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(fn, chunk_args: list, workers: int | None = None) -> list:
    """Apply fn to every chunk argument, returning results in input order, on
    a pool of at most one process per chunk and per usable CPU (one: serial)."""
    workers = min(worker_count() if workers is None else workers, len(chunk_args),
                  _usable_cpus())
    if workers <= 1:
        return [fn(arg) for arg in chunk_args]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunk_args))


# The two draws are module-level functions rather than partials of `simulate`
# and `decoupled_resample`, so they pickle by reference and look those names
# up when called.  Bind the leading arguments with `partial`.

def draw_process(spec, n: int, seed: int):
    """A length-n trajectory of the process."""
    return simulate(spec, n, seed)


def draw_decoupled(spec, partition, seed: int):
    """A trajectory of the blockwise-decoupled process over the partition."""
    return decoupled_resample(spec, partition, seed)


def _trial_chunk(args):
    statistic, draw, seed, start, stop = args
    values, totals = [], None
    for trial_seed in derive_seeds(seed, count=stop - start, start=start).tolist():
        # traj stays alive until the next draw replaces it, which keeps the
        # allocator from returning the trajectory's pages after every trial.
        traj = draw(trial_seed)
        vals, tots = statistic(traj)
        values.append(vals)
        if totals is None:
            # first + 0.0, like a zero-started sum: -0.0 totals come out 0.0.
            totals = [np.add(t, 0.0, out=np.empty(np.shape(t))) for t in tots]
        else:
            for acc, t in zip(totals, tots):
                acc += t
    return np.array(values, dtype=float), totals


def map_trials(statistic, draw, trials: int, seed: int) -> tuple[np.ndarray, tuple]:
    """Run `statistic(draw(derive_seed(seed, t)))` for t < trials.

    The statistic returns `(values, totals)`: values is a float or array per
    trial (use `()` for none) and totals is a tuple of floats or arrays.
    Returns the values stacked in trial order, shape (trials, ...), and the
    tuple of totals summed over all trials.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    chunks = chunk_ranges(trials, 4 * worker_count())
    parts = map_chunks(_trial_chunk, [(statistic, draw, seed, a, b) for a, b in chunks])
    values = np.concatenate([p[0] for p in parts])
    totals = tuple(sum(column) for column in zip(*(p[1] for p in parts)))
    return values, totals
