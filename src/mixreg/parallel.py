"""The trial engine: every Monte Carlo estimate in mixreg is an average over
independent seeded trials, and `map_trials` is the one loop that runs them.

A caller supplies a draw and a statistic (one trajectory in, `(values,
totals)` out).  The draw contract: a draw maps a chunk's uint32 array of
trial seeds to an iterator of trajectories, one per seed and in order
(`draw_process`, and `draw_decoupled`, which seeds the blocks of all the
chunk's resamples at once).  The engine derives trial t's seed as
`derive_seed(seed, t)` (independent sets of trials need seeds of their
own), maps `TRIAL_CHUNKS` chunks fixed by the trial count alone, each
deriving its seeds in one pass (`derive_seeds`), stacks the values in trial
order and sums the totals in chunk order.  So no result depends on
MIXREG_THREADS (a positive integer, default 1 = serial; it only caps the
pool size), scheduling or the CPU count.  Draws and statistics reach the
pool pickled: use module-level functions or `partial`s of them.

The process pool, and with it `multiprocessing`, is imported on the first
`map_chunks` call whose pool holds more than one process, so a serial run
never loads it (on CPython 3.11 the import alone adds 1.3 MB to peak RSS
and takes about 20 ms).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .blocking import decoupled_resample
from .processes import Trajectory, simulate
from .seeding import default_rngs, derive_seeds

TRIAL_CHUNKS = 8  # the most processes a trial loop's pool can use


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
# up when called.  Bind the leading arguments with `partial`: the draw then
# maps a chunk's uint32 array of trial seeds to its trajectories, in order.

def draw_process(spec, n: int, seeds: np.ndarray) -> Iterator[Trajectory]:
    """A length-n trajectory of the process per seed, each drawn by one
    Generator re-seeded to the state `default_rng` builds from the seed."""
    for rng in default_rngs(seeds):
        yield simulate(spec, n, rng)


def draw_decoupled(spec, partition, seeds: np.ndarray) -> Iterator[Trajectory]:
    """A trajectory of the blockwise-decoupled process over the partition
    per seed.  The block seeds of the whole chunk, `derive_seed(seed, i)`
    for every seed and block i, are derived in one pass of the hash, and
    one `default_rngs` over them, in trial order, hands each resample its
    blocks' Generators."""
    rngs = default_rngs(derive_seeds(seeds, count=partition.n_blocks).reshape(-1))
    for _ in range(len(seeds)):
        yield decoupled_resample(spec, partition, islice(rngs, partition.n_blocks))


def _trial_chunk(args):
    statistic, draw, seed, start, stop = args
    values, totals = [], None
    # traj stays alive until the next draw replaces it, which keeps the
    # allocator from returning the trajectory's pages after every trial.
    for traj in draw(derive_seeds(seed, count=stop - start, start=start)):
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
    """Run the statistic on trial t's trajectory for t < trials, which the
    draw makes from the seed `derive_seed(seed, t)`.

    The statistic returns `(values, totals)`: values is a float or array per
    trial (use `()` for none) and totals is a tuple of floats or arrays.
    Returns the values stacked in trial order, shape (trials, ...), and the
    tuple of totals summed over all trials."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    chunks = chunk_ranges(trials, TRIAL_CHUNKS)
    parts = map_chunks(_trial_chunk, [(statistic, draw, seed, a, b) for a, b in chunks])
    values = np.concatenate([p[0] for p in parts])
    totals = tuple(sum(column) for column in zip(*(p[1] for p in parts)))
    return values, totals
