"""Blocking device: monotone consecutive partitions, block sums, and
blockwise-independent (decoupled) resampling.

A decoupled resample draws each block from its own stream, seeded by
`derive_seed(seed, i)` for block i.  `decoupled_resample` takes the seed, or
the blocks' PCG64 states as uint64 words, which the trial engine derives for
a whole chunk of resamples at once (`parallel.draw_decoupled`); either way
each state dict is built only when its block is drawn."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .processes import ProcessSpec, Trajectory, simulate
from .seeding import derive_seeds, pcg64_state, pcg64_words


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive partition of n samples into 2m blocks.

    Block positions are 1-based when speaking of odd/even: blocks 1, 3, ...
    are the odd blocks, 2, 4, ... the even ones.
    """

    lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(int(v) for v in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) < 2 or len(lengths) % 2 != 0:
            raise ValueError("a partition needs an even number (>= 2) of blocks")
        if any(v < 1 for v in lengths):
            raise ValueError("block lengths must be >= 1")

    @cached_property
    def n(self) -> int:
        return sum(self.lengths)

    @property
    def m(self) -> int:
        return len(self.lengths) // 2

    @property
    def n_blocks(self) -> int:
        return len(self.lengths)

    @property
    def a_max(self) -> int:
        return max(self.lengths)

    @cached_property
    def parity_sizes(self) -> tuple[int, int]:
        """Samples in the odd blocks and in the even blocks."""
        return sum(self.lengths[0::2]), sum(self.lengths[1::2])

    @cached_property
    def starts(self) -> np.ndarray:
        """0-indexed first sample of every block (read-only)."""
        starts = np.concatenate([[0], np.cumsum(self.lengths[:-1])])
        starts.flags.writeable = False
        return starts

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Half-open (start, stop) sample ranges, 0-indexed."""
        return tuple((int(a), int(a) + g) for a, g in zip(self.starts, self.lengths))


def make_partition(n: int, m: int) -> BlockPartition:
    """Near-uniform partition of n samples into 2m consecutive blocks: the
    first n mod 2m blocks get the extra sample, so lengths differ by at most
    one."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if 2 * m > n:
        raise ValueError(f"cannot split {n} samples into {2 * m} blocks")
    base, extra = divmod(n, 2 * m)
    lengths = tuple(base + 1 if i < extra else base for i in range(2 * m))
    return BlockPartition(lengths)


def uniform_partition(n: int, block_len: int) -> BlockPartition:
    """Partition with target block length; exact when 2*block_len divides n,
    near-uniform otherwise."""
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    m = max(1, n // (2 * block_len))
    return make_partition(n, m)


def block_sums(values, partition: BlockPartition) -> np.ndarray:
    """Per-block sums along the first axis; entry i sums values over block i.
    Always a new array: when every block is one sample the sums are the
    values themselves, copied (bit-identical to `np.add.reduceat`)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[0] != partition.n:
        raise ValueError(f"expected {partition.n} values, got {arr.shape[0]}")
    if partition.n_blocks == partition.n:
        return arr.copy()
    return np.add.reduceat(arr, partition.starts, axis=0)


def decoupled_resample(spec: ProcessSpec, partition: BlockPartition,
                       seed: int | np.ndarray) -> Trajectory:
    """Sample the blockwise-decoupled process: every block is drawn
    independently from the marginal law of the original process on that
    block's positions.

    Each block re-simulates the process from time zero with its own derived
    seed, `derive_seed(seed, i)` for block i, and keeps only the block's rows,
    so the block marginals are exact even for non-stationary specs.  The
    draws stay quadratic in n, since every block draws all the innovations
    before its rows; the rows built are linear in n, since each block asks
    `simulate(spec, stop, ..., start)` for its own rows only, and a Gaussian
    AR block filters only from the first series value those rows read.

    The seed may also be given as its blocks' states: the
    `seeding.pcg64_words` of `derive_seeds(seed, count=partition.n_blocks)`,
    one row of four uint64 words per block, as a caller that seeds many
    resamples at once derives them (see `parallel.draw_decoupled`).  One
    Generator is set before each block to the state `default_rng` builds
    from the block's seed, made from its words only then, so block i is
    `simulate(spec, stop, derive_seed(seed, i), start)`.  Its rows are
    copied into the result, allocated up front from the spec's dimensions,
    so one block draw is alive at a time.
    """
    if isinstance(seed, np.ndarray):
        if seed.shape != (partition.n_blocks, 4) or seed.dtype != np.uint64:
            raise ValueError(f"expected the uint64 state words of {partition.n_blocks} "
                             f"blocks, got a {seed.dtype} array of shape {seed.shape}")
        words = seed
    else:
        words = pcg64_words(derive_seeds(seed, count=partition.n_blocks))
    xs = np.empty((partition.n, spec.covariate_dim))
    ys = np.empty((partition.n, spec.target_dim))
    rng = np.random.Generator(np.random.PCG64(0))
    for (start, stop), block_words in zip(partition.blocks, words.tolist()):
        rng.bit_generator.state = pcg64_state(block_words)
        block_traj = simulate(spec, stop, rng, start)
        xs[start:stop] = block_traj.xs
        ys[start:stop] = block_traj.ys
        del block_traj  # free this draw before the next one is simulated
    return Trajectory(xs=xs, ys=ys)
