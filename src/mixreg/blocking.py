"""Blocking device: monotone consecutive partitions, odd/even unions, block
sums, and blockwise-independent (decoupled) resampling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mixing import MixingProfile, mixing_sum
from .processes import ProcessSpec, Trajectory, derive_seed, simulate

INTERIOR = "interior"
ALL_BLOCKS = "all_blocks"


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

    @property
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
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Half-open (start, stop) sample ranges, 0-indexed."""
        edges = np.concatenate([[0], np.cumsum(self.lengths)])
        return tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))

    @cached_property
    def odd_union(self) -> np.ndarray:
        """Sample indices covered by blocks 1, 3, 5, ..."""
        return np.concatenate([np.arange(a, b) for i, (a, b) in enumerate(self.blocks) if i % 2 == 0])

    @cached_property
    def even_union(self) -> np.ndarray:
        return np.concatenate([np.arange(a, b) for i, (a, b) in enumerate(self.blocks) if i % 2 == 1])

    def odd_block_indices(self) -> list[int]:
        return [i for i in range(self.n_blocks) if i % 2 == 0]

    def even_block_indices(self) -> list[int]:
        return [i for i in range(self.n_blocks) if i % 2 == 1]


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
    """Per-block sums along the first axis; entry i sums values over block i."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[0] != partition.n:
        raise ValueError(f"expected {partition.n} values, got {arr.shape[0]}")
    edges = np.concatenate([[0], np.cumsum(partition.lengths)])
    return np.add.reduceat(arr, edges[:-1], axis=0)


def decoupled_resample(spec: ProcessSpec, partition: BlockPartition, seed: int) -> Trajectory:
    """Sample the blockwise-decoupled process: every block is drawn
    independently from the marginal law of the original process on that
    block's positions.

    Each block re-simulates the process from time zero with its own derived
    seed and keeps only the block's rows, so the block marginals are exact
    even for non-stationary specs (quadratic cost in n, fine at this scale).
    """
    xs_parts, ys_parts = [], []
    for i, (start, stop) in enumerate(partition.blocks):
        block_traj = simulate(spec, stop, derive_seed(seed, i))
        xs_parts.append(block_traj.xs[start:stop])
        ys_parts.append(block_traj.ys[start:stop])
    return Trajectory(xs=np.concatenate(xs_parts), ys=np.concatenate(ys_parts),
                      seed=seed, spec=spec)


def decoupling_gap_bound(profile: MixingProfile, partition: BlockPartition,
                         form: str = INTERIOR) -> float:
    """Additive failure-probability budget for replacing the coupled process
    with its decoupled version.

    The interior form charges beta over the interior blocks only (even
    blocks except the last for functions of the odd blocks, odd blocks
    except the first for functions of the even blocks); the all_blocks form
    charges every block, as needed when both parities are controlled at
    once.
    """
    if form == INTERIOR:
        return mixing_sum(profile, partition)
    if form != ALL_BLOCKS:
        raise ValueError(f"unknown form {form!r}")
    missing = sorted({g for g in partition.lengths if g not in profile.coefficients})
    if missing:
        raise ValueError(f"profile missing coefficients for gaps {missing}")
    return float(sum(profile.coefficients[g] for g in partition.lengths))
