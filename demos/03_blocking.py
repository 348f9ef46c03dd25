"""The blocking device: consecutive partitions, block sums, and decoupled
(blockwise-independent) resampling."""

import numpy as np

from mixreg import (
    block_sums,
    decoupled_resample,
    make_partition,
    markov_profile,
    mixing_sum,
    two_state_flip,
)

# Partition 22 samples into 2m = 6 near-uniform consecutive blocks; longer
# blocks come first so lengths differ by at most one.
part = make_partition(22, 3)
print("lengths:", part.lengths)
print("odd blocks (start, stop):", part.blocks[0::2])
print("max block length:", part.a_max)

values = np.arange(22.0)
print("block sums:", block_sums(values, part))

# Decoupled resampling draws every block independently from its marginal
# law.  Within a block the original dependence is intact; across block
# boundaries samples become exactly independent.
chain = two_state_flip(0.3)
boundary, within = [], []
for rep in range(4000):
    traj = decoupled_resample(chain, part, seed=rep)
    x = traj.xs.ravel()
    for a, _ in part.blocks[1:]:
        boundary.append((x[a - 1], x[a]))
    for a, _ in part.blocks:
        within.append((x[a], x[a + 1]))
boundary = np.asarray(boundary)
within = np.asarray(within)
print("cross-boundary lag-1 correlation:",
      round(np.corrcoef(boundary[:, 0], boundary[:, 1])[0, 1], 3))
print("within-block lag-1 correlation (coupled value 0.4):",
      round(np.corrcoef(within[:, 0], within[:, 1])[0, 1], 3))

# Swapping the true process for its decoupled version costs an additive
# failure probability: the sum of beta over the interior blocks, or over
# every block when both parities are controlled at once.
profile = markov_profile(chain, sorted(set(part.lengths)))
print("decoupling budget (interior form):", round(mixing_sum(profile, part), 6))
print("decoupling budget (all blocks):", round(profile.beta_sum(part.lengths), 6))
