import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixreg.mixing import MixingProfile, iid_profile, markov_profile, mixing_sum
from mixreg.processes import (
    BlockConstant,
    GaussianAR,
    IIDGaussian,
    derive_seed,
    simulate,
    two_state_flip,
)
from mixreg.blocking import (
    BlockPartition,
    block_sums,
    decoupled_resample,
    make_partition,
    uniform_partition,
)
from mixreg.seeding import default_rngs, derive_seeds


class TestMakePartition:
    def test_remainder_to_front(self):
        part = make_partition(10, 2)
        assert part.lengths == (3, 3, 2, 2)

    def test_exact_division(self):
        assert make_partition(8, 2).lengths == (2, 2, 2, 2)

    def test_two_blocks(self):
        assert make_partition(5, 1).lengths == (3, 2)

    def test_too_many_blocks(self):
        with pytest.raises(ValueError):
            make_partition(5, 3)

    def test_partition_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            m = int(rng.integers(1, n // 2 + 1))
            part = make_partition(n, m)
            assert part.n == n and part.m == m
            assert len(part.lengths) == 2 * m
            # consecutive, disjoint, covering, monotone
            flat = np.concatenate([np.arange(a, b) for a, b in part.blocks])
            np.testing.assert_array_equal(flat, np.arange(n))
            assert max(part.lengths) - min(part.lengths) <= 1
            assert part.a_max == max(part.lengths)

    @staticmethod
    def check_invariants(part, n):
        assert part.n == n and sum(part.lengths) == n
        assert max(part.lengths) - min(part.lengths) <= 1
        assert [a for a, _ in part.blocks] == part.starts.tolist()
        assert all(b - a == g for (a, b), g in zip(part.blocks, part.lengths))
        assert all(b == a2 for (_, b), (a2, _) in zip(part.blocks, part.blocks[1:]))
        assert part.blocks[0][0] == 0 and part.blocks[-1][1] == n

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5_000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n // 2))))
    def test_make_partition_invariants(self, n_m):
        n, m = n_m
        part = make_partition(n, m)
        assert part.m == m
        self.check_invariants(part, n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5_000), st.integers(1, 6_000))
    def test_uniform_partition_invariants(self, n, block_len):
        self.check_invariants(uniform_partition(n, block_len), n)

    def test_uniform_partition_exact(self):
        part = uniform_partition(96, 8)
        assert set(part.lengths) == {8}
        assert part.n == 96

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            BlockPartition((3, 0, 2, 1))
        with pytest.raises(ValueError):
            BlockPartition((3, 2, 1))  # odd count


class TestBlockSums:
    def test_ones_give_lengths(self):
        part = make_partition(10, 2)
        np.testing.assert_allclose(block_sums(np.ones(10), part), [3, 3, 2, 2])

    def test_indicator_recovers_membership(self):
        part = make_partition(12, 3)
        for j in range(12):
            e = np.zeros(12)
            e[j] = 1.0
            sums = block_sums(e, part)
            hot = int(np.argmax(sums))
            a, b = part.blocks[hot]
            assert a <= j < b and sums.sum() == 1.0

    def test_telescoping(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((37, 3))
        part = make_partition(37, 5)
        np.testing.assert_allclose(block_sums(values, part).sum(axis=0),
                                   values.sum(axis=0), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        part = make_partition(20, 4)
        # Integer-valued inputs: linearity is exact (no rounding).
        u_int = rng.integers(-50, 50, 20).astype(float)
        v_int = rng.integers(-50, 50, 20).astype(float)
        np.testing.assert_array_equal(block_sums(u_int + v_int, part),
                                      block_sums(u_int, part) + block_sums(v_int, part))
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        np.testing.assert_allclose(block_sums(u + v, part),
                                   block_sums(u, part) + block_sums(v, part), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            block_sums(np.ones(9), make_partition(10, 2))

    @pytest.mark.parametrize("lengths", [(1, 1), (3, 3, 2, 2), (5, 1, 1, 7, 2, 4), (1,) * 40])
    def test_matches_reduceat_on_fresh_edges(self, lengths):
        part = BlockPartition(lengths)
        values = np.random.default_rng(len(lengths)).standard_normal((part.n, 3))
        edges = np.concatenate([[0], np.cumsum(lengths)])
        np.testing.assert_array_equal(block_sums(values, part),
                                      np.add.reduceat(values, edges[:-1], axis=0))
        np.testing.assert_array_equal(part.starts, edges[:-1])
        assert part.blocks == tuple(zip(edges[:-1].tolist(), edges[1:].tolist()))
        assert not part.starts.flags.writeable


class TestBlockSumsLinearity:
    # Integer-valued data and weights keep every sum exact in floating point.
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8).map(lambda h: tuple(h * 2)),
           st.integers(1, 3), st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 2**32 - 1))
    def test_block_sums_is_linear(self, lengths, cols, a, b, seed):
        part = BlockPartition(lengths)
        rng = np.random.default_rng(seed)
        x = rng.integers(-1000, 1000, (part.n, cols)).astype(float)
        y = rng.integers(-1000, 1000, (part.n, cols)).astype(float)
        np.testing.assert_array_equal(block_sums(a * x + b * y, part),
                                      a * block_sums(x, part) + b * block_sums(y, part))


class TestSingletonBlockSums:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_singleton_blocks_copy_the_values(self, m, cols, seed):
        part = BlockPartition((1,) * (2 * m))
        shape = (part.n, cols) if cols else (part.n,)
        values = np.random.default_rng(seed).standard_normal(shape)
        values[::3] *= -0.0  # signed zeros survive too
        sums = block_sums(values, part)
        want = np.add.reduceat(values, part.starts, axis=0)
        assert sums.tobytes() == want.tobytes() and sums.shape == want.shape
        assert not np.shares_memory(sums, values)


class TestDecoupledResample:
    @pytest.mark.parametrize("spec", [
        GaussianAR((0.5, 0.2), covariate_dim=1, warmup=84),
        GaussianAR((0.4, 0.1, -0.2), noise_std=1.7, covariate_dim=4),
        two_state_flip(0.3),
        IIDGaussian(2, 2, coef=np.ones((2, 2))),
        BlockConstant(3, 2),
    ])
    def test_blocks_are_rows_of_fresh_draws(self, spec):
        part = make_partition(1_300, 13)
        traj = decoupled_resample(spec, part, 5)
        for i, (a, b) in enumerate(part.blocks):
            ref = simulate(spec, b, derive_seed(5, i), a)
            np.testing.assert_array_equal(traj.xs[a:b], ref.xs)
            np.testing.assert_array_equal(traj.ys[a:b], ref.ys)

    @pytest.mark.parametrize("spec", [
        GaussianAR((0.4, 0.1, -0.2), noise_std=1.7, covariate_dim=4),
        IIDGaussian(2, 3),
    ])
    def test_the_blocks_states_draw_what_the_seed_draws(self, spec):
        part = make_partition(300, 5)
        rngs = default_rngs(derive_seeds(4, count=part.n_blocks))
        by_seed, by_rngs = decoupled_resample(spec, part, 4), decoupled_resample(spec, part, rngs)
        assert by_rngs.xs.tobytes() == by_seed.xs.tobytes()
        assert by_rngs.ys.tobytes() == by_seed.ys.tobytes()
        assert by_rngs.ys.shape == (300, spec.target_dim)

    @pytest.mark.parametrize("count, word", [(9, "shorter"), (11, "longer")])
    def test_one_generator_too_few_or_too_many_raises(self, count, word):
        part = make_partition(300, 5)
        with pytest.raises(ValueError, match=f"argument 2 is {word}"):
            decoupled_resample(IIDGaussian(1), part, default_rngs(derive_seeds(4, count=count)))

    def test_one_block_draw_is_alive_at_a_time(self):
        """One call's peak memory stays within the result plus twice the
        peak of one block's draw: the draws are not kept."""
        spec = GaussianAR((0.5, 0.2), covariate_dim=1, warmup=85)
        part = make_partition(2_000, 50)

        def peak(fn, *args):
            tracemalloc.start()
            try:
                result = fn(*args)
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block_peak = max(peak(simulate, spec, b, derive_seed(7, i))[1]
                         for i, (_, b) in enumerate(part.blocks))
        traj, call_peak = peak(decoupled_resample, spec, part, 7)
        assert call_peak <= traj.xs.nbytes + traj.ys.nbytes + 2 * block_peak

    def test_iid_law_preserved(self):
        spec = IIDGaussian(covariate_dim=1)
        part = make_partition(2000, 5)
        traj = decoupled_resample(spec, part, 3)
        assert len(traj) == 2000
        assert traj.xs.mean() == pytest.approx(0.0, abs=0.1)
        assert traj.xs.var() == pytest.approx(1.0, abs=0.1)

    def test_deterministic(self):
        spec = two_state_flip(0.3)
        part = make_partition(32, 4)
        a = decoupled_resample(spec, part, 9)
        b = decoupled_resample(spec, part, 9)
        assert np.array_equal(a.xs, b.xs)

    def test_cross_block_independence_and_within_block_law(self):
        spec = two_state_flip(0.3)
        part = make_partition(24, 3)  # 6 blocks of 4
        boundary_pairs = []
        within_pairs = []
        for rep in range(20_000 // 5):
            traj = decoupled_resample(spec, part, rep)
            x = traj.xs.ravel()
            for a, b in part.blocks[1:]:
                boundary_pairs.append((x[a - 1], x[a]))
            for a, b in part.blocks:
                within_pairs.append((x[a], x[a + 1]))
        boundary = np.array(boundary_pairs)
        corr_cross = np.corrcoef(boundary[:, 0], boundary[:, 1])[0, 1]
        assert abs(corr_cross) < 0.02
        within = np.array(within_pairs)
        corr_within = np.corrcoef(within[:, 0], within[:, 1])[0, 1]
        # Coupled chain lag-1 correlation is 1 - 2q = 0.4.
        assert corr_within == pytest.approx(0.4, abs=0.02)

    def test_unsupported_spec(self):
        class Weird:
            pass
        with pytest.raises(AttributeError):
            decoupled_resample(Weird(), make_partition(4, 1), 0)


class TestDecouplingGapBound:
    """The interior budget is `mixing_sum`, the all-blocks budget
    `beta_sum` over every block length."""

    def test_iid_zero(self):
        part = make_partition(40, 4)
        assert mixing_sum(iid_profile(part.lengths), part) == 0.0
        assert iid_profile(part.lengths).beta_sum(part.lengths) == 0.0

    def test_uniform_blocks(self):
        part = make_partition(48, 3)  # 6 blocks of 8
        profile = MixingProfile({8: 0.05})
        assert mixing_sum(profile, part) == pytest.approx(4 * 0.05)
        assert profile.beta_sum(part.lengths) == pytest.approx(6 * 0.05)

    def test_markov_example(self):
        part = make_partition(8, 2)  # 4 blocks of 2
        profile = markov_profile(two_state_flip(0.3), [2])
        assert mixing_sum(profile, part) == pytest.approx(2 * 0.16 / 2, abs=1e-12)

    def test_missing_gap(self):
        part = make_partition(10, 2)
        with pytest.raises(ValueError):
            mixing_sum(MixingProfile({7: 0.1}), part)
        with pytest.raises(ValueError):
            MixingProfile({7: 0.1}).beta_sum(part.lengths)


class TestDecouplingBudgetExact:
    """Exact check of the decoupling budget for a small Markov chain, with
    both expectations computed by full path enumeration."""

    def enumerate_expectations(self, spec, part, fn):
        k = spec.n_states
        n = part.n
        pi = spec.stationary
        p = spec.transition
        coupled = 0.0
        for path in itertools.product(range(k), repeat=n):
            prob = pi[path[0]]
            for a, b in zip(path[:-1], path[1:]):
                prob *= p[a, b]
            coupled += prob * fn(path)
        # Decoupled law: product over blocks of exact block marginals.
        block_laws = []
        for start, stop in part.blocks:
            law = {}
            for path in itertools.product(range(k), repeat=stop):
                prob = pi[path[0]]
                for a, b in zip(path[:-1], path[1:]):
                    prob *= p[a, b]
                key = path[start:stop]
                law[key] = law.get(key, 0.0) + prob
            block_laws.append(law)
        decoupled = 0.0
        for combo in itertools.product(*[law.items() for law in block_laws]):
            path = tuple(itertools.chain.from_iterable(seg for seg, _ in combo))
            prob = 1.0
            for _, pr in combo:
                prob *= pr
            decoupled += prob * fn(path)
        return coupled, decoupled

    def test_exact_budget_small_chain(self):
        spec = two_state_flip(0.3)
        part = make_partition(6, 1)  # two blocks of 3
        odd_positions = [i for a, b in part.blocks[0::2] for i in range(a, b)]

        def odd_all_equal(path):
            vals = [path[i] for i in odd_positions]
            return 1.0 if len(set(vals)) == 1 else 0.0

        coupled, decoupled = self.enumerate_expectations(spec, part, odd_all_equal)
        profile = markov_profile(spec, set(part.lengths))
        budget = mixing_sum(profile, part)
        assert abs(coupled - decoupled) <= budget + 1e-12

    def test_exact_budget_interior_blocks(self):
        spec = two_state_flip(0.2)
        part = make_partition(8, 2)  # four blocks of 2

        odd_positions = [i for a, b in part.blocks[0::2] for i in range(a, b)]

        def fraction_positive_odd(path):
            vals = [path[i] for i in odd_positions]
            return sum(vals) / len(vals)

        coupled, decoupled = self.enumerate_expectations(spec, part, fraction_positive_odd)
        profile = markov_profile(spec, set(part.lengths))
        budget = mixing_sum(profile, part)
        assert abs(coupled - decoupled) <= budget + 1e-12
