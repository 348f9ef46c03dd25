"""The seeding restates numpy's SeedSequence hash and PCG64 seeding; these
tests pin it to numpy's own, word for word."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixreg.processes import BlockConstant, GaussianAR, IIDGaussian, simulate, two_state_flip
from mixreg.seeding import derive_seed, derive_seeds, pcg64_states


def seed_sequence_word(*entropy):
    """The oracle: numpy's own SeedSequence."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


class TestSeedDerivation:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**128 - 1), st.lists(st.integers(0, 2**70), max_size=2),
           st.integers(1, 300), st.integers(0, 2**32 - 300))
    def test_derive_seeds_equal_seed_sequence(self, seed, keys, count, start):
        got = derive_seeds(seed, *keys, count=count, start=start)
        assert got.dtype == np.uint32 and got.shape == (count,)
        want = [seed_sequence_word(seed, *keys, start + i) for i in range(count)]
        assert got.tolist() == want
        assert derive_seed(seed, *keys, start) == want[0]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**128 - 1), st.lists(st.integers(0, 2**70), max_size=5))
    def test_derive_seed_equals_seed_sequence(self, seed, keys):
        got = derive_seed(seed, *keys)
        assert type(got) is int and got == seed_sequence_word(seed, *keys)

    def test_keys_at_the_word_edges(self):
        for seed in (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 3):
            got = derive_seeds(seed, 2**32 - 1, count=4, start=2**32 - 4)
            assert got.tolist() == [seed_sequence_word(seed, 2**32 - 1, k)
                                    for k in range(2**32 - 4, 2**32)]
        with pytest.raises(ValueError, match="2\\^32"):
            derive_seeds(0, count=2, start=2**32 - 1)

    @pytest.mark.parametrize("args", [(-1,), (-1, 3), (7, -2), (7, 1, -5)])
    def test_negative_seeds_and_keys_raise_like_seed_sequence(self, args):
        with pytest.raises(ValueError):
            np.random.SeedSequence(list(args))
        with pytest.raises(ValueError):
            derive_seed(*args)
        with pytest.raises(ValueError):
            derive_seeds(*args, count=3)

    def test_negative_range_raises(self):
        with pytest.raises(ValueError):
            derive_seeds(7, count=3, start=-1)
        with pytest.raises(ValueError):
            derive_seeds(7, count=-1)

    def test_pcg64_states_equal_default_rng(self):
        seeds = derive_seeds(11, 4, count=200)
        states = list(pcg64_states(seeds))
        assert len(states) == 200
        for s, state in zip(seeds.tolist(), states):
            assert np.random.default_rng(s).bit_generator.state == state
        edges = [0, 1, 2**31, 2**32 - 1]
        for s, state in zip(edges, pcg64_states(edges)):
            assert np.random.default_rng(s).bit_generator.state == state

    @pytest.mark.parametrize("spec", [
        GaussianAR((0.5, 0.2), covariate_dim=1, warmup=84),
        GaussianAR((0.4, 0.1, -0.2), noise_std=1.7, covariate_dim=4),
        two_state_flip(0.3),
        IIDGaussian(2, 2, coef=np.ones((2, 2))),
        BlockConstant(3, 2),
    ], ids=lambda spec: spec.kind)
    def test_a_generator_set_from_the_state_draws_the_seeded_stream(self, spec):
        seeds = derive_seeds(5, count=6)
        rng = np.random.Generator(np.random.PCG64(0))
        for n, s, state in zip(range(1, 400, 67), seeds.tolist(), pcg64_states(seeds)):
            rng.bit_generator.state = state
            got = spec._draw(rng, n)
            want = spec._draw(np.random.default_rng(s), n)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            rng.bit_generator.state = state
            np.testing.assert_array_equal(simulate(spec, n, rng).xs, simulate(spec, n, s).xs)
