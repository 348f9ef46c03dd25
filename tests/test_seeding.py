"""The seeding restates numpy's SeedSequence hash and PCG64 seeding; these
tests pin it to numpy's own, word for word."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixreg.processes import BlockConstant, GaussianAR, IIDGaussian, simulate, two_state_flip
from mixreg import seeding
from mixreg.seeding import default_rngs, derive_seed, derive_seeds


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

    @pytest.mark.parametrize("args", [(7, 2.5), (7.9,), (7, np.float64(2.0)), (True, 3)])
    def test_non_integer_seeds_and_keys_raise(self, args):
        # A float would truncate to another key's stream.
        with pytest.raises(ValueError, match="integers"):
            derive_seed(*args)
        with pytest.raises(ValueError, match="integers"):
            derive_seeds(*args, count=3)

    def test_numpy_integer_seeds_and_keys(self):
        assert derive_seed(np.uint32(7), np.int64(3)) == seed_sequence_word(7, 3)
        assert derive_seeds(np.uint64(7), count=2).tolist() == derive_seeds(7, count=2).tolist()

    def test_negative_range_raises(self):
        with pytest.raises(ValueError):
            derive_seeds(7, count=3, start=-1)
        with pytest.raises(ValueError):
            derive_seeds(7, count=-1)

    @pytest.mark.parametrize("shape", [(1,), (7,), (4, 3)])
    def test_an_array_of_seeds_derives_a_row_per_seed(self, shape):
        seeds = derive_seeds(3, count=int(np.prod(shape))).reshape(shape)
        got = derive_seeds(seeds, 9, count=5, start=2)
        assert got.dtype == np.uint32 and got.shape == (*shape, 5)
        for index in np.ndindex(shape):
            assert got[index].tolist() == derive_seeds(int(seeds[index]), 9, count=5,
                                                       start=2).tolist()

    def test_an_array_seed_must_be_one_word(self):
        with pytest.raises(ValueError, match=str(2**32)):
            derive_seeds(np.array([1, 2**32], dtype=np.uint64), count=3)

    def test_pcg64_states_equal_default_rng(self):
        seeds = derive_seeds(11, 4, count=200)
        states = [rng.bit_generator.state for rng in default_rngs(seeds)]
        assert states == [np.random.default_rng(s).bit_generator.state for s in seeds.tolist()]
        edges = [0, 1, 2**31, 2**32 - 1]
        want = [np.random.default_rng(s).bit_generator.state for s in edges]
        for seeds in (edges, np.array(edges, dtype=np.int64), np.array(edges, dtype=np.uint64),
                      np.array(edges, dtype=object)):
            assert [rng.bit_generator.state for rng in default_rngs(seeds)] == want

    @pytest.mark.parametrize("state_pass", [1, 3, 7, 64])
    def test_state_passes_change_no_state(self, monkeypatch, state_pass):
        seeds = derive_seeds(11, 5, count=24)
        monkeypatch.setattr(seeding, "STATE_PASS", state_pass)
        states = [rng.bit_generator.state for rng in default_rngs(seeds)]
        assert states == [np.random.default_rng(s).bit_generator.state for s in seeds.tolist()]

    @pytest.mark.parametrize("seed", [5, np.array(5), np.uint32(5)], ids=["int", "0-d", "scalar"])
    def test_pcg64_words_of_one_seed(self, seed):
        # Scalar numpy arithmetic warns on wraparound where array arithmetic
        # wraps silently: a lone seed is hashed as a one-entry array.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = [rng.bit_generator.state for rng in default_rngs([seed])]
        assert states == [np.random.default_rng(5).bit_generator.state]

    def test_one_generator_re_seeded(self):
        rngs = list(default_rngs(derive_seeds(3, count=5)))
        assert all(rng is rngs[0] for rng in rngs)
        assert list(default_rngs(np.array([], dtype=np.uint32))) == []

    @pytest.mark.parametrize("seeds", [5, np.array(5), np.uint32(5), np.zeros((2, 3), np.uint32)],
                             ids=["int", "0-d", "scalar", "2-d"])
    def test_seeds_must_be_one_dimensional(self, seeds):
        with pytest.raises(ValueError, match="1-D array of seeds"):
            next(default_rngs(seeds))

    @pytest.mark.parametrize("seeds, bad", [
        (np.array([2**32], dtype=np.uint64), "4294967296"),   # would wrap to seed 0
        (np.array([5, -1]), "-1"),                            # would wrap to 2^32 - 1
        ([3, 2**32 + 7], "4294967303"),
        ([2**64], "18446744073709551616"),                    # too wide for int64
        (np.array([2.5, 1.0]), "2.5"),                        # would truncate
        ([0.5], "0.5"),
        (np.array([True]), "True"),
        (np.array([1, 2.0], dtype=object), "2.0"),
    ])
    def test_out_of_range_seeds_raise(self, seeds, bad):
        with pytest.raises(ValueError, match=f"2\\^32\\), got {bad}$"):
            next(default_rngs(seeds))

    @pytest.mark.parametrize("spec", [
        GaussianAR((0.5, 0.2), covariate_dim=1, warmup=84),
        GaussianAR((0.4, 0.1, -0.2), noise_std=1.7, covariate_dim=4),
        two_state_flip(0.3),
        IIDGaussian(2, 2, coef=np.ones((2, 2))),
        BlockConstant(3, 2),
    ], ids=lambda spec: spec.kind)
    def test_a_generator_set_from_the_state_draws_the_seeded_stream(self, spec):
        seeds = derive_seeds(5, count=6)
        for n, s, rng in zip(range(1, 400, 67), seeds.tolist(), default_rngs(seeds)):
            state = rng.bit_generator.state
            got = spec._draw(rng, n)
            want = spec._draw(np.random.default_rng(s), n)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            rng.bit_generator.state = state
            np.testing.assert_array_equal(simulate(spec, n, rng).xs, simulate(spec, n, s).xs)
