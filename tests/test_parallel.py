"""The trial engine: trial order and seeds, its input checks, and the
MIXREG_THREADS promise that a pool of any size writes the serial bytes."""

import concurrent.futures
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest

from mixreg import parallel, seeding
from mixreg.blocking import decoupled_resample, make_partition
from mixreg.bounds import estimate_r, noise_spectrum
from mixreg.config import ExperimentConfig
from mixreg.harness import run_coverage
from mixreg.parallel import (
    TRIAL_CHUNKS, chunk_ranges, draw_decoupled, draw_process, map_chunks, map_trials,
)
from mixreg.processes import GaussianAR, IIDGaussian, derive_seed, simulate, two_state_flip
from mixreg.regression import population_optimum
from mixreg.seeding import derive_seeds

SPEC = GaussianAR(ar_coeffs=(0.5,), warmup=20)
PROB = population_optimum(SPEC)


def first_column_and_sums(traj):
    return traj.xs[:, 0], (traj.xs.sum(), traj.ys.sum(axis=0))


def negative_zero(traj):
    return (), (-0.0, np.full(2, -0.0))


def assert_same_bytes(got, want):
    """Two map_trials results agree byte for byte: values and every total."""
    assert got[0].tobytes() == want[0].tobytes()
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestMapTrials:
    def test_values_follow_a_plain_trial_loop(self):
        values, (sum_x, sum_y) = map_trials(
            first_column_and_sums, partial(draw_process, SPEC, 7), 23, 5)
        trajs = [simulate(SPEC, 7, derive_seed(5, t)) for t in range(23)]
        np.testing.assert_array_equal(values, [t.xs[:, 0] for t in trajs])
        assert sum_x == pytest.approx(sum(t.xs.sum() for t in trajs), rel=1e-12)
        np.testing.assert_allclose(sum_y, sum(t.ys.sum(axis=0) for t in trajs), rtol=1e-12)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bytes_equal_a_per_trial_oracle(self, monkeypatch, threads):
        """Seeds straight from numpy's SeedSequence, one trial at a time, and
        the totals summed within and then across TRIAL_CHUNKS chunks, whatever
        MIXREG_THREADS says."""
        monkeypatch.setenv("MIXREG_THREADS", str(threads))
        values, totals = map_trials(
            first_column_and_sums, partial(draw_process, SPEC, 7), 23, 5)
        want_values, chunk_totals = [], []
        for a, b in chunk_ranges(23, TRIAL_CHUNKS):
            acc = None
            for t in range(a, b):
                seed = int(np.random.SeedSequence([5, t]).generate_state(1)[0])
                vals, tots = first_column_and_sums(simulate(SPEC, 7, seed))
                want_values.append(vals)
                acc = [np.add(x, 0.0) for x in tots] if acc is None else \
                    [x + y for x, y in zip(acc, tots)]
            chunk_totals.append(acc)
        want_totals = tuple(sum(column) for column in zip(*chunk_totals))
        assert_same_bytes((values, totals), (np.array(want_values), want_totals))

    def test_totals_start_at_positive_zero(self):
        values, (scalar, vector) = map_trials(negative_zero, partial(draw_process, SPEC, 3), 9, 1)
        assert values.shape == (9, 0)
        assert not np.signbit(scalar) and not np.signbit(vector).any()

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="trials"):
            map_trials(first_column_and_sums, partial(draw_process, SPEC, 3), trials, 1)


def whole_trajectory(traj):
    return np.concatenate([traj.xs.ravel(), traj.ys.ravel()]), ()


class TestDrawContract:
    """A draw maps a chunk's trial seeds to its trajectories, in order; the
    decoupled draw seeds all of a chunk's blocks at once and must draw what
    one resample per trial seed draws."""

    PART = make_partition(130, 13)

    def test_draw_process_draws_one_trajectory_per_seed(self):
        seeds = derive_seeds(4, count=5)
        got = list(draw_process(SPEC, 9, seeds))
        assert len(got) == 5
        for traj, s in zip(got, seeds.tolist()):
            assert traj.xs.tobytes() == simulate(SPEC, 9, s).xs.tobytes()

    @pytest.mark.parametrize("spec", [SPEC, two_state_flip(0.3)], ids=lambda s: s.kind)
    @pytest.mark.parametrize("trials", [9, 23])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_decoupled_trials_equal_one_resample_per_trial(self, monkeypatch, spec, trials,
                                                           threads):
        """9 and 23 trials split into uneven chunks; at 2 threads the chunks run
        on a real two-process pool (serially where one CPU is usable)."""
        monkeypatch.setenv("MIXREG_THREADS", str(threads))
        values, _ = map_trials(whole_trajectory, partial(draw_decoupled, spec, self.PART),
                               trials, 8)
        want = [whole_trajectory(decoupled_resample(spec, self.PART, derive_seed(8, t)))[0]
                for t in range(trials)]
        assert values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("state_pass", [1, 7, 2 * 13, 2 * 13 + 1, 64])
    def test_state_passes_change_no_draw(self, monkeypatch, state_pass):
        """However many block seeds one pass of the PCG64 hash covers, each
        resample gets its own blocks' states, also when its 26 blocks
        straddle two passes."""
        seeds = derive_seeds(2, count=7)
        want = [decoupled_resample(SPEC, self.PART, s).xs for s in seeds.tolist()]
        monkeypatch.setattr(seeding, "STATE_PASS", state_pass)
        got = [traj.xs for traj in draw_decoupled(SPEC, self.PART, seeds)]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_a_chunk_holds_its_block_states_as_words(self, monkeypatch):
        """Seeding a chunk of 125 resamples of 100 blocks holds the block
        seeds and one pass of state words, not 12,500 state dicts (about
        6 MB, about 515 bytes per block): the peak stays within 128 bytes
        per block."""
        part, seeds = make_partition(2000, 50), derive_seeds(7, count=125)
        monkeypatch.setattr(parallel, "decoupled_resample",
                            lambda spec, part, rngs: [rng.bit_generator.state for rng in rngs][-1])
        assert seeding.STATE_PASS < part.n_blocks * len(seeds)
        list(draw_decoupled(SPEC, part, seeds))  # warm up
        tracemalloc.start()
        try:
            states = list(draw_decoupled(SPEC, part, seeds))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states) == 125
        assert peak <= 128 * part.n_blocks * len(seeds)


def serial_then_pooled(monkeypatch, run):
    serial = run()
    monkeypatch.setenv("MIXREG_THREADS", "2")
    return serial, run()


def assert_spectra_agree(monkeypatch, spec, part):
    prob = population_optimum(spec)
    serial, pooled = serial_then_pooled(
        monkeypatch, lambda: noise_spectrum(spec, prob, part, 1000, 4))
    for name in ("sigma_odd", "sigma_even", "sigma_agg", "sigma2", "block_snorm_moments",
                 "h", "block_moment_s"):
        got, want = np.asarray(getattr(pooled, name)), np.asarray(getattr(serial, name))
        assert got.tobytes() == want.tobytes(), name


class TestTwoWorkersAgreeWithSerial:
    """Real two-process pools (serial where only one CPU is usable) write
    the serial run's bytes."""

    def test_map_trials(self, monkeypatch):
        assert_same_bytes(*serial_then_pooled(monkeypatch, lambda: map_trials(
            first_column_and_sums, partial(draw_process, SPEC, 50), 40, 3)))

    def test_noise_spectrum(self, monkeypatch):
        assert_spectra_agree(monkeypatch, SPEC, make_partition(60, 3))

    def test_noise_spectrum_with_five_covariates(self, monkeypatch):
        assert_spectra_agree(monkeypatch, IIDGaussian(covariate_dim=5), make_partition(2000, 10))

    def test_estimate_r(self, monkeypatch):
        part = make_partition(40, 2)
        serial, pooled = serial_then_pooled(
            monkeypatch, lambda: estimate_r(SPEC, PROB, part, 1000, 6))
        for name in ("r", "stderr_sqrt_r", "lambda_odd", "lambda_even"):
            assert getattr(pooled, name) == getattr(serial, name), name

    def test_run_coverage(self, monkeypatch, tmp_path):
        config = ExperimentConfig(process=SPEC, ns=(100,), delta=0.1,
                                  trials=100, seed=2, outputs=str(tmp_path), n_mc=1000,
                                  tau=10)
        serial, pooled = serial_then_pooled(monkeypatch, lambda: run_coverage(config)[0])
        assert repr(pooled) == repr(serial)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps
    in the calling process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        InlinePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    return InlinePool.sizes


def with_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestPoolSize:
    @pytest.mark.parametrize("threads, chunks, cpus, size", [
        (64, 256, 2, 2),     # capped by the CPUs
        (64, 3, 8, 3),       # capped by the chunks
        (4, 10, 8, 4),       # capped by MIXREG_THREADS
        (4, 10, 1, None),    # a pool of one runs serially
        (4, 1, 8, None),
        (1, 10, 8, None),
    ])
    def test_smallest_of_threads_chunks_and_cpus(self, monkeypatch, inline_pool,
                                                 threads, chunks, cpus, size):
        monkeypatch.setenv("MIXREG_THREADS", str(threads))
        with_cpus(monkeypatch, cpus)
        assert map_chunks(abs, list(range(-chunks, 0))) == list(range(chunks, 0, -1))
        assert inline_pool == ([] if size is None else [size])

    def test_cpu_count_without_affinity(self, monkeypatch, inline_pool):
        monkeypatch.setenv("MIXREG_THREADS", "64")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        map_chunks(abs, list(range(10)))
        assert inline_pool == [3]

    @pytest.mark.parametrize("threads, size", [(2, 2), (3, 3), (64, 8), (5000, 8)])
    def test_threads_size_the_pool_but_not_the_bytes(self, monkeypatch, inline_pool,
                                                     threads, size):
        """The chunks, and so the summation order, do not depend on
        MIXREG_THREADS: a pool of any size writes the serial bytes."""
        with_cpus(monkeypatch, 64)
        monkeypatch.setenv("MIXREG_THREADS", "1")
        run = partial(map_trials, first_column_and_sums, partial(draw_process, SPEC, 7), 23, 5)
        serial = run()
        monkeypatch.setenv("MIXREG_THREADS", str(threads))
        pooled = run()
        assert inline_pool == [size] and size <= TRIAL_CHUNKS
        assert_same_bytes(pooled, serial)
