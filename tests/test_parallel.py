"""The trial engine: trial order and seeds, its input checks, and the
MIXREG_THREADS promise that two pool workers agree with the serial run."""

from functools import partial

import numpy as np
import pytest

from mixreg.blocking import make_partition
from mixreg.bounds import estimate_r, noise_spectrum
from mixreg.config import ExperimentConfig
from mixreg.harness import run_coverage
from mixreg.parallel import chunk_ranges, draw_process, map_trials
from mixreg.processes import GaussianAR, IIDGaussian, derive_seed, simulate
from mixreg.regression import population_optimum

SPEC = GaussianAR(ar_coeffs=(0.5,), warmup=20)
PROB = population_optimum(SPEC)


def first_column_and_sums(traj):
    return traj.xs[:, 0], (traj.xs.sum(), traj.ys.sum(axis=0))


def negative_zero(traj):
    return (), (-0.0, np.full(2, -0.0))


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
        the totals summed within and then across the engine's chunks."""
        monkeypatch.setenv("MIXREG_THREADS", str(threads))
        values, totals = map_trials(
            first_column_and_sums, partial(draw_process, SPEC, 7), 23, 5)
        want_values, chunk_totals = [], []
        for a, b in chunk_ranges(23, 4 * threads):
            acc = None
            for t in range(a, b):
                seed = int(np.random.SeedSequence([5, t]).generate_state(1)[0])
                vals, tots = first_column_and_sums(simulate(SPEC, 7, seed))
                want_values.append(vals)
                acc = [np.add(x, 0.0) for x in tots] if acc is None else \
                    [x + y for x, y in zip(acc, tots)]
            chunk_totals.append(acc)
        want_totals = [sum(column) for column in zip(*chunk_totals)]
        assert values.tobytes() == np.array(want_values).tobytes()
        assert len(totals) == len(want_totals)
        for got, want in zip(totals, want_totals):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_totals_start_at_positive_zero(self):
        values, (scalar, vector) = map_trials(negative_zero, partial(draw_process, SPEC, 3), 9, 1)
        assert values.shape == (9, 0)
        assert not np.signbit(scalar) and not np.signbit(vector).any()

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="trials"):
            map_trials(first_column_and_sums, partial(draw_process, SPEC, 3), trials, 1)


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
        np.testing.assert_allclose(getattr(pooled, name), getattr(serial, name),
                                   rtol=1e-10, err_msg=name)


class TestTwoWorkersAgreeWithSerial:
    def test_map_trials(self, monkeypatch):
        serial, pooled = serial_then_pooled(monkeypatch, lambda: map_trials(
            first_column_and_sums, partial(draw_process, SPEC, 50), 40, 3))
        np.testing.assert_array_equal(pooled[0], serial[0])
        for got, want in zip(pooled[1], serial[1]):
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_noise_spectrum(self, monkeypatch):
        assert_spectra_agree(monkeypatch, SPEC, make_partition(60, 3))

    def test_noise_spectrum_with_five_covariates(self, monkeypatch):
        assert_spectra_agree(monkeypatch, IIDGaussian(covariate_dim=5), make_partition(2000, 10))

    def test_estimate_r(self, monkeypatch):
        part = make_partition(40, 2)
        serial, pooled = serial_then_pooled(
            monkeypatch, lambda: estimate_r(SPEC, PROB, part, 1000, 6))
        for name in ("r", "stderr_sqrt_r", "lambda_odd", "lambda_even"):
            assert getattr(pooled, name) == pytest.approx(getattr(serial, name), rel=1e-10)

    def test_run_coverage(self, monkeypatch, tmp_path):
        config = ExperimentConfig(process=SPEC, ns=(100,), delta=0.1,
                                  trials=100, seed=2, outputs=str(tmp_path), n_mc=1000,
                                  tau=10)
        serial, pooled = serial_then_pooled(monkeypatch, lambda: run_coverage(config)[0])
        for name in ("bound_value", "quantile", "coverage"):
            assert getattr(pooled, name) == pytest.approx(getattr(serial, name), rel=1e-10)
        assert pooled.degenerate_trials == serial.degenerate_trials
        assert pooled.burnins_pass == serial.burnins_pass
