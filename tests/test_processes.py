import math

import numpy as np
import pytest
from scipy.signal import lfilter

from mixreg.processes import (
    FILTER_CHUNK,
    SCAN_GROUP,
    ARFilter,
    BlockConstant,
    FiniteMarkov,
    GaussianAR,
    IIDGaussian,
    autocovariances,
    companion,
    conditional_gaussian,
    default_warmup,
    derive_seed,
    gramian,
    simulate,
    solve_lyapunov,
    stationary_distribution,
    Trajectory,
    two_state_flip,
)
from mixreg.processes import _h_directions, _lagged_design
from mixreg.regression import population_optimum


def lag1_corr(y):
    y = np.asarray(y).ravel()
    a, b = y[:-1], y[1:]
    return np.corrcoef(a, b)[0, 1]


class TestCompanion:
    def test_scalar_coefficient(self):
        np.testing.assert_allclose(companion((0.7,)), [[0.7, 0.0], [1.0, 0.0]])

    def test_square_entry(self):
        a2 = np.linalg.matrix_power(companion((0.5,)), 2)
        assert a2[0, 0] == pytest.approx(0.25)

    def test_zero_coeffs_nilpotent(self):
        for p in (1, 2, 4):
            np.testing.assert_allclose(
                np.linalg.matrix_power(companion((0.0,) * p), p + 1), 0.0, atol=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            companion(())

    def test_structure_general(self):
        theta = (0.3, -0.2, 0.1)
        a = companion(theta)
        assert a.shape == (4, 4)
        np.testing.assert_allclose(a[0], [0.3, -0.2, 0.1, 0.0])
        np.testing.assert_allclose(a[1:, :3], np.eye(3))


class TestGramian:
    def test_three_step_value(self):
        # 1 + 0.25 + 0.0625 by direct matrix multiplication
        a = companion((0.5,))
        assert gramian(a, 3)[0, 0] == pytest.approx(1.3125, abs=1e-12)

    def test_single_step_is_outer_input(self):
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(gramian(companion((0.3, 0.1)), 1), np.outer(e1, e1))

    def test_zero_steps(self):
        a = companion((0.5,))
        np.testing.assert_allclose(gramian(a, 0), np.zeros((2, 2)))

    def test_geometric_limit(self):
        a = companion((0.9,))
        assert gramian(a, 500)[0, 0] == pytest.approx(1.0 / (1.0 - 0.81), rel=1e-9)

    def test_recursion(self):
        a = companion((0.6, -0.3))
        b = np.array([1.0, 0.0, 0.0])
        for k in range(1, 12):
            lhs = gramian(a, k + 1)
            rhs = a @ gramian(a, k) @ a.T + np.outer(b, b)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_conditional_law_identity(self):
        # Gramian difference equals the propagated covariance.
        a = companion((0.5, 0.2))
        for t in (0, 3, 7):
            for k in (1, 2, 5):
                ak = np.linalg.matrix_power(a, k)
                lhs = gramian(a, t + k + 1) - gramian(a, k)
                rhs = ak @ gramian(a, t + 1) @ ak.T
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestConditionalGaussian:
    def test_zero_state_zero_mean(self):
        a = companion((0.4, 0.3))
        mean, _ = conditional_gaussian(a, np.zeros(3), 4)
        assert mean == 0.0

    def test_hand_instance(self):
        a = companion((0.5,))
        mean, var = conditional_gaussian(a, (1.0, 0.0), 2)
        assert mean == pytest.approx(0.25)
        assert var == pytest.approx(1.25)

    def test_dimension_mismatch(self):
        a = companion((0.5,))
        with pytest.raises(ValueError):
            conditional_gaussian(a, (1.0, 0.0, 0.0), 2)

    def test_against_simulated_continuations(self):
        # Simulate 1e5 k-step continuations from a fixed state.
        theta = np.array([0.5, 0.2])
        a = companion(theta)
        state = np.array([0.8, -0.4, 0.3])
        k, n_paths = 3, 100_000
        rng = np.random.default_rng(11)
        window = state[:2].copy()  # (y_t, y_{t-1})
        paths = np.tile(np.r_[window, state[2]], (n_paths, 1))
        for _ in range(k):
            new = paths[:, :2] @ theta + rng.standard_normal(n_paths)
            paths = np.column_stack([new, paths[:, :2]])
        mean, var = conditional_gaussian(a, state, k)
        y = paths[:, 0]
        se_mean = y.std() / np.sqrt(n_paths)
        assert abs(y.mean() - mean) <= 3 * se_mean
        se_var = y.var() * np.sqrt(2.0 / n_paths)
        assert abs(y.var() - var) <= 3 * se_var


class TestGaussianAR:
    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            GaussianAR((1.0,))
        with pytest.raises(ValueError):
            GaussianAR((0.9, 0.3))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            simulate(GaussianAR((0.5,)), 0, 1)

    def test_pure_noise_for_zero_coeffs(self):
        traj = simulate(GaussianAR((0.0,)), 10**5, 3)
        y = traj.ys.ravel()
        assert y.var() == pytest.approx(1.0, abs=0.02)
        assert abs(lag1_corr(y)) < 0.02

    def test_ar1_stationary_variance(self):
        traj = simulate(GaussianAR((0.5,)), 10**6, 7)
        assert traj.ys.var() == pytest.approx(4.0 / 3.0, abs=0.01)

    def test_ar2_lag1_autocorrelation(self):
        # Yule-Walker: rho(1) = a1 / (1 - a2) = 0.625
        traj = simulate(GaussianAR((0.5, 0.2)), 10**6, 9)
        assert lag1_corr(traj.ys) == pytest.approx(0.625, abs=0.01)

    def test_deterministic_regeneration(self):
        spec = GaussianAR((0.4, 0.1), noise_std=1.5, covariate_dim=1, warmup=10)
        a = simulate(spec, 500, 42)
        b = simulate(spec, 500, 42)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_covariate_is_lag_window(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=2)
        traj = simulate(spec, 50, 1)
        y = traj.ys.ravel()
        np.testing.assert_allclose(traj.xs[1:, 0], y[:-1])
        np.testing.assert_allclose(traj.xs[2:, 1], y[:-2])
        np.testing.assert_allclose(traj.xs[0], 0.0)  # zero initial condition

    def test_warmup_drops_transient(self):
        spec = GaussianAR((0.9,), warmup=200)
        traj = simulate(spec, 2000, 5)
        # Warm-started variance already close to stationary 1/(1-0.81).
        assert traj.ys.var() == pytest.approx(1.0 / 0.19, rel=0.2)

    def test_with_window_rewrites_only_the_window(self):
        spec = GaussianAR((0.5, 0.2), noise_std=1.5, warmup=7)
        narrow = spec.with_window(1)
        assert (narrow.ar_coeffs, narrow.noise_std, narrow.warmup) == ((0.5, 0.2), 1.5, 7)
        assert narrow.covariate_dim == 1
        assert spec.with_window(2) is spec

    def test_default_warmup_value(self):
        assert default_warmup((0.5,)) == 20
        assert default_warmup((0.9,)) >= 100

    @staticmethod
    def full_lagged_design(values, window):
        """Reference: every row of the lagged design, built column by column."""
        n = values.shape[0]
        cols = []
        for lag in range(1, window + 1):
            col = np.zeros(n)
            col[lag:] = values[:-lag]
            cols.append(col)
        return np.column_stack(cols)

    @pytest.mark.parametrize("window", [1, 3, 7])
    @pytest.mark.parametrize("skip", [0, 1, 2, 3, 6, 7, 10, 25])
    def test_lagged_design_keeps_the_rows_of_the_full_design(self, window, skip):
        values = np.random.default_rng(skip).standard_normal(30)
        kept = _lagged_design(values, window, skip)
        np.testing.assert_array_equal(kept, self.full_lagged_design(values, window)[skip:])
        assert kept.flags.c_contiguous

    def test_lagged_design_window_longer_than_series(self):
        values = np.arange(1.0, 4.0)
        np.testing.assert_array_equal(_lagged_design(values, 5, 1),
                                      self.full_lagged_design(values, 5)[1:])

    @pytest.mark.parametrize("spec", [
        GaussianAR((0.5, 0.2), covariate_dim=1, warmup=40),
        GaussianAR((0.4, 0.1, -0.2), noise_std=1.7, covariate_dim=3),
        GaussianAR((0.6,), noise_std=0.3, covariate_dim=4, warmup=2),
    ])
    def test_draw_matches_the_direct_recursion(self, spec):
        # Reference: scale a fresh noise array, filter, build every row, slice.
        n, seed = 200, 11
        eps = spec.noise_std * np.random.default_rng(seed).standard_normal(spec.warmup + n)
        y = lfilter([1.0], np.r_[1.0, -np.asarray(spec.ar_coeffs)], eps)
        traj = simulate(spec, n, seed)
        np.testing.assert_allclose(
            traj.xs, self.full_lagged_design(y, spec.covariate_dim)[spec.warmup:], rtol=1e-13)
        np.testing.assert_allclose(traj.ys, y[spec.warmup:, None], rtol=1e-13)

    @pytest.mark.parametrize("spec", [
        GaussianAR((0.5, 0.2), noise_std=1.3, covariate_dim=1, warmup=85),
        GaussianAR((0.5, 0.2), noise_std=1.3, covariate_dim=1, warmup=0),
        GaussianAR((0.4, 0.1, -0.2), noise_std=0.7, covariate_dim=3, warmup=2),
    ])
    @pytest.mark.parametrize("n", [1, FILTER_CHUNK - 1, FILTER_CHUNK, FILTER_CHUNK + 1,
                                   2112, 10_000])
    def test_draw_is_the_filter_composition_bit_for_bit(self, spec, n):
        # Reference: filter a fresh scaled noise array, then build the design.
        seed = 3
        eps = spec.noise_std * np.random.default_rng(seed).standard_normal(spec.warmup + n)
        y = ARFilter(spec.ar_coeffs)(eps)
        traj = simulate(spec, n, seed)
        want_xs = _lagged_design(y, spec.covariate_dim, spec.warmup)
        assert traj.xs.shape == want_xs.shape and traj.ys.shape == (n, 1)
        assert traj.xs.tobytes() == want_xs.tobytes()
        assert traj.ys.tobytes() == y[spec.warmup:, None].tobytes()


def ar_coeffs_with_roots(*roots):
    """Coefficients theta of the AR recursion whose characteristic roots
    are `roots`."""
    return tuple(-np.poly(roots)[1:])


class TestARFilter:
    """The chunked filter against scipy's lfilter, which runs the recursion
    one sample at a time."""

    @pytest.mark.parametrize("coeffs", [
        (0.5,), (0.5, 0.2), (0.4, 0.1, -0.2), (-0.6, 0.3),
        (0.99999,), ar_coeffs_with_roots(0.99999, -0.3), ar_coeffs_with_roots(0.99999, 0.5, -0.4),
        ar_coeffs_with_roots(0.99, 0.99),
    ])
    @pytest.mark.parametrize("n", [1, FILTER_CHUNK - 1, FILTER_CHUNK, FILTER_CHUNK + 1,
                                   10_084, 10**6])
    def test_matches_lfilter(self, coeffs, n):
        eps = np.random.default_rng(n).standard_normal(n)
        want = lfilter([1.0], np.r_[1.0, -np.asarray(coeffs)], eps)
        got = ARFilter(coeffs)(eps)
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("coeffs", [(0.7,), (0.5, 0.2), (0.4, 0.1, -0.2)])
    def test_rows_of_a_2d_call_equal_1d_calls(self, coeffs):
        # Lengths cover a partial first chunk, the chunk edge, the first
        # state group's edge (the scan takes the states of chunks 1, 2, ...)
        # and three levels of the state scan.
        c, k = FILTER_CHUNK, SCAN_GROUP
        lengths = [1, c - 1, c, c + 1, c * (k + 1), c * (k + 1) + 1, 2084, 40 * c * k + 3]
        rng = np.random.default_rng(len(coeffs))
        eps = np.zeros((len(lengths), max(lengths)))
        for row, n in zip(eps, lengths):
            row[:n] = rng.standard_normal(n)
        filt = ARFilter(coeffs)
        rows = filt(eps)
        for n, e, row in zip(lengths, eps, rows):
            np.testing.assert_array_equal(row[:n], filt(e[:n]))
        np.testing.assert_array_equal(filt(eps.reshape(2, 4, -1)), rows.reshape(2, 4, -1))

    def test_high_order_matches_lfilter(self):
        coeffs = tuple(np.random.default_rng(0).uniform(-0.04, 0.04, 20))
        filt = ARFilter(coeffs)
        eps = np.random.default_rng(1).standard_normal(5 * FILTER_CHUNK * SCAN_GROUP)
        want = lfilter([1.0], np.r_[1.0, -np.asarray(coeffs)], eps)
        assert np.abs(filt(eps) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("coeffs", [
        (0.5,), (0.5, 0.2), (0.4, 0.1, -0.2), ar_coeffs_with_roots(0.95, 0.3),
        ar_coeffs_with_roots(0.99999, 0.5, -0.4), ar_coeffs_with_roots(0.99, 0.99),
    ])
    @pytest.mark.parametrize("n, skip", [
        (FILTER_CHUNK + 1, 1), (2 * FILTER_CHUNK, FILTER_CHUNK),
        (2_200, 2_049), (2_200, 100), (10_084, 4_097), (10_084, 2_048 * 4),
    ])
    def test_skip_matches_lfilter(self, coeffs, n, skip):
        # The filter starts from the state the skipped samples leave: one
        # span of the state map, or several chained, then tails of one
        # chunk, several chunks and several state groups.
        eps = np.random.default_rng(n + skip).standard_normal(n)
        want = lfilter([1.0], np.r_[1.0, -np.asarray(coeffs)], eps)
        got = ARFilter(coeffs)(eps, skip)
        assert got.shape == (n - skip,)
        assert np.abs(got - want[skip:]).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("skip", [-1, 5])
    def test_skip_outside_the_samples(self, skip):
        with pytest.raises(ValueError, match="skip"):
            ARFilter((0.5,))(np.ones(5), skip)


def _spec_id(spec):
    return spec.kind + (f"-{spec.order}-w{spec.covariate_dim}-u{spec.warmup}"
                        if isinstance(spec, GaussianAR) else "")


def _auto(coeffs, **kw):
    return GaussianAR(coeffs, warmup=default_warmup(coeffs), **kw)


class TestSimulateFromStart:
    """simulate(spec, n, seed, start) is simulate(spec, n, seed)[start:]."""

    @pytest.mark.parametrize("spec", [
        two_state_flip(0.3),
        IIDGaussian(2, 2, coef=np.ones((2, 2))),
        BlockConstant(3, 2),
    ], ids=_spec_id)
    @pytest.mark.parametrize("start", [1, 63, 64, 65, 199])
    def test_other_kinds_bit_for_bit(self, spec, start):
        got, full = simulate(spec, 200, 4, start), simulate(spec, 200, 4)
        assert got.xs.shape == full.xs[start:].shape and got.ys.shape == full.ys[start:].shape
        assert got.xs.tobytes() == full.xs[start:].tobytes()
        assert got.ys.tobytes() == full.ys[start:].tobytes()

    @staticmethod
    def assert_rows_close(spec, n, start, seed=6):
        got, full = simulate(spec, n, seed, start), simulate(spec, n, seed)
        assert got.xs.shape == full.xs[start:].shape and got.ys.shape == (n - start, 1)
        tol = 1e-14 * np.abs(full.ys).max()
        assert np.abs(got.xs - full.xs[start:]).max() <= tol
        assert np.abs(got.ys - full.ys[start:]).max() <= tol

    # Orders 1 to 3, windows below, at and above the order, warmup 0 and auto.
    AR_SPECS = [
        GaussianAR((0.5,), covariate_dim=1),
        _auto((0.5,), covariate_dim=3),
        _auto((0.5, 0.2), covariate_dim=1),
        GaussianAR((0.5, 0.2), noise_std=1.3, covariate_dim=2),
        _auto(ar_coeffs_with_roots(0.95, 0.3), covariate_dim=4),
        GaussianAR((0.4, 0.1, -0.2), noise_std=1.7, covariate_dim=2),
        _auto((0.4, 0.1, -0.2), covariate_dim=3),
        GaussianAR(ar_coeffs_with_roots(0.95, 0.5, -0.4), covariate_dim=5),
    ]

    @pytest.mark.parametrize("spec", AR_SPECS, ids=_spec_id)
    @pytest.mark.parametrize("start", [1, 63, 64, 65])
    def test_ar_rows_to_rounding(self, spec, start):
        self.assert_rows_close(spec, 200, start)

    @pytest.mark.parametrize("spec", AR_SPECS, ids=_spec_id)
    @pytest.mark.parametrize("n, start", [
        (2_300, 2_100),   # state past one span of the state map
        (4_400, 4_200),   # past two spans
        (2_400, 300),     # a tail of more than 2,112 samples: several state groups
        (9_000, 4_150),   # both
    ])
    def test_ar_long_heads_and_tails(self, spec, n, start):
        self.assert_rows_close(spec, n, start)

    # The filter builds the kept rows plus the covariate_dim series values
    # before them.  Up to FILTER_CHUNK such values take the one-chunk tail:
    # one kept row, 21 values (a tau-20 decoupled block at window 1), and
    # FILTER_CHUNK - 1, FILTER_CHUNK and FILTER_CHUNK + 1 around its edge.
    @pytest.mark.parametrize("spec", AR_SPECS, ids=_spec_id)
    @pytest.mark.parametrize("series", ["one row", 21, FILTER_CHUNK - 1, FILTER_CHUNK,
                                        FILTER_CHUNK + 1])
    def test_ar_one_chunk_tails(self, spec, series):
        rows = 1 if series == "one row" else series - spec.covariate_dim
        self.assert_rows_close(spec, 700, 700 - rows)

    def test_ar_start_within_the_window_slices_the_full_draw(self):
        # warmup + start <= window: the kept rows read the first series value.
        spec = GaussianAR((0.5, 0.2), covariate_dim=4, warmup=1)
        got, full = simulate(spec, 100, 2, 3), simulate(spec, 100, 2)
        assert got.xs.tobytes() == full.xs[3:].tobytes()
        assert got.ys.tobytes() == full.ys[3:].tobytes()

    @pytest.mark.parametrize("spec", [GaussianAR((0.5,)), IIDGaussian(1)], ids=_spec_id)
    @pytest.mark.parametrize("start", [-1, 10, 11])
    def test_start_outside_the_draw(self, spec, start):
        with pytest.raises(ValueError, match="start"):
            simulate(spec, 10, 1, start)


class TestMarkov:
    def test_frozen_single_state_chain(self):
        spec = FiniteMarkov(np.array([[1.0]]), np.array([[2.0]]), np.array([[3.0]]))
        traj = simulate(spec, 50, 0)
        assert np.all(traj.xs == 2.0) and np.all(traj.ys == 3.0)

    def test_identity_chain_rejected(self):
        # Two absorbing states: no unique stationary law.
        with pytest.raises(ValueError):
            FiniteMarkov(np.eye(2), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            FiniteMarkov(np.array([[0.5, 0.4], [0.3, 0.7]]),
                         np.zeros((2, 1)), np.zeros((2, 1)))

    def test_symmetric_flip_state_frequency(self):
        traj = simulate(two_state_flip(0.3), 10**5, 13)
        freq = np.mean(traj.xs.ravel() > 0)
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_half_flip_is_iid(self):
        traj = simulate(two_state_flip(0.5), 10**5, 17)
        assert abs(lag1_corr(traj.xs)) < 0.01

    def test_stationary_distribution(self):
        p = np.array([[0.9, 0.1], [0.4, 0.6]])
        pi = stationary_distribution(p)
        np.testing.assert_allclose(pi, pi @ p, atol=1e-12)
        np.testing.assert_allclose(pi, [0.8, 0.2], atol=1e-12)

    def test_uniform_in_the_rounding_gap_draws_a_valid_state(self):
        # The first row sums to 1 - 5e-13, inside ROW_SUM_TOL; a uniform
        # above that total must still land on a state.
        class StubRng:
            def random(self, n):
                return np.array([0.1, 1.0 - 1e-13, 0.5])

        spec = FiniteMarkov(np.array([[0.3, 0.7 - 5e-13], [0.6, 0.4]]),
                            np.array([[1.0], [2.0]]), np.array([[0.0], [1.0]]))
        xs, ys = spec._draw(StubRng(), 3)
        np.testing.assert_array_equal(xs.ravel(), [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(ys.ravel(), [0.0, 1.0, 0.0])

    def test_determinism(self):
        spec = two_state_flip(0.3)
        a = simulate(spec, 200, 5)
        b = simulate(spec, 200, 5)
        assert np.array_equal(a.xs, b.xs)


class TestBlockConstant:
    def test_degenerate_block_is_iid(self):
        traj = simulate(BlockConstant(1), 10**5, 3)
        assert abs(lag1_corr(traj.xs)) < 0.02

    def test_lag1_overlap_fraction(self):
        # Expected autocorrelation (k-1)/k = 0.75 for k = 4.
        traj = simulate(BlockConstant(4), 10**5, 5)
        assert lag1_corr(traj.xs) == pytest.approx(0.75, abs=0.02)

    def test_single_block(self):
        traj = simulate(BlockConstant(64), 64, 7)
        assert np.all(traj.xs == traj.xs[0])

    def test_partial_final_block(self):
        traj = simulate(BlockConstant(4), 10, 1)
        assert len(traj) == 10
        assert np.all(traj.xs[8] == traj.xs[9])

    def test_invalid_block_len(self):
        with pytest.raises(ValueError):
            BlockConstant(0)


NAN, INF = float("nan"), float("inf")
FLIP = [[0.7, 0.3], [0.3, 0.7]]


@pytest.mark.parametrize("build, field", [
    (lambda: GaussianAR((NAN,)), "ar_coeffs"),
    (lambda: GaussianAR((0.5,), noise_std=NAN), "noise_std"),
    (lambda: GaussianAR((0.5,), noise_std=INF), "noise_std"),
    (lambda: IIDGaussian(2, noise_std=NAN), "noise_std"),
    (lambda: IIDGaussian(2, noise_std=INF), "noise_std"),
    (lambda: IIDGaussian(1, coef=[[NAN]]), "coef"),
    (lambda: BlockConstant(3, x_std=NAN), "x_std"),
    (lambda: BlockConstant(3, y_std=INF), "y_std"),
    (lambda: FiniteMarkov([[NAN, 1.0], [0.5, 0.5]], [[1.0], [2.0]], [[0.0], [1.0]]),
     "transition"),
    (lambda: FiniteMarkov(FLIP, [[NAN], [2.0]], [[0.0], [1.0]]), "emit_x"),
    (lambda: FiniteMarkov(FLIP, [[1.0], [2.0]], [[0.0], [INF]]), "emit_y"),
], ids=["ar-coeff-nan", "ar-noise-nan", "ar-noise-inf", "iid-noise-nan", "iid-noise-inf",
        "iid-coef-nan", "block-x-nan", "block-y-inf", "markov-transition-nan",
        "markov-emit-x-nan", "markov-emit-y-inf"])
def test_non_finite_parameters_rejected(build, field):
    with pytest.raises(ValueError, match=field):
        build()


class TestStationaryCovariance:
    def test_zero_coeffs_scaled_identity(self):
        spec = GaussianAR((0.0, 0.0), noise_std=2.0, covariate_dim=2)
        np.testing.assert_allclose(spec.optimum()[0], 4.0 * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(spec.state_covariance, 4.0 * np.eye(3), atol=1e-10)

    def test_ar1_variance(self):
        spec = GaussianAR((0.5,))
        assert spec.optimum()[0][0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_ar2_two_window_off_diagonal(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=2)
        cov = spec.optimum()[0]
        assert cov[0, 1] == pytest.approx(0.625 * cov[0, 0], rel=1e-10)

    def test_lyapunov_fixed_point_residual(self):
        spec = GaussianAR((0.6, -0.2, 0.1))
        a = companion(spec.ar_coeffs)
        e1 = np.eye(a.shape[0])[0]
        cov = spec.state_covariance
        resid = cov - (a @ cov @ a.T + np.outer(e1, e1))
        assert np.abs(resid).max() <= 1e-10

    def test_padded_state_fixed_point_residual(self):
        # Window 5 > p + 1: the lags past p come from the AR recursion, and
        # the D = 5 state covariance is still the Lyapunov fixed point.
        spec = GaussianAR((0.5, 0.2), noise_std=1.5, covariate_dim=5)
        a = spec.state_companion
        cov = spec.state_covariance
        assert cov.shape == (5, 5)
        q = np.zeros((5, 5))
        q[0, 0] = 1.5**2
        assert np.abs(cov - (a @ cov @ a.T + q)).max() <= 1e-10
        np.testing.assert_array_equal(spec.optimum()[0], cov)

    def test_state_covariance_is_read_only(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=4)
        assert spec.state_covariance is spec.state_covariance
        with pytest.raises(ValueError, match="read-only"):
            spec.state_covariance[0, 0] = 0.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 12])
    def test_lyapunov_matches_scipy(self, d):
        from scipy.linalg import solve_discrete_lyapunov

        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        a *= 0.95 / np.abs(np.linalg.eigvals(a)).max()
        q = rng.standard_normal((d, d))
        q = q @ q.T
        want = solve_discrete_lyapunov(a, q)
        assert np.abs(solve_lyapunov(a, q) - want).max() <= 1e-12 * np.abs(want).max()

    def test_lyapunov_rejects_unstable(self):
        with pytest.raises(ValueError, match="Schur-stable"):
            solve_lyapunov(np.array([[1.01]]), np.eye(1))

    def test_autocovariance_extension(self):
        spec = GaussianAR((0.5, 0.2))
        gamma = autocovariances(spec, 6)
        for k in range(3, 7):
            assert gamma[k] == pytest.approx(0.5 * gamma[k - 1] + 0.2 * gamma[k - 2],
                                             rel=1e-10)


def monte_carlo_h(spec, sigma_x, n, n_mc, seed):
    """Monte Carlo estimate of h over the `_h_directions` grid, the oracle
    for the exact values: per direction, the ratio of the summed fourth to
    the summed second powers of the projections over n_mc trajectories.
    Returns the square root of the largest ratio and its delta-method
    standard error."""
    dirs = _h_directions(sigma_x, seed)
    sum_p2, sum_p4 = np.empty((n_mc, len(dirs))), np.empty((n_mc, len(dirs)))
    for t in range(n_mc):
        p2 = (simulate(spec, n, derive_seed(seed, t)).xs @ dirs.T) ** 2
        sum_p2[t], sum_p4[t] = p2.sum(axis=0), (p2 * p2).sum(axis=0)
    ratios = sum_p4.mean(axis=0) / sum_p2.mean(axis=0)
    k = int(np.argmax(ratios))
    se_ratio = (np.std(sum_p4[:, k] - ratios[k] * sum_p2[:, k], ddof=1)
                / math.sqrt(n_mc) / sum_p2[:, k].mean())
    h = math.sqrt(ratios[k])
    return h, se_ratio / (2.0 * h)


MARKOV_2D = FiniteMarkov(
    transition=np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]]),
    emit_x=np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 1.0]]),
    emit_y=np.array([[0.0], [1.0], [0.5]]))


class TestFourthMomentConstant:
    @pytest.mark.parametrize("spec, sigma_x, n", [
        (IIDGaussian(covariate_dim=5), None, 40),
        # The sup sits on the smallest eigenvector of sigma_x, on the grid.
        (IIDGaussian(covariate_dim=2), np.array([[0.6, 0.1], [0.1, 1.5]]), 40),
        (BlockConstant(4), None, 64),
        (GaussianAR((0.5, 0.2), covariate_dim=1, warmup=0), None, 30),
        (GaussianAR((0.5, 0.2), covariate_dim=1, warmup=default_warmup((0.5, 0.2))), None, 30),
        (GaussianAR((0.5, 0.2), covariate_dim=2, warmup=0), None, 20),
        (two_state_flip(0.3), None, 50),
        (MARKOV_2D, None, 50),
    ], ids=["iid-d5", "iid-d2-other-sigma", "block-constant", "ar-warmup-0",
            "ar-warmup-auto", "ar-window-2", "two-state-flip", "markov-d2"])
    def test_within_four_standard_errors_of_monte_carlo(self, spec, sigma_x, n):
        if sigma_x is None:
            sigma_x = population_optimum(spec).sigma_x
        exact = spec.fourth_moment_constant(sigma_x, n, 11)
        estimate, stderr = monte_carlo_h(spec, sigma_x, n, 3000, 11)
        assert abs(exact - estimate) <= 4.0 * stderr + 1e-12

    @pytest.mark.parametrize("spec", [
        IIDGaussian(covariate_dim=1),
        IIDGaussian(covariate_dim=5),
        BlockConstant(4),
        BlockConstant(3, covariate_dim=3, x_std=2.0),
    ])
    def test_stationary_gaussian_is_sqrt_3(self, spec):
        prob = population_optimum(spec)
        for n, seed in ((1, 0), (5000, 7)):
            assert abs(spec.fourth_moment_constant(prob.sigma_x, n, seed)
                       - math.sqrt(3.0)) <= 1e-12

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_ar_past_its_settling_time_is_sqrt_3(self, window):
        # A window of 4 lags is wider than the AR(2) companion state.
        spec = GaussianAR((0.5, 0.2), covariate_dim=window, warmup=default_warmup((0.5, 0.2)))
        prob = population_optimum(spec)
        assert abs(spec.fourth_moment_constant(prob.sigma_x, 3000, 2)
                   - math.sqrt(3.0)) <= 1e-12

    def test_other_sigma_x_gives_the_generalized_eigenvalue(self):
        sigma_x = np.diag([0.5, 2.0])
        h = IIDGaussian(covariate_dim=2).fourth_moment_constant(sigma_x, 10, 0)
        assert h == pytest.approx(math.sqrt(6.0), rel=1e-14)

    def test_markov_scalar_is_the_stationary_kurtosis(self):
        chain = FiniteMarkov(transition=np.array([[0.9, 0.1], [0.4, 0.6]]),
                             emit_x=np.array([[1.0], [3.0]]), emit_y=np.zeros((2, 1)))
        pi = chain.stationary
        m2, m4 = pi @ np.array([1.0, 9.0]), pi @ np.array([1.0, 81.0])
        sigma_x = population_optimum(chain).sigma_x
        assert chain.fourth_moment_constant(sigma_x, 100, 0) == pytest.approx(
            math.sqrt(m4 / m2**2), rel=1e-14)


class TestTrajectory:
    def test_csv_export(self, tmp_path):
        spec = IIDGaussian(covariate_dim=2, target_dim=1)
        traj = simulate(spec, 5, 1)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,y_1"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(traj.xs[0, 0])

    def test_inputs_become_2d_float(self):
        traj = Trajectory(xs=np.arange(6).reshape(3, 2), ys=np.arange(3, dtype=np.float32)[:, None])
        assert traj.xs.dtype == traj.ys.dtype == np.float64
        np.testing.assert_array_equal(traj.xs, [[0, 1], [2, 3], [4, 5]])
        flat = Trajectory(xs=np.arange(4), ys=[0.5, 1, 2, 3])
        assert flat.xs.shape == flat.ys.shape == (1, 4) and flat.xs.dtype == np.float64
        xs = np.ones((3, 1))
        assert Trajectory(xs=xs, ys=xs).xs is xs

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(xs=np.zeros((3, 1)), ys=np.zeros((2, 1)))


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
