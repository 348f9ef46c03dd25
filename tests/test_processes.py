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
    stationary_covariance,
    stationary_distribution,
    stationary_state_covariance,
    two_state_flip,
)
from mixreg.processes import _lagged_design


def lag1_corr(y):
    y = np.asarray(y).ravel()
    a, b = y[:-1], y[1:]
    return np.corrcoef(a, b)[0, 1]


class TestCompanion:
    def test_scalar_coefficient(self):
        ss = companion((0.7,))
        np.testing.assert_allclose(ss.transition, [[0.7, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(ss.input_vec, [1.0, 0.0])
        np.testing.assert_allclose(ss.output_vec, [1.0, 0.0])

    def test_square_entry(self):
        ss = companion((0.5,))
        a2 = np.linalg.matrix_power(ss.transition, 2)
        assert a2[0, 0] == pytest.approx(0.25)

    def test_zero_coeffs_nilpotent(self):
        for p in (1, 2, 4):
            ss = companion((0.0,) * p)
            np.testing.assert_allclose(
                np.linalg.matrix_power(ss.transition, p + 1), 0.0, atol=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            companion(())

    def test_structure_general(self):
        theta = (0.3, -0.2, 0.1)
        ss = companion(theta)
        assert ss.dim == 4
        np.testing.assert_allclose(ss.transition[0], [0.3, -0.2, 0.1, 0.0])
        np.testing.assert_allclose(ss.transition[1:, :3], np.eye(3))


class TestGramian:
    def test_three_step_value(self):
        # 1 + 0.25 + 0.0625 by direct matrix multiplication
        ss = companion((0.5,))
        assert gramian(ss, 3)[0, 0] == pytest.approx(1.3125, abs=1e-12)

    def test_single_step_is_outer_input(self):
        ss = companion((0.3, 0.1))
        np.testing.assert_allclose(gramian(ss, 1),
                                   np.outer(ss.input_vec, ss.input_vec))

    def test_zero_steps(self):
        ss = companion((0.5,))
        np.testing.assert_allclose(gramian(ss, 0), np.zeros((2, 2)))

    def test_geometric_limit(self):
        ss = companion((0.9,))
        assert gramian(ss, 500)[0, 0] == pytest.approx(1.0 / (1.0 - 0.81), rel=1e-9)

    def test_recursion(self):
        ss = companion((0.6, -0.3))
        a, b = ss.transition, ss.input_vec
        for k in range(1, 12):
            lhs = gramian(ss, k + 1)
            rhs = a @ gramian(ss, k) @ a.T + np.outer(b, b)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_conditional_law_identity(self):
        # Gramian difference equals the propagated covariance.
        ss = companion((0.5, 0.2))
        a = ss.transition
        for t in (0, 3, 7):
            for k in (1, 2, 5):
                ak = np.linalg.matrix_power(a, k)
                lhs = gramian(ss, t + k + 1) - gramian(ss, k)
                rhs = ak @ gramian(ss, t + 1) @ ak.T
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestConditionalGaussian:
    def test_zero_state_zero_mean(self):
        ss = companion((0.4, 0.3))
        mean, _ = conditional_gaussian(ss, np.zeros(3), 4)
        assert mean == 0.0

    def test_hand_instance(self):
        ss = companion((0.5,))
        mean, var = conditional_gaussian(ss, (1.0, 0.0), 2)
        assert mean == pytest.approx(0.25)
        assert var == pytest.approx(1.25)

    def test_dimension_mismatch(self):
        ss = companion((0.5,))
        with pytest.raises(ValueError):
            conditional_gaussian(ss, (1.0, 0.0, 0.0), 2)

    def test_against_simulated_continuations(self):
        # Simulate 1e5 k-step continuations from a fixed state.
        theta = np.array([0.5, 0.2])
        ss = companion(theta)
        state = np.array([0.8, -0.4, 0.3])
        k, n_paths = 3, 100_000
        rng = np.random.default_rng(11)
        window = state[:2].copy()  # (y_t, y_{t-1})
        paths = np.tile(np.r_[window, state[2]], (n_paths, 1))
        for _ in range(k):
            new = paths[:, :2] @ theta + rng.standard_normal(n_paths)
            paths = np.column_stack([new, paths[:, :2]])
        mean, var = conditional_gaussian(ss, state, k)
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


class TestStationaryCovariance:
    def test_zero_coeffs_scaled_identity(self):
        spec = GaussianAR((0.0, 0.0), noise_std=2.0, covariate_dim=2)
        np.testing.assert_allclose(stationary_covariance(spec), 4.0 * np.eye(2),
                                   atol=1e-10)

    def test_ar1_variance(self):
        spec = GaussianAR((0.5,))
        assert stationary_covariance(spec)[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_ar2_two_window_off_diagonal(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=2)
        cov = stationary_covariance(spec)
        assert cov[0, 1] == pytest.approx(0.625 * cov[0, 0], rel=1e-10)

    def test_lyapunov_fixed_point_residual(self):
        spec = GaussianAR((0.6, -0.2, 0.1))
        from mixreg.processes import companion as comp
        ss = comp(spec.ar_coeffs)
        cov = stationary_state_covariance(spec)
        resid = cov - (ss.transition @ cov @ ss.transition.T
                       + np.outer(ss.input_vec, ss.input_vec))
        assert np.abs(resid).max() <= 1e-10

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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from mixreg.processes import Trajectory
            Trajectory(xs=np.zeros((3, 1)), ys=np.zeros((2, 1)), seed=0,
                       spec=IIDGaussian(covariate_dim=1))


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
