import numpy as np
import pytest
from scipy.linalg import qr, solve_triangular
from scipy.signal import lfilter
from scipy.stats import ortho_group

from mixreg.linalg import EIG_FLOOR, inv_sqrt_psd, min_eig, sqrt_psd
from mixreg.processes import (
    BlockConstant,
    GaussianAR,
    IIDGaussian,
    Trajectory,
    autocovariances,
    simulate,
    two_state_flip,
)
from mixreg.regression import (
    DegenerateDesignError,
    RegressionProblem,
    cross_term_expectation,
    error_identity_check,
    evaluate_fit,
    excess_risk,
    fit_ols,
    gaussian_quartic,
    noise_walk,
    population_optimum,
    whitened_empirical_covariance,
)
from mixreg.regression import _check_gram, _times

from mc_optimum import monte_carlo_optimum


def random_problem(rng, d_x, d_y):
    a = rng.standard_normal((d_x, d_x))
    sigma = a @ a.T + 0.5 * np.eye(d_x)
    return RegressionProblem(sigma_x=sigma, m_star=rng.standard_normal((d_y, d_x)))


def random_trajectory(rng, n, d_x, d_y):
    spec = IIDGaussian(covariate_dim=d_x, target_dim=d_y,
                       coef=rng.standard_normal((d_y, d_x)))
    return simulate(spec, n, int(rng.integers(1 << 31)))


class TestFitOls:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(0)
        coef = rng.standard_normal((2, 4))
        spec = IIDGaussian(covariate_dim=4, target_dim=2, coef=coef, noise_std=0.0)
        traj = simulate(spec, 50, 1)
        np.testing.assert_allclose(fit_ols(traj), coef, atol=1e-10)

    def test_scalar_hand_instance(self):
        traj = Trajectory(xs=np.array([[1.0], [2.0]]), ys=np.array([[1.0], [2.0]]))
        assert fit_ols(traj)[0, 0] == pytest.approx(1.0)

    def test_classical_risk_scale(self):
        # E||m_hat - M||_F^2 ~ d_y d_x / n for isotropic design, unit noise.
        d, n, trials = 3, 10**5, 100
        spec = IIDGaussian(covariate_dim=d, target_dim=d, coef=np.eye(d))
        errs = []
        for t in range(trials):
            m_hat = fit_ols(simulate(spec, n, t))
            errs.append(np.sum((m_hat - np.eye(d)) ** 2))
        mean_err = np.mean(errs)
        assert 0.5 * 9 / n <= mean_err <= 2.0 * 9 / n

    def test_singular_design_error_carries_eigenvalue(self):
        xs = np.ones((10, 2))  # rank one
        ys = np.ones((10, 1))
        traj = Trajectory(xs=xs, ys=ys)
        with pytest.raises(DegenerateDesignError) as exc:
            fit_ols(traj)
        assert exc.value.min_eigenvalue <= 1e-10

    @pytest.mark.parametrize("g", [0.0, 5e-324, np.nextafter(EIG_FLOOR, 0.0), EIG_FLOOR,
                                   np.nextafter(EIG_FLOOR, 1.0), 1.0, 123.4, 1e300, -1.0])
    def test_one_by_one_check_agrees_with_min_eig(self, g):
        # At d_X = 1 the Gram check reads the entry; the eigenvalue check
        # with the same floor must raise on exactly the same inputs.
        gram = np.array([[g]])
        want = min_eig(gram) <= EIG_FLOOR * np.trace(gram)
        try:
            _check_gram(gram)
            raised = False
        except DegenerateDesignError as exc:
            raised = True
            assert exc.min_eigenvalue == g
        assert raised == want

    def test_first_order_stationarity(self):
        rng = np.random.default_rng(7)
        traj = random_trajectory(rng, 200, 3, 2)
        m_hat = fit_ols(traj)

        def emp_risk(m):
            resid = traj.ys - traj.xs @ m.T
            return np.mean(np.sum(resid**2, axis=1))

        base = emp_risk(m_hat)
        for _ in range(20):
            direction = rng.standard_normal(m_hat.shape)
            direction /= np.linalg.norm(direction)
            assert emp_risk(m_hat + 1e-3 * direction) >= base - 1e-6

    @pytest.mark.parametrize("d_x, d_y, n", [(1, 1, 20), (3, 2, 50), (6, 3, 400)])
    def test_matches_triangular_solve_oracle(self, d_x, d_y, n):
        rng = np.random.default_rng(d_x)
        traj = random_trajectory(rng, n, d_x, d_y)
        gram = traj.xs.T @ traj.xs
        q, r = qr(gram)
        oracle = solve_triangular(r, q.T @ (traj.ys.T @ traj.xs).T).T
        np.testing.assert_allclose(fit_ols(traj), oracle, rtol=1e-12, atol=1e-12)


class TestPopulationOptimum:
    def test_ar1_realizable(self):
        prob = population_optimum(GaussianAR((0.5,), covariate_dim=1))
        assert prob.m_star[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_ar2_misspecified_window1(self):
        prob = population_optimum(GaussianAR((0.5, 0.2), covariate_dim=1))
        assert prob.m_star[0, 0] == pytest.approx(0.625, abs=1e-10)

    def test_analytic_vs_monte_carlo(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=1, warmup=100)
        analytic = population_optimum(spec)
        mc, stderr = monte_carlo_optimum(spec, n_mc=200_000, seed=11)
        diff = abs(mc.m_star[0, 0] - analytic.m_star[0, 0])
        assert diff <= 3 * stderr[0, 0]

    @pytest.mark.parametrize("spec, n_mc", [
        (GaussianAR((0.5, 0.2), covariate_dim=1), 1),
        (GaussianAR((0.5, 0.2), covariate_dim=1), 2),
        (IIDGaussian(covariate_dim=3), 50),
    ])
    def test_monte_carlo_with_too_few_fits_names_n_mc(self, spec, n_mc):
        # Segments hold at least 10 d_X samples: n_mc = 1 or 2 with d_X = 1,
        # and n_mc = 50 with d_X = 3, leave fewer than two segments.
        with pytest.raises(ValueError, match="n_mc"):
            monte_carlo_optimum(spec, n_mc=n_mc)

    @pytest.mark.parametrize("seed", range(5))
    def test_monte_carlo_stderr_matches_the_sampling_error(self, seed):
        # iid d = 3, unit noise: each coefficient's sampling error is about
        # 1 / sqrt(n_mc).  Segments of 10 d_X samples report it within a
        # factor of 2; three-sample segments reported up to 100 times more.
        n_mc = 300
        _, stderr = monte_carlo_optimum(IIDGaussian(covariate_dim=3), n_mc=n_mc, seed=seed)
        scale = 1.0 / np.sqrt(n_mc)
        assert ((stderr >= 0.5 * scale) & (stderr <= 2.0 * scale)).all()

    @pytest.mark.parametrize("n_mc", [50, 99])
    def test_monte_carlo_below_the_batch_count(self, n_mc):
        # Fewer samples than 10 d_X per batch segment: fewer, longer segments.
        spec = GaussianAR((0.5, 0.2), covariate_dim=1)
        _, stderr = monte_carlo_optimum(spec, n_mc=n_mc)
        assert np.isfinite(stderr).all()

    def test_near_unit_root_is_exact(self):
        rho = 0.99999
        prob = population_optimum(GaussianAR((rho,)))
        assert prob.sigma_x[0, 0] == pytest.approx(1.0 / (1.0 - rho * rho), rel=1e-9)
        assert prob.m_star[0, 0] == pytest.approx(rho, rel=1e-9)

    def test_markov_analytic(self):
        prob = population_optimum(two_state_flip(0.3))
        # Emissions are equal signs, so the best map is the identity.
        assert prob.m_star[0, 0] == pytest.approx(1.0)
        assert prob.sigma_x[0, 0] == pytest.approx(1.0)

    def test_block_constant_zero_map(self):
        prob = population_optimum(BlockConstant(4, x_std=2.0))
        assert prob.m_star[0, 0] == 0.0
        assert prob.sigma_x[0, 0] == pytest.approx(4.0)

    def test_window_only_for_ar(self):
        with pytest.raises(ValueError):
            IIDGaussian(covariate_dim=3).with_window(2)

    def test_finite_horizon_reaches_stationary(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=1)
        prob = population_optimum(spec, horizon=20_000)
        assert prob.m_star[0, 0] == pytest.approx(0.625, abs=1e-4)

    @pytest.mark.parametrize("coeffs", [(0.5,), (0.5, 0.2)])
    def test_finite_horizon_covers_windows_wider_than_the_state(self, coeffs):
        # A window of p + 2 lags is wider than the (p + 1)-coordinate
        # companion state; the horizon path must still give every lag.
        p = len(coeffs)
        spec = GaussianAR(coeffs, covariate_dim=p + 2, warmup=200)
        sigma_x, m_star = spec.optimum(100)
        want_sigma, want_m = spec.optimum()
        assert sigma_x.shape == (p + 2, p + 2) and m_star.shape == (1, p + 2)
        np.testing.assert_allclose(sigma_x, want_sigma, rtol=0, atol=1e-10)
        np.testing.assert_allclose(m_star, want_m, rtol=0, atol=1e-10)

    def test_empty_horizon_is_rejected(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=1)
        with pytest.raises(ValueError, match="horizon"):
            population_optimum(spec, horizon=0)

    def test_finite_horizon_against_moment_oracle(self):
        # Best map for the uniform mixture over n sample times of the
        # zero-initialized trajectory: ratio of summed exact moments.
        spec = GaussianAR((0.5, 0.2), covariate_dim=1)
        n = 6
        prob = population_optimum(spec, horizon=n)
        trials = 300_000
        g = np.random.default_rng(31).standard_normal((trials, n))
        y = lfilter([1.0], [1.0, -0.5, -0.2], g, axis=1)
        u = np.zeros_like(y)
        u[:, 1:] = y[:, :-1]
        num = (y * u).sum(axis=1).mean()
        den = (u * u).sum(axis=1).mean()
        assert prob.m_star[0, 0] == pytest.approx(num / den, abs=0.01)
        assert prob.sigma_x[0, 0] == pytest.approx(den / n, rel=0.01)

    def test_horizon_optimum_centers_noise_walk(self):
        # The noise walk of the raw zero-initialized process has exactly
        # mean zero against the horizon-matched optimum; the stationary
        # optimum leaves a visible bias at this horizon.
        spec = GaussianAR((0.5, 0.2), covariate_dim=1)
        n, trials = 6, 20_000
        mixture = population_optimum(spec, horizon=n)
        stationary = population_optimum(spec)
        walks_mix = np.empty(trials)
        walks_stat = np.empty(trials)
        for t in range(trials):
            traj = simulate(spec, n, t)
            walks_mix[t] = noise_walk(traj, mixture).mean(axis=0).ravel()[0]
            walks_stat[t] = noise_walk(traj, stationary).mean(axis=0).ravel()[0]
        se = walks_mix.std() / np.sqrt(trials)
        assert abs(walks_mix.mean()) <= 3 * se
        assert abs(walks_stat.mean()) > 3 * walks_stat.std() / np.sqrt(trials)


class TestExcessRisk:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, 3, 2)
        assert excess_risk(prob.m_star, prob) == 0.0

    def test_diagonal_hand_value(self):
        prob = RegressionProblem(sigma_x=np.diag([4.0, 1.0]),
                                 m_star=np.zeros((1, 2)))
        assert excess_risk(np.array([[1.0, 0.0]]), prob) == pytest.approx(4.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        prob = random_problem(rng, 4, 1)
        m = rng.standard_normal((1, 4))
        base = excess_risk(m, prob)
        for _ in range(5):
            q = ortho_group.rvs(4, random_state=rng)
            rotated = RegressionProblem(sigma_x=q @ prob.sigma_x @ q.T,
                                        m_star=prob.m_star @ q.T)
            assert excess_risk(m @ q.T, rotated) == pytest.approx(base, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, 3, 2)
        for _ in range(20):
            assert excess_risk(rng.standard_normal((2, 3)), prob) >= 0.0


class TestCachedRoots:
    def test_roots_equal_the_direct_computation(self):
        prob = random_problem(np.random.default_rng(4), 4, 2)
        np.testing.assert_array_equal(prob.whitener, inv_sqrt_psd(prob.sigma_x))
        np.testing.assert_array_equal(prob.sqrt_sigma_x, sqrt_psd(prob.sigma_x))
        assert prob.whitener is prob.whitener
        assert not prob.whitener.flags.writeable

    def test_noise_walk_uses_the_whitener(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, 3, 2)
        traj = random_trajectory(rng, 40, 3, 2)
        w = traj.ys - traj.xs @ prob.m_star.T
        ref = np.einsum("ni,nj->nij", w, traj.xs @ inv_sqrt_psd(prob.sigma_x))
        np.testing.assert_array_equal(noise_walk(traj, prob), ref)


def with_signed_zeros(traj):
    """The trajectory with covariates of exact +0.0 and -0.0 in half of the
    rows, where a plain multiply and a BLAS product differ in the sign of a
    zero.  The targets of those rows are made positive: their walk entries
    are then +0.0 exactly when the whitened covariates are, as in einsum."""
    xs, ys = traj.xs.copy(), traj.ys.copy()
    xs[0::4] = 0.0
    xs[1::4] = -0.0
    ys[0::4] = np.abs(ys[0::4])
    ys[1::4] = np.abs(ys[1::4])
    return Trajectory(xs=xs, ys=ys)


class TestNoiseWalk:
    @pytest.mark.parametrize("d_x, d_y", [(1, 1), (3, 1), (2, 4), (1, 3)])
    def test_matches_the_einsum_outer_product_bit_for_bit(self, d_x, d_y):
        rng = np.random.default_rng(10 * d_x + d_y)
        prob = random_problem(rng, d_x, d_y)
        traj = with_signed_zeros(random_trajectory(rng, 57, d_x, d_y))
        w = traj.ys - traj.xs @ prob.m_star.T
        ref = np.einsum("ni,nj->nij", w, traj.xs @ prob.whitener)
        v = noise_walk(traj, prob)
        assert v.shape == (57, d_y, d_x)
        assert v.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1)])
    def test_one_column_products_match_the_matrix_product_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape)
        xs = rng.standard_normal((40, shape[0]))
        xs[0::4] = 0.0
        xs[1::4] = -0.0
        m = rng.standard_normal(shape)
        for sign in (1.0, -1.0):
            assert _times(xs, sign * m).tobytes() == (xs @ (sign * m)).tobytes()

    @pytest.mark.parametrize("d_x", [1, 3])
    def test_whitened_covariance_matches_the_matrix_product_bit_for_bit(self, d_x):
        rng = np.random.default_rng(d_x)
        prob = random_problem(rng, d_x, 1)
        traj = with_signed_zeros(random_trajectory(rng, 57, d_x, 1))
        xw = traj.xs @ prob.whitener
        ref = (xw.T @ xw) / 57
        assert whitened_empirical_covariance(traj, prob).tobytes() == ref.tobytes()

    def test_noiseless_realizable_zero(self):
        coef = np.array([[1.0, -2.0]])
        spec = IIDGaussian(covariate_dim=2, coef=coef, noise_std=0.0)
        traj = simulate(spec, 100, 4)
        prob = RegressionProblem(sigma_x=np.eye(2), m_star=coef)
        v = noise_walk(traj, prob)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)
        np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-12)

    def test_mean_zero_over_trials(self):
        spec = IIDGaussian(covariate_dim=3)
        prob = population_optimum(spec)
        trials = 10_000
        n = 32
        walks = np.empty((trials, 3))
        for t in range(trials):
            walks[t] = noise_walk(simulate(spec, n, t), prob).mean(axis=0).ravel()
        mean = walks.mean(axis=0)
        se = walks.std(axis=0) / np.sqrt(trials)
        assert np.all(np.abs(mean) <= 3 * se + 1e-12)

    def test_whitening_identity(self):
        spec = IIDGaussian(covariate_dim=4)
        prob = population_optimum(spec)
        traj = simulate(spec, 200_000, 9)
        emp = whitened_empirical_covariance(traj, prob)
        np.testing.assert_allclose(emp, np.eye(4), atol=0.02)

    def test_evaluate_fit_consistency(self):
        rng = np.random.default_rng(12)
        spec = IIDGaussian(covariate_dim=3, coef=rng.standard_normal((1, 3)))
        traj = simulate(spec, 500, 3)
        prob = population_optimum(spec)
        fit = evaluate_fit(traj, prob)
        diff = (fit.m_hat - prob.m_star) @ sqrt_psd(prob.sigma_x)
        assert fit.excess_risk == pytest.approx(np.sum(diff**2), abs=1e-10)


class TestErrorIdentity:
    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d_x = int(rng.integers(1, 6))
            d_y = int(rng.integers(1, 4))
            n = int(rng.integers(4 * d_x, 100))
            prob = random_problem(rng, d_x, d_y)
            traj = random_trajectory(rng, n, d_x, d_y)
            assert error_identity_check(traj, prob) <= 1e-8

    def test_hand_instance_self_normal_equations(self):
        xs = np.array([[1.0], [2.0]])
        ys = np.array([[3.0], [5.0]])
        # Best map from this sample's own normal equations: 13/5.
        m_star = np.array([[13.0 / 5.0]])
        traj = Trajectory(xs=xs, ys=ys)
        prob = RegressionProblem(sigma_x=np.array([[2.5]]), m_star=m_star)
        assert error_identity_check(traj, prob) <= 1e-12

    def test_singular_design_raises(self):
        traj = Trajectory(xs=np.zeros((5, 2)) + 1.0, ys=np.ones((5, 1)))
        prob = RegressionProblem(sigma_x=np.eye(2), m_star=np.zeros((1, 2)))
        with pytest.raises(DegenerateDesignError):
            error_identity_check(traj, prob)


class TestGaussianQuartic:
    def test_identity_pair(self):
        assert gaussian_quartic(np.eye(2), np.eye(2)) == pytest.approx(8.0)

    def test_zero_b(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        assert gaussian_quartic(a, np.zeros((3, 3))) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            assert gaussian_quartic(a, b) == pytest.approx(gaussian_quartic(b, a), rel=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((400_000, 3))
        for _ in range(3):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            qa = np.einsum("ni,ij,nj->n", g, a, g)
            qb = np.einsum("ni,ij,nj->n", g, b, g)
            prod = qa * qb
            se = prod.std() / np.sqrt(len(prod))
            assert abs(prod.mean() - gaussian_quartic(a, b)) <= 3 * se

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_quartic(np.eye(2), np.eye(3))


class TestTensorization:
    def test_blocked_variance_matches_per_sample(self):
        # Normalized variance of summed iid unit-variance blocks stays 1.
        rng = np.random.default_rng(9)
        for k in (2, 5, 10):
            blocks = rng.standard_normal((100_000, k)).sum(axis=1)
            assert blocks.var() / k == pytest.approx(1.0, abs=0.05)


class TestCrossTermExpectation:
    @staticmethod
    def fit(coeffs, window, noise_std=1.0, warmup=0):
        spec = GaussianAR(coeffs, noise_std=noise_std, covariate_dim=window, warmup=warmup)
        return spec, population_optimum(spec)

    def test_realizable_zero(self):
        # A window at or above the order leaves the innovation as the
        # residual, a martingale difference; p + 2 is wider than the (p + 1)
        # companion state.
        for coeffs, window in (((0.5,), 1), ((0.5, 0.2), 2), ((0.5, 0.2), 4)):
            spec, prob = self.fit(coeffs, window, warmup=5)
            for s, t in ((0, 1), (2, 5), (3, 9)):
                assert abs(cross_term_expectation(spec, prob, s, t)) <= 1e-12

    def test_window_comes_from_the_spec(self):
        for window in (2, 3, 4):
            spec, prob = self.fit((0.5, 0.2), window)
            assert abs(cross_term_expectation(spec, prob, 3, 5)) <= 1e-12
        spec, prob = self.fit((0.5, 0.2), 1)
        assert cross_term_expectation(spec, prob, 3, 5) == pytest.approx(
            0.08424215761596679, rel=1e-12)

    def test_argument_order(self):
        spec, prob = self.fit((0.5, 0.2), 1)
        with pytest.raises(ValueError):
            cross_term_expectation(spec, prob, 5, 5)

    def test_against_monte_carlo(self):
        # The oracle is the noise walk itself: products V_s . V_t over fresh
        # draws of the first t + 1 samples, before and after a warmup.
        s, t, n_draws = 6, 9, 40_000
        for warmup in (0, 30):
            spec, prob = self.fit((0.5, 0.2), 1, warmup=warmup)
            exact = cross_term_expectation(spec, prob, s, t)
            rng = np.random.default_rng(10)
            samples = np.empty(n_draws)
            for k in range(n_draws):
                walk = noise_walk(simulate(spec, t + 1, rng), prob)
                samples[k] = np.sum(walk[s] * walk[t])
            se = samples.std() / np.sqrt(n_draws)
            assert abs(samples.mean() - exact) <= 3 * se, warmup

    def test_long_warmup_reaches_the_stationary_isserlis_value(self):
        # Past a long warmup the state is stationary to float64 resolution,
        # and Isserlis gives E[V_0 . V_k] for one lag from the autocovariances
        # alone: (gamma(k) E[w_0 w_k] + E[x_0 w_k] E[w_0 x_k]) / gamma(0).
        spec, prob = self.fit((0.5, 0.2), 1, warmup=300)
        m = prob.m_star[0, 0]
        g = autocovariances(spec, 12)
        for k in (1, 2, 5, 10):
            ww = (1.0 + m * m) * g[k] - m * (g[k - 1] + g[k + 1])
            xw, wx = g[k + 1] - m * g[k], g[k - 1] - m * g[k]
            want = (g[k] * ww + xw * wx) / g[0]
            assert cross_term_expectation(spec, prob, 4, 4 + k) == pytest.approx(
                want, rel=1e-10)

    def test_noise_scale_homogeneity(self):
        (base, prob1), (scaled, prob2) = (self.fit((0.4, 0.3), 1, noise_std=sd)
                                          for sd in (1.0, 2.0))
        v1 = cross_term_expectation(base, prob1, 4, 7)
        v2 = cross_term_expectation(scaled, prob2, 4, 7)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-10)

    def test_early_times_with_zero_history(self):
        # Without a warmup the first covariate is the zero initial value, so
        # V_0 = 0; a warmup gives it history.
        spec, prob = self.fit((0.5, 0.2), 1)
        assert cross_term_expectation(spec, prob, 0, 2) == 0.0
        spec, prob = self.fit((0.5, 0.2), 1, warmup=3)
        val = cross_term_expectation(spec, prob, 0, 2)
        assert np.isfinite(val) and val != 0.0
