import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.signal import lfilter

from mixreg.blocking import block_sums, make_partition, uniform_partition
from mixreg.bounds import (
    DEFAULT_CONSTANTS,
    NoiseSpectrum,
    REstimate,
    UniversalConstants,
    bernstein_threshold,
    blocked_bernstein_threshold,
    clt_variance,
    corollary_bound,
    cs_comparison,
    edim,
    estimate_r,
    fuk_nagaev_constant,
    fuk_nagaev_tail,
    lower_tail_certificate,
    main_bound,
    max_per_sample_variance,
    noise_spectrum,
    noise_term_failure_budget,
    noise_term_threshold,
    phi_tau,
    truncation_mass_check,
)
from mixreg.bounds import _block_totals, _parity_sums, _walk_block_sums
from mixreg.mixing import iid_profile, markov_profile, mixing_sum
from mixreg.processes import (
    BlockConstant,
    GaussianAR,
    IIDGaussian,
    derive_seed,
    _h_directions,
    simulate,
    two_state_flip,
)
from mixreg.regression import RegressionProblem, noise_walk, population_optimum


def synthetic_spectrum(partition, sigma2=1.0, h=math.sqrt(3.0), s=4.0, d_x=5, d_y=1):
    """Isotropic spectrum: sigma_agg = sigma2 I, so effective_dim = d_x d_y."""
    half = 0.5 * partition.n * sigma2 * np.eye(d_x * d_y)
    return NoiseSpectrum(
        partition=partition, d_x=d_x, d_y=d_y, sigma_odd=half, sigma_even=half,
        moment_s=s, block_snorm_moments=np.ones(partition.n_blocks), h=h,
    )


class TestBernstein:
    def test_arithmetic(self):
        assert bernstein_threshold(100, 1.0, 1.0, math.exp(-1.0)) == pytest.approx(
            0.2133333333333, rel=1e-10)

    def test_vanishes_as_delta_to_one(self):
        assert bernstein_threshold(100, 1.0, 1.0, 1 - 1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_blocked_degenerate_block_identical(self):
        for delta in (0.5, 0.1, 0.01):
            a = bernstein_threshold(120, 2.0, 3.0, delta)
            b = blocked_bernstein_threshold(120, 1, 2.0, 3.0, delta)
            assert a == b  # bit-for-bit

    def test_blocked_arithmetic(self):
        got = blocked_bernstein_threshold(100, 5, 1.0, 1.0, math.exp(-1.0))
        assert got == pytest.approx(0.2 + 20.0 / 300.0, rel=1e-12)

    def test_blocked_leading_term_matches(self):
        plain = bernstein_threshold(1000, 1.0, 1.0, 0.1)
        blocked = blocked_bernstein_threshold(1000, 10, 1.0, 1.0, 0.1)
        lead = 2 * math.sqrt(math.log(10) / 1000)
        assert plain - lead == pytest.approx(4 * math.log(10) / 3000, rel=1e-12)
        assert blocked - lead == pytest.approx(40 * math.log(10) / 3000, rel=1e-12)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            blocked_bernstein_threshold(100, 7, 1.0, 1.0, 0.1)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            bernstein_threshold(10, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            bernstein_threshold(10, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bernstein_threshold(10, 1.0, 1.0, math.nan)

    @pytest.mark.parametrize("blockvar, b", [(math.nan, 1.0), (math.inf, 1.0),
                                             (1.0, math.nan), (1.0, math.inf)])
    def test_variance_and_bound_domain(self, blockvar, b):
        with pytest.raises(ValueError, match="finite"):
            blocked_bernstein_threshold(10, 1, blockvar, b, 0.1)

    @pytest.mark.parametrize("n", [0, -4])
    def test_n_domain(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            bernstein_threshold(n, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            blocked_bernstein_threshold(n, 1, 1.0, 1.0, 0.1)


class TestEdim:
    def test_identity(self):
        assert edim(np.eye(7)) == pytest.approx(7.0)

    def test_diagonal(self):
        assert edim(np.diag([2.0, 1.0, 1.0])) == pytest.approx(2.0)

    def test_rank_one(self):
        v = np.array([1.0, 2.0, -1.0])
        assert edim(np.outer(v, v)) == pytest.approx(1.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            edim(np.zeros((3, 3)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        m = a @ a.T
        for c in (0.5, 3.0, 1e6):
            assert edim(c * m) == pytest.approx(edim(m), rel=1e-12)


class TestPhiTau:
    def test_values(self):
        assert phi_tau(1.0, 2.0) == 1.0
        assert phi_tau(3.0, 2.0) == 4.0
        assert phi_tau(-3.0, 2.0) == 4.0

    def test_vectorized(self):
        np.testing.assert_allclose(phi_tau(np.array([-3.0, 0.5, 10.0]), 2.0),
                                   [4.0, 0.25, 4.0])

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            phi_tau(1.0, 0.0)
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                phi_tau(1.0, tau)


class TestFukNagaev:
    def test_constant_value(self):
        # 1 + (8/e)^8 * 42^2 + 1
        expected = 2.0 + (8.0 / math.e) ** 8 * 1764.0
        assert fuk_nagaev_constant(1.0, 1.0, 4.0) == pytest.approx(expected, rel=1e-12)
        assert fuk_nagaev_constant(1.0, 1.0, 4.0) == pytest.approx(9.93e6, rel=1e-3)

    def test_monotone_in_s(self):
        vals = [fuk_nagaev_constant(1.0, 1.0, s) for s in (3, 4, 6, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_large_eps_kills_last_term(self):
        # eps^{-s} -> 0 and the bracket approaches its eps-free limit.
        big = fuk_nagaev_constant(1e9, 1.0, 4.0)
        limit = 1.0 + (8 / math.e) ** 8 * (2 * 1.0 * 7.0) ** 2
        assert big == pytest.approx(limit, rel=1e-6)
        assert 1e9 ** (-4.0) < 1e-30

    def test_domain(self):
        with pytest.raises(ValueError):
            fuk_nagaev_constant(0.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            fuk_nagaev_constant(1.0, 1.5, 4.0)
        with pytest.raises(ValueError):
            fuk_nagaev_constant(1.0, 1.0, 2.0)
        for eps, eta, s in [(math.nan, 1.0, 4.0), (math.inf, 1.0, 4.0), (1.0, math.nan, 4.0),
                            (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)]:
            with pytest.raises(ValueError):
                fuk_nagaev_constant(eps, eta, s)

    def test_tail_vanishes(self):
        assert fuk_nagaev_tail(1.0, [1.0, 1.0], 1e9, 1.0, 1.0, 4.0) < 1e-20

    def test_tail_inverts_exponential(self):
        delta = 0.05
        t = math.sqrt(3.0 * math.log(1.0 / delta))
        assert fuk_nagaev_tail(1.0, [], t, 1.0, 1.0, 4.0) == pytest.approx(delta, rel=1e-12)

    def test_tail_polynomial_linearity(self):
        moments = [1.0, 2.0, 0.5]
        base = fuk_nagaev_tail(1.0, moments, 3.0, 1.0, 1.0, 4.0)
        doubled = fuk_nagaev_tail(1.0, [2 * m for m in moments], 3.0, 1.0, 1.0, 4.0)
        exp_part = math.exp(-9.0 / 3.0)
        assert doubled - exp_part == pytest.approx(2 * (base - exp_part), rel=1e-12)

    def test_tail_monotone_in_t(self):
        ts = np.linspace(0.5, 10, 25)
        vals = [fuk_nagaev_tail(1.0, [1.0], t, 1.0, 1.0, 4.0) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_tail_domain(self):
        with pytest.raises(ValueError):
            fuk_nagaev_tail(1.0, [1.0], 0.0, 1.0, 1.0, 4.0)
        for lam, t in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                fuk_nagaev_tail(lam, [1.0], t, 1.0, 1.0, 4.0)


def halves(size, r, lam=1.0):
    """An r estimate over two blocks of `size` samples each, with both weak
    variances lam."""
    return REstimate(partition=make_partition(2 * size, 1), r=r, stderr_sqrt_r=0.0,
                     lambda_odd=lam, lambda_even=lam)


class TestNoiseTermThreshold:
    def test_sub_gaussian_shape(self):
        n, d, delta = 10_000, 5.0, 0.05
        got = noise_term_threshold(halves(n // 2, d), 1e-9, 1e-9, delta)
        expected = math.sqrt(2.0 / n) * (math.sqrt(d) + math.sqrt(2 * math.log(1 / delta)))
        assert got == pytest.approx(expected, rel=1e-4)

    def test_delta_one_drops_log(self):
        got = noise_term_threshold(halves(100, 4.0), 0.5, 0.5, 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / 100) * 2.0 * 2.0)

    @pytest.mark.parametrize("eps, eta", [(math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan)])
    def test_eps_eta_domain(self, eps, eta):
        with pytest.raises(ValueError, match="finite eps"):
            noise_term_threshold(halves(50, 3.0), eps, eta, 0.1)

    def test_variance_scaling(self):
        a = noise_term_threshold(halves(50, 3.0), 0.1, 0.1, 0.1)
        b = noise_term_threshold(halves(50, 3.0, lam=4.0), 0.1, 0.1, 0.1)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_budget_terms(self):
        r_est = dataclasses.replace(halves(50, 4.0), partition=make_partition(100, 10))
        spectrum = synthetic_spectrum(r_est.partition)  # unit block moments
        profile = markov_profile(two_state_flip(0.3), [5])
        mix = mixing_sum(profile, r_est.partition)
        assert mix > 0
        # sum(moments) / (size lam)^(s/2) = 10 / 50^2 per parity, times
        # C (1 + 9 eps)^s / (r^(s/2) eta^s) = C 10^4 / 16 at eps = eta = 1.
        poly = fuk_nagaev_constant(1.0, 1.0, 4.0) * 1e4 / 16 * 2 * 10 / 50**2
        budget = noise_term_failure_budget(r_est, spectrum, profile, 1.0, 1.0, 0.05)
        assert budget == pytest.approx(2 * 0.05 + mix + poly, rel=1e-12)
        # zero moments contribute nothing even with zero variance
        zero = dataclasses.replace(synthetic_spectrum(make_partition(100, 1)),
                                   block_snorm_moments=np.zeros(2))
        trivial = noise_term_failure_budget(halves(50, 4.0, lam=0.0), zero, iid_profile([50]),
                                            1.0, 1.0, 0.05)
        assert trivial == pytest.approx(0.1)

    def test_budget_at_zero_r(self):
        # r = 0 drops the polynomial term when every block moment is 0 and
        # makes it infinite otherwise.
        r_est = halves(50, 0.0)
        spectrum = synthetic_spectrum(r_est.partition)
        profile = iid_profile([50])
        zero = dataclasses.replace(spectrum, block_snorm_moments=np.zeros(2))
        assert noise_term_failure_budget(r_est, zero, profile, 0.1, 0.1, 0.05) == 0.1
        assert noise_term_failure_budget(r_est, spectrum, profile, 0.1, 0.1, 0.05) == math.inf

    def test_budget_needs_one_partition(self):
        spectrum = synthetic_spectrum(make_partition(100, 10))
        with pytest.raises(ValueError, match="partition"):
            noise_term_failure_budget(halves(50, 1.0), spectrum, iid_profile([5]), 0.1, 0.1, 0.05)


class TestNoiseSpectrum:
    def test_iid_isotropic_benchmark(self):
        spec = IIDGaussian(covariate_dim=5)
        prob = population_optimum(spec)
        part = make_partition(64, 32)  # singleton blocks
        est = noise_spectrum(spec, prob, part, 10_000, 3)
        assert np.linalg.norm(est.sigma_agg - np.eye(5), 2) <= 0.1
        assert est.sigma2 == pytest.approx(1.0, abs=0.05)
        assert est.effective_dim == pytest.approx(5.0, rel=0.05)
        assert est.h**2 == pytest.approx(3.0, rel=0.05)

    def test_block_constant_aligned_sigma2(self):
        spec = BlockConstant(4)
        prob = population_optimum(spec)
        part = make_partition(64, 8)  # blocks of 4, aligned
        est = noise_spectrum(spec, prob, part, 2000, 5)
        assert est.sigma2 == pytest.approx(4.0, rel=0.1)

    def test_min_trials_enforced(self):
        spec = IIDGaussian(covariate_dim=2)
        prob = population_optimum(spec)
        with pytest.raises(ValueError):
            noise_spectrum(spec, prob, make_partition(16, 4), 500, 1)

    @pytest.mark.parametrize("spec, n, m", [
        (IIDGaussian(covariate_dim=5), 300, 150),
        (GaussianAR((0.5, 0.2), covariate_dim=2, warmup=30), 500, 5),
        (IIDGaussian(covariate_dim=5), 1792, 4),
    ])
    def test_block_totals_match_the_per_block_reference(self, spec, n, m):
        prob = population_optimum(spec)
        part = make_partition(n, m)
        traj = simulate(spec, n, 8)
        values, (bs, parity_outer) = _block_totals(prob, part, traj)
        # Reference: one outer product per block, summed over odd and over
        # even blocks.
        ref_bs = _walk_block_sums(prob, part, traj)
        assert values == ()
        np.testing.assert_array_equal(bs, ref_bs)
        outer = np.einsum("bi,bj->bij", ref_bs, ref_bs)
        np.testing.assert_allclose(parity_outer[0], outer[0::2].sum(0), rtol=1e-13, atol=0)
        np.testing.assert_allclose(parity_outer[1], outer[1::2].sum(0), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("m", [5, 150])
    def test_totals_are_fixed_size_parity_sums(self, m):
        spec = IIDGaussian(covariate_dim=5)
        prob = population_optimum(spec)
        part = make_partition(300, m)
        traj = simulate(spec, 300, 4)
        _, (bs, parity_outer) = _block_totals(prob, part, traj)
        sgn_sums, (r_bs, r_parity_outer) = _parity_sums(prob, part, traj)
        assert bs.shape == r_bs.shape == (2 * m, 5)
        assert parity_outer.shape == r_parity_outer.shape == (2, 5, 5)
        assert sgn_sums.shape == (2, 5)
        np.testing.assert_array_equal(parity_outer, r_parity_outer)

    def test_h_is_computed_once_by_the_kind(self, monkeypatch):
        spec = IIDGaussian(covariate_dim=5)
        exact = IIDGaussian.fourth_moment_constant
        calls = []

        def recording(self, sigma_x, n, seed):
            calls.append((n, seed))
            return exact(self, sigma_x, n, seed)

        monkeypatch.setattr(IIDGaussian, "fourth_moment_constant", recording)
        est = noise_spectrum(spec, population_optimum(spec), make_partition(500, 10), 1000, 2)
        assert calls == [(500, 2)]
        assert est.h == math.sqrt(3.0)

    def test_scalar_covariate_projects_onto_one_direction(self):
        spec = GaussianAR((0.5, 0.2), covariate_dim=1, warmup=5)
        prob = population_optimum(spec)
        n = 200
        assert _h_directions(prob.sigma_x, 4).shape == (1, 1)
        est = noise_spectrum(spec, prob, make_partition(n, 10), 1000, 4)
        # The one normalized direction gives q_t = Var(y_{t-1}) / Sigma_X at
        # each sample time t, with Var(y_j) the summed squared impulse
        # response of the zero-initialized filter up to lag j.
        impulse = lfilter([1.0], [1.0, -0.5, -0.2], np.eye(1, spec.warmup + n)[0])
        var_y = np.concatenate([[0.0], np.cumsum(impulse**2)])
        q = var_y[spec.warmup:spec.warmup + n] / prob.sigma_x[0, 0]
        assert est.h == pytest.approx(math.sqrt(3.0 * np.sum(q * q) / np.sum(q)), rel=1e-12)

    @pytest.mark.parametrize("spec, n, m", [
        (GaussianAR((0.5, 0.2), covariate_dim=1, warmup=30), 60, 3),   # D = 1
        (IIDGaussian(covariate_dim=2), 40, 4),                          # D = 2
    ])
    def test_parity_sums_match_the_per_block_covariances(self, spec, n, m):
        prob = population_optimum(spec)
        part = make_partition(n, m)
        n_mc, seed = 1000, 6
        est = noise_spectrum(spec, prob, part, n_mc, seed)
        # Reference: per-block population (ddof 0) covariances of the block
        # sums over the same trajectories, summed over odd and even blocks.
        bs = np.stack([
            block_sums(noise_walk(simulate(spec, n, derive_seed(seed, t)), prob)
                       .reshape(n, -1), part)
            for t in range(n_mc)])
        centered = bs - bs.mean(axis=0)
        cov = np.einsum("tbi,tbj->bij", centered, centered) / n_mc
        odd, even = cov[0::2].sum(axis=0), cov[1::2].sum(axis=0)
        for got, want in ((est.sigma_odd, odd), (est.sigma_even, even)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        sigma2 = np.linalg.eigvalsh((odd + even) / n).max()
        assert est.sigma2 == pytest.approx(sigma2, rel=1e-12)

    def test_stores_only_its_estimates(self):
        names = [f.name for f in dataclasses.fields(NoiseSpectrum)]
        assert names == ["partition", "d_x", "d_y", "sigma_odd", "sigma_even",
                         "moment_s", "block_snorm_moments", "h"]
        spectrum = synthetic_spectrum(make_partition(40, 4), sigma2=2.0)
        np.testing.assert_array_equal(spectrum.sigma_agg, 2.0 * np.eye(5))
        assert (spectrum.sigma2, spectrum.effective_dim) == (2.0, 5.0)
        # Eight unit block moments over m = 4, normalized by a_max^(s/2) = 25.
        assert spectrum.block_moment_s == pytest.approx(8 / 25 / 4, rel=1e-15)

    def test_zero_noise_spectrum(self):
        coef = np.array([[2.0, -1.0]])
        spec = IIDGaussian(covariate_dim=2, coef=coef, noise_std=0.0)
        prob = RegressionProblem(sigma_x=np.eye(2), m_star=coef)
        est = noise_spectrum(spec, prob, make_partition(32, 8), 1000, 1)
        assert est.sigma2 == 0.0
        assert est.effective_dim == 0.0


class TestCltVariance:
    def test_iid_block_length_independent(self):
        spec = IIDGaussian(covariate_dim=1)
        prob = population_optimum(spec)
        out = clt_variance(spec, prob, [1, 4, 16], 4000, 7)
        vals = [out[k][0, 0] for k in (1, 4, 16)]
        for v in vals:
            assert v == pytest.approx(1.0, rel=0.1)

    def test_block_constant_growth_then_flat(self):
        spec = BlockConstant(16)
        prob = population_optimum(spec)
        out = clt_variance(spec, prob, [2, 8, 16, 64], 3000, 9)
        v = {k: out[k][0, 0] for k in (2, 8, 16, 64)}
        assert v[2] == pytest.approx(2.0, rel=0.15)
        assert v[8] == pytest.approx(8.0, rel=0.15)
        assert v[16] == pytest.approx(16.0, rel=0.15)
        assert v[64] == pytest.approx(16.0, rel=0.2)

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_needs_two_trials(self, n_mc):
        spec = IIDGaussian(covariate_dim=1)
        with pytest.raises(ValueError, match="n_mc"):
            clt_variance(spec, population_optimum(spec), [1, 2], n_mc, 7)

    def test_block_length_below_one(self):
        spec = IIDGaussian(covariate_dim=1)
        with pytest.raises(ValueError, match="block lengths"):
            clt_variance(spec, population_optimum(spec), [0, 2], 10, 7)

    def test_one_draw_per_trial_read_by_prefix(self, monkeypatch):
        spec = GaussianAR((0.5, 0.2), covariate_dim=2, warmup=3)
        prob = population_optimum(spec)
        exact = GaussianAR._draw
        calls = []

        def recording(self, rng, n, start=0):
            calls.append(n)
            return exact(self, rng, n, start)

        monkeypatch.setattr(GaussianAR, "_draw", recording)
        n_mc, lens = 40, [1, 3, 8]
        out = clt_variance(spec, prob, lens, n_mc, 5)
        assert calls == [8] * n_mc
        # Reference: every length from the first L samples of the same draws.
        walks = [noise_walk(simulate(spec, 8, derive_seed(5, t)), prob).reshape(8, -1)
                 for t in range(n_mc)]
        for length in lens:
            sums = np.array([w[:length].sum(axis=0) for w in walks])
            centered = sums - sums.mean(axis=0)
            np.testing.assert_allclose(out[length], centered.T @ centered / n_mc / length,
                                       rtol=1e-12, atol=1e-15)


class TestEstimateR:
    def test_iid_isotropic(self):
        spec = IIDGaussian(covariate_dim=5)
        prob = population_optimum(spec)
        part = make_partition(64, 16)
        est = estimate_r(spec, prob, part, 2000, 3)
        # E||standard 5-dim Gaussian||^2 ratio: 2 (Gamma(3)/Gamma(2.5))^2 ~ 4.53
        assert est.r == pytest.approx(4.53, rel=0.1)
        assert est.r <= 5.0 * 1.1
        assert not est.degenerate

    def test_scalar_jensen(self):
        spec = IIDGaussian(covariate_dim=1)
        prob = population_optimum(spec)
        est = estimate_r(spec, prob, make_partition(32, 8), 2000, 5)
        assert est.r <= 1.0 + 0.05

    def test_zero_process_degenerate(self):
        coef = np.array([[1.0]])
        spec = IIDGaussian(covariate_dim=1, coef=coef, noise_std=0.0)
        prob = RegressionProblem(sigma_x=np.eye(1), m_star=coef)
        est = estimate_r(spec, prob, make_partition(16, 4), 1000, 1)
        assert est.degenerate and est.r == 0.0


class TestMainBound:
    def test_arithmetic(self):
        part = make_partition(1000, 250)
        spectrum = synthetic_spectrum(part, sigma2=1.0)
        report = main_bound(spectrum, math.exp(-1.0), iid_profile(part.lengths),
                            UniversalConstants(c1=2.0))
        assert report.bound_value == pytest.approx(0.012, rel=1e-12)

    def test_uniform_partition_balance_any_c4(self):
        part = make_partition(512, 64)
        spectrum = synthetic_spectrum(part)
        for c4 in (1.001, 2.0, 10.0):
            report = main_bound(spectrum, 0.1, iid_profile(part.lengths),
                                UniversalConstants(c4=c4))
            assert report.check("length_balance").holds

    def test_iid_mixing_always_holds(self):
        part = make_partition(128, 16)
        spectrum = synthetic_spectrum(part)
        for delta in (0.5, 0.1, 0.01, 1e-6):
            report = main_bound(spectrum, delta, iid_profile(part.lengths))
            assert report.check("mixing").holds

    def test_monotonicity(self):
        part = make_partition(100, 25)
        profile = iid_profile(part.lengths)
        base = main_bound(synthetic_spectrum(part), 0.1, profile).bound_value
        longer = make_partition(200, 50)
        assert main_bound(synthetic_spectrum(longer), 0.1, profile).bound_value < base
        bigger_noise = synthetic_spectrum(part, sigma2=2.0)
        assert main_bound(bigger_noise, 0.1, profile).bound_value > base
        assert main_bound(synthetic_spectrum(part), 0.01, profile).bound_value > base

    def test_all_checks_reported(self):
        part = make_partition(60, 10)
        report = main_bound(synthetic_spectrum(part), 0.1, iid_profile(part.lengths))
        names = [c.name for c in report.checks]
        assert names == ["sample_size", "block_moment", "length_balance",
                         "spectrum_balance", "mixing"]
        text = report.to_text()
        for name in names:
            assert name in text
        assert report.csv_header().count(",") + 1 == len(report.csv_row())

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_constants_must_be_positive_and_finite(self, value):
        for f in dataclasses.fields(UniversalConstants):
            with pytest.raises(ValueError, match=f.name):
                UniversalConstants(**{f.name: value})

    def test_delta_domain(self):
        # Each spectrum certificate takes delta in (0, 1), as its second argument.
        part = make_partition(16, 4)
        spectrum, profile = synthetic_spectrum(part), iid_profile(part.lengths)
        for certificate in (main_bound, corollary_bound):
            for delta in (0.0, 1.0, -0.1, 16.0):
                with pytest.raises(ValueError, match="delta"):
                    certificate(spectrum, delta, profile)


class TestCorollaryBound:
    def test_reduces_to_main_for_unit_blocks(self):
        part = make_partition(64, 32)
        spectrum = synthetic_spectrum(part, sigma2=1.5, d_x=5)
        main = main_bound(spectrum, 0.2, iid_profile(part.lengths))
        cor = corollary_bound(spectrum, 0.2, iid_profile([1]))
        assert cor.bound_value == pytest.approx(main.bound_value, rel=1e-12)

    def test_markov_mixing_predicate(self):
        profile = markov_profile(two_state_flip(0.3), [8])
        spectrum = synthetic_spectrum(make_partition(1600, 100), h=1.0, d_x=1)
        report = corollary_bound(spectrum, 0.1, profile)
        mix = report.check("mixing")
        assert mix.value == pytest.approx(0.065536, abs=1e-9)
        assert mix.holds  # 0.0655 <= c6 * 0.1 with c6 = 1

    def test_arithmetic(self):
        spectrum = synthetic_spectrum(make_partition(10_000, 5000), sigma2=2.0, h=1.0, d_x=4)
        report = corollary_bound(spectrum, 0.1, iid_profile([1]), UniversalConstants(c1=2.0))
        assert report.bound_value == pytest.approx(0.0025210340371976184, rel=1e-12)

    def test_block_moment_normalizes_by_tau_d_x(self):
        # Mean block moment 3 over (tau d_x)^(s/2) = (4 * 2)^2 = 64.
        spectrum = dataclasses.replace(
            synthetic_spectrum(make_partition(64, 8), d_x=2),
            block_snorm_moments=np.array([1.0, 5.0] * 8))
        report = corollary_bound(spectrum, 0.1, iid_profile([4]))
        # c3 s^2 block_moment^(2/s) / (sigma^2 delta^(2/s)), with sigma^2 = 1.
        want = DEFAULT_CONSTANTS.c3 * 16.0 * (3.0 / 64.0) ** 0.5 / 0.1 ** 0.5
        assert report.check("block_moment").threshold == pytest.approx(want, rel=1e-12)

    def test_unequal_lengths_are_named(self):
        spectrum = synthetic_spectrum(make_partition(10, 2))
        with pytest.raises(ValueError, match=re.escape("[2, 3]")):
            corollary_bound(spectrum, 0.1, iid_profile([2, 3]))

    def test_noiseless_zero_moment_passes(self):
        # Same zero-denominator rule as the main form: a zero block moment
        # against a zero noise level passes instead of dividing by zero.
        spectrum = dataclasses.replace(
            synthetic_spectrum(make_partition(100, 50), sigma2=0.0, d_x=2),
            block_snorm_moments=np.zeros(100))
        report = corollary_bound(spectrum, 0.1, iid_profile([1]))
        assert report.bound_value == 0.0
        moment = report.check("block_moment")
        assert moment.threshold == 0.0 and moment.holds

    def test_noiseless_nonzero_moment_fails(self):
        spectrum = synthetic_spectrum(make_partition(100, 50), sigma2=0.0, d_x=2)
        report = corollary_bound(spectrum, 0.1, iid_profile([1]))
        assert report.check("block_moment").threshold == math.inf
        assert not report.check("block_moment").holds


class TestLowerTailCertificate:
    def test_threshold_arithmetic(self):
        # required_n = c_lower a_max (d_x + h^2 log 10) = 20 (5 + 3 log 10).
        enough = make_partition(240, 120)  # singleton blocks
        report = lower_tail_certificate(enough, 5, math.sqrt(3.0), 0.1, iid_profile([1]))
        assert report.required_n == pytest.approx(238.155, abs=0.01)
        assert report.sample_check.value == 240.0 and report.sample_check.holds
        short = lower_tail_certificate(make_partition(238, 119), 5, math.sqrt(3.0), 0.1,
                                       iid_profile([1]))
        assert short.required_n == report.required_n
        assert not short.sample_check.holds
        # c_lower comes from the constants.
        doubled = lower_tail_certificate(enough, 5, math.sqrt(3.0), 0.1, iid_profile([1]),
                                         UniversalConstants(c_lower=40.0))
        assert doubled.required_n == pytest.approx(2 * report.required_n, rel=1e-12)

    def test_zero_profile_mixing_always_true(self):
        part = make_partition(100, 10)
        report = lower_tail_certificate(part, 2, 1.0, 0.01, iid_profile(part.lengths))
        assert report.mixing_check.holds

    def test_doubling_block_doubles_requirement(self):
        p1 = make_partition(100, 50)
        p2 = make_partition(100, 25)
        prof1, prof2 = iid_profile(p1.lengths), iid_profile(p2.lengths)
        r1 = lower_tail_certificate(p1, 3, 1.0, 0.1, prof1)
        r2 = lower_tail_certificate(p2, 3, 1.0, 0.1, prof2)
        assert r2.required_n == pytest.approx(2 * r1.required_n)

    def test_delta_domain(self):
        part = make_partition(16, 4)
        for delta in (0.0, 1.0, -0.1, 16.0):
            with pytest.raises(ValueError, match="delta"):
                lower_tail_certificate(part, 5, 1.0, delta, iid_profile(part.lengths))


class TestTruncation:
    def test_large_tau_keeps_everything(self):
        spec = IIDGaussian(covariate_dim=2)
        prob = population_optimum(spec)
        check = truncation_mass_check(spec, prob, (0, 8), [1.0, 0.5], 1e4, 400, 3)
        assert check.rhs == pytest.approx(8.0, rel=0.2)  # full second moment
        assert check.holds

    def test_gaussian_mass_fraction(self):
        spec = IIDGaussian(covariate_dim=1)
        prob = population_optimum(spec)
        tau = math.sqrt(30.0 * 3.0)
        check = truncation_mass_check(spec, prob, (0, 4), [1.0], tau, 4000, 5)
        raw = check.lhs / (1.0 - check.h**2 / tau**2)
        assert check.lhs / raw == pytest.approx(29.0 / 30.0, abs=0.01)
        assert check.holds

    def test_invalid_block(self):
        spec = IIDGaussian(covariate_dim=1)
        prob = population_optimum(spec)
        with pytest.raises(ValueError):
            truncation_mass_check(spec, prob, (5, 5), [1.0], 2.0, 100, 1)

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_needs_two_trials(self, n_mc):
        spec = IIDGaussian(covariate_dim=1)
        with pytest.raises(ValueError, match="n_mc"):
            truncation_mass_check(spec, population_optimum(spec), (0, 4), [1.0], 2.0, n_mc, 1)

    @pytest.mark.parametrize("tau", [0.0, math.nan, math.inf])
    def test_tau_domain(self, tau):
        spec = IIDGaussian(covariate_dim=1)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            truncation_mass_check(spec, population_optimum(spec), (0, 4), [1.0], tau, 100, 1)

    def test_zero_direction_raises(self):
        spec = IIDGaussian(covariate_dim=2)
        with pytest.raises(ValueError, match="direction"):
            truncation_mass_check(spec, population_optimum(spec), (0, 10), [0.0, 0.0],
                                  3.0, 50, 1)


class TestCsComparison:
    def test_iid_gap_factor(self):
        spec = IIDGaussian(covariate_dim=1)
        prob = population_optimum(spec)
        part = make_partition(64, 8)  # blocks of 4
        spectrum = noise_spectrum(spec, prob, part, 2000, 7)
        # Max over per-time variance estimates biases up; use enough trials.
        per_sample = max_per_sample_variance(spec, prob, 64, 8000, 9)
        sigma2, inflated = cs_comparison(spectrum, per_sample)
        assert sigma2 == pytest.approx(1.0, rel=0.15)
        assert inflated == pytest.approx(4.0, rel=0.25)
        assert sigma2 <= inflated

    def test_block_constant_equality(self):
        spec = BlockConstant(4)
        prob = population_optimum(spec)
        part = make_partition(64, 8)
        spectrum = noise_spectrum(spec, prob, part, 2000, 7)
        per_sample = max_per_sample_variance(spec, prob, 64, 2000, 9)
        sigma2, inflated = cs_comparison(spectrum, per_sample)
        assert sigma2 == pytest.approx(inflated, rel=0.2)

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_per_sample_variance_needs_two_trials(self, n_mc):
        spec = IIDGaussian(covariate_dim=1)
        with pytest.raises(ValueError, match="n_mc"):
            max_per_sample_variance(spec, population_optimum(spec), 8, n_mc, 9)

    def test_unit_blocks_equal_sides(self):
        spec = IIDGaussian(covariate_dim=1)
        prob = population_optimum(spec)
        part = make_partition(32, 16)
        spectrum = noise_spectrum(spec, prob, part, 1500, 3)
        per_sample = max_per_sample_variance(spec, prob, 32, 1500, 5)
        sigma2, inflated = cs_comparison(spectrum, per_sample)
        assert sigma2 == pytest.approx(inflated, rel=0.15)

    def test_requires_scalar_dims(self):
        spec = IIDGaussian(covariate_dim=2)
        prob = population_optimum(spec)
        part = make_partition(32, 8)
        spectrum = noise_spectrum(spec, prob, part, 1000, 1)
        with pytest.raises(ValueError):
            cs_comparison(spectrum, 1.0)
