import math

import numpy as np
import pytest

from mixreg.blocking import make_partition, uniform_partition
from mixreg.bounds import (
    NoiseSpectrum,
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
from mixreg.mixing import iid_profile, markov_profile
from mixreg.processes import BlockConstant, IIDGaussian, two_state_flip
from mixreg.regression import RegressionProblem, population_optimum


def synthetic_spectrum(partition, sigma2=1.0, eff=5.0, h=math.sqrt(3.0),
                       s=4.0, block_moment=1.0, d_x=5, d_y=1):
    d = d_x * d_y
    agg = np.zeros((d, d))
    agg[0, 0] = sigma2
    extra = min(int(eff), d) - 1
    for j in range(1, extra + 1):
        agg[j, j] = sigma2 * (eff - 1) / extra if extra else 0.0
    per_block = np.repeat(agg[None, :, :] * (partition.n / partition.n_blocks),
                          partition.n_blocks, axis=0)
    return NoiseSpectrum(
        partition=partition, d_x=d_x, d_y=d_y,
        sigma_blocks=per_block, sigma_agg=agg, sigma2=sigma2,
        effective_dim=eff, moment_s=s, block_moment_s=block_moment,
        block_snorm_moments=np.full(partition.n_blocks, block_moment),
        h=h, n_mc=1000, mean_walk_norm=0.0,
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


class TestNoiseTermThreshold:
    def test_sub_gaussian_shape(self):
        n, d, delta = 10_000, 5.0, 0.05
        got = noise_term_threshold(1.0, 1.0, n // 2, n // 2, d, 1e-9, 1e-9, delta)
        expected = math.sqrt(2.0 / n) * (math.sqrt(d) + math.sqrt(2 * math.log(1 / delta)))
        assert got == pytest.approx(expected, rel=1e-4)

    def test_delta_one_drops_log(self):
        got = noise_term_threshold(1.0, 1.0, 100, 100, 4.0, 0.5, 0.5, 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / 100) * 2.0 * 2.0)

    def test_variance_scaling(self):
        a = noise_term_threshold(1.0, 1.0, 50, 50, 3.0, 0.1, 0.1, 0.1)
        b = noise_term_threshold(4.0, 4.0, 50, 50, 3.0, 0.1, 0.1, 0.1)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_budget_terms(self):
        budget = noise_term_failure_budget([1.0], [1.0], 1.0, 1.0, 50, 50,
                                           4.0, 1.0, 1.0, 4.0, 0.05, 0.01)
        assert budget > 2 * 0.05 + 0.01
        # zero moments contribute nothing even with zero variance
        trivial = noise_term_failure_budget([0.0], [0.0], 0.0, 0.0, 50, 50,
                                            4.0, 1.0, 1.0, 4.0, 0.05, 0.0)
        assert trivial == pytest.approx(0.1)


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
        spectrum = synthetic_spectrum(part, sigma2=1.0, eff=5.0)
        report = main_bound(spectrum, 1000, math.exp(-1.0),
                            UniversalConstants(c1=2.0),
                            iid_profile(part.lengths))
        assert report.bound_value == pytest.approx(0.012, rel=1e-12)

    def test_uniform_partition_balance_any_c4(self):
        part = make_partition(512, 64)
        spectrum = synthetic_spectrum(part)
        for c4 in (1.001, 2.0, 10.0):
            report = main_bound(spectrum, 512, 0.1,
                                UniversalConstants(c4=c4), iid_profile(part.lengths))
            assert report.check("length_balance").holds

    def test_iid_mixing_always_holds(self):
        part = make_partition(128, 16)
        spectrum = synthetic_spectrum(part)
        for delta in (0.5, 0.1, 0.01, 1e-6):
            report = main_bound(spectrum, 128, delta, None, iid_profile(part.lengths))
            assert report.check("mixing").holds

    def test_monotonicity(self):
        part = make_partition(100, 25)
        profile = iid_profile(part.lengths)
        base = main_bound(synthetic_spectrum(part), 100, 0.1, None, profile).bound_value
        assert main_bound(synthetic_spectrum(part), 200, 0.1, None, profile).bound_value < base
        bigger_noise = synthetic_spectrum(part, sigma2=2.0)
        assert main_bound(bigger_noise, 100, 0.1, None, profile).bound_value > base
        assert main_bound(synthetic_spectrum(part), 100, 0.01, None, profile).bound_value > base

    def test_all_checks_reported(self):
        part = make_partition(60, 10)
        report = main_bound(synthetic_spectrum(part), 60, 0.1, None,
                            iid_profile(part.lengths))
        names = [c.name for c in report.checks]
        assert names == ["sample_size", "block_moment", "length_balance",
                         "spectrum_balance", "mixing"]
        text = report.to_text()
        for name in names:
            assert name in text
        assert report.csv_header().count(",") + 1 == len(report.csv_row())

    def test_delta_domain(self):
        part = make_partition(16, 4)
        with pytest.raises(ValueError):
            main_bound(synthetic_spectrum(part), 16, 0.0, None, iid_profile(part.lengths))


class TestCorollaryBound:
    def test_reduces_to_main_for_unit_blocks(self):
        part = make_partition(64, 32)
        spectrum = synthetic_spectrum(part, sigma2=1.5, eff=5.0, d_x=5)
        profile = iid_profile([1])
        main = main_bound(spectrum, 64, 0.2, None, iid_profile(part.lengths))
        cor = corollary_bound(1, 64, 5, 1.5, math.sqrt(3), 4.0, 1.0, profile, 0.2)
        assert cor.bound_value == pytest.approx(main.bound_value, rel=1e-12)

    def test_markov_mixing_predicate(self):
        profile = markov_profile(two_state_flip(0.3), [8])
        report = corollary_bound(8, 1600, 1, 1.0, 1.0, 4.0, 1.0, profile, 0.1)
        mix = report.check("mixing")
        assert mix.value == pytest.approx(0.065536, abs=1e-9)
        assert mix.holds  # 0.0655 <= c6 * 0.1 with c6 = 1

    def test_arithmetic(self):
        profile = iid_profile([1])
        report = corollary_bound(1, 10_000, 4, 2.0, 1.0, 4.0, 1.0, profile, 0.1,
                                 UniversalConstants(c1=2.0))
        assert report.bound_value == pytest.approx(0.0025210340371976184, rel=1e-12)

    def test_divisibility(self):
        with pytest.raises(ValueError):
            corollary_bound(3, 100, 1, 1.0, 1.0, 4.0, 1.0, iid_profile([3]), 0.1)

    def test_noiseless_zero_moment_passes(self):
        # Same zero-denominator rule as the main form: a zero block moment
        # against a zero noise level passes instead of dividing by zero.
        report = corollary_bound(1, 100, 2, 0.0, 1.0, 4.0, 0.0, iid_profile([1]), 0.1)
        assert report.bound_value == 0.0
        moment = report.check("block_moment")
        assert moment.threshold == 0.0 and moment.holds

    def test_noiseless_nonzero_moment_fails(self):
        report = corollary_bound(1, 100, 2, 0.0, 1.0, 4.0, 1.0, iid_profile([1]), 0.1)
        assert report.check("block_moment").threshold == math.inf
        assert not report.check("block_moment").holds


class TestLowerTailCertificate:
    def test_threshold_arithmetic(self):
        part = make_partition(240, 120)  # singleton blocks
        profile = iid_profile(part.lengths)
        report = lower_tail_certificate(239, part, 5, math.sqrt(3.0), 0.1, profile, 20.0)
        assert report.required_n == pytest.approx(238.155, abs=0.01)
        assert report.sample_check.holds
        short = lower_tail_certificate(238, part, 5, math.sqrt(3.0), 0.1, profile, 20.0)
        assert not short.sample_check.holds

    def test_zero_profile_mixing_always_true(self):
        part = make_partition(100, 10)
        report = lower_tail_certificate(100, part, 2, 1.0, 0.01, iid_profile(part.lengths))
        assert report.mixing_check.holds

    def test_doubling_block_doubles_requirement(self):
        p1 = make_partition(100, 50)
        p2 = make_partition(100, 25)
        prof1, prof2 = iid_profile(p1.lengths), iid_profile(p2.lengths)
        r1 = lower_tail_certificate(100, p1, 3, 1.0, 0.1, prof1)
        r2 = lower_tail_certificate(100, p2, 3, 1.0, 0.1, prof2)
        assert r2.required_n == pytest.approx(2 * r1.required_n)


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
