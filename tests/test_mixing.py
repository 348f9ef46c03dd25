import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from mixreg import processes
from mixreg.blocking import make_partition
from mixreg.mixing import (
    MixingProfile,
    beta_ar_kl_bound,
    beta_markov_exact,
    expected_kl_ar,
    gaussian_ar_profile,
    iid_profile,
    kl_gaussian_1d,
    markov_profile,
    mixing_sum,
    profile_from_spec,
)
from mixreg.processes import (
    BlockConstant,
    FiniteMarkov,
    GaussianAR,
    IIDGaussian,
    companion,
    gramian,
    solve_lyapunov,
    two_state_flip,
)


def flip_chain(q):
    return np.array([[1.0 - q, q], [q, 1.0 - q]])


def beta_by_path_enumeration(p, gap):
    """Independent oracle: i-step transition law by summing over every
    intermediate path, then the stationary-average TV distance."""
    k = p.shape[0]
    w, v = np.linalg.eig(p.T)
    pi = np.real(v[:, np.abs(w - 1.0).argmin()])
    pi = np.abs(pi) / np.abs(pi).sum()
    total = 0.0
    for x in range(k):
        law = np.zeros(k)
        for path in itertools.product(range(k), repeat=gap):
            prob = p[x, path[0]]
            for a, b in zip(path[:-1], path[1:]):
                prob *= p[a, b]
            law[path[-1]] += prob
        total += pi[x] * 0.5 * np.abs(law - pi).sum()
    return total


def gaussian_tv_exact(mu1, var1, mu2, var2):
    """Exact total variation between two scalar Gaussians via the density
    crossing points."""
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    if abs(var1 - var2) < 1e-14:
        if abs(mu1 - mu2) < 1e-14:
            return 0.0
        z = abs(mu1 - mu2) / (2.0 * s1)
        return 2.0 * norm.cdf(z) - 1.0
    # Solve log f1 = log f2: quadratic a x^2 + b x + c = 0.
    a = 0.5 / var2 - 0.5 / var1
    b = mu1 / var1 - mu2 / var2
    c = mu2**2 / (2 * var2) - mu1**2 / (2 * var1) + math.log(s2 / s1)
    disc = b * b - 4 * a * c
    r1, r2 = sorted(((-b - math.sqrt(disc)) / (2 * a), (-b + math.sqrt(disc)) / (2 * a)))
    f1 = norm.cdf(r2, mu1, s1) - norm.cdf(r1, mu1, s1)
    f2 = norm.cdf(r2, mu2, s2) - norm.cdf(r1, mu2, s2)
    return abs(f1 - f2)


class TestBetaMarkovExact:
    def test_uniform_rows_are_iid(self):
        p = np.full((3, 3), 1.0 / 3.0)
        for gap in range(1, 6):
            assert beta_markov_exact(p, gap) == pytest.approx(0.0, abs=1e-14)

    def test_flip_chain_values(self):
        assert beta_markov_exact(flip_chain(0.3), 1) == pytest.approx(0.2, abs=1e-12)
        assert beta_markov_exact(flip_chain(0.3), 3) == pytest.approx(0.032, abs=1e-12)

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.45])
    def test_flip_chain_closed_form(self, q):
        for gap in range(1, 31):
            expected = abs(1.0 - 2.0 * q) ** gap / 2.0
            assert beta_markov_exact(flip_chain(q), gap) == pytest.approx(expected, abs=1e-12)

    def test_against_path_enumeration(self):
        rng = np.random.default_rng(3)
        raw = rng.random((3, 3)) + 0.1
        p = raw / raw.sum(axis=1, keepdims=True)
        for gap in (1, 2, 3, 4):
            assert beta_markov_exact(p, gap) == pytest.approx(
                beta_by_path_enumeration(p, gap), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            raw = rng.random((4, 4)) + 0.05
            p = raw / raw.sum(axis=1, keepdims=True)
            for gap in (1, 5, 9):
                assert 0.0 <= beta_markov_exact(p, gap) <= 1.0

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            beta_markov_exact(np.array([[0.5, 0.6], [0.5, 0.5]]), 1)
        with pytest.raises(ValueError):
            beta_markov_exact(flip_chain(0.3), 0)


def test_markov_exact_uses_chain_row_sum_tolerance():
    # Rows off by 5e-10 are rejected, as FiniteMarkov rejects them.
    p = np.array([[0.5, 0.5 + 5e-10], [0.5, 0.5]])
    with pytest.raises(ValueError, match="row-stochastic"):
        beta_markov_exact(p, 1)
    with pytest.raises(ValueError):
        FiniteMarkov(p, np.zeros((2, 1)), np.zeros((2, 1)))


class TestKlGaussian:
    def test_identical(self):
        assert kl_gaussian_1d(0, 1, 0, 1) == 0.0

    def test_mean_shift(self):
        assert kl_gaussian_1d(1, 1, 0, 1) == pytest.approx(0.5)

    def test_variance_ratio(self):
        assert kl_gaussian_1d(0, 1, 0, 2) == pytest.approx(0.5 * math.log(2) - 0.25)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            kl_gaussian_1d(0, 0, 0, 1)
        with pytest.raises(ValueError):
            kl_gaussian_1d(0, 1, 0, -1)


class TestBetaArKlBound:
    def test_memoryless(self):
        spec = GaussianAR((0.0,))
        for k in range(1, 6):
            assert beta_ar_kl_bound(spec, None, k) == 0.0

    def test_ar1_stationary_value(self):
        # E KL bound -> a^{2k} / (1 - a^2); k = 2, a = 0.5.
        spec = GaussianAR((0.5,))
        assert expected_kl_ar(spec, None, 2) == pytest.approx(0.25**2 * 4.0 / 3.0, rel=1e-9)
        assert beta_ar_kl_bound(spec, None, 2) == pytest.approx(
            math.sqrt(0.25**2 * (4.0 / 3.0) / 2.0), rel=1e-9)

    def test_geometric_decay_ratio(self):
        spec = GaussianAR((0.5,))
        for k in (2, 3, 4, 5):
            ratio = beta_ar_kl_bound(spec, None, k + 1) / beta_ar_kl_bound(spec, None, k)
            assert ratio == pytest.approx(0.5, rel=1e-8)

    def test_monotone_in_gap(self):
        spec = GaussianAR((0.8,))
        vals = [beta_ar_kl_bound(spec, None, k) for k in range(1, 15)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_finite_t_below_stationary(self):
        spec = GaussianAR((0.7, 0.1))
        for t in (0, 2, 10, 50):
            assert expected_kl_ar(spec, t, 3) <= expected_kl_ar(spec, None, 3) + 1e-12

    def test_clipped_to_one(self):
        spec = GaussianAR((0.99,))
        assert beta_ar_kl_bound(spec, None, 1) == 1.0

    def test_noise_std_invariance(self):
        a = beta_ar_kl_bound(GaussianAR((0.6,), noise_std=1.0), None, 3)
        b = beta_ar_kl_bound(GaussianAR((0.6,), noise_std=5.0), None, 3)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("coeffs", [(0.5,), (0.5, 0.2), (0.6, -0.2, 0.1), (0.99999,)])
    def test_profile_solves_lyapunov_once(self, monkeypatch, coeffs):
        spec = GaussianAR(coeffs)
        gaps = range(1, 11)
        want = {g: beta_ar_kl_bound(spec, None, g) for g in gaps}
        calls = []

        def counted(a, q):
            calls.append(1)
            return solve_lyapunov(a, q)

        monkeypatch.setattr(processes, "solve_lyapunov", counted)
        assert gaussian_ar_profile(spec, gaps).coefficients == want
        assert len(calls) == 1

    def test_pinsker_consistency_with_exact_tv(self):
        # Averaged exact Gaussian TV never exceeds the KL-route bound.
        spec = GaussianAR((0.6,))
        ss = companion(spec.ar_coeffs)
        stat = solve_lyapunov(ss.transition, np.outer(ss.input_vec, ss.input_vec))
        rng = np.random.default_rng(23)
        chol = np.linalg.cholesky(stat + 1e-12 * np.eye(2))
        states = (chol @ rng.standard_normal((2, 10_000))).T
        for k in (1, 2, 4):
            ak = np.linalg.matrix_power(ss.transition, k)
            var_k = gramian(ss, k)[0, 0]
            var_inf = stat[0, 0]
            means = states @ ak.T[:, 0]
            tv = np.mean([gaussian_tv_exact(m, var_k, 0.0, var_inf) for m in means])
            assert tv <= beta_ar_kl_bound(spec, None, k) + 1e-3


class TestMixingSum:
    def test_iid_zero(self):
        part = make_partition(40, 4)
        assert mixing_sum(iid_profile(part.lengths), part) == 0.0

    def test_uniform_blocks_count(self):
        part = make_partition(48, 3)  # 6 blocks of 8
        profile = MixingProfile({8: 0.125})
        assert mixing_sum(profile, part) == pytest.approx((6 - 2) * 0.125)

    def test_markov_example(self):
        part = make_partition(24, 3)  # 6 blocks of 4
        profile = markov_profile(two_state_flip(0.3), [4])
        assert mixing_sum(profile, part) == pytest.approx(4 * 0.4**4 / 2, abs=1e-12)

    def test_missing_gap_reported(self):
        part = make_partition(10, 2)  # lengths 3,3,2,2
        with pytest.raises(ValueError, match=r"\[2\]|\[2, 3\]|\[3\]"):
            mixing_sum(MixingProfile({4: 0.1}), part)


class TestMixingProfile:
    def test_values_validated(self):
        with pytest.raises(ValueError):
            MixingProfile({1: 1.5})
        with pytest.raises(ValueError):
            MixingProfile({0: 0.5})

    def test_monotonicity_reported_not_enforced(self):
        up = MixingProfile({1: 0.1, 2: 0.3})
        down = MixingProfile({1: 0.3, 2: 0.1})
        assert not up.is_nonincreasing()
        assert down.is_nonincreasing()

    def test_csv_roundtrip(self, tmp_path):
        profile = gaussian_ar_profile(GaussianAR((0.5,)), [1, 2, 3])
        path = tmp_path / "profile.csv"
        profile.to_csv(path)
        loaded = MixingProfile.from_csv(path)
        assert loaded.coefficients == pytest.approx(profile.coefficients)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(1, 10**9), st.floats(0.0, 1.0), max_size=20))
    def test_csv_roundtrip_is_exact(self, tmp_path_factory, coefficients):
        path = tmp_path_factory.mktemp("profile") / "profile.csv"
        MixingProfile(coefficients).to_csv(path)
        loaded = MixingProfile.from_csv(path)
        assert loaded.coefficients == coefficients
        assert all(math.copysign(1.0, loaded.coefficients[g]) == math.copysign(1.0, b)
                   for g, b in coefficients.items())

    def test_profile_from_spec_block_constant(self):
        profile = profile_from_spec(BlockConstant(4), [1, 2, 3, 4, 5])
        assert profile.coefficients == {1: 1.0, 2: 1.0, 3: 1.0, 4: 0.0, 5: 0.0}

    def test_profile_from_spec_iid(self):
        profile = profile_from_spec(IIDGaussian(covariate_dim=2), [1, 2])
        assert set(profile.coefficients.values()) == {0.0}
