"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here, not tuned at runtime.
"""

import itertools
import math
import time

import numpy as np

from mixreg.blocking import make_partition
from mixreg.bounds import (
    max_per_sample_variance,
    noise_spectrum,
    cs_comparison,
    truncation_mass_check,
)
from mixreg.config import ExperimentConfig
from mixreg.harness import clt_consistency, run_coverage, rate_slope, verify_lower_tail
from mixreg.mixing import beta_markov_exact
from mixreg.processes import (
    BlockConstant,
    GaussianAR,
    IIDGaussian,
    default_warmup,
    simulate,
)
from mixreg.regression import (
    MONTE_CARLO,
    RegressionProblem,
    error_identity_check,
    gaussian_quartic,
    population_optimum,
)


def report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


AR2_COEFFS = (0.5, 0.2)


def ar2_misspecified(warm=True):
    warmup = default_warmup(AR2_COEFFS) if warm else 0
    return GaussianAR(AR2_COEFFS, covariate_dim=1, warmup=warmup)


def test_01_error_identity():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        d_x = int(rng.integers(1, 9))
        d_y = int(rng.integers(1, 4))
        n = int(rng.integers(max(3 * d_x, 10), 201))
        a = rng.standard_normal((d_x, d_x))
        prob = RegressionProblem(sigma_x=a @ a.T + 0.3 * np.eye(d_x),
                                 m_star=rng.standard_normal((d_y, d_x)))
        spec = IIDGaussian(covariate_dim=d_x, target_dim=d_y,
                           coef=rng.standard_normal((d_y, d_x)))
        traj = simulate(spec, n, int(rng.integers(1 << 31)))
        worst = max(worst, error_identity_check(traj, prob))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(1, "error identity residual <= 1e-8 on 100 instances", ok,
                  f"worst {worst:.2e}, {elapsed:.2f}s")


def test_02_markov_mixing_oracle():
    start = time.time()
    ok = True
    for q in (0.1, 0.3, 0.45):
        p = np.array([[1 - q, q], [q, 1 - q]])
        for gap in range(1, 31):
            expected = abs(1 - 2 * q) ** gap / 2.0
            if abs(beta_markov_exact(p, gap) - expected) > 1e-12:
                ok = False
    # Brute force: i-step law by enumerating every intermediate path.
    rng = np.random.default_rng(202)
    raw = rng.random((2, 2)) + 0.2
    p = raw / raw.sum(axis=1, keepdims=True)
    w, v = np.linalg.eig(p.T)
    pi = np.real(v[:, np.abs(w - 1.0).argmin()])
    pi = np.abs(pi) / np.abs(pi).sum()
    for gap in range(1, 9):
        total = 0.0
        for x in range(2):
            law = np.zeros(2)
            for path in itertools.product(range(2), repeat=gap):
                prob = p[x, path[0]]
                for a, b in zip(path[:-1], path[1:]):
                    prob *= p[a, b]
                law[path[-1]] += prob
            total += pi[x] * 0.5 * np.abs(law - pi).sum()
        if abs(beta_markov_exact(p, gap) - total) > 1e-12:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    assert report(2, "exact Markov mixing matches closed form and enumeration",
                  ok, f"{elapsed:.2f}s")


def test_03_gaussian_quartic_identity():
    start = time.time()
    rng = np.random.default_rng(303)
    hits = 0
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        g = rng.standard_normal((1_000_000, 3))
        qa = np.einsum("ni,ij,nj->n", g, a, g)
        qb = np.einsum("ni,ij,nj->n", g, b, g)
        prod = qa * qb
        se = prod.std() / math.sqrt(len(prod))
        if abs(prod.mean() - gaussian_quartic(a, b)) <= 3 * se:
            hits += 1
    elapsed = time.time() - start
    ok = hits >= 18 and elapsed < 60.0
    assert report(3, "quartic identity vs 1e6-sample Monte Carlo on 20 pairs",
                  ok, f"{hits}/20 within 3 SE, {elapsed:.1f}s")


def test_04_misspecification_oracle():
    analytic = population_optimum(ar2_misspecified())
    exact_ok = abs(analytic.m_star[0, 0] - 0.625) <= 1e-10
    mc = population_optimum(ar2_misspecified(), method=MONTE_CARLO, n_mc=10**6,
                            seed=404)
    gap = abs(mc.m_star[0, 0] - 0.625)
    mc_ok = gap <= 3 * mc.stderr[0, 0]
    ok = exact_ok and mc_ok
    assert report(4, "Yule-Walker optimum 0.625 and 1e6-sample OLS agreement",
                  ok, f"analytic err {abs(analytic.m_star[0,0]-0.625):.1e}, "
                      f"MC gap {gap:.2e} vs 3SE {3*mc.stderr[0,0]:.2e}")


def test_05_rate_slope():
    start = time.time()
    config = ExperimentConfig(
        process=ar2_misspecified(), ns=(1000, 3000, 10_000, 30_000, 100_000),
        delta=0.1, trials=500, seed=505, n_mc=1000, tau=1)
    rep = rate_slope(config)
    elapsed = time.time() - start
    ok = abs(rep.slope + 1.0) <= 0.15 and elapsed < 600.0
    assert report(5, "misspecified AR(2)->AR(1) log-log risk slope -1 +/- 0.15",
                  ok, f"slope {rep.slope:.4f}, {elapsed:.1f}s")


def test_06_bound_coverage():
    delta, trials = 0.1, 1000
    budget = delta + 3 * math.sqrt(delta / trials)
    iid_config = ExperimentConfig(
        process=IIDGaussian(covariate_dim=5), ns=(5000,),
        delta=delta, trials=trials, seed=606, n_mc=2000, tau=1)
    ar_config = ExperimentConfig(
        process=ar2_misspecified(), ns=(10_000,),
        delta=delta, trials=trials, seed=607, n_mc=2000, tau=50)
    ok = True
    for label, config in (("iid d=5", iid_config), ("AR(2)->AR(1)", ar_config)):
        rep = run_coverage(config)[0]
        violation = 1.0 - rep.coverage
        flags = {c.name: c.holds for c in rep.bound_report.checks}
        # The moment prerequisite needs n/|a_max| ~ 1e7 at the default
        # constants, out of reach at this scale; its status is reported.
        satisfiable = [flags[k] for k in ("sample_size", "length_balance",
                                          "spectrum_balance", "mixing")]
        this_ok = violation <= budget and all(satisfiable)
        ok = ok and this_ok
        report(6, f"bound coverage, {label}", this_ok,
               f"violation {violation:.3f} <= {budget:.3f}, "
               f"burn-ins {''.join(str(int(flags[k])) for k in sorted(flags))} "
               f"(moment check: {'PASS' if flags['block_moment'] else 'FAIL'})")
    assert ok


def test_07_lower_uniform_law():
    config = ExperimentConfig(
        process=IIDGaussian(covariate_dim=5), ns=(500,),
        delta=0.1, trials=1000, seed=707, n_mc=1000, tau=1)
    rep = verify_lower_tail(config)[0]
    ok = rep.frequency >= 0.9
    assert report(7, "min eigenvalue >= 1/2 with frequency >= 0.9", ok,
                  f"frequency {rep.frequency:.3f}")


def test_08_cauchy_schwarz_gap():
    n, k = 512, 16
    part = make_partition(n, n // (2 * k))  # blocks of 16, grid-aligned
    ok = True
    details = []
    for label, spec, band in (
            ("block-constant", BlockConstant(k), (12.8, 19.2)),
            ("iid", IIDGaussian(covariate_dim=1), (0.8, 1.25))):
        prob = population_optimum(spec)
        spectrum = noise_spectrum(spec, prob, part, 3000, 808)
        per_sample = max_per_sample_variance(spec, prob, n, 8000, 809)
        sigma2, inflated = cs_comparison(spectrum, per_sample)
        ratio = sigma2 / per_sample
        this_ok = band[0] <= ratio <= band[1] and sigma2 <= inflated * 1.01
        ok = ok and this_ok
        details.append(f"{label} ratio {ratio:.2f} in [{band[0]}, {band[1]}]")
    assert report(8, "noise-level inflation matches the block length", ok,
                  "; ".join(details))


def test_09_clt_consistency():
    config = ExperimentConfig(
        process=ar2_misspecified(), ns=(1000,), delta=0.1,
        trials=100, seed=909, n_mc=3000, tau=1,
        block_lens=(1, 2, 4, 8, 16, 32, 64, 128))
    rep = clt_consistency(config)
    ok = rep.stable_from is not None and rep.stable_from <= 64
    assert report(9, "block noise level stabilizes by length 64", ok,
                  f"stable from {rep.stable_from}, levels "
                  + " ".join(f"{v:.2f}" for v in rep.sigma2))


def test_10_truncation_mass():
    rng = np.random.default_rng(1010)
    failures = 0
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            d = int(rng.integers(1, 4))
            spec = IIDGaussian(covariate_dim=d)
        elif kind == 1:
            coeff = float(rng.uniform(-0.8, 0.8))
            spec = GaussianAR((coeff,), covariate_dim=1,
                              warmup=int(rng.integers(0, 30)))
            d = 1
        else:
            spec = BlockConstant(int(rng.integers(2, 7)))
            d = 1
        prob = population_optimum(spec)
        v = rng.standard_normal(d)
        tau = float(rng.uniform(1.5, 12.0))
        start = int(rng.integers(0, 5))
        length = int(rng.integers(2, 9))
        check = truncation_mass_check(spec, prob, (start, start + length), v,
                                      tau, 400, int(rng.integers(1 << 31)))
        if not check.holds:
            failures += 1
    ok = failures == 0
    assert report(10, "truncation keeps the stated mass on 50 random triples",
                  ok, f"{failures} failures")


def test_11_reproducibility(tmp_path):
    config = ExperimentConfig(
        process=IIDGaussian(covariate_dim=2), ns=(300,),
        delta=0.1, trials=100, seed=1111, n_mc=1000, tau=1,
        outputs=str(tmp_path))
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    run_coverage(config, out_path=out1)
    run_coverage(config, out_path=out2)
    ok = out1.read_bytes() == out2.read_bytes()
    assert report(11, "identical config and seed give byte-identical CSVs", ok)
