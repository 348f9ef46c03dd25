"""Evaluating the bounds: Bernstein thresholds, the Fuk-Nagaev tail, the
block noise spectrum, and the main excess-risk bound with its burn-ins."""


from mixreg import (
    GaussianAR,
    bernstein_threshold,
    blocked_bernstein_threshold,
    cs_comparison,
    default_warmup,
    fuk_nagaev_tail,
    lower_tail_certificate,
    main_bound,
    make_partition,
    max_per_sample_variance,
    noise_spectrum,
    population_optimum,
    profile_from_spec,
    uniform_partition,
    BlockConstant,
)

# Blocking a Bernstein bound only inflates the large-deviations term: the
# leading sqrt term keeps the per-block normalized variance.
print("plain threshold:  ", bernstein_threshold(1000, 1.0, 1.0, 0.05))
print("blocked threshold:", blocked_bernstein_threshold(1000, 10, 1.0, 1.0, 0.05))

# The mixed tail for norms of independent sums: sub-Gaussian plus polynomial.
for t in (1.0, 2.0, 4.0):
    print(f"mixed tail at t={t}:", f"{fuk_nagaev_tail(1.0, [0.5]*8, t, 1.0, 1.0, 4.0):.4f}")

# Estimate the block noise spectrum of a misspecified AR fit and evaluate
# the main bound with every burn-in condition reported.
spec = GaussianAR((0.5, 0.2), covariate_dim=1, warmup=default_warmup((0.5, 0.2)))
prob = population_optimum(spec)
n = 8000
partition = uniform_partition(n, 40)
spectrum = noise_spectrum(spec, prob, partition, n_mc=1500, seed=5)
print("\nnoise level sigma^2:", round(spectrum.sigma2, 4))
print("effective dimension:", round(spectrum.effective_dim, 4))
print("fourth-moment constant h^2 (exact):", round(spectrum.h**2, 3))

profile = profile_from_spec(spec, sorted(set(partition.lengths)))
report = main_bound(spectrum, delta=0.1, profile=profile)
print("\n" + report.to_text())

# The lower uniform law needs a sample-size and a mixing prerequisite; it
# reads only the partition, the covariate dimension and h.
cert = lower_tail_certificate(partition, prob.d_x, spectrum.h, 0.1, profile)
print("\n" + cert.to_text())

# Worst case for the noise level: a process constant on partition-aligned
# blocks turns the Cauchy-Schwarz comparison into an equality.
worst = BlockConstant(16)
worst_prob = population_optimum(worst)
worst_part = make_partition(512, 16)
worst_spec = noise_spectrum(worst, worst_prob, worst_part, 1500, 7)
per_sample = max_per_sample_variance(worst, worst_prob, 512, 3000, 9)
sigma2, inflated = cs_comparison(worst_spec, per_sample)
print(f"\nblock-constant noise level {sigma2:.2f} vs inflation {inflated:.2f}"
      f" (block length {worst_part.a_max})")
