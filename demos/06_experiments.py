"""Config-driven Monte Carlo experiments at demo scale: bound coverage, the
excess-risk rate, the lower uniform law, and CLT consistency.

The same experiments run from the command line, e.g.

    mixreg coverage --config demo.cfg
    mixreg slope    --config demo.cfg
"""

from mixreg import (
    ExperimentConfig,
    GaussianAR,
    clt_consistency,
    default_warmup,
    rate_slope,
    run_coverage,
    save_config,
    verify_lower_tail,
)

# The spec owns the regression window (one lag here); save_config writes it
# as `[fit] window`.
spec = GaussianAR((0.5, 0.2), covariate_dim=1, warmup=default_warmup((0.5, 0.2)))
config = ExperimentConfig(
    process=spec,
    ns=(500, 1000, 2000, 4000),
    delta=0.1,
    trials=200,
    seed=42,
    n_mc=1000,
    tau=20,
    block_lens=(1, 2, 4, 8, 16, 32),
)
save_config(config, "demo.cfg")
print("wrote demo.cfg")

print("\n-- bound coverage --")
for rep in run_coverage(config, out_path="coverage.csv"):
    print(f"n={rep.n:5d} bound={rep.bound_value:.5f} "
          f"quantile={rep.quantile:.5f} coverage={rep.coverage:.3f} "
          f"burn-ins={'PASS' if rep.burnins_pass else 'FAIL'}")

print("\n-- excess-risk rate --")
slope = rate_slope(config, out_path="slope.csv")
for n, med in zip(slope.ns, slope.medians):
    print(f"n={n:5d} median risk={med:.2e}")
print("log-log slope:", round(slope.slope, 3))

print("\n-- lower uniform law --")
for rep in verify_lower_tail(config, out_path="lowertail.csv"):
    print(f"n={rep.n:5d} frequency={rep.frequency:.3f} "
          f"certified={rep.certificate.certified}")

print("\n-- CLT consistency of the block noise level --")
clt = clt_consistency(config, out_path="clt.csv")
for length, level in zip(clt.block_lens, clt.sigma2):
    print(f"block length {length:3d}: sigma^2 = {level:.3f}")
print("stable from block length:", clt.stable_from)
