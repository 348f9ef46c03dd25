"""Set-up probe: in a fresh process, everything a `mixreg` CLI run does
before its first trajectory.

    python3 bench/setup_probe.py CONFIG

Imports the CLI, loads the config, computes the population optimum and the
mixing profile of every sample size's partition.  The benchmark times the
whole process, interpreter start-up included.
"""

import sys


def main() -> int:
    import mixreg.cli  # noqa: F401  (the import a CLI run pays)
    from mixreg import harness
    from mixreg.config import load_config

    config = load_config(sys.argv[1])
    harness.population_for(config)
    for n in config.ns:
        harness.profile_for(config, config.partition_for(n))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
