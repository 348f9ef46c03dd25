"""Toy-size smoke test of the benchmark: every workload shape untraced, the
traced path on both CLI commands (with the pool runs on coverage-ar), and
every metric named in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest bench/test_smoke.py -q

Sizes are tiny (n_mc = 1,000 is the MIN_MC_TRIALS floor), so this checks
that the benchmark runs and reports, not how fast mixreg is.
"""

import configparser
import dataclasses
import json

import pytest

import run

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TOY = {
    "coverage": {"ns": "400", "tau": "10", "n_mc": "1000", "trials": "100"},
    "noise-walk": {"ns": "200", "tau": "20", "n_mc": "1000", "trials": "100"},
}


def toy(name: str, tmp_path) -> run.Workload:
    """The named workload at toy size, without its reference CSV."""
    w = run.WORKLOADS[name]
    parser = configparser.ConfigParser()
    parser.read(w.config)
    sizes = TOY[w.command]
    parser["partition"]["tau"] = sizes["tau"]
    for key in ("ns", "n_mc", "trials"):
        parser["experiment"][key] = sizes[key]
    path = tmp_path / f"{name}.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    return dataclasses.replace(w, config=path, reference=None)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    w = toy(name, tmp_path)
    result = run.measure(w, run.default_seed(w), 0, False, tmp_path / "work")
    assert result["correct"], result["details"]["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == run.SETUP_REPS + run.MIN_CLI_RUNS + w.pool_check
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["noise-walk-ar", "coverage-ar"])
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    w = toy(name, tmp_path)
    result = run.measure(w, 5, 0, True, tmp_path / "work")
    assert result["correct"], result["details"]["failures"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    sizes = TOY[w.command]
    n_mc, trials = int(sizes["n_mc"]), int(sizes["trials"])
    assert metrics["bounds.noise_spectrum.sims_per_trial"] == 2.0
    if w.command == "noise-walk":
        blocks = int(sizes["ns"]) // int(sizes["tau"])
        # Spectrum (two passes), one simulation per block per resample, trials.
        assert metrics["processes.simulate.calls"] == 2 * n_mc + blocks * n_mc + trials
        assert metrics["blocking.decoupled_resample.calls"] == n_mc
        assert 0 < metrics["blocking.decoupled_resample.kept_frac"] < 1
        assert metrics["parallel.pool.workers"] == 0
    else:
        assert metrics["processes.simulate.calls"] == 2 * n_mc + trials
        assert metrics["regression.fit_ols.calls"] == trials
        # The timed runs are serial; the pool runs map their chunks on two workers.
        assert metrics["parallel.map_chunks.workers"] == 1
        assert metrics["parallel.pool.workers"] == run.POOL_THREADS
        assert metrics["parallel.pool.chunks"] > 0
        assert metrics["parallel.pool.wall_s"] > 0


def test_csv_check_catches_small_differences():
    want = b"n,bound,degenerate\n10,0.5,0\n"
    assert run.csv_mismatch(want, want, 0.0) is None
    assert run.csv_mismatch(b"n,bound,degenerate\n10,0.50000000001,0\n", want, 1e-9) is None
    assert run.csv_mismatch(b"n,bound,degenerate\n10,0.5000001,0\n", want, 1e-9)
    assert run.csv_mismatch(b"n,bound,degenerate\n10,0.5,1\n", want, 1e-9)
    assert run.csv_mismatch(b"n,bound,degenerate\n10,nan,0\n", want, 1e-9)
    assert run.csv_mismatch(b"n,bound\n10,0.5\n", want, 1e-9)
