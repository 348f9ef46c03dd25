import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixreg
from mixreg.cli import COMMANDS, cli_main
from mixreg.config import ExperimentConfig, save_config
from mixreg.parallel import worker_count
from mixreg.processes import FiniteMarkov, IIDGaussian, two_state_flip


@pytest.fixture
def iid_cfg(tmp_path):
    path = tmp_path / "iid.cfg"
    path.write_text(
        "[process]\n"
        "kind = iid_gaussian\n"
        "covariate_dim = 2\n"
        "[fit]\n"
        "window = 2\n"
        "[partition]\n"
        "tau = 1\n"
        "[experiment]\n"
        f"ns = 300\ndelta = 0.1\ntrials = 100\nseed = 4\nn_mc = 1000\nout = {tmp_path}\n")
    return path


def test_unknown_subcommand_exits_1(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_console_entry_point():
    """The installed `mixreg` script, or the module it runs, lists every
    subcommand."""
    exe = shutil.which("mixreg")
    argv = [exe] if exe else [sys.executable, "-m", "mixreg.cli"]
    src = str(Path(mixreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([*argv, "--help"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    for name in COMMANDS:
        assert name in done.stdout


def test_no_subcommand_prints_usage(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower() or True


def test_missing_config_is_argument_error(tmp_path):
    assert cli_main(["bound"]) == 1
    assert cli_main(["bound", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_bound_prints_value_and_checks(iid_cfg, capsys):
    assert cli_main(["bound", "--config", str(iid_cfg)]) == 0
    out = capsys.readouterr().out
    assert "bound_value" in out
    for name in ("sample_size", "block_moment", "length_balance",
                 "spectrum_balance", "mixing"):
        assert name in out


def test_coverage_writes_schema(iid_cfg, tmp_path, capsys):
    assert cli_main(["coverage", "--config", str(iid_cfg)]) == 0
    content = (tmp_path / "coverage.csv").read_text().splitlines()
    assert content[0].startswith("n,bound,quantile,coverage")
    assert len(content) == 2


def test_markov_mixing_csv(tmp_path, capsys):
    code = cli_main(["mixing", "--markov", "q=0.3", "--max-gap", "10",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "mixing.csv").read_text().strip().splitlines()
    assert lines[0] == "gap,beta"
    assert len(lines) == 11
    for row in lines[1:]:
        gap, beta = row.split(",")
        assert float(beta) == pytest.approx(0.4 ** int(gap) / 2.0, abs=1e-12)


def test_simulate_writes_trajectory(iid_cfg, tmp_path):
    assert cli_main(["simulate", "--config", str(iid_cfg), "--n", "25"]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,y_1"
    assert len(lines) == 26


def test_seed_override_changes_output(iid_cfg, tmp_path):
    cli_main(["simulate", "--config", str(iid_cfg), "--n", "10"])
    first = (tmp_path / "trajectory.csv").read_text()
    cli_main(["simulate", "--config", str(iid_cfg), "--n", "10", "--seed", "99"])
    second = (tmp_path / "trajectory.csv").read_text()
    assert first != second


def test_bad_markov_argument(tmp_path):
    assert cli_main(["mixing", "--markov", "p=0.3", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("max_gap", ["0", "-3"])
def test_max_gap_below_1_exits_1(tmp_path, capsys, max_gap):
    code = cli_main(["mixing", "--markov", "q=0.3", "--max-gap", max_gap,
                     "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("argument error:") and "--max-gap" in err
    assert not (tmp_path / "mixing.csv").exists()


def test_clt_and_slope_smoke(tmp_path):
    cfg = tmp_path / "ar.cfg"
    cfg.write_text(
        "[process]\nkind = gaussian_ar\nar_coeffs = 0.5\nwarmup = 20\n"
        "[fit]\nwindow = 1\n"
        "[partition]\ntau = 2\n"
        "[experiment]\n"
        f"ns = 200, 400, 800, 1600\ntrials = 100\nseed = 2\nn_mc = 1000\n"
        f"block_lens = 1, 2, 4\nout = {tmp_path}\n")
    assert cli_main(["clt", "--config", str(cfg)]) == 0
    assert (tmp_path / "clt.csv").exists()
    assert cli_main(["slope", "--config", str(cfg)]) == 0
    assert (tmp_path / "slope.csv").exists()


def test_lower_tail_and_noise_walk_smoke(iid_cfg, tmp_path):
    assert cli_main(["lower-tail", "--config", str(iid_cfg)]) == 0
    assert (tmp_path / "lowertail.csv").exists()
    assert cli_main(["noise-walk", "--config", str(iid_cfg)]) == 0
    assert (tmp_path / "noisewalk.csv").exists()


def test_corollary_bound_on_noiseless_iid_exits_0(tmp_path, capsys):
    cfg = tmp_path / "noiseless.cfg"
    cfg.write_text(
        "[process]\nkind = iid_gaussian\ncovariate_dim = 2\nnoise_std = 0\n"
        "[partition]\ntau = 1\nform = corollary\n"
        f"[experiment]\nns = 300\nn_mc = 1000\nout = {tmp_path}\n")
    assert cli_main(["bound", "--config", str(cfg)]) == 0
    assert "bound_value 0\n" in capsys.readouterr().out


def test_clt_on_noiseless_iid_exits_0(tmp_path, capsys):
    cfg = tmp_path / "noiseless.cfg"
    cfg.write_text(
        "[process]\nkind = iid_gaussian\ncovariate_dim = 2\nnoise_std = 0\n"
        f"[experiment]\nn_mc = 1000\nblock_lens = 1, 2, 4\nout = {tmp_path}\n")
    assert cli_main(["clt", "--config", str(cfg)]) == 0
    assert (tmp_path / "clt.csv").read_text() == "block_len,sigma2\n1,0\n2,0\n4,0\n"
    assert "stable_from=1\n" in capsys.readouterr().out


def test_all_degenerate_slope_exits_2(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        "[process]\nkind = iid_gaussian\ncovariate_dim = 10\n"
        f"[experiment]\nns = 5, 6, 7, 8\ntrials = 3\nout = {tmp_path}\n")
    assert cli_main(["slope", "--config", str(cfg)]) == 2
    assert "n=5" in capsys.readouterr().err


def rounding_chain(q=0.3):
    """A two-state chain whose target is an exact linear map of a
    two-dimensional covariate: OLS recovers it up to rounding."""
    return FiniteMarkov(np.array([[1 - q, q], [q, 1 - q]]),
                        emit_x=np.array([[-1.0, 0.5], [1.0, 2.0]]),
                        emit_y=np.array([[0.3], [1.1]]))


def test_slope_of_rounding_noise_exits_2(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    save_config(ExperimentConfig(rounding_chain(), fit_window=2, ns=(200, 300, 400, 500, 600),
                                 trials=100, seed=3, outputs=str(tmp_path)), cfg)
    assert cli_main(["slope", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=200" in err and "rounding level" in err
    assert not (tmp_path / "slope.csv").exists()


def test_noisy_slope_still_fits(tmp_path, capsys):
    cfg = tmp_path / "iid.cfg"
    save_config(ExperimentConfig(IIDGaussian(2), fit_window=2, ns=(200, 300, 400, 600),
                                 trials=100, seed=3, outputs=str(tmp_path)), cfg)
    assert cli_main(["slope", "--config", str(cfg)]) == 0
    slope = float(capsys.readouterr().out.split("slope=")[1].split()[0])
    assert -1.5 < slope < -0.5


def test_noiseless_chain_slope_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flip.cfg"
    save_config(ExperimentConfig(two_state_flip(0.3), fit_window=1, ns=(200, 300, 400, 500),
                                 trials=100, outputs=str(tmp_path)), cfg)
    assert cli_main(["slope", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=200" in err


CSV_OF = {"simulate": "trajectory.csv", "mixing": "mixing.csv", "bound": "bound.csv",
          "coverage": "coverage.csv", "lower-tail": "lowertail.csv",
          "noise-walk": "noisewalk.csv", "clt": "clt.csv", "slope": "slope.csv"}


SCIPY_PROBE = """
import json
import sys

class NoScipy:
    # Make every scipy import fail, as on an install without scipy.
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

if sys.argv[2] == "block":
    sys.meta_path.insert(0, NoScipy())
import mixreg.cli
def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
on_import = scipy_modules()
for command in sys.argv[3:]:
    assert mixreg.cli.cli_main([command, "--config", sys.argv[1]]) == 0, command
print(json.dumps([on_import, scipy_modules()]))
"""


def scipy_modules_after(cfg, *commands, block=False):
    """scipy modules loaded in a fresh interpreter after `import mixreg.cli`,
    and after running the commands on the config; with `block`, every
    scipy import in that interpreter raises ImportError."""
    src = str(Path(mixreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(cfg), "block" if block else "open", *commands],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_runs_need_no_scipy(iid_cfg, tmp_path):
    """iid runs load no scipy module; simulate, bound, coverage and
    noise-walk on an AR config run with scipy blocked, and write the same
    CSV bytes as without the block."""
    assert scipy_modules_after(iid_cfg, "coverage", "lower-tail") == [[], []]
    commands = ("simulate", "bound", "coverage", "noise-walk")
    csvs = {}
    for mode in ("open", "block"):
        out = tmp_path / mode
        cfg = tmp_path / f"{mode}.cfg"
        cfg.write_text(
            "[process]\nkind = gaussian_ar\nar_coeffs = 0.5, 0.2\nwarmup = 20\n"
            "[fit]\nwindow = 1\n[partition]\ntau = 2\n"
            f"[experiment]\nns = 40\ntrials = 100\nseed = 2\nn_mc = 1000\nout = {out}\n")
        assert scipy_modules_after(cfg, *commands, block=mode == "block") == [[], []]
        csvs[mode] = {c: (out / CSV_OF[c]).read_bytes() for c in commands}
    assert csvs["block"] == csvs["open"]


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_bad_thread_count_exits_1(iid_cfg, monkeypatch, capsys, value):
    monkeypatch.setenv("MIXREG_THREADS", value)
    with pytest.raises(ValueError, match="MIXREG_THREADS"):
        worker_count()
    assert cli_main(["bound", "--config", str(iid_cfg)]) == 1
    assert "MIXREG_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(COMMANDS))
def test_rerun_writes_identical_csv(tmp_path, capsys, command):
    """The same config and seed give byte-identical CSVs."""
    ns = "40, 50, 60, 80" if command == "slope" else "40"
    runs = []
    for run in ("first", "second"):
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(
            "[process]\nkind = gaussian_ar\nar_coeffs = 0.5, 0.2\nwarmup = 20\n"
            "[fit]\nwindow = 1\n[partition]\ntau = 2\n"
            f"[experiment]\nns = {ns}\ntrials = 100\nseed = 3\nn_mc = 1000\n"
            f"block_lens = 1, 2\nout = {tmp_path / run}\n")
        assert cli_main([command, "--config", str(cfg)]) == 0
        runs.append((tmp_path / run / CSV_OF[command]).read_bytes())
    assert runs[0] == runs[1]
