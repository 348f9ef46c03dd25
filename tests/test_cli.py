import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixreg
from mixreg import harness
from mixreg.cli import COMMANDS, EXPERIMENTS, TRIAL_COMMANDS, build_parser, cli_main
from mixreg.config import ExperimentConfig, save_config
from mixreg.parallel import _usable_cpus, worker_count
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
    out, err = capsys.readouterr()
    assert out == "" and "usage" in err.lower()


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
    out, err = capsys.readouterr()
    assert out == "" and "usage" in err.lower()


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


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--trials"), ("mixing", "--trials"), ("bound", "--trials"),
    ("clt", "--trials"), ("mixing", "--seed")])
def test_unread_flag_exits_1(iid_cfg, tmp_path, capsys, command, flag):
    """A subcommand that would ignore a flag does not offer it."""
    assert cli_main([command, "--config", str(iid_cfg), flag, "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "usage" in err.lower() and flag in err
    assert [p.name for p in tmp_path.iterdir()] == ["iid.cfg"]


def test_markov_shortcut_refuses_a_config(iid_cfg, tmp_path, capsys):
    assert cli_main(["mixing", "--markov", "q=0.3", "--config", str(iid_cfg),
                     "--out", str(tmp_path)]) == 1
    assert "--markov" in capsys.readouterr().err
    assert not (tmp_path / "mixing.csv").exists()


def test_flags_offered_where_read():
    parser = build_parser()
    for command in set(COMMANDS) - {"mixing"}:
        assert parser.parse_args([command, "--seed", "5"]).seed == 5
    for command in TRIAL_COMMANDS:
        assert parser.parse_args([command, "--trials", "7"]).trials == 7


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


@pytest.mark.parametrize("n, rule, lengths", [
    (256, "tau = 3", "[3, 4]"),
    (16, "lengths = 4, 4, 2, 2, 2, 2", "[2, 4]"),
    (10000, "tau = 30", "[30, 31]"),
])
def test_corollary_bound_on_unequal_blocks_exits_1(tmp_path, capsys, monkeypatch,
                                                  n, rule, lengths):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectrum estimated before the partition rule")

    monkeypatch.setattr(mixreg.harness, "noise_spectrum", no_spectrum)
    cfg = tmp_path / "unequal.cfg"
    cfg.write_text(
        "[process]\nkind = iid_gaussian\ncovariate_dim = 2\n"
        f"[partition]\n{rule}\nform = corollary\n"
        f"[experiment]\nns = {n}\nn_mc = 1000\nout = {tmp_path}\n")
    assert cli_main(["bound", "--config", str(cfg)]) == 1
    assert lengths in capsys.readouterr().err


def no_draws(monkeypatch):
    def no_draw(self, rng, n):
        raise AssertionError("a trajectory was drawn before the config was checked")

    monkeypatch.setattr(IIDGaussian, "_draw", no_draw)


@pytest.mark.parametrize("command", ["coverage", "lower-tail", "noise-walk"])
def test_partition_for_a_later_n_fails_before_any_draw(tmp_path, capsys, monkeypatch,
                                                       command):
    no_draws(monkeypatch)
    cfg = tmp_path / "lengths.cfg"
    cfg.write_text(
        "[process]\nkind = iid_gaussian\ncovariate_dim = 2\n"
        "[partition]\nlengths = 100, 100, 100, 100\n"
        f"[experiment]\nns = 400, 800\ntrials = 100\nn_mc = 1000\nout = {tmp_path}\n")
    assert cli_main([command, "--config", str(cfg)]) == 1
    assert "cover 400 samples, need 800" in capsys.readouterr().err
    assert not (tmp_path / CSV_OF[command]).exists()


def test_noise_walk_with_s_2_fails_before_any_draw(iid_cfg, tmp_path, capsys, monkeypatch):
    iid_cfg.write_text(iid_cfg.read_text() + "s = 2\n")
    with monkeypatch.context() as patch:
        no_draws(patch)
        assert cli_main(["noise-walk", "--config", str(iid_cfg)]) == 1
    assert "s must exceed 2" in capsys.readouterr().err
    # The coverage bound needs only s >= 2.
    assert cli_main(["coverage", "--config", str(iid_cfg)]) == 0


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
    save_config(ExperimentConfig(rounding_chain(), ns=(200, 300, 400, 500, 600),
                                 trials=100, seed=3, outputs=str(tmp_path)), cfg)
    assert cli_main(["slope", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=200" in err and "rounding level" in err
    assert not (tmp_path / "slope.csv").exists()


def test_noisy_slope_still_fits(tmp_path, capsys):
    cfg = tmp_path / "iid.cfg"
    save_config(ExperimentConfig(IIDGaussian(2), ns=(200, 300, 400, 600),
                                 trials=100, seed=3, outputs=str(tmp_path)), cfg)
    assert cli_main(["slope", "--config", str(cfg)]) == 0
    slope = float(capsys.readouterr().out.split("slope=")[1].split()[0])
    assert -1.5 < slope < -0.5


def test_noiseless_chain_slope_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flip.cfg"
    save_config(ExperimentConfig(two_state_flip(0.3), ns=(200, 300, 400, 500),
                                 trials=100, outputs=str(tmp_path)), cfg)
    assert cli_main(["slope", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=200" in err


CSV_OF = {"simulate": "trajectory.csv", "mixing": "mixing.csv", "bound": "bound.csv",
          "coverage": "coverage.csv", "lower-tail": "lowertail.csv",
          "noise-walk": "noisewalk.csv", "clt": "clt.csv", "slope": "slope.csv"}


MODULE_PROBE = """
import json
import sys

prefixes = json.loads(sys.argv[2])

def probed(name):
    return any(name == p or name.startswith(p + ".") for p in prefixes)

class Blocked:
    # Make every probed import fail, as on an install without those packages.
    def find_spec(self, name, path=None, target=None):
        if probed(name):
            raise ImportError(f"{name} is blocked")

if sys.argv[3] == "block":
    sys.meta_path.insert(0, Blocked())
import mixreg.cli
def loaded():
    return sorted(k for k in sys.modules if probed(k))
on_import = loaded()
for command in sys.argv[4:]:
    assert mixreg.cli.cli_main([command, "--config", sys.argv[1]]) == 0, command
print(json.dumps([on_import, loaded()]))
"""


def modules_after(cfg, prefixes, *commands, block=False, threads=None):
    """The loaded modules named by a prefix (a module or a package) in a
    fresh interpreter: after `import mixreg.cli`, and after running the
    commands on the config.  With `block`, every import of those modules
    raises ImportError; `threads` sets MIXREG_THREADS."""
    src = str(Path(mixreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if threads is not None:
        env["MIXREG_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, str(cfg), json.dumps(prefixes),
         "block" if block else "open", *commands],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def write_ar_cfg(path, out):
    path.write_text(
        "[process]\nkind = gaussian_ar\nar_coeffs = 0.5, 0.2\nwarmup = 20\n"
        "[fit]\nwindow = 1\n[partition]\ntau = 2\n"
        f"[experiment]\nns = 40\ntrials = 100\nseed = 2\nn_mc = 1000\nout = {out}\n")
    return path


def test_runs_need_no_scipy(iid_cfg, tmp_path):
    """iid runs load no scipy module; simulate, bound, coverage and
    noise-walk on an AR config run with scipy blocked, and write the same
    CSV bytes as without the block."""
    assert modules_after(iid_cfg, ["scipy"], "coverage", "lower-tail") == [[], []]
    commands = ("simulate", "bound", "coverage", "noise-walk")
    csvs = {}
    for mode in ("open", "block"):
        out = tmp_path / mode
        cfg = write_ar_cfg(tmp_path / f"{mode}.cfg", out)
        assert modules_after(cfg, ["scipy"], *commands, block=mode == "block") == [[], []]
        csvs[mode] = {c: (out / CSV_OF[c]).read_bytes() for c in commands}
    assert csvs["block"] == csvs["open"]


POOL_MODULES = ["multiprocessing", "concurrent.futures.process"]


def test_serial_runs_never_load_the_pool(tmp_path):
    """Serial coverage and noise-walk runs import no process pool; a
    MIXREG_THREADS=2 coverage run does, so the pool path still runs, unless
    the process may use only one CPU, where its pool of one runs serially."""
    cfg = write_ar_cfg(tmp_path / "ar.cfg", tmp_path / "out")
    assert modules_after(cfg, POOL_MODULES, "coverage", "noise-walk", threads=1) == [[], []]
    on_import, after = modules_after(cfg, POOL_MODULES, "coverage", threads=2)
    assert on_import == []
    if _usable_cpus() >= 2:
        assert set(POOL_MODULES) <= set(after)
    else:
        assert after == []


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_bad_thread_count_exits_1(tmp_path, monkeypatch, capsys, value):
    """MIXREG_THREADS is read only when a trial loop sizes its pool, and
    every experiment runs one, so each fails on a malformed value."""
    cfg = tmp_path / "iid.cfg"
    save_config(ExperimentConfig(IIDGaussian(covariate_dim=2), ns=(300, 400, 500, 600),
                                 trials=100, seed=4, n_mc=1000, tau=1, block_lens=(1, 2),
                                 outputs=str(tmp_path)), cfg)
    monkeypatch.setenv("MIXREG_THREADS", value)
    with pytest.raises(ValueError, match="MIXREG_THREADS"):
        worker_count()
    for command in EXPERIMENTS:
        assert cli_main([command, "--config", str(cfg)]) == 1, command
        assert "MIXREG_THREADS" in capsys.readouterr().err, command


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


# Each experiment's CSV header, pinned, and the row class whose fields it
# lists (the bound report's columns follow its checks instead).
HEADERS = {
    "bound": ",".join(["bound_value", "mixing_sum", *(
        f"{check}_{col}" for check in ("sample_size", "block_moment", "length_balance",
                                       "spectrum_balance", "mixing")
        for col in ("value", "threshold", "holds"))]),
    "coverage": "n,bound,quantile,coverage,sample_size_ok,block_moment_ok,"
                "length_balance_ok,spectrum_balance_ok,mixing_ok,degenerate,trials",
    "lower-tail": "n,frequency,certified,required_n,h,trials",
    "noise-walk": "n,threshold,exceedance,budget,r,lambda_odd,lambda_even,trials",
    "clt": "block_len,sigma2",
    "slope": "n,median_excess_risk",
}
ROW_CLASSES = {"coverage": harness.CoverageRow, "lower-tail": harness.LowerTailRow,
               "noise-walk": harness.NoiseWalkRow, "clt": harness.CltRow,
               "slope": harness.SlopeRow}

# The shape of every summary line, without its float values.
F = r"[-+]?(?:\d+(?:\.\d*)?(?:e[-+]\d+)?|inf|nan)"
CHECK = rf"(PASS|FAIL) \w+: value {F} vs threshold {F}( \(.+\))?"
SUMMARY = {
    "bound": [rf"bound_value {F}", rf"mixing_sum {F}", r"constants UniversalConstants\(.+\)",
              *[CHECK] * 5, r"all burn-ins (PASS|FAIL)"],
    "coverage": [rf"n=\d+ bound={F} quantile={F} coverage={F} burnins=(PASS|FAIL)"] * 4,
    "lower-tail": [rf"n=\d+ frequency={F} certified=(True|False)"] * 4,
    "noise-walk": [rf"n=\d+ threshold={F} exceedance={F} budget={F}"] * 4,
    "clt": [rf"block_len=\d+ sigma2={F}"] * 3 + [r"stable_from=(\d+|None)"],
    "slope": [rf"n=\d+ median={F}"] * 4 + [rf"slope={F}"],
}


@pytest.mark.parametrize("command", list(EXPERIMENTS))
def test_experiment_csv_header_and_summary_lines(tmp_path, capsys, command):
    cfg = tmp_path / "ar.cfg"
    cfg.write_text(
        "[process]\nkind = gaussian_ar\nar_coeffs = 0.5, 0.2\nwarmup = 20\n"
        "[fit]\nwindow = 1\n[partition]\ntau = 2\n"
        "[experiment]\nns = 40, 50, 60, 80\ntrials = 100\nseed = 3\nn_mc = 1000\n"
        f"block_lens = 1, 2, 4\nout = {tmp_path}\n")
    assert cli_main([command, "--config", str(cfg)]) == 0
    path = tmp_path / CSV_OF[command]
    header, *rows = path.read_text().splitlines()
    assert header == HEADERS[command]
    if command in ROW_CLASSES:
        assert header.split(",") == [f.name for f in dataclasses.fields(ROW_CLASSES[command])]
    assert len(rows) == {"bound": 1, "clt": 3}.get(command, 4)
    *lines, wrote = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote {path}"
    assert len(lines) == len(SUMMARY[command])
    for line, shape in zip(lines, SUMMARY[command]):
        assert re.fullmatch(shape, line), (line, shape)
