import dataclasses
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixreg import harness
from mixreg.cli import cli_main
from mixreg.config import ExperimentConfig, load_config, save_config
from mixreg.bounds import UniversalConstants, corollary_bound, noise_spectrum
from mixreg.csvfile import write_csv
from mixreg.harness import (
    clt_consistency,
    evaluate_bound,
    rate_slope,
    run_coverage,
    slope_from_medians,
    stabilization_length,
    verify_lower_tail,
    verify_noise_walk,
)
from mixreg.processes import (
    BlockConstant,
    FiniteMarkov,
    GaussianAR,
    IIDGaussian,
    default_warmup,
    derive_seed,
    two_state_flip,
)
from mixreg.mixing import profile_from_spec
from mixreg.regression import population_optimum


def iid_config(tmp_path, **overrides):
    fields = dict(
        process=IIDGaussian(covariate_dim=2),
        ns=(400,),
        delta=0.1,
        trials=100,
        seed=5,
        outputs=str(tmp_path),
        n_mc=1000,
        tau=1,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


finite = st.floats(-3.0, 3.0, allow_nan=False)
positive = st.floats(0.01, 5.0, allow_nan=False)


def matrices(rows, cols, elements=finite):
    return st.lists(st.lists(elements, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(np.array)


@st.composite
def any_spec(draw):
    """A random valid spec of any of the four process kinds."""
    kind = draw(st.sampled_from(["ar", "markov", "block", "iid"]))
    if kind == "ar":
        # sum |a_k| < 1 keeps the recursion Schur stable.
        coeffs = draw(st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=2))
        return GaussianAR(tuple(coeffs), noise_std=draw(positive),
                          covariate_dim=draw(st.integers(1, 3)),
                          warmup=draw(st.integers(0, 50)))
    if kind == "markov":
        k = draw(st.integers(1, 3))
        weights = draw(matrices(k, k, st.floats(0.05, 1.0)))
        return FiniteMarkov(weights / weights.sum(axis=1, keepdims=True),
                            draw(matrices(k, draw(st.integers(1, 2)))),
                            draw(matrices(k, draw(st.integers(1, 2)))))
    d_x, d_y = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    if kind == "block":
        return BlockConstant(draw(st.integers(1, 20)), d_x, d_y,
                             x_std=draw(positive), y_std=draw(positive))
    return IIDGaussian(d_x, d_y, noise_std=draw(st.floats(0.0, 3.0)),
                       coef=draw(matrices(d_y, d_x)))


@st.composite
def any_config(draw):
    """A random valid config: any spec, one partition rule, and every
    experiment field and constant drawn."""
    spec = draw(any_spec())
    sizes = st.lists(st.integers(1, 10**6), min_size=1, max_size=4).map(tuple)
    rule = draw(st.sampled_from(["tau", "m", "lengths"]))
    return ExperimentConfig(
        process=spec, ns=draw(sizes),
        delta=draw(st.floats(0.001, 0.999)), trials=draw(st.integers(1, 10**5)),
        seed=draw(st.integers(0, 2**63)), n_mc=draw(st.integers(2, 10**5)),
        moment_s=draw(st.floats(2.0, 8.0)),
        block_lens=tuple(draw(st.lists(st.integers(1, 512), max_size=8))),
        eps=draw(positive), eta=draw(st.floats(0.01, 1.0)),
        bound_form=draw(st.sampled_from(["main", "corollary"])),
        outputs=draw(st.text(alphabet="abc/_.%", min_size=1, max_size=12)),
        constants=UniversalConstants(**{f.name: draw(positive)
                                        for f in dataclasses.fields(UniversalConstants)}),
        **{rule: draw(sizes if rule == "lengths" else st.integers(1, 100))})


VALID_SECTIONS = {"process": {"kind": "iid_gaussian", "covariate_dim": "2"},
                  "fit": {"window": "2"}, "partition": {"tau": "1"},
                  "experiment": {"ns": "300"}, "constants": {"c1": "2"}}
# A valid window-2 [process] section of the kind that declares each key.
OTHER_KINDS = {"ar_coeffs": {"kind": "gaussian_ar", "ar_coeffs": "0.5"},
               "transition": {"kind": "finite_markov", "transition": "0.9, 0.1; 0.2, 0.8",
                              "emit_x": "1, 0; 0, 1", "emit_y": "1; -1"}}


# save_config's text for an AR(2) spec fit with one lag, n_mc and the
# constants at their defaults.
SAVED_AR = """\
[process]
kind = gaussian_ar
ar_coeffs = 0.5, 0.20000000000000001
noise_std = 1
covariate_dim = 1
warmup = 85

[fit]
window = 1

[experiment]
ns = 400, 1000
delta = 0.10000000000000001
trials = 200
seed = 3
out = runs
n_mc = 1000
s = 4
block_lens = 1, 2, 4, 8, 16, 32, 64, 128
eps = 0.10000000000000001
eta = 0.10000000000000001

[partition]
tau = 10
form = main

[constants]
c1 = 2
c2 = 20
c3 = 20
c4 = 2
c5 = 2
c6 = 1
c_lower = 20

"""


class TestConfig:
    def test_roundtrip_gaussian_ar(self, tmp_path):
        config = ExperimentConfig(
            process=GaussianAR((0.5, 0.2), noise_std=1.5, covariate_dim=1, warmup=85),
            ns=(1000, 3000),
            delta=0.05,
            trials=200,
            seed=9,
            constants=UniversalConstants(c1=3.0, c6=0.5),
            outputs=str(tmp_path),
            n_mc=1500,
            tau=25,
        )
        path = tmp_path / "exp.cfg"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded.process.ar_coeffs == config.process.ar_coeffs
        assert loaded.process.warmup == 85
        assert loaded.process.covariate_dim == 1
        assert loaded.ns == (1000, 3000)
        assert loaded.delta == 0.05
        assert loaded.constants.c1 == 3.0 and loaded.constants.c6 == 0.5
        assert loaded.tau == 25
        assert loaded.n_mc == 1500

    def test_roundtrip_markov(self, tmp_path):
        config = ExperimentConfig(process=two_state_flip(0.3), ns=(100,), delta=0.1,
                                  trials=100, seed=1, outputs=str(tmp_path))
        path = tmp_path / "m.cfg"
        save_config(config, path)
        loaded = load_config(path)
        np.testing.assert_allclose(loaded.process.transition,
                                   config.process.transition)

    def test_partition_rules(self, tmp_path):
        by_tau = iid_config(tmp_path, tau=4)
        assert set(by_tau.partition_for(64).lengths) == {4}
        by_m = iid_config(tmp_path, tau=None, m=4)
        assert by_m.partition_for(64).n_blocks == 8
        explicit = iid_config(tmp_path, tau=None, lengths=(3, 3, 2, 2), ns=(10,))
        assert explicit.partition_for(10).lengths == (3, 3, 2, 2)
        with pytest.raises(ValueError):
            explicit.partition_for(11)

    @pytest.mark.parametrize("rules, named", [
        (dict(tau=5, m=3), "tau, m"),
        (dict(tau=None, m=3, lengths=(5, 5)), "m, lengths"),
        (dict(tau=2, m=3, lengths=(5, 5)), "tau, m, lengths"),
    ])
    def test_one_partition_rule(self, tmp_path, rules, named):
        with pytest.raises(ValueError, match=re.escape("[partition] takes only one of "
                                                       f"tau, m and lengths, got {named}")):
            iid_config(tmp_path, **rules)

    def test_two_partition_rules_in_a_file_are_argument_errors(self, tmp_path, capsys):
        path = tmp_path / "two.cfg"
        path.write_text("[process]\nkind = iid_gaussian\ncovariate_dim = 2\n"
                        "[partition]\ntau = 5\nm = 3\n[experiment]\nns = 60\n")
        assert cli_main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "got tau, m" in capsys.readouterr().err
        assert not (tmp_path / "bound.csv").exists()

    def test_saved_format(self, tmp_path):
        config = ExperimentConfig(
            process=GaussianAR((0.5, 0.2), covariate_dim=1, warmup=85),
            ns=(400, 1000), trials=200, seed=3, outputs="runs", tau=10)
        save_config(config, tmp_path / "ar.cfg")
        assert (tmp_path / "ar.cfg").read_text() == SAVED_AR

    def test_validation(self, tmp_path):
        for key, value in [("delta", 1.5), ("ns", ()),
                           ("eps", math.nan), ("eps", 0.0), ("eps", math.inf),
                           ("eta", math.nan), ("eta", 0.0), ("eta", 1.5),
                           ("moment_s", math.nan), ("moment_s", 1.5), ("moment_s", math.inf)]:
            with pytest.raises(ValueError):
                iid_config(tmp_path, **{key: value})

    @settings(max_examples=40, deadline=None)
    @given(config=any_config())
    def test_roundtrip_every_kind(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.cfg"), os.path.join(tmp, "b.cfg")
            save_config(config, first)
            loaded = load_config(first)
            save_config(loaded, second)
            with open(first) as fa, open(second) as fb:
                assert fa.read() == fb.read()
        spec = config.process
        assert type(loaded.process) is type(spec)
        for f in dataclasses.fields(spec):
            np.testing.assert_array_equal(getattr(loaded.process, f.name),
                                          getattr(spec, f.name))
        for f in dataclasses.fields(config)[1:]:
            assert getattr(loaded, f.name) == getattr(config, f.name), f.name

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.cfg"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        config = load_config(path)
        assert config.process.ar_coeffs == (0.5, 0.2)
        assert (config.process.covariate_dim, config.tau, config.bound_form) == (1, 50, "main")
        assert config.ns == (1000, 3000, 10000)

    def test_defaults_come_from_the_dataclass(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("[process]\nkind = iid_gaussian\ncovariate_dim = 3\n")
        loaded, default = load_config(path), ExperimentConfig(IIDGaussian(3))
        for f in dataclasses.fields(default)[1:]:
            assert getattr(loaded, f.name) == getattr(default, f.name), f.name

    @pytest.mark.parametrize("section, key, value, named", [
        ("process", "noise_sdt", "5.0", "noise_sdt"),
        ("fit", "windw", "2", "windw"),
        ("partition", "taus", "3", "taus"),
        ("experiment", "n", "300", "'n'"),
        ("constants", "c7", "1", "c7"),
        ("experimnet", "trials", "10", "experimnet"),
        ("partition", "form", "corolary", "corolary"),
        ("experiment", "ns", "1000.5", "1000.5"),
        ("experiment", "block_lens", "1, 2.5", "2.5"),
        ("constants", "c1", "nan", "nan"),
        ("experiment", "s", "nan", "nan"),
        ("experiment", "eps", "nan", "nan"),
        ("process", "noise_std", "inf", "inf"),
        ("process", "ar_coeffs", "0.5, nan", "nan"),
        ("process", "transition", "0.9, 0.1; -inf, 0.8", "-inf"),
    ])
    def test_malformed_config_is_argument_error(self, tmp_path, section, key, value, named):
        sections = {name: dict(items) for name, items in VALID_SECTIONS.items()}
        sections["process"] = dict(OTHER_KINDS.get(key, sections["process"]))
        sections.setdefault(section, {})[key] = value
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                                for name, items in sections.items()))
        with pytest.raises(ValueError) as err:
            load_config(path)
        for part in (f"[{section}]", key, named):
            assert part in str(err.value)
        assert cli_main(["bound", "--config", str(path)]) == 1

    @pytest.mark.parametrize("text, named", [
        ("[process]\nkind = iid_gaussian\ncovariate_dim = 2\n[experiment]\nns = 300\nns = 1000\n",
         "option 'ns' in section 'experiment'"),
        ("ns = 300\n[process]\nkind = iid_gaussian\ncovariate_dim = 2\n", "no section headers"),
        ("[process]\nkind = iid_gaussian\n", "[process] covariate_dim"),
    ])
    def test_unreadable_config_is_argument_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(named)):
            load_config(path)
        assert cli_main(["bound", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("argument error:")

    def test_percent_in_outputs_roundtrips(self, tmp_path):
        config = ExperimentConfig(IIDGaussian(2), outputs="runs/50%")
        save_config(config, tmp_path / "pct.cfg")
        assert load_config(tmp_path / "pct.cfg").outputs == "runs/50%"

    def test_percent_signs_read_verbatim(self, tmp_path):
        path = tmp_path / "pct.cfg"
        path.write_text("[process]\nkind = iid_gaussian\ncovariate_dim = 2\n"
                        "[experiment]\nout = a%%b\n")
        assert load_config(path).outputs == "a%%b"

    def test_auto_warmup_saves_its_value(self, tmp_path):
        path = tmp_path / "ar.cfg"
        path.write_text("[process]\nkind = gaussian_ar\nar_coeffs = 0.5, 0.2\n"
                        "warmup = AUTO\n[experiment]\nns = 100\n")
        config = load_config(path)
        assert config.process.warmup == default_warmup((0.5, 0.2))
        save_config(config, tmp_path / "saved.cfg")
        assert f"warmup = {default_warmup((0.5, 0.2))}\n" in (tmp_path / "saved.cfg").read_text()

    def test_unknown_kind_is_argument_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[process]\nkind = garch\n[experiment]\nns = 100\n")
        with pytest.raises(ValueError, match="unknown process kind"):
            load_config(path)
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("spec", [IIDGaussian(covariate_dim=1), BlockConstant(3),
                                      two_state_flip(0.3)])
    def test_window_change_rejected_for_non_ar(self, spec, tmp_path):
        assert spec.with_window(spec.covariate_dim) is spec
        with pytest.raises(ValueError, match="window"):
            spec.with_window(2)
        config = ExperimentConfig(process=spec, ns=(100,), delta=0.1,
                                  trials=100, seed=1, outputs=str(tmp_path))
        path = tmp_path / "w.cfg"
        save_config(config, path)
        text = path.read_text()
        assert f"[fit]\nwindow = {spec.covariate_dim}\n" in text
        path.write_text(text.replace(f"[fit]\nwindow = {spec.covariate_dim}\n",
                                     "[fit]\nwindow = 2\n"))
        with pytest.raises(ValueError, match="window"):
            load_config(path)
        assert cli_main(["bound", "--config", str(path)]) == 1

    def test_misspecified_window_from_file(self, tmp_path):
        path = tmp_path / "ar.cfg"
        path.write_text(
            "[process]\nkind = gaussian_ar\nar_coeffs = 0.5, 0.2\nwarmup = auto\n"
            "[fit]\nwindow = 1\n"
            "[partition]\ntau = 10\n"
            "[experiment]\nns = 500\ntrials = 100\nseed = 3\n")
        config = load_config(path)
        assert config.process.covariate_dim == 1
        assert config.process.warmup > 0

    @pytest.mark.parametrize("covariate_dim, window, loads", [(2, 1, False), (0, 1, False),
                                                              (2, 2, True), (1, 1, True)])
    def test_two_windows_must_agree(self, tmp_path, capsys, covariate_dim, window, loads):
        path = tmp_path / "ar.cfg"
        path.write_text(
            "[process]\nkind = gaussian_ar\nar_coeffs = 0.5, 0.2\nwarmup = auto\n"
            f"covariate_dim = {covariate_dim}\n[fit]\nwindow = {window}\n"
            "[experiment]\nns = 500\n")
        if loads:
            assert load_config(path).process.covariate_dim == window
            return
        message = (f"[process] covariate_dim = {covariate_dim} and [fit] window = {window} "
                   "set two regression windows")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert cli_main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


class TestCoverage:
    def test_iid_small(self, tmp_path):
        config = iid_config(tmp_path)
        out = tmp_path / "coverage.csv"
        reports = run_coverage(config, out_path=out)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.trials == 100
        assert 0.0 <= rep.coverage <= 1.0
        # Bound is far above the (1 - delta) quantile here.
        assert rep.coverage >= 0.9
        head = out.read_text().splitlines()[0]
        assert head.startswith("n,bound,quantile,coverage")

    def test_noiseless_realizable(self, tmp_path):
        coef = np.array([[1.0, -1.0]])
        config = iid_config(tmp_path,
                            process=IIDGaussian(covariate_dim=2, coef=coef,
                                                noise_std=0.0))
        reports = run_coverage(config)
        assert reports[0].quantile == pytest.approx(0.0, abs=1e-20)
        assert reports[0].coverage == 1.0

    def test_reproducible_bytes(self, tmp_path):
        config = iid_config(tmp_path)
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        run_coverage(config, out_path=out1)
        run_coverage(config, out_path=out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_trials_floor(self, tmp_path):
        with pytest.raises(ValueError):
            run_coverage(iid_config(tmp_path, trials=50))

    def test_conditional_coverage_invariant(self, tmp_path):
        # With a small moment constant all burn-ins pass; the invariant
        # then demands near-nominal coverage and a quantile below the bound.
        config = iid_config(tmp_path, ns=(600,), trials=200,
                            constants=UniversalConstants(c3=0.01))
        rep = run_coverage(config)[0]
        # Chosen so that the conditional check is non-vacuous.
        assert rep.summary().endswith(" burnins=PASS")
        floor = 1 - config.delta - 3 * math.sqrt(config.delta * (1 - config.delta)
                                                 / config.trials)
        assert rep.coverage >= floor
        assert rep.quantile <= rep.bound

    def test_coverage_monotone_in_c1(self, tmp_path):
        small = run_coverage(iid_config(tmp_path,
                                        constants=UniversalConstants(c1=0.1)))[0]
        large = run_coverage(iid_config(tmp_path,
                                        constants=UniversalConstants(c1=20.0)))[0]
        assert large.coverage >= small.coverage


class TestRateSlope:
    def test_exact_inverse_law(self):
        ns = (1000, 3000, 10_000, 30_000, 100_000)
        medians = [2.7 / n for n in ns]
        assert slope_from_medians(ns, medians) == pytest.approx(-1.0, abs=1e-6)

    def test_flat_input(self):
        ns = (1000, 3000, 10_000, 30_000)
        assert slope_from_medians(ns, [0.5] * 4) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            slope_from_medians((10, 100, 1000), [1, 2, 3])

    def test_all_degenerate_sample_size_raises(self, tmp_path):
        # Ten covariates and at most eight samples: every design is singular.
        config = iid_config(tmp_path, process=IIDGaussian(covariate_dim=10),
                            ns=(5, 6, 7, 8), trials=3)
        with pytest.raises(RuntimeError, match="n=5"):
            rate_slope(config)

    def test_zero_median_raises_naming_n(self, tmp_path):
        # Noiseless realizable chain: every fit is exact, every risk is 0.
        config = iid_config(tmp_path, process=two_state_flip(0.3),
                            ns=(200, 300, 400, 500), trials=100)
        with pytest.raises(RuntimeError, match="n=200"):
            rate_slope(config)

    def test_iid_ols_rate(self, tmp_path):
        config = iid_config(tmp_path, ns=(200, 600, 2000, 6000), trials=120)
        rows = rate_slope(config, out_path=tmp_path / "slope.csv")
        slope = slope_from_medians([r.n for r in rows], [r.median_excess_risk for r in rows])
        assert slope == pytest.approx(-1.0, abs=0.2)
        lines = (tmp_path / "slope.csv").read_text().splitlines()
        assert lines[0] == "n,median_excess_risk"
        assert len(lines) == 5


class TestLowerTail:
    def test_iid_healthy_regime(self, tmp_path):
        config = iid_config(tmp_path,
                            process=IIDGaussian(covariate_dim=5),
                            ns=(500,), trials=200)
        reports = verify_lower_tail(config, out_path=tmp_path / "lt.csv")
        assert reports[0].frequency >= 0.9
        header = (tmp_path / "lt.csv").read_text().splitlines()[0]
        assert header == "n,frequency,certified,required_n,h,trials"

    def test_degenerate_regime(self, tmp_path):
        config = iid_config(tmp_path, process=IIDGaussian(covariate_dim=5),
                            ns=(5,), trials=100)
        reports = verify_lower_tail(config)
        assert reports[0].frequency <= 0.1

    def test_only_the_trials_draw(self, tmp_path, monkeypatch):
        exact = IIDGaussian._draw
        calls = []

        def recording(self, rng, n, start=0):
            calls.append(n)
            return exact(self, rng, n, start)

        monkeypatch.setattr(IIDGaussian, "_draw", recording)
        config = iid_config(tmp_path, ns=(50, 80), trials=30)
        reports = verify_lower_tail(config)
        assert calls == [50] * 30 + [80] * 30
        assert [r.h for r in reports] == [math.sqrt(3.0)] * 2


class TestNoiseWalk:
    def test_iid_exceedance_within_budget(self, tmp_path):
        config = iid_config(tmp_path, ns=(512,), trials=200, tau=2)
        reports = verify_noise_walk(config, out_path=tmp_path / "nw.csv")
        rep = reports[0]
        se = math.sqrt(config.delta * (1 - config.delta) / config.trials)
        assert rep.exceedance <= min(1.0, rep.budget) + 3 * se
        assert rep.exceedance <= config.delta + 3 * se
        assert rep.threshold > 0

    def test_zero_noise(self, tmp_path):
        coef = np.array([[1.0, 0.5]])
        config = iid_config(tmp_path,
                            process=IIDGaussian(covariate_dim=2, coef=coef,
                                                noise_std=0.0),
                            ns=(64,), trials=100)
        rep = verify_noise_walk(config)[0]
        assert rep.exceedance == 0.0
        assert max(rep.lambda_odd, rep.lambda_even) <= 0

    def test_block_constant_threshold_inflation(self, tmp_path):
        # Same per-sample noise variance, but the worst case inflates the
        # threshold by about sqrt(block length).
        k, n = 16, 512
        common = dict(ns=(n,), trials=100, tau=k, n_mc=1000)
        worst = iid_config(tmp_path, process=BlockConstant(k), **common)
        plain = iid_config(tmp_path, process=IIDGaussian(covariate_dim=1), **common)
        t_worst = verify_noise_walk(worst)[0].threshold
        t_plain = verify_noise_walk(plain)[0].threshold
        assert t_worst / t_plain == pytest.approx(math.sqrt(k), rel=0.3)


def stable_from(rows):
    return stabilization_length([r.block_len for r in rows], [r.sigma2 for r in rows])


class TestClt:
    def test_stabilization_helper(self):
        assert stabilization_length((1, 2, 4), (1.0, 1.01, 0.99)) == 1
        assert stabilization_length((1, 2, 4, 8), (1.0, 2.0, 4.0, 4.1)) == 4
        assert stabilization_length((1, 2), (1.0, 2.0)) is None

    def test_stabilization_of_zero_levels(self):
        assert stabilization_length((1, 2, 4), (0.0, 0.0, 0.0)) == 1
        assert stabilization_length((1, 2, 4), (0.0, 1.0, 1.0)) == 2
        assert stabilization_length((1, 2, 4), (1.0, 0.0, 1.0)) is None

    def test_noiseless_sweep_is_stable_from_the_start(self, tmp_path):
        config = iid_config(tmp_path, process=IIDGaussian(covariate_dim=2, noise_std=0.0),
                            block_lens=(2, 4, 8))
        rows = clt_consistency(config)
        assert [r.sigma2 for r in rows] == [0.0, 0.0, 0.0]
        assert stable_from(rows) == 2

    def test_iid_stabilizes_immediately(self, tmp_path):
        config = iid_config(tmp_path, process=IIDGaussian(covariate_dim=1),
                            n_mc=3000, block_lens=(1, 2, 4, 8))
        rows = clt_consistency(config, out_path=tmp_path / "clt.csv")
        assert stable_from(rows) == 1
        lines = (tmp_path / "clt.csv").read_text().splitlines()
        assert lines[0] == "block_len,sigma2"

    def test_block_constant_stabilizes_at_its_length(self, tmp_path):
        config = iid_config(tmp_path, process=BlockConstant(16),
                            n_mc=2500, block_lens=(2, 4, 8, 16, 32, 64))
        stable = stable_from(clt_consistency(config))
        assert stable is not None and stable >= 16


class TestEvaluateBound:
    def test_main_form(self, tmp_path):
        config = iid_config(tmp_path, ns=(256,), tau=1)
        report = evaluate_bound(config)
        assert report.bound_value > 0
        assert len(report.checks) == 5

    def test_corollary_form(self, tmp_path):
        config = iid_config(tmp_path, ns=(256,), tau=2, bound_form="corollary")
        report = evaluate_bound(config)
        assert report.bound_value > 0
        assert len(report.checks) == 3
        assert report.check("mixing").holds

    def test_corollary_form_computes_one_profile(self, tmp_path, monkeypatch):
        config = iid_config(tmp_path, ns=(256,), tau=2, bound_form="corollary")
        calls = []

        def counted(spec, gaps):
            calls.append(list(gaps))
            return profile_from_spec(spec, gaps)

        monkeypatch.setattr(harness, "profile_from_spec", counted)
        evaluate_bound(config, out_path=tmp_path / "bound.csv")
        assert calls == [[2]]
        # The same report from its parts, written by the same writer.
        prob = population_optimum(config.process)
        partition = config.partition_for(256)
        spectrum = noise_spectrum(config.process, prob, partition, config.n_mc,
                                  derive_seed(config.seed, 256, harness.SPECTRUM_STREAM))
        want = corollary_bound(spectrum, config.delta, profile_from_spec(config.process, [2]),
                               config.constants)
        write_csv(tmp_path / "want.csv", want.csv_header(), [want.csv_row()])
        assert (tmp_path / "bound.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_corollary_rule_is_checked_before_the_spectrum(self, tmp_path, monkeypatch):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("spectrum estimated before the partition rule")

        monkeypatch.setattr(harness, "noise_spectrum", no_spectrum)
        config = iid_config(tmp_path, ns=(10_000,), tau=30, bound_form="corollary")
        with pytest.raises(ValueError, match=re.escape("[30, 31]")):
            evaluate_bound(config)

    def test_corollary_form_reports_at_the_partition_block_length(self, tmp_path):
        # tau = 30 at n = 100 gives the partition (50, 50): the spectrum's
        # blocks, and the block length the corollary reports at.
        config = iid_config(tmp_path, ns=(100,), tau=30, bound_form="corollary")
        assert config.partition_for(100).lengths == (50, 50)
        report = evaluate_bound(config)
        assert report.check("sample_size").value == 2.0  # n / 50
