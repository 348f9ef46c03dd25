"""Experiment configuration: a flat key-value text file with sections
[process], [fit], [partition], [experiment], [constants].

The format is INI (configparser) so configs stay diffable and
language-neutral.  Matrices are written as semicolon-separated rows of
comma-separated numbers.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

import numpy as np

from .blocking import BlockPartition, make_partition, uniform_partition
from .bounds import UniversalConstants
from .processes import SPEC_KINDS, ProcessSpec, default_warmup


def _parse_vector(raw: str) -> np.ndarray:
    return np.array([float(v) for v in raw.replace(";", ",").split(",") if v.strip()])


def _parse_matrix(raw: str) -> np.ndarray:
    rows = [r for r in raw.split(";") if r.strip()]
    return np.array([[float(v) for v in row.split(",") if v.strip()] for row in rows])


def _format_matrix(m: np.ndarray) -> str:
    return "; ".join(", ".join(f"{v:.17g}" for v in row) for row in np.atleast_2d(m))


def _format_vector(v) -> str:
    return ", ".join(f"{x:.17g}" for x in v)


# Spec field annotation -> (parse, format) of its [process] value.
_FIELD_CODECS = {
    "int": (int, str),
    "float": (float, lambda v: f"{v:.17g}"),
    "tuple[float, ...]": (lambda raw: tuple(_parse_vector(raw)), _format_vector),
    "np.ndarray": (_parse_matrix, _format_matrix),
    "np.ndarray | None": (lambda raw: _parse_matrix(raw) if raw.strip() else None,
                          _format_matrix),
}


def spec_from_section(sec) -> ProcessSpec:
    """Build the spec named by `kind` from its fields' values; omitted
    fields keep their defaults, and `warmup = auto` picks default_warmup."""
    kind = sec.get("kind", "").strip().lower()
    if kind not in SPEC_KINDS:
        raise ValueError(f"unknown process kind {kind!r}")
    values = {}
    for f in fields(SPEC_KINDS[kind]):
        if f.name not in sec:
            continue
        raw = sec[f.name]
        if f.name == "warmup" and raw.strip().lower() == "auto":
            values[f.name] = default_warmup(values["ar_coeffs"])
        else:
            values[f.name] = _FIELD_CODECS[f.type][0](raw)
    return SPEC_KINDS[kind](**values)


def spec_to_items(spec: ProcessSpec) -> dict[str, str]:
    items = {"kind": spec.kind}
    for f in fields(spec):
        items[f.name] = _FIELD_CODECS[f.type][1](getattr(spec, f.name))
    return items


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a harness run needs; parsed from one config file."""

    process: ProcessSpec
    fit_window: int
    ns: tuple[int, ...]
    delta: float
    trials: int
    seed: int
    constants: UniversalConstants = UniversalConstants()
    outputs: str = "."
    n_mc: int = 1000
    moment_s: float = 4.0
    tau: int | None = None
    m: int | None = None
    lengths: tuple[int, ...] | None = None
    block_lens: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    eps: float = 0.1
    eta: float = 0.1
    bound_form: str = "main"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.ns:
            raise ValueError("at least one sample size is required")
        if self.tau is None and self.m is None and self.lengths is None:
            object.__setattr__(self, "tau", 1)

    def partition_for(self, n: int) -> BlockPartition:
        """Resolve the partition rule at a given sample size: explicit
        lengths win, then a fixed block count m, then the block-length tau."""
        if self.lengths is not None:
            part = BlockPartition(self.lengths)
            if part.n != n:
                raise ValueError(f"explicit lengths cover {part.n} samples, need {n}")
            return part
        if self.m is not None:
            return make_partition(n, self.m)
        return uniform_partition(n, self.tau)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    if "process" not in parser:
        raise ValueError("config needs a [process] section")
    spec = spec_from_section(parser["process"])

    fit = parser["fit"] if "fit" in parser else {}
    window = int(fit.get("window", spec.covariate_dim))
    spec = spec.with_window(window)

    part = parser["partition"] if "partition" in parser else {}
    tau = int(part["tau"]) if "tau" in part else None
    m = int(part["m"]) if "m" in part else None
    lengths = tuple(int(v) for v in _parse_vector(part["lengths"])) if "lengths" in part else None

    exp = parser["experiment"] if "experiment" in parser else {}
    ns = tuple(int(v) for v in _parse_vector(exp.get("ns", exp.get("n", "1000"))))

    con = parser["constants"] if "constants" in parser else {}
    constants = UniversalConstants(**{f.name: float(con[f.name])
                                      for f in fields(UniversalConstants) if f.name in con})

    block_lens_raw = exp.get("block_lens", "")
    block_lens = tuple(int(v) for v in _parse_vector(block_lens_raw)) if block_lens_raw \
        else ExperimentConfig.__dataclass_fields__["block_lens"].default

    return ExperimentConfig(
        process=spec,
        fit_window=window,
        ns=ns,
        delta=float(exp.get("delta", 0.1)),
        trials=int(exp.get("trials", 100)),
        seed=int(exp.get("seed", 0)),
        constants=constants,
        outputs=exp.get("out", "."),
        n_mc=int(exp.get("n_mc", 1000)),
        moment_s=float(exp.get("s", 4.0)),
        tau=tau,
        m=m,
        lengths=lengths,
        block_lens=block_lens,
        eps=float(exp.get("eps", 0.1)),
        eta=float(exp.get("eta", 0.1)),
        bound_form=part.get("form", "main") if part else "main",
    )


def save_config(config: ExperimentConfig, path) -> None:
    parser = configparser.ConfigParser()
    parser["process"] = spec_to_items(config.process)
    parser["fit"] = {"window": str(config.fit_window)}
    part: dict[str, str] = {}
    if config.lengths is not None:
        part["lengths"] = ", ".join(str(v) for v in config.lengths)
    elif config.m is not None:
        part["m"] = str(config.m)
    elif config.tau is not None:
        part["tau"] = str(config.tau)
    if config.bound_form != "main":
        part["form"] = config.bound_form
    parser["partition"] = part
    parser["experiment"] = {
        "ns": ", ".join(str(v) for v in config.ns),
        "delta": f"{config.delta:.17g}",
        "trials": str(config.trials),
        "seed": str(config.seed),
        "n_mc": str(config.n_mc),
        "s": f"{config.moment_s:.17g}",
        "block_lens": ", ".join(str(v) for v in config.block_lens),
        "eps": f"{config.eps:.17g}",
        "eta": f"{config.eta:.17g}",
        "out": config.outputs,
    }
    c = config.constants
    parser["constants"] = {f.name: f"{getattr(c, f.name):.17g}" for f in fields(c)}
    with open(path, "w") as fh:
        parser.write(fh)
