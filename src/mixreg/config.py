"""Experiment configuration: a flat key-value text file with sections
[process], [fit], [partition], [experiment], [constants].

The format is INI (configparser) so configs stay diffable and
language-neutral.  Values are read and written verbatim (no `%`
interpolation).  Matrices are written as semicolon-separated rows of
comma-separated numbers.  Every key is a dataclass field: the process
spec's, UniversalConstants' or ExperimentConfig's, read and written by one
codec, so a section or key that no field declares is an error.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .blocking import BlockPartition, make_partition, uniform_partition
from .bounds import BOUND_FORMS, UniversalConstants
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


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.replace(";", ",").split(",") if v.strip())


def _format_ints(v) -> str:
    return ", ".join(str(x) for x in v)


# Field annotation -> (parse, format) of its config value.
_FIELD_CODECS = {
    "int": (int, str),
    "int | None": (int, str),
    "float": (float, lambda v: f"{v:.17g}"),
    "str": (str, str),
    "tuple[int, ...]": (_parse_ints, _format_ints),
    "tuple[int, ...] | None": (_parse_ints, _format_ints),
    "tuple[float, ...]": (lambda raw: tuple(_parse_vector(raw)), _format_vector),
    "np.ndarray": (_parse_matrix, _format_matrix),
    "np.ndarray | None": (lambda raw: _parse_matrix(raw) if raw.strip() else None,
                          _format_matrix),
}


def _check_keys(name: str, section, known) -> None:
    """Reject a section nothing declares (known is None) or a key in it
    that no field declares."""
    unknown = sorted(set(section) - set(known or ()))
    if known is None or unknown:
        raise ValueError(f"unknown config section or key: [{name}] {unknown}")


def _parse(kind: str, name: str, key: str, sec):
    """Parse a value of annotation `kind`, naming its [section] and key if it
    fails or holds a nan or infinite number."""
    try:
        value = _FIELD_CODECS[kind][0](sec[key])
        if np.asarray(value).dtype.kind == "f" and not np.isfinite(value).all():
            raise ValueError(f"{sec[key].strip()!r} is not finite")
        return value
    except ValueError as exc:
        raise ValueError(f"[{name}] {key}: {exc}") from exc


def _values(cls, name: str, sec) -> dict:
    """Parsed values of the fields of `cls` that the section sets; a field
    with no default must be set."""
    missing = [f.name for f in fields(cls) if f.name not in sec
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"[{name}] {', '.join(missing)}: required key missing")
    return {f.name: _parse(f.type, name, f.name, sec) for f in fields(cls) if f.name in sec}


def _items(obj) -> dict[str, str]:
    return {f.name: _FIELD_CODECS[f.type][1](getattr(obj, f.name)) for f in fields(obj)}


def spec_from_section(sec) -> ProcessSpec:
    """Build the spec named by `kind` from its fields' values; omitted
    fields keep their defaults, and `warmup = auto` picks default_warmup."""
    kind = sec.get("kind", "").strip().lower()
    if kind not in SPEC_KINDS:
        raise ValueError(f"unknown process kind {kind!r}")
    cls = SPEC_KINDS[kind]
    _check_keys("process", sec, ["kind", *(f.name for f in fields(cls))])
    raw = dict(sec)
    if raw.get("warmup", "").strip().lower() != "auto":
        return cls(**_values(cls, "process", raw))
    del raw["warmup"]
    values = _values(cls, "process", raw)
    return cls(**values, warmup=default_warmup(values["ar_coeffs"]))


def spec_to_items(spec: ProcessSpec) -> dict[str, str]:
    return {"kind": spec.kind, **_items(spec)}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a harness run needs; parsed from one config file.  These
    defaults are the config file's defaults.  The process spec owns the
    regression window (its covariate_dim)."""

    process: ProcessSpec
    ns: tuple[int, ...] = (1000,)
    delta: float = 0.1
    trials: int = 100
    seed: int = 0
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
        # eps and eta take the domain that noise_term_threshold enforces, s
        # the one noise_spectrum enforces; a nan fails each comparison.
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"[experiment] eps must be positive and finite, got {self.eps}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"[experiment] eta must lie in (0, 1], got {self.eta}")
        if not 2.0 <= self.moment_s < math.inf:
            raise ValueError(f"[experiment] s must be >= 2 and finite, got {self.moment_s}")
        if self.bound_form not in BOUND_FORMS:
            raise ValueError(f"[partition] form must be {' or '.join(BOUND_FORMS)}, "
                             f"got {self.bound_form!r}")
        rules = [key for key in ("tau", "m", "lengths") if getattr(self, key) is not None]
        if len(rules) > 1:
            raise ValueError("[partition] takes only one of tau, m and lengths, "
                             f"got {', '.join(rules)}")
        if not rules:
            object.__setattr__(self, "tau", 1)

    def partition_for(self, n: int) -> BlockPartition:
        """Resolve the partition rule at a given sample size: explicit
        lengths, a fixed block count m, or the block length tau."""
        if self.lengths is not None:
            part = BlockPartition(self.lengths)
            if part.n != n:
                raise ValueError(f"explicit lengths cover {part.n} samples, need {n}")
            return part
        if self.m is not None:
            return make_partition(n, self.m)
        return uniform_partition(n, self.tau)


# [section] key of each ExperimentConfig field that is not the [experiment]
# key of its own name; `process` and `constants` are sections of their own.
_RENAMED = {"tau": ("partition", "tau"),
            "m": ("partition", "m"), "lengths": ("partition", "lengths"),
            "bound_form": ("partition", "form"), "moment_s": ("experiment", "s"),
            "outputs": ("experiment", "out")}


def _places() -> list:
    """(field, section, key) of every ExperimentConfig field stored as a key."""
    return [(f, *_RENAMED.get(f.name, ("experiment", f.name)))
            for f in fields(ExperimentConfig) if f.name not in ("process", "constants")]


def load_config(path) -> ExperimentConfig:
    """Read a config file.  A key it omits keeps its field's default, and
    `[fit] window` sets the process spec's window (see `with_window`); a
    `[process] covariate_dim` that names another window is an error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise ValueError(f"cannot read config file {path}")
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from exc
    if "process" not in sections:
        raise ValueError("config needs a [process] section")
    spec = spec_from_section(sections["process"])  # checks the [process] keys
    known = {"process": sections["process"], "fit": ["window"],
             "constants": [f.name for f in fields(UniversalConstants)]}
    values = {}
    for f, name, key in _places():
        known.setdefault(name, []).append(key)
        if key in sections.get(name, {}):
            values[f.name] = _parse(f.type, name, key, sections[name])
    for name, sec in sections.items():
        _check_keys(name, sec, known.get(name))
    constants = _values(UniversalConstants, "constants", sections.get("constants", {}))
    if "window" in sections.get("fit", {}):
        window = _parse("int", "fit", "window", sections["fit"])
        if "covariate_dim" in sections["process"] and window != spec.covariate_dim:
            raise ValueError(f"[process] covariate_dim = {sections['process']['covariate_dim']} "
                             f"and [fit] window = {window} set two regression windows")
        spec = spec.with_window(window)
    return ExperimentConfig(process=spec, constants=UniversalConstants(**constants), **values)


def save_config(config: ExperimentConfig, path) -> None:
    """Write every field, and the spec's window as `[fit] window`; a
    partition rule left as None is left out."""
    items = {"process": spec_to_items(config.process),
             "fit": {"window": str(config.process.covariate_dim)}}
    for f, name, key in _places():
        value = getattr(config, f.name)
        if value is not None:
            items.setdefault(name, {})[key] = _FIELD_CODECS[f.type][1](value)
    items["constants"] = _items(config.constants)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(items)
    with open(path, "w") as fh:
        parser.write(fh)
