"""Experiment configuration: strict parsing, defaults, round-tripping.

Configs are YAML with three nested sections (``problem``, ``optimizer``
and the run-level keys).  Parsing is strict: unknown keys are rejected
by name, invariants are enforced at parse time, and defaults follow the
reference hyperparameter table (alpha 0.001, betas 0.9/0.999, batch
128, r_u 5, r_l 0.005, SGDM lr 0.1, bounded-clipping alpha_star 0.1).
When ``rho`` is omitted it is derived from the horizon so that
rho**T = 1e-8.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Tuple

import yaml

from .errors import ConfigError
from .schedule import BETA1_KINDS, BOUND_KINDS, RHO_KINDS

PROBLEM_KINDS = ("quadratic", "reddi", "logistic", "mlp")
OPTIMIZER_KINDS = ("sgdm", "adam", "amsgrad", "adabound", "generic", "dstadam")


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "quadratic"
    seed: int = 1
    dim: int = 10
    box_halfwidth: Optional[float] = None  # per-kind default when omitted
    c: float = 3.0                      # reddi slope
    n_samples: int = 200                # logistic
    hidden: Tuple[int, ...] = (16, 16)  # mlp
    n_train: int = 512                  # mlp
    n_test: int = 256                   # mlp

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class ScheduleSpec:
    rho_kind: str = "exponential"
    rho: Optional[float] = None
    rho_sequence: Optional[Tuple[float, ...]] = None
    r_l: float = 0.005
    r_u: float = 5.0
    beta1_kind: str = "constant"
    beta1_decay: Optional[float] = None

    def __post_init__(self):
        if self.rho_kind not in RHO_KINDS:
            raise ConfigError(
                f"optimizer.schedule.rho_kind: unknown kind {self.rho_kind!r}"
            )
        if not 0.0 < self.r_l <= self.r_u:
            raise ConfigError(
                "optimizer.schedule: need 0 < r_l <= r_u, got "
                f"r_l={self.r_l}, r_u={self.r_u}"
            )
        if self.beta1_kind not in BETA1_KINDS:
            raise ConfigError(
                f"optimizer.schedule.beta1_kind: unknown kind {self.beta1_kind!r}"
            )


@dataclass(frozen=True)
class BoundsSpec:
    kind: str = "adabound"
    alpha_star: float = 0.1
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ConfigError(
                f"optimizer.bounds.kind: unknown kind {self.kind!r}"
            )
        if self.alpha_star <= 0.0:
            raise ConfigError(
                f"optimizer.bounds.alpha_star: must be > 0, got {self.alpha_star}"
            )


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "dstadam"
    alpha: float = 0.001
    epsilon: float = 1e-8
    bias_correction: Optional[bool] = None  # None: on for adam/amsgrad, off otherwise
    sqrt_decay: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    lr: float = 0.1                      # sgdm
    momentum: float = 0.9                # sgdm
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    bounds: BoundsSpec = field(default_factory=BoundsSpec)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"optimizer.kind: unknown kind {self.kind!r}")
        if self.alpha <= 0.0:
            raise ConfigError(f"optimizer.alpha: must be > 0, got {self.alpha}")
        if self.epsilon < 0.0:
            raise ConfigError(
                f"optimizer.epsilon: must be >= 0, got {self.epsilon}"
            )
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(
                    f"optimizer.{name}: must lie in [0, 1), got {value}"
                )
        if self.sqrt_decay and self.kind in ("adam", "amsgrad", "sgdm"):
            raise ConfigError(
                f"optimizer.sqrt_decay: the {self.kind} baseline has no "
                "sqrt(t) decay; only dstadam, adabound and generic take it"
            )

    @property
    def bias_correction_effective(self) -> bool:
        if self.bias_correction is None:
            return self.kind in ("adam", "amsgrad")
        return self.bias_correction


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    horizon: Optional[int] = None
    epochs: Optional[int] = None
    batch_size: int = 128
    out_dir: str = "runs"
    stride: int = 1
    repeats: int = 1
    name: Optional[str] = None

    def __post_init__(self):
        if self.horizon is None and self.epochs is None:
            raise ConfigError("horizon: either horizon or epochs is required")
        if self.horizon is not None and self.epochs is not None:
            raise ConfigError("horizon: give horizon or epochs, not both")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon}")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if self.epochs is not None and self.problem.kind in ("quadratic", "reddi"):
            raise ConfigError(
                f"epochs: {self.problem.kind} has no dataset; give horizon"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.stride < 1:
            raise ConfigError(f"stride: must be >= 1, got {self.stride}")
        if self.repeats < 1:
            raise ConfigError(f"repeats: must be >= 1, got {self.repeats}")


#: libyaml's loader and dumper when pyyaml was built with it; they read
#: and write the same documents as the pure-Python classes, faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_SECTION_FIELDS = {
    "problem": ProblemSpec,
    "optimizer": OptimizerSpec,
    "schedule": ScheduleSpec,
    "bounds": BoundsSpec,
}

# What each leaf key must parse as.  YAML 1.1 reads "1.0e18" as a string,
# so numeric fields coerce explicitly instead of trusting the loader.
_FLOAT_KEYS = {"box_halfwidth", "c", "rho", "r_l", "r_u", "beta1_decay",
               "alpha_star", "gamma", "alpha", "epsilon", "beta1", "beta2",
               "lr", "momentum"}
_INT_KEYS = {"seed", "dim", "n_samples", "n_train", "n_test", "horizon",
             "epochs", "batch_size", "stride", "repeats"}
_BOOL_KEYS = {"bias_correction", "sqrt_decay"}


def _coerce(key: str, value, path: str):
    if value is None:
        return None
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            as_float = float(value)
            if as_float != int(as_float):
                raise ValueError("not an integer")
            return int(as_float)
        if key in _BOOL_KEYS:
            if isinstance(value, bool):
                return value
            if value in ("true", "false"):
                return value == "true"
            raise ValueError("not a boolean")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad value {value!r} ({exc})") from exc
    return value


def _build(cls, data: dict, path: str):
    """``cls`` from the mapping at ``path``; the root's path is ""."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    allowed = {f.name for f in cls.__dataclass_fields__.values()}
    kwargs = {}
    for key, value in data.items():
        child = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"{child}: unknown key")
        if key in _SECTION_FIELDS:
            kwargs[key] = _build(_SECTION_FIELDS[key], value, child)
        elif key in ("hidden", "rho_sequence") and value is not None:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{child}: expected a list")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = _coerce(key, value, child)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return _build(ExperimentConfig, data, "")


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML text; parse(serialize(cfg)) == cfg."""
    data = _plain(asdict(cfg))
    return yaml.dump(data, Dumper=_DUMPER, sort_keys=True,
                     default_flow_style=False)


def config_hash(cfg: ExperimentConfig, text: Optional[str] = None) -> str:
    """Stable short id for output directories.

    ``text`` is ``serialize_config(cfg)`` when the caller already has it.
    """
    if text is None:
        text = serialize_config(cfg)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def with_overrides(cfg: ExperimentConfig, *, seed: Optional[int] = None,
                   out_dir: Optional[str] = None,
                   stride: Optional[int] = None) -> ExperimentConfig:
    """Functional update used by the CLI flags."""
    changes = {}
    if seed is not None:
        changes["problem"] = replace(cfg.problem, seed=seed)
    if out_dir is not None:
        changes["out_dir"] = out_dir
    if stride is not None:
        changes["stride"] = stride
    return replace(cfg, **changes) if changes else cfg
