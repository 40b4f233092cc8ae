"""Experiment configuration: strict parsing, defaults, round-tripping.

Configs are YAML with three nested sections (``problem``, ``optimizer``
and the run-level keys).  Parsing is strict: unknown keys are rejected
by name, invariants are enforced at parse time, and defaults follow the
reference hyperparameter table (alpha 0.001, betas 0.9/0.999, batch
128, r_u 5, r_l 0.005, SGDM lr 0.1, bounded-clipping alpha_star 0.1).
When ``rho`` is omitted it is derived from the horizon so that
rho**T = 1e-8.
"""

import copy
import hashlib
import math
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence, Tuple

import yaml

from .errors import ConfigError, DomainError
from .schedule import BETA1_KINDS, BOUND_KINDS, RHO_KINDS, TransitionSchedule

PROBLEM_KINDS = ("quadratic", "reddi", "logistic", "mlp")
OPTIMIZER_KINDS = ("sgdm", "adam", "amsgrad", "adabound", "generic", "dstadam")


def _check_positive(path: str, value: float, zero_ok: bool = False):
    """Reject a value that is not a finite number > 0 (>= 0 with
    ``zero_ok``), NaN included."""
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if value < 0.0 or value == 0.0 and not zero_ok:
        raise ConfigError(
            f"{path}: must be {'>=' if zero_ok else '>'} 0, got {value}")


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
        if self.seed < 0:
            raise ConfigError(f"problem.seed: must be >= 0, got {self.seed}")
        if self.box_halfwidth is not None:
            _check_positive("problem.box_halfwidth", self.box_halfwidth)
        if not math.isfinite(self.c):
            raise ConfigError(f"problem.c: must be finite, got {self.c}")
        if self.kind == "reddi" and not self.c > 1.0:
            raise ConfigError(
                f"problem.c: must be > 1 for the reddi cycle, got {self.c}")
        for name in ("dim", "n_samples", "n_train", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"problem.{name}: must be >= 1, "
                                  f"got {getattr(self, name)}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError("problem.hidden: must be widths >= 1, "
                              f"got {list(self.hidden)}")


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
        for name in ("r_l", "r_u"):
            _check_positive(f"optimizer.schedule.{name}", getattr(self, name))
        if not 0.0 < self.r_l <= self.r_u:
            raise ConfigError(
                "optimizer.schedule: need 0 < r_l <= r_u, got "
                f"r_l={self.r_l}, r_u={self.r_u}"
            )
        if self.beta1_kind not in BETA1_KINDS:
            raise ConfigError(
                f"optimizer.schedule.beta1_kind: unknown kind {self.beta1_kind!r}"
            )
        # rho, rho_sequence and beta1_decay by the schedule's own checks;
        # the build checks the sequence's length against the run's horizon
        try:
            TransitionSchedule(horizon=len(self.rho_sequence or ()) or 1,
                               **vars(self))
        except DomainError as exc:
            raise ConfigError(f"optimizer.schedule: {exc}") from exc


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
        _check_positive("optimizer.bounds.alpha_star", self.alpha_star)
        if self.gamma is not None:
            _check_positive("optimizer.bounds.gamma", self.gamma)


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
        _check_positive("optimizer.alpha", self.alpha)
        _check_positive("optimizer.epsilon", self.epsilon, zero_ok=True)
        _check_positive("optimizer.lr", self.lr)
        for name in ("beta1", "beta2", "momentum"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(
                    f"optimizer.{name}: must lie in [0, 1), got {value}"
                )
        if (self.kind == "generic" and self.bounds.kind == "adadb"
                and self.bounds.gamma is None):
            raise ConfigError("optimizer.bounds.gamma: the adadb bounds "
                              "need a gamma > 0")
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
        # the run directory is <name>-<hash> inside the output root
        if self.name is not None and (self.name in (".", "..")
                                      or "/" in self.name):
            raise ConfigError("name: must be a file name, not a path, got "
                              f"{self.name!r}")


#: libyaml's loader and dumper when pyyaml was built with it; they read
#: and write the same documents as the pure-Python classes, faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

def _field_types(cls) -> dict:
    """Each field's type with ``Optional`` dropped: float, int, bool,
    tuple, str or a section's dataclass."""
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        if typing.get_origin(hint) is typing.Union:
            hint, = (a for a in typing.get_args(hint) if a is not type(None))
        types[name] = typing.get_origin(hint) or hint
    return types


_FIELD_TYPES = {cls: _field_types(cls) for cls in
                (ExperimentConfig, ProblemSpec, OptimizerSpec, ScheduleSpec,
                 BoundsSpec)}


def reset_values(cfg, names: Sequence[str] = ()):
    """``cfg`` with every float and bool field of every section, and each
    field named in ``names``, back at its dataclass default.  The result
    is a key, not a config: the sections' checks do not run on it."""
    out = copy.copy(cfg)
    for f in fields(cfg):
        kind = _FIELD_TYPES[type(cfg)][f.name]
        if kind in _FIELD_TYPES:
            value = reset_values(getattr(cfg, f.name), names)
        elif kind in (float, bool) or f.name in names:
            value = f.default
        else:
            continue
        object.__setattr__(out, f.name, value)
    return out


def _coerce(kind: type, value, path: str):
    """``value`` as a field of type ``kind``.  YAML 1.1 reads "1.0e18" as
    a string, so numeric fields coerce explicitly instead of trusting the
    loader."""
    if value is None:
        return None
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        return tuple(value)
    try:
        if kind is float:
            return float(value)
        if kind is int:
            as_float = float(value)
            if as_float != int(as_float):
                raise ValueError("not an integer")
            return int(as_float)
        if kind is bool:
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
    types = _FIELD_TYPES[cls]
    kwargs = {}
    for key, value in data.items():
        child = f"{path}.{key}" if path else key
        if key not in types:
            raise ConfigError(f"{child}: unknown key")
        if types[key] in _FIELD_TYPES:
            kwargs[key] = _build(types[key], value, child)
        else:
            kwargs[key] = _coerce(types[key], value, child)
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
                   stride: Optional[int] = None) -> ExperimentConfig:
    """Functional update used by the CLI flags."""
    changes = {}
    if seed is not None:
        changes["problem"] = replace(cfg.problem, seed=seed)
    if stride is not None:
        changes["stride"] = stride
    return replace(cfg, **changes) if changes else cfg
