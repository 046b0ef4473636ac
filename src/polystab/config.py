"""Experiment configuration: a JSON file with five blocks.

Schema (all blocks optional except ``system``; defaults in parentheses):

    {
      "system": {
        "type": "coupled_waves" | "boundary_coupled_waves" | "custom",
        "alpha": float (0.5), "gamma": float (1.0), "k_max": int (16),
        "eta": [..], "damp_gram": [[..]]        # custom systems only
      },
      "scheme": {
        "dt": float | null, "dt_list": [..] | null, "t_final": float (10.0),
        "viscosity": bool (true), "damping": bool (true)
      },
      "init": {
        "kind": "single_mode" | "random" | "cluster_pair" | "highpass",
        "mode": int (0), "pair": int (0), "seed": int (0)
      },
      "study": {
        "beta": float (0.0), "delta": float (1.0), "trials": int (200),
        "seed": int (0), "t_star": float | null
      },
      "output": {"prefix": str ("run")}
    }

A config sets exactly one of ``scheme.dt`` and ``scheme.dt_list``; the
subcommands that take one time step read its first entry.  A ``highpass``
init is the seeded ``random`` draw with the low-pass modes of
``spectra.filtering_cutoff(sys, dt, study.delta)`` zeroed, ``dt`` being that
first step: every low/high split has this one source.
``scheme.t_final`` is the horizon of both stepping subcommands, ``trace``
and ``decay``.  Unknown keys are rejected so typos fail loudly, as is a
value whose type does not fit its field (a bool is no number), an int
field's value that is no integer of at least 1 (at least 0 for ``mode``,
``pair`` and the seeds), or a float field's value that is not finite,
whether or not the subcommand reads it.  No key moves a pass/fail
verdict: its thresholds (``schemes.AUDIT_RTOL``,
``diagnostics.UNIFORMITY_FACTOR`` and ``EXPONENT_FLOOR``) are constants and
the decay fit window is always ``(T*/2, scheme.t_final)``.
``parse -> serialize -> parse`` is the identity.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_int
from .modal import ModalState, ModalSystem
from .spectra import (
    ExampleParams,
    build_boundary_coupled_waves,
    build_coupled_waves,
    check_gap,
    cluster_partition,
    filtering_cutoff,
)

_SYSTEM_TYPES = ("coupled_waves", "boundary_coupled_waves", "custom")
_INIT_KINDS = ("single_mode", "random", "cluster_pair", "highpass")
_NON_NEGATIVE = ("mode", "pair", "seed")  # the int fields that may be 0


def _fits(value, kinds: tuple) -> bool:
    """Whether a config value fits a field annotated with the types ``kinds``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return int in kinds or float in kinds
    return isinstance(value, tuple(k for k in kinds if k not in (int, float)))


@dataclass
class SystemBlock:
    type: str = "coupled_waves"
    alpha: float = 0.5
    gamma: float = 1.0
    k_max: int = 16
    eta: list | None = None
    damp_gram: list | None = None


@dataclass
class SchemeBlock:
    dt: float | None = None
    dt_list: list | None = None
    t_final: float = 10.0
    viscosity: bool = True
    damping: bool = True


@dataclass
class InitBlock:
    kind: str = "random"
    mode: int = 0
    pair: int = 0
    seed: int = 0


@dataclass
class StudyBlock:
    beta: float = 0.0
    delta: float = 1.0
    trials: int = 200
    seed: int = 0
    t_star: float | None = None


@dataclass
class OutputBlock:
    prefix: str = "run"


@dataclass
class ExperimentConfig:
    system: SystemBlock = field(default_factory=SystemBlock)
    scheme: SchemeBlock = field(default_factory=SchemeBlock)
    init: InitBlock = field(default_factory=InitBlock)
    study: StudyBlock = field(default_factory=StudyBlock)
    output: OutputBlock = field(default_factory=OutputBlock)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def time_steps(self) -> list:
        """The configured time steps: ``scheme.dt_list``, or ``[scheme.dt]``."""
        return [self.scheme.dt] if self.scheme.dt_list is None else list(self.scheme.dt_list)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        unknown = set(data) - set(_BLOCKS)
        if unknown:
            raise ConfigError(f"unknown config blocks: {sorted(unknown)}")
        kwargs = {}
        for name, (block_cls, hints) in _BLOCKS.items():
            payload = data.get(name, {})
            if not isinstance(payload, dict):
                raise ConfigError(f"block {name!r} must be an object")
            bad = set(payload) - set(hints)
            if bad:
                raise ConfigError(f"unknown keys in block {name!r}: {sorted(bad)}")
            for key, value in payload.items():
                hint = hints[key]
                if not _fits(value, typing.get_args(hint) or (hint,)):
                    what = getattr(hint, "__name__", hint)  # float, or float | None
                    raise ConfigError(f"{name}.{key} must be {what}; got {value!r}")
            kwargs[name] = block_cls(**payload)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        sys_b, sch = self.system, self.scheme
        if sys_b.type not in _SYSTEM_TYPES:
            raise ConfigError(f"system.type must be one of {_SYSTEM_TYPES}")
        if sys_b.type == "custom" and sys_b.eta is None:
            raise ConfigError("custom systems need system.eta")
        if (sch.dt is None) == (sch.dt_list is None):
            raise ConfigError("scheme needs exactly one of dt and dt_list")
        if sch.dt_list is not None and len(sch.dt_list) == 0:
            raise ConfigError("scheme.dt_list must be nonempty")
        if self.init.kind not in _INIT_KINDS:
            raise ConfigError(f"init.kind must be one of {_INIT_KINDS}")
        for name, (_, hints) in _BLOCKS.items():  # every number field, read or not
            for key, hint in hints.items():
                value, kinds = getattr(getattr(self, name), key), typing.get_args(hint) or (hint,)
                if int in kinds and value is not None:
                    check_int(f"{name}.{key}", value, 0 if key in _NON_NEGATIVE else 1,
                              ConfigError)
                if float in kinds and value is not None and not -math.inf < value < math.inf:
                    raise ConfigError(f"{name}.{key} must be finite; got {value!r}")


# each block's class and its field types, resolved once
_BLOCKS = {name: (block_cls, typing.get_type_hints(block_cls))
           for name, block_cls in typing.get_type_hints(ExperimentConfig).items()}


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig.from_dict(data)


def build_system(block: SystemBlock) -> ModalSystem:
    """Instantiate the configured modal system."""
    if block.type == "coupled_waves":
        return build_coupled_waves(ExampleParams(block.alpha, block.gamma, block.k_max))
    if block.type == "boundary_coupled_waves":
        return build_boundary_coupled_waves(
            ExampleParams(block.alpha, block.gamma, block.k_max)
        )
    try:
        return ModalSystem.from_eta(np.asarray(block.eta, dtype=float),
                                    damp_gram=block.damp_gram)
    except Exception as exc:
        raise ConfigError(f"invalid custom system: {exc}") from exc


def build_init(cfg: ExperimentConfig, sys: ModalSystem, seed: int | None = None) -> ModalState:
    """Instantiate the configured initial state ``cfg.init`` (seed may be
    overridden); a ``highpass`` init splits at ``cfg``'s first time step and
    ``study.delta``."""
    block, n = cfg.init, sys.n
    use_seed = block.seed if seed is None else seed
    if block.kind == "single_mode":
        if not (type(block.mode) is int and 0 <= block.mode < n):  # no bool, no float
            raise ConfigError(f"init.mode must be an integer in [0, {n}); got {block.mode!r}")
        a = np.zeros(n)
        a[block.mode] = 1.0
        return ModalState(a, np.zeros(n))
    if block.kind == "cluster_pair":
        gamma1 = check_gap(sys).gamma1
        pairs = [c for c in cluster_partition(sys.mu, gamma1) if len(c) == 2]
        if not pairs:
            raise ConfigError("system has no 2-clusters for init.kind=cluster_pair")
        if not (type(block.pair) is int and 0 <= block.pair < len(pairs)):
            raise ConfigError(
                f"init.pair must be an integer in [0, {len(pairs)}); got {block.pair!r}")
        i, j = pairs[block.pair]
        a = np.zeros(n)
        a[i] = a[j] = 1.0
        return ModalState(a, np.zeros(n))
    rng = np.random.default_rng(use_seed)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    if block.kind == "highpass":  # the draw above the low-pass modes
        low = filtering_cutoff(sys, cfg.time_steps()[0], cfg.study.delta).retained
        if low.size == n:
            raise ConfigError("init.kind=highpass leaves no mode above study.delta / dt")
        a[low] = b[low] = 0.0
    return ModalState(a, b)
