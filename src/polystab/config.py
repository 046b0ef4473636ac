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
        "viscosity": bool (true), "damping": bool (true),
        "solve_tol": float (1e-13)        # identity audit: 10 * solve_tol * E0
      },
      "init": {
        "kind": "single_mode" | "random" | "cluster_pair" | "highpass",
        "mode": int (0), "pair": int (0), "seed": int (0),
        "cutoff": float | null
      },
      "study": {
        "beta": float (0.0), "delta": float (1.0), "trials": int (200),
        "seed": int (0), "t_star": float | null, "T": float | null,
        "fit_window": [lo, hi] | null, "sigma": float | null,
        "J": int | null, "gamma": float | null,
        "uniformity_factor": float (4.0), "exponent_floor": float (0.7),
        "synthetic_exponent": float | null
      },
      "output": {"prefix": str ("run")}
    }

Unknown keys are rejected so typos fail loudly.  ``parse -> serialize ->
parse`` is the identity.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .modal import ModalState, ModalSystem
from .spectra import (
    ExampleParams,
    build_boundary_coupled_waves,
    build_coupled_waves,
    check_gap,
    cluster_partition,
)

_SYSTEM_TYPES = ("coupled_waves", "boundary_coupled_waves", "custom")
_INIT_KINDS = ("single_mode", "random", "cluster_pair", "highpass")


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
    solve_tol: float = 1e-13


@dataclass
class InitBlock:
    kind: str = "random"
    mode: int = 0
    pair: int = 0
    seed: int = 0
    cutoff: float | None = None


@dataclass
class StudyBlock:
    beta: float = 0.0
    delta: float = 1.0
    trials: int = 200
    seed: int = 0
    t_star: float | None = None
    T: float | None = None
    fit_window: list | None = None
    sigma: float | None = None
    J: int | None = None
    gamma: float | None = None
    uniformity_factor: float = 4.0
    exponent_floor: float = 0.7
    synthetic_exponent: float | None = None


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

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        blocks = {
            "system": SystemBlock,
            "scheme": SchemeBlock,
            "init": InitBlock,
            "study": StudyBlock,
            "output": OutputBlock,
        }
        unknown = set(data) - set(blocks)
        if unknown:
            raise ConfigError(f"unknown config blocks: {sorted(unknown)}")
        kwargs = {}
        for name, block_cls in blocks.items():
            payload = data.get(name, {})
            if not isinstance(payload, dict):
                raise ConfigError(f"block {name!r} must be an object")
            fields = {f.name for f in dataclasses.fields(block_cls)}
            bad = set(payload) - fields
            if bad:
                raise ConfigError(f"unknown keys in block {name!r}: {sorted(bad)}")
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
        if sch.dt is None and sch.dt_list is None:
            raise ConfigError("scheme needs dt or dt_list")
        if sch.dt_list is not None and len(sch.dt_list) == 0:
            raise ConfigError("scheme.dt_list must be nonempty")
        if self.study.fit_window is not None and len(self.study.fit_window) != 2:
            raise ConfigError("study.fit_window must be [lo, hi]")
        if self.init.kind not in _INIT_KINDS:
            raise ConfigError(f"init.kind must be one of {_INIT_KINDS}")
        check_seed("init.seed", self.init.seed)
        check_seed("study.seed", self.study.seed)


def check_seed(name: str, seed) -> None:
    """Raise ConfigError unless ``seed`` is a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer; got {seed!r}")


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
    try:
        return ExperimentConfig.from_dict(data)
    except TypeError as exc:  # wrong-typed block field
        raise ConfigError(str(exc)) from exc


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


def build_init(block: InitBlock, sys: ModalSystem, seed: int | None = None) -> ModalState:
    """Instantiate the configured initial state (seed may be overridden)."""
    n = sys.n
    use_seed = block.seed if seed is None else seed
    if block.kind == "single_mode":
        if not (0 <= block.mode < n):
            raise ConfigError(f"init.mode {block.mode} out of range [0, {n})")
        a = np.zeros(n)
        a[block.mode] = 1.0
        return ModalState(a, np.zeros(n))
    if block.kind == "random":
        rng = np.random.default_rng(use_seed)
        return ModalState(rng.standard_normal(n), rng.standard_normal(n))
    if block.kind == "cluster_pair":
        gamma1 = check_gap(sys).gamma1
        pairs = [c for c in cluster_partition(sys.mu, gamma1) if len(c) == 2]
        if not pairs:
            raise ConfigError("system has no 2-clusters for init.kind=cluster_pair")
        if not (0 <= block.pair < len(pairs)):
            raise ConfigError(f"init.pair {block.pair} out of range [0, {len(pairs)})")
        i, j = pairs[block.pair]
        a = np.zeros(n)
        a[i] = a[j] = 1.0
        return ModalState(a, np.zeros(n))
    # highpass
    if block.cutoff is None:
        raise ConfigError("init.kind=highpass needs init.cutoff")
    rng = np.random.default_rng(use_seed)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    low = sys.mu <= block.cutoff
    a[low] = 0.0
    b[low] = 0.0
    if not np.any(~low):
        raise ConfigError("init.cutoff leaves no modes above it")
    return ModalState(a, b)
