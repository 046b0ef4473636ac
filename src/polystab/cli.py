"""Command-line experiment runner with bit-stable CSV/JSON outputs.

Subcommands: ``trace``, ``decay``, ``observability``, ``spectrum``,
``ingham``.  Global flags: ``--config <path>`` (JSON, see config module),
``--out <dir>``, ``--seed <int>`` (overrides the config seeds).

Exit codes: 0 success, 1 I/O failure, 2 config error, 3 numerical
diagnostic failure (energy-identity violation, non-finite states).

Outputs are written atomically (unique temp file + rename).  CSV floats carry 17
significant digits; JSON uses sorted keys and shortest round-trip floats,
so identical config + seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys as _sys

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_init, build_system, check_seed, load_config
from .diagnostics import (
    decay_fit,
    observability_constant_study,
    synthetic_trace,
    uniform_decay_study,
)
from .errors import ConfigError, DiagnosticFailure, NonFiniteStateError, PolystabError
from .ingham import InghamConfig, estimate_clustered, estimate_scalar, ingham_ratio_scalar
from .schemes import SchemeConfig, factorize
from .spectra import audit_spectrum, boundary_fixedpoint_residuals, ExampleParams

TRACE_HEADER = "k,t,E,E_weak,damp_term,visc1,visc2,identity_residual"


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


def _atomic_write(path: str, text: str) -> None:
    # a fresh random name per call (created exclusively, so it respects the
    # umask unlike mkstemp's 0600) keeps concurrent runs from colliding
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _scheme_dt(cfg: ExperimentConfig) -> float:
    if cfg.scheme.dt is not None:
        return cfg.scheme.dt
    return cfg.scheme.dt_list[0]


def _dt_list(cfg: ExperimentConfig) -> list:
    if cfg.scheme.dt_list is not None:
        return list(cfg.scheme.dt_list)
    return [cfg.scheme.dt]


# -- subcommands -----------------------------------------------------------


def cmd_trace(cfg: ExperimentConfig, out: str, seed) -> int:
    sys_ = build_system(cfg.system)
    z0 = build_init(cfg.init, sys_, seed)
    scheme = SchemeConfig(
        dt=_scheme_dt(cfg),
        t_final=cfg.scheme.t_final,
        viscosity=cfg.scheme.viscosity,
        damping=cfg.scheme.damping,
        solve_tol=cfg.scheme.solve_tol,
    )
    trace = factorize(sys_, scheme).run(z0, beta=cfg.study.beta)

    # step terms padded with zeros to one entry per state (the final row)
    n_rows = trace.t.shape[0]
    terms = [np.pad(v, (0, n_rows - v.shape[0]))
             for v in (trace.damp, trace.visc1, trace.visc2, trace.identity_residual)]
    row = "{}" + ",{:.17g}" * 7
    cols = (c.tolist() for c in [trace.t, trace.energy, trace.weak_sq, *terms])
    lines = [TRACE_HEADER] + [row.format(k, *vals) for k, vals in enumerate(zip(*cols))]
    prefix = os.path.join(out, cfg.output.prefix)
    _atomic_write(prefix + "_trace.csv", "\n".join(lines) + "\n")
    _write_json(
        prefix + "_summary.json",
        {
            "config": cfg.to_dict(),
            "seed_override": seed,
            "E0": trace.e0,
            "E_final": trace.e_final,
            "telescope_residual": trace.telescope_residual,
            "telescope_tol": trace.telescope_tol,
            "identity_ok": trace.identity_ok,
            "monotone_ok": trace.monotone_ok,
            "steps": int(trace.damp.shape[0]),
        },
    )
    return 0 if trace.identity_ok else 3


def cmd_decay(cfg: ExperimentConfig, out: str, seed) -> int:
    prefix = os.path.join(out, cfg.output.prefix)
    st = cfg.study
    if st.synthetic_exponent is not None:
        # self-test: fit an exact power law and echo the exponent
        T = st.T if st.T is not None else cfg.scheme.t_final
        dt = SchemeConfig(dt=_scheme_dt(cfg), t_final=T).dt  # checks dt and T
        t = np.arange(0.0, T + dt, dt)
        energy = (1.0 + t) ** (-st.synthetic_exponent)
        fit = decay_fit(synthetic_trace(t, energy), st.beta, (0.0, T))
        _write_json(
            prefix + "_decay.json",
            {
                "config": cfg.to_dict(),
                "self_test": {
                    "exponent_in": st.synthetic_exponent,
                    "exponent_fit": fit.exponent,
                    "M_hat": fit.M_hat,
                    "r_squared": fit.r_squared,
                },
            },
        )
        return 0
    sys_ = build_system(cfg.system)
    study = uniform_decay_study(
        sys_,
        beta=st.beta,
        dt_list=_dt_list(cfg),
        T=st.T if st.T is not None else cfg.scheme.t_final,
        fit_window=tuple(st.fit_window) if st.fit_window else None,
        t_star=st.t_star,
        uniformity_factor=st.uniformity_factor,
        exponent_floor=st.exponent_floor,
        viscosity=cfg.scheme.viscosity,
        damping=cfg.scheme.damping,
        solve_tol=cfg.scheme.solve_tol,
    )
    _write_json(
        prefix + "_decay.json",
        {"config": cfg.to_dict(), "seed_override": seed, "study": study},
    )
    return 0


def cmd_observability(cfg: ExperimentConfig, out: str, seed) -> int:
    sys_ = build_system(cfg.system)
    st = cfg.study
    study = observability_constant_study(
        sys_,
        beta=st.beta,
        dt_list=_dt_list(cfg),
        trials=st.trials,
        seed=st.seed if seed is None else seed,
        delta=st.delta,
        t_star=st.t_star,
        viscosity=cfg.scheme.viscosity,
        solve_tol=cfg.scheme.solve_tol,
    )
    prefix = os.path.join(out, cfg.output.prefix)
    _write_json(
        prefix + "_observability.json",
        {"config": cfg.to_dict(), "seed_override": seed, "study": study},
    )
    return 0


def cmd_spectrum(cfg: ExperimentConfig, out: str, seed) -> int:
    sys_ = build_system(cfg.system)
    report = audit_spectrum(
        sys_, beta=cfg.study.beta, dt=_scheme_dt(cfg), delta=cfg.study.delta
    )
    payload = {
        "config": cfg.to_dict(),
        "report": report,
        "labels": [list(lab) for lab in sys_.labels],
    }
    if cfg.system.type == "boundary_coupled_waves":
        p = ExampleParams(cfg.system.alpha, cfg.system.gamma, cfg.system.k_max)
        payload["fixedpoint_residuals"] = boundary_fixedpoint_residuals(p, sys_)
    prefix = os.path.join(out, cfg.output.prefix)
    _write_json(prefix + "_spectrum.json", payload)
    return 0


def cmd_ingham(cfg: ExperimentConfig, out: str, seed) -> int:
    sys_ = build_system(cfg.system)
    st = cfg.study
    use_seed = st.seed if seed is None else seed
    report = audit_spectrum(sys_, beta=st.beta, dt=_scheme_dt(cfg), delta=st.delta)
    mu_max = float(np.max(sys_.mu))

    def auto_config(gap: float) -> InghamConfig:
        sigma = st.sigma if st.sigma is not None else 0.9 * math.pi / (mu_max + 0.5 * gap)
        J = st.J if st.J is not None else int(math.ceil((math.pi / gap) / sigma)) + 1
        return InghamConfig(sigma=sigma, J=J, gamma=gap, trials=st.trials, seed=use_seed)

    payload = {"config": cfg.to_dict(), "seed": use_seed}
    gamma = st.gamma if st.gamma is not None else report.gamma
    scalar_cfg = auto_config(gamma)
    scalar = estimate_scalar(sys_.mu, scalar_cfg)
    payload["scalar"] = {
        "sigma": scalar_cfg.sigma,
        "J": scalar_cfg.J,
        "gamma": scalar_cfg.gamma,
        "estimate": scalar,
    }
    clustered_cfg = auto_config(report.gamma1)
    clustered = estimate_clustered(sys_.mu, clustered_cfg)
    payload["clustered"] = {
        "sigma": clustered_cfg.sigma,
        "J": clustered_cfg.J,
        "gamma1": clustered_cfg.gamma,
        "estimate": clustered,
    }
    # single-frequency self-test: the ratio collapses to sigma * (2J + 1)
    self_cfg = InghamConfig(sigma=1.0, J=4, gamma=2.0, trials=1, seed=use_seed)
    ratio = ingham_ratio_scalar(np.array([1.0]), np.array([1.0 + 0j]), self_cfg)
    payload["self_test"] = {
        "ratio": ratio,
        "expected": self_cfg.sigma * (2 * self_cfg.J + 1),
    }
    prefix = os.path.join(out, cfg.output.prefix)
    _write_json(prefix + "_ingham.json", payload)
    return 0


_COMMANDS = {
    "trace": cmd_trace,
    "decay": cmd_decay,
    "observability": cmd_observability,
    "spectrum": cmd_spectrum,
    "ingham": cmd_ingham,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polystab",
        description="Simulation and verification runner for damped modal systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            check_seed("--seed", args.seed)
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except (DiagnosticFailure, NonFiniteStateError) as exc:
        print(f"numerical diagnostic failure: {exc}", file=_sys.stderr)
        return 3
    except PolystabError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
