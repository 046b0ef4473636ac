"""Command-line experiment runner with bit-stable CSV/JSON outputs.

Subcommands: ``trace``, ``decay``, ``observability``, ``spectrum``,
``ingham``.  Global flags: ``--config <path>`` (JSON, see config module),
``--out <dir>``, ``--seed <int>`` (overrides the config seeds).

Exit codes: 0 success, 1 I/O failure, 2 config error, 3 numerical
diagnostic failure (energy-identity violation, non-finite states).

Each subcommand returns its outputs by file suffix; ``main`` writes them in
order to ``<out>/<prefix><suffix>``, each atomically (unique temp file +
rename) and every JSON with the config echo, so one that raises writes
nothing and leaves behind no ``--out`` directory that the run created.
CSV floats carry 17 significant digits; JSON uses sorted keys and
shortest round-trip floats, so identical config + seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys as _sys

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_init, build_system, load_config
from .diagnostics import observability_constant_study, uniform_decay_study
from .errors import (ConfigError, DiagnosticFailure, NonFiniteStateError, PolystabError,
                     check_int, check_positive)
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


def _make_out_dir(path: str) -> list:
    """Create the directory ``path`` and its missing parents, before anything
    runs, so an unwritable ``--out`` fails early; returns the directories
    created, leaf first."""
    made, head = [], os.path.abspath(path)
    while not os.path.isdir(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    return made


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _dt_list(cfg: ExperimentConfig) -> list:
    """The configured time steps: ``scheme.dt_list``, or ``[scheme.dt]``."""
    return [cfg.scheme.dt] if cfg.scheme.dt_list is None else list(cfg.scheme.dt_list)


# -- subcommands -----------------------------------------------------------
# (cfg, system, --seed) -> ({file suffix: str, or a JSON payload}, exit code)


def cmd_trace(cfg: ExperimentConfig, sys_, seed) -> tuple:
    z0 = build_init(cfg.init, sys_, seed)
    scheme = SchemeConfig(
        dt=_dt_list(cfg)[0],
        t_final=cfg.scheme.t_final,
        viscosity=cfg.scheme.viscosity,
        damping=cfg.scheme.damping,
    )
    trace = factorize(sys_, scheme).run(z0, beta=cfg.study.beta)

    # step terms padded with zeros to one entry per state (the final row)
    n_rows = trace.t.shape[0]
    terms = [np.pad(v, (0, n_rows - v.shape[0]))
             for v in (trace.damp, trace.visc1, trace.visc2, trace.identity_residual)]
    row = "%d" + ",%.17g" * 7
    cols = (c.tolist() for c in [trace.t, trace.energy, trace.weak_sq, *terms])
    lines = [TRACE_HEADER] + [row % vals for vals in zip(range(n_rows), *cols)]
    summary = {
        "seed_override": seed,
        "E0": trace.e0,
        "E_final": trace.e_final,
        "telescope_residual": trace.telescope_residual,
        "telescope_tol": trace.telescope_tol,
        "identity_ok": trace.identity_ok,
        "monotone_ok": trace.monotone_ok,
        "steps": int(trace.damp.shape[0]),
    }
    outputs = {"_trace.csv": "\n".join(lines) + "\n", "_summary.json": summary}
    return outputs, 0 if trace.identity_ok else 3


def cmd_decay(cfg: ExperimentConfig, sys_, seed) -> tuple:
    st = cfg.study
    study = uniform_decay_study(
        sys_,
        beta=st.beta,
        dt_list=_dt_list(cfg),
        T=cfg.scheme.t_final,
        t_star=st.t_star,
        viscosity=cfg.scheme.viscosity,
        damping=cfg.scheme.damping,
    )
    return {"_decay.json": {"seed_override": seed, "study": study}}, 0


def cmd_observability(cfg: ExperimentConfig, sys_, seed) -> tuple:
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
    )
    return {"_observability.json": {"seed_override": seed, "study": study}}, 0


def cmd_spectrum(cfg: ExperimentConfig, sys_, seed) -> tuple:
    report = audit_spectrum(sys_, beta=cfg.study.beta, dt=_dt_list(cfg)[0], delta=cfg.study.delta)
    payload = {"report": report, "labels": [list(lab) for lab in sys_.labels]}
    if cfg.system.type == "boundary_coupled_waves":
        p = ExampleParams(cfg.system.alpha, cfg.system.gamma, cfg.system.k_max)
        payload["fixedpoint_residuals"] = boundary_fixedpoint_residuals(p, sys_)
    return {"_spectrum.json": payload}, 0


def cmd_ingham(cfg: ExperimentConfig, sys_, seed) -> tuple:
    st = cfg.study
    use_seed = st.seed if seed is None else seed
    report = audit_spectrum(sys_, beta=st.beta, dt=_dt_list(cfg)[0], delta=st.delta)
    mu_max = float(np.max(sys_.mu))

    def auto_config(name: str, gap: float) -> InghamConfig:
        check_positive(name, gap)
        sigma = st.sigma if st.sigma is not None else 0.9 * math.pi / (mu_max + 0.5 * gap)
        check_positive("sigma", sigma)
        J = st.J if st.J is not None else int(math.ceil((math.pi / gap) / sigma)) + 1
        return InghamConfig(sigma=sigma, J=J, gamma=gap, trials=st.trials, seed=use_seed)

    payload = {"seed": use_seed}
    gamma = st.gamma if st.gamma is not None else report.gamma
    scalar_cfg = auto_config("gamma", gamma)
    scalar = estimate_scalar(sys_.mu, scalar_cfg)
    payload["scalar"] = {
        "sigma": scalar_cfg.sigma,
        "J": scalar_cfg.J,
        "gamma": scalar_cfg.gamma,
        "estimate": scalar,
    }
    if math.isinf(report.gamma1):  # check_gap of fewer than 3 modes
        payload["clustered"] = {"gamma1": report.gamma1, "estimate": None,
                                "note": "fewer than 3 modes: no 2-cluster exists"}
    else:
        clustered_cfg = auto_config("gamma1", report.gamma1)
        payload["clustered"] = {
            "sigma": clustered_cfg.sigma,
            "J": clustered_cfg.J,
            "gamma1": clustered_cfg.gamma,
            "estimate": estimate_clustered(sys_.mu, clustered_cfg),
        }
    # single-frequency self-test: the ratio collapses to sigma * (2J + 1)
    self_cfg = InghamConfig(sigma=1.0, J=4, gamma=2.0, trials=1, seed=use_seed)
    ratio = ingham_ratio_scalar(np.array([1.0]), np.array([1.0 + 0j]), self_cfg)
    payload["self_test"] = {
        "ratio": ratio,
        "expected": self_cfg.sigma * (2 * self_cfg.J + 1),
    }
    return {"_ingham.json": payload}, 0


_COMMANDS = {
    "trace": cmd_trace,
    "decay": cmd_decay,
    "observability": cmd_observability,
    "spectrum": cmd_spectrum,
    "ingham": cmd_ingham,
}


@functools.cache
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
            check_int("--seed", args.seed, 0, ConfigError)
        cfg = load_config(args.config)
        made = _make_out_dir(args.out)
        try:
            outputs, code = _COMMANDS[args.command](cfg, build_system(cfg.system), args.seed)
        except Exception:
            with contextlib.suppress(OSError):  # rmdir refuses a directory that holds anything
                for path in made:
                    os.rmdir(path)
            raise
        for suffix, payload in outputs.items():
            if not isinstance(payload, str):
                payload = _json_text(dict(payload, config=cfg.to_dict()))
            _atomic_write(os.path.join(args.out, cfg.output.prefix + suffix), payload)
        return code
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
