"""Command-line experiment runner with bit-stable CSV/JSON outputs.

Subcommands: ``trace``, ``decay``, ``observability``, ``spectrum``,
``ingham``.  Global flags: ``--config <path>`` (JSON, see config module),
``--out <dir>``, ``--seed <int>`` (overrides the config seeds).
``decay``, ``observability`` and ``ingham`` report one cell per time step
of the config; ``trace`` and ``spectrum`` read its first.

Exit codes: 0 success, 1 I/O failure, 2 config error, 3 numerical
diagnostic failure (energy-identity violation, non-finite states, a
sampled Ingham ratio outside its exact envelope).

Each subcommand returns its outputs by file suffix; ``main`` writes them in
order to ``<out>/<prefix><suffix>``, each atomically (unique temp file +
rename) and every JSON with the config echo, so one that raises writes
nothing and leaves behind no ``--out`` directory that the run created.
CSV floats carry 17 significant digits; JSON uses sorted keys and
shortest round-trip floats, so identical config + seed gives
byte-identical files, except the last bits of ``ingham``'s ``c_lo``/``c_hi``
from about 250 frequencies, which follow the BLAS thread count of the
symmetric eigen-solve.
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
from .diagnostics import observability_constant_study, observation_time, uniform_decay_study
from .errors import (ConfigError, DiagnosticFailure, DomainError, NonFiniteStateError,
                     PolystabError, check_int, check_positive)
from .ingham import InghamConfig, estimate_clustered, estimate_scalar
from .schemes import SchemeConfig, factorize, modal_multiplier, substep_count
from .spectra import audit_spectrum, boundary_fixedpoint_residuals, ExampleParams, filtering_cutoff

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


# -- subcommands -----------------------------------------------------------
# (cfg, system, --seed) -> ({file suffix: str, or a JSON payload}, exit code)


def cmd_trace(cfg: ExperimentConfig, sys_, seed) -> tuple:
    z0 = build_init(cfg, sys_, seed)
    scheme = SchemeConfig(
        dt=cfg.time_steps()[0],
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
        dt_list=cfg.time_steps(),
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
        dt_list=cfg.time_steps(),
        trials=st.trials,
        seed=st.seed if seed is None else seed,
        delta=st.delta,
        t_star=st.t_star,
        viscosity=cfg.scheme.viscosity,
    )
    return {"_observability.json": {"seed_override": seed, "study": study}}, 0


def cmd_spectrum(cfg: ExperimentConfig, sys_, seed) -> tuple:
    report = audit_spectrum(sys_, beta=cfg.study.beta, dt=cfg.time_steps()[0],
                            delta=cfg.study.delta)
    payload = {"report": report, "labels": [list(lab) for lab in sys_.labels]}
    if cfg.system.type == "boundary_coupled_waves":
        p = ExampleParams(cfg.system.alpha, cfg.system.gamma, cfg.system.k_max)
        payload["fixedpoint_residuals"] = boundary_fixedpoint_residuals(p, sys_)
    return {"_spectrum.json": payload}, 0


def cmd_ingham(cfg: ExperimentConfig, sys_, seed) -> tuple:
    # per dt, the scheme's own observation sum: the midpoint frequencies +-alpha(mu) of
    # the low-pass modes sampled at sigma = dt, J = floor(T*/dt) // 2 (README "CLI")
    st = cfg.study
    use_seed = st.seed if seed is None else seed
    t_star = observation_time(sys_, st.t_star).t_star
    cells = []
    for dt in cfg.time_steps():
        alpha = modal_multiplier(sys_.mu[filtering_cutoff(sys_, dt, st.delta).retained], dt)[0]
        freqs = np.concatenate([-alpha[::-1], alpha])
        J = substep_count(t_star, dt) // 2
        cell = {"dt": dt, "sigma": dt, "J": J, "n_freqs": freqs.size}
        cells.append(cell)
        # the family's least pairwise gap and half its least 2-gap, inf when it has none
        for key, name, gaps, estimate in (
                ("scalar", "gamma", np.diff(freqs), estimate_scalar),
                ("clustered", "gamma1", 0.5 * (freqs[2:] - freqs[:-2]), estimate_clustered)):
            gap = float(np.min(gaps, initial=math.inf))
            entry = cell[key] = {name: gap, "estimate": None}
            try:
                check_positive(name, gap)
                entry["estimate"] = estimate(freqs, InghamConfig(dt, J, gap, st.trials, use_seed))
            except DomainError as exc:
                entry["note"] = str(exc)
    return {"_ingham.json": {"seed": use_seed, "t_star": t_star, "cells": cells}}, 0


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
