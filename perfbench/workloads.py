"""The four benchmark workloads: inputs from a seed, one timed iteration, checks.

Each workload has
  ``setup(seed, cfg_dir, size)`` -> inputs (configs written, systems built),
  ``iterate(inputs, out_dir)`` -> raw outputs of one timed iteration,
  ``checks(inputs, outputs)`` -> ``(name, value, predicate)`` triples.
A check passes when ``predicate(value)`` is true; one that raises fails.

Seed 0 reproduces the acceptance-criteria seeds (606, 808/809, init 7);
seed s uses those plus 1000 * s.  ``SIZES`` holds the acceptance sizes and
``TINY`` the reduced ones the self-test runs.

Studies are called with default arguments only (never ``threads``).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from polystab import cli, config, diagnostics, ingham, schemes, spectra

SIZES = {
    "decay_sweep": {"k_max": 32, "dt_list": [0.02, 0.01, 0.005], "T": 200.0},
    "observability_sweep": {"k_max": 32, "dt_list": [0.02, 0.01, 0.005], "trials": 200},
    "trace_large": {"k_max": 512, "dt": 0.01, "T": 20.0},
    "spectral_audit": {"k_max": (8, 64), "k_max_bc": 16, "k_max_fp": 256, "trials": 1000,
                       "rec_steps": 10**6},
}
TINY = {
    "decay_sweep": {"k_max": 4, "dt_list": [0.1, 0.05], "T": 10.0},
    "observability_sweep": {"k_max": 4, "dt_list": [0.1, 0.05], "trials": 10},
    "trace_large": {"k_max": 8, "dt": 0.05, "T": 1.0},
    "spectral_audit": {"k_max": (2, 4), "k_max_bc": 4, "k_max_fp": 8, "trials": 20,
                       "rec_steps": 10**4},
}


def _seed(base: int, seed: int) -> int:
    return base + 1000 * seed


def _write_config(path: str, cfg: dict) -> config.ExperimentConfig:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return config.load_config(path)


def _run_cli(command: str, cfg_path: str, out_dir: str) -> int:
    return cli.main([command, "--config", cfg_path, "--out", out_dir])


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _spread(values) -> float:
    return max(values) / min(values)


# -- decay_sweep: criterion 7 through `polystab decay` ---------------------


def decay_setup(seed: int, cfg_dir: str, size: dict) -> dict:
    # The study family is deterministic; the seed only enters the echoed
    # init/study blocks, so every seed runs the same criterion-7 sweep.
    system = {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": size["k_max"]}
    base = {
        "system": system,
        "scheme": {"dt_list": size["dt_list"], "t_final": size["T"]},
        "init": {"seed": _seed(7, seed)},
        "study": {"seed": _seed(606, seed)},
        "output": {"prefix": "damped"},
    }
    damped_path = os.path.join(cfg_dir, "decay_damped.json")
    damped = config.build_system(_write_config(damped_path, base).system)
    t_star = diagnostics.observation_time(damped).t_star
    control = dict(base, system=dict(system, gamma=0.0),
                   study=dict(base["study"], t_star=t_star), output={"prefix": "control"})
    control_path = os.path.join(cfg_dir, "decay_control.json")
    undamped = config.build_system(_write_config(control_path, control).system)
    col_steps = sum(
        (schemes.substep_count(size["T"], dt) + 1) * len(diagnostics.worst_case_family(s))
        for s in (damped, undamped) for dt in size["dt_list"]
    )
    return {"paths": (damped_path, control_path), "t_star": t_star, "col_steps": col_steps}


def decay_iterate(inp: dict, out_dir: str) -> dict:
    codes = [_run_cli("decay", path, out_dir) for path in inp["paths"]]
    return {"codes": codes, "out_dir": out_dir}


def decay_checks(inp: dict, out: dict) -> list:
    damped = _read_json(os.path.join(out["out_dir"], "damped_decay.json"))["study"]
    control = _read_json(os.path.join(out["out_dir"], "control_decay.json"))["study"]
    m_hats = [cell["envelope"]["M_hat"] for cell in damped["cells"]]
    exps = [cell["envelope"]["exponent"] for cell in damped["cells"]]
    return [
        ("decay.exit_codes", out["codes"], lambda v: v == [0, 0]),
        ("decay.fit_window_at_half_t_star", damped["fit_window"][0],
         lambda v: math.isclose(v, inp["t_star"] / 2.0, rel_tol=1e-6)),
        ("decay.m_hat_finite", m_hats, lambda v: all(math.isfinite(m) for m in v)),
        ("decay.m_hat_spread_le_4", m_hats, lambda v: _spread(v) <= 4.0),
        ("decay.exponent_ge_0.7", exps, lambda v: all(e >= 0.7 for e in v)),
        ("decay.verdict_uniform", damped["verdict"], lambda v: v == "uniform"),
        ("decay.control_t_star", control["t_star"], lambda v: v == inp["t_star"]),
        ("decay.control_non_uniform", control["verdict"], lambda v: v == "non-uniform"),
    ]


# -- observability_sweep: criterion 6 through `polystab observability` -----


def obs_setup(seed: int, cfg_dir: str, size: dict) -> dict:
    cfg = {
        "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": size["k_max"]},
        "scheme": {"dt_list": size["dt_list"]},
        "study": {"trials": size["trials"], "seed": _seed(606, seed)},
        "output": {"prefix": "obs"},
    }
    path = os.path.join(cfg_dir, "observability.json")
    system = config.build_system(_write_config(path, cfg).system)
    t_star = diagnostics.observation_time(system).t_star
    # every draw runs twice per dt: as drawn and low-pass filtered
    col_steps = sum(
        (schemes.substep_count(t_star, dt) + 1) * 2 * size["trials"] for dt in size["dt_list"]
    )
    return {"path": path, "col_steps": col_steps}


def obs_iterate(inp: dict, out_dir: str) -> dict:
    return {"code": _run_cli("observability", inp["path"], out_dir), "out_dir": out_dir}


def obs_checks(inp: dict, out: dict) -> list:
    cells = _read_json(os.path.join(out["out_dir"], "obs_observability.json"))["study"]["cells"]
    mins = [cell["min_ratio"] for cell in cells]
    lows = [cell["min_ratio_lowpass"] for cell in cells]
    return [
        ("observability.exit_code", out["code"], lambda v: v == 0),
        ("observability.min_positive", mins, lambda v: all(m > 0.0 for m in v)),
        ("observability.spread_le_4", mins, lambda v: _spread(v) <= 4.0),
        ("observability.lowpass_min_positive", lows, lambda v: all(m > 0.0 for m in v)),
    ]


# -- trace_large: one column at n = 1024 through `polystab trace` -----------


def trace_setup(seed: int, cfg_dir: str, size: dict) -> dict:
    cfg = {
        "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": size["k_max"]},
        "scheme": {"dt": size["dt"], "t_final": size["T"]},
        "init": {"kind": "random", "seed": _seed(7, seed)},
        "output": {"prefix": "large"},
    }
    path = os.path.join(cfg_dir, "trace.json")
    config.build_system(_write_config(path, cfg).system)
    steps = schemes.substep_count(size["T"], size["dt"]) + 1
    return {"path": path, "col_steps": steps, "rows": steps + 1}


def trace_iterate(inp: dict, out_dir: str) -> dict:
    return {"code": _run_cli("trace", inp["path"], out_dir), "out_dir": out_dir}


def trace_checks(inp: dict, out: dict) -> list:
    summary = _read_json(os.path.join(out["out_dir"], "large_summary.json"))
    with open(os.path.join(out["out_dir"], "large_trace.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [
        ("trace.exit_code", out["code"], lambda v: v == 0),
        ("trace.identity_ok", summary["identity_ok"], lambda v: v is True),
        ("trace.telescope_within_tol",
         (summary["telescope_residual"], summary["telescope_tol"]),
         lambda v: v[0] <= v[1]),
        ("trace.csv_header", ",".join(rows[0]), lambda v: v == cli.TRACE_HEADER),
        ("trace.csv_rows", len(rows) - 1, lambda v: v == inp["rows"]),
    ]


# -- spectral_audit: criteria 8 and 10 and the boundary audit, no stepping ---


def _sampling(freqs, gap: float, trials: int, seed: int) -> ingham.InghamConfig:
    sigma = 0.9 * math.pi / (np.max(freqs) + 0.5 * gap)
    J = int(math.ceil((math.pi / gap) / sigma)) + 1
    return ingham.InghamConfig(sigma=sigma, J=J, gamma=gap, trials=trials, seed=seed)


def spectral_setup(seed: int, cfg_dir: str, size: dict) -> dict:
    bc = spectra.build_boundary_coupled_waves(spectra.ExampleParams(0.5, 1.0, size["k_max_bc"]))
    coupled = []
    for k_max in size["k_max"]:
        sys_ = spectra.build_coupled_waves(spectra.ExampleParams(1.0, 1.0, k_max))
        gamma1 = spectra.check_gap(sys_).gamma1
        coupled.append((sys_.mu, _sampling(sys_.mu, gamma1, size["trials"], _seed(809, seed))))
    fp_params = spectra.ExampleParams(0.5, 1.0, size["k_max_fp"])
    return {
        "bc": (bc.mu, _sampling(bc.mu, spectra.check_gap(bc).gamma, size["trials"],
                                _seed(808, seed))),
        "coupled": coupled,
        "fp": (fp_params, spectra.build_boundary_coupled_waves(fp_params)),
        "single": ingham.InghamConfig(sigma=1.0, J=4, gamma=2.0, trials=1, seed=0),
        "rec_steps": size["rec_steps"],
        "col_steps": size["rec_steps"],  # one scalar state advanced rec_steps times
    }


def spectral_iterate(inp: dict, out_dir: str) -> dict:
    single = inp["single"]
    fp_params, fp_sys = inp["fp"]
    return {
        "single": ingham.ingham_ratio_scalar(np.array([1.0]), np.array([1.0 + 0j]), single),
        "bc_lo": ingham.estimate_scalar(*inp["bc"]).c_lo,
        "coupled_lo": [
            (ingham.estimate_scalar(mu, cfg).c_lo, ingham.estimate_clustered(mu, cfg).c_lo)
            for mu, cfg in inp["coupled"]
        ],
        "audit": spectra.audit_spectrum(fp_sys, beta=0.0, dt=0.01, delta=1.0),
        "fp_resid": spectra.boundary_fixedpoint_residuals(fp_params, fp_sys),
        "rec": diagnostics.decay_recursion_oracle(C=1.0, alpha=0.0, E0=1.0,
                                                  steps=inp["rec_steps"]),
    }


def _recursion_bounded(rec, steps: int) -> bool:
    """Criterion 10: k e_k has no growth trend over the last decade of k."""
    prod = rec.values * (np.arange(rec.values.size) + 1.0)
    start = steps // 10
    return bool(
        math.isfinite(rec.M)
        and math.isclose(rec.M, float(np.max(prod)), rel_tol=1e-15)
        and float(np.max(prod[start:])) <= float(prod[start]) * (1.0 + 1e-9)
        and abs(prod[-1] / prod[start] - 1.0) <= 1e-3
    )


def spectral_checks(inp: dict, out: dict) -> list:
    cfg = inp["single"]
    lo = out["coupled_lo"]
    return [
        ("spectral.single_frequency_ratio", out["single"],
         lambda v: math.isclose(v, cfg.sigma * (2 * cfg.J + 1), rel_tol=1e-13)),
        ("spectral.boundary_scalar_c_lo_positive", out["bc_lo"], lambda v: v > 0.0),
        ("spectral.coupled_c_lo_positive", lo, lambda v: all(s > 0.0 and c > 0.0 for s, c in v)),
        ("spectral.scalar_c_lo_collapse_ge_10", lo, lambda v: v[0][0] >= 10.0 * v[-1][0]),
        ("spectral.audit_gamma1_positive", out["audit"], lambda v: v.gamma1 > 0.0),
        ("spectral.fixedpoint_resid_le_1e-12", out["fp_resid"],
         lambda v: float(np.max(v)) <= 1e-12),
        ("spectral.recursion_bounded", out["rec"],
         lambda v: _recursion_bounded(v, inp["rec_steps"])),
    ]


WORKLOADS = {
    "decay_sweep": (decay_setup, decay_iterate, decay_checks),
    "observability_sweep": (obs_setup, obs_iterate, obs_checks),
    "trace_large": (trace_setup, trace_iterate, trace_checks),
    "spectral_audit": (spectral_setup, spectral_iterate, spectral_checks),
}
