"""CLI contract: config round-trip, file formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polystab.cli import TRACE_HEADER, main
from polystab.config import ExperimentConfig, build_init, build_system
from polystab.errors import ConfigError
from polystab.schemes import SchemeConfig, factorize


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def base_trace_config(**scheme):
    scheme_block = {"dt": 0.05, "t_final": 2.0, "solve_tol": 1e-13}
    scheme_block.update(scheme)
    return {
        "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 8},
        "scheme": scheme_block,
        "init": {"kind": "random", "seed": 7},
        "output": {"prefix": "t"},
    }


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig.from_dict(base_trace_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        bad = base_trace_config()
        bad["system"]["coupling"] = 2.0
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"systems": {}})

    def test_output_formats_key_rejected(self):
        bad = base_trace_config()
        bad["output"]["formats"] = ["csv", "json"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_missing_dt_rejected(self):
        bad = base_trace_config()
        del bad["scheme"]["dt"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_custom_system_and_mode_range(self):
        cfg = ExperimentConfig.from_dict(
            {
                "system": {"type": "custom", "eta": [1.0, 4.0],
                           "damp_gram": [[0.5, 0.0], [0.0, 0.5]]},
                "scheme": {"dt": 0.1},
                "init": {"kind": "single_mode", "mode": 1},
            }
        )
        sys_ = build_system(cfg.system)
        assert sys_.n == 2
        st = build_init(cfg.init, sys_)
        assert st.a[1] == 1.0
        cfg.init.mode = 5
        with pytest.raises(ConfigError):
            build_init(cfg.init, sys_)


def per_value_trace_csv(trace):
    """The trace CSV joined value by value, as the writer once did: the oracle."""
    def fmt(x):
        return f"{x:.17g}"

    lines = [TRACE_HEADER]
    nterms = trace.damp.shape[0]
    for k in range(trace.t.shape[0]):
        terms = (
            (trace.damp[k], trace.visc1[k], trace.visc2[k], trace.identity_residual[k])
            if k < nterms
            else (0.0, 0.0, 0.0, 0.0)
        )
        lines.append(
            ",".join([str(k), fmt(trace.t[k]), fmt(trace.energy[k]), fmt(trace.weak_sq[k])]
                     + [fmt(v) for v in terms])
        )
    return "\n".join(lines) + "\n"


class TestTraceCommand:
    @pytest.mark.parametrize("scheme", [{}, {"viscosity": False, "damping": False}])
    def test_csv_matches_per_value_join(self, tmp_path, scheme):
        payload = base_trace_config(**scheme)
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["trace", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        cfg = ExperimentConfig.from_dict(payload)
        sys_ = build_system(cfg.system)
        sc = cfg.scheme
        scheme_cfg = SchemeConfig(dt=sc.dt, t_final=sc.t_final, viscosity=sc.viscosity,
                                  damping=sc.damping, solve_tol=sc.solve_tol)
        trace = factorize(sys_, scheme_cfg).run(build_init(cfg.init, sys_), beta=cfg.study.beta)
        assert (tmp_path / "t_trace.csv").read_bytes() == per_value_trace_csv(trace).encode()

    def test_csv_contract_and_determinism(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_trace_config())
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["trace", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["trace", "--config", cfg_path, "--out", str(out2)]) == 0
        csv1 = (out1 / "t_trace.csv").read_bytes()
        csv2 = (out2 / "t_trace.csv").read_bytes()
        assert csv1 == csv2
        lines = csv1.decode().splitlines()
        assert lines[0] == TRACE_HEADER
        # l = floor(2.0/0.05) = 40 steps + 1 -> rows k = 0..41
        assert len(lines) == 1 + 42
        assert csv1.endswith(b"\n")
        # floats round-trip at 17 significant digits
        row = lines[1].split(",")
        assert len(row) == 8
        float(row[2])
        summary = json.loads((out1 / "t_summary.json").read_text())
        assert summary["identity_ok"] is True
        assert summary["E0"] > summary["E_final"] > 0.0
        assert (out2 / "t_summary.json").read_bytes() == (out1 / "t_summary.json").read_bytes()

    def test_identity_column_bounded(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_trace_config())
        main(["trace", "--config", cfg_path, "--out", str(tmp_path)])
        lines = (tmp_path / "t_trace.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        e0 = float(rows[0][2])
        for row in rows:
            assert float(row[7]) <= 10.0 * 1e-13 * e0

    def test_stale_temp_path_does_not_block_writes(self, tmp_path):
        # a leftover directory at the old fixed temp name must not collide
        (tmp_path / "t_summary.json.tmp").mkdir()
        cfg_path = write_config(tmp_path / "c.json", base_trace_config())
        assert main(["trace", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "t_summary.json").read_text())["identity_ok"] is True
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.json", "t_summary.json", "t_summary.json.tmp", "t_trace.csv"]

    def test_failed_write_removes_temp_file(self, tmp_path):
        (tmp_path / "t_trace.csv").mkdir()
        cfg_path = write_config(tmp_path / "c.json", base_trace_config())
        assert main(["trace", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "t_trace.csv"]

    def test_conservative_run_energy_constant(self, tmp_path):
        payload = base_trace_config(viscosity=False, damping=False)
        cfg_path = write_config(tmp_path / "c.json", payload)
        main(["trace", "--config", cfg_path, "--out", str(tmp_path)])
        lines = (tmp_path / "t_trace.csv").read_text().splitlines()[1:]
        E = np.array([float(line.split(",")[2]) for line in lines])
        assert np.max(np.abs(E - E[0])) <= 1e-12 * E[0]

    def test_seed_override_changes_data(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_trace_config())
        main(["trace", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["trace", "--config", cfg_path, "--out", str(tmp_path / "b"), "--seed", "99"])
        assert (tmp_path / "a" / "t_trace.csv").read_bytes() != (
            tmp_path / "b" / "t_trace.csv"
        ).read_bytes()


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import polystab.cli; import sys; assert 'scipy' not in sys.modules"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestExitCodes:
    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["trace", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        p = write_config(tmp_path / "c.json", {"system": {"type": "nope"},
                                               "scheme": {"dt": 0.1}})
        assert main(["spectrum", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["trace", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 2

    def test_numerical_blowup_exits_3(self, tmp_path):
        payload = {
            "system": {"type": "custom", "eta": [1e300]},
            "scheme": {"dt": 1e100, "t_final": 2e100, "damping": False},
            "init": {"kind": "single_mode", "mode": 0},
        }
        p = write_config(tmp_path / "c.json", payload)
        with np.errstate(all="ignore"):
            assert main(["trace", "--config", str(p), "--out", str(tmp_path)]) == 3

    def test_unwritable_output_exits_1(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_trace_config())
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        assert main(["trace", "--config", cfg_path, "--out", str(target)]) == 1


class TestSpectrumCommand:
    def test_coupled_report_fields(self, tmp_path):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 1.0, "gamma": 1.0, "k_max": 16},
            "scheme": {"dt": 0.01},
            "output": {"prefix": "s"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["spectrum", "--config", str(p), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "s_spectrum.json").read_text())["report"]
        assert rep["min_pairwise_gap"] < 0.05
        assert rep["weak_gap_2"] > 3.0
        assert rep["cluster_theta_hat"] > 0.4
        assert len(rep["mu"]) == 32 and len(rep["bstar_norms"]) == 32
        assert rep["delta0"] is not None

    def test_boundary_report_residuals(self, tmp_path):
        payload = {
            "system": {"type": "boundary_coupled_waves", "alpha": 0.5, "gamma": 1.0,
                       "k_max": 8},
            "scheme": {"dt": 0.01},
            "output": {"prefix": "s"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["spectrum", "--config", str(p), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "s_spectrum.json").read_text())
        assert max(data["fixedpoint_residuals"]) <= 1e-12

    def test_custom_system_echo_round_trips(self, tmp_path):
        payload = {
            "system": {"type": "custom", "eta": [1.0, 2.5, 9.0]},
            "scheme": {"dt": 0.1},
            "output": {"prefix": "s"},
        }
        p = write_config(tmp_path / "c.json", payload)
        main(["spectrum", "--config", str(p), "--out", str(tmp_path)])
        data = json.loads((tmp_path / "s_spectrum.json").read_text())
        assert data["config"]["system"]["eta"] == [1.0, 2.5, 9.0]
        np.testing.assert_allclose(data["report"]["mu"], np.sqrt([1.0, 2.5, 9.0]))


class TestDecayCommand:
    def test_gamma_zero_verdict(self, tmp_path):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 0.0, "k_max": 8},
            "scheme": {"dt_list": [0.05, 0.02], "t_final": 60.0},
            "study": {"t_star": 8.0, "T": 60.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "d_decay.json").read_text())
        assert data["study"]["verdict"] == "non-uniform"

    def test_identity_audit_failure_exits_3(self, tmp_path):
        # no rounding residual fits under 10 * 1e-300 * E0
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt_list": [0.05], "t_final": 4.0, "solve_tol": 1e-300},
            "study": {"t_star": 4.0, "T": 4.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "d_decay.json").exists()

    @pytest.mark.parametrize("scheme, study", [
        ({"dt_list": [-0.05], "t_final": 10.0}, {}),
        ({"dt_list": [0.5], "t_final": 0.2}, {}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"fit_window": [20.0, 30.0]}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"fit_window": [5.01, 5.06]}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"beta": -0.5}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"fit_window": [1.0]}),
    ], ids=["dt_negative", "T_below_dt", "window_beyond_T", "one_sample_window",
            "beta_at_minus_half", "window_not_a_pair"])
    def test_bad_inputs_exit_2(self, tmp_path, scheme, study):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": scheme,
            "study": dict(study, t_star=4.0),
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "d_decay.json").exists()

    def test_underflowing_envelope_inconclusive(self, tmp_path):
        payload = {
            "system": {"type": "custom", "eta": [1e4]},
            "scheme": {"dt_list": [0.5], "t_final": 60.0},
            "study": {"t_star": 4.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 0
        study = json.loads((tmp_path / "d_decay.json").read_text())["study"]
        assert study["verdict"] == "inconclusive"
        assert study["envelope_spread"] == "nan"
        assert [cell["envelope"] for cell in study["cells"]] == [None]

    def test_synthetic_self_test_echoes_exponent(self, tmp_path):
        payload = {
            "system": {"type": "coupled_waves", "k_max": 2},
            "scheme": {"dt": 0.01, "t_final": 50.0},
            "study": {"synthetic_exponent": 1.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "d_decay.json").read_text())
        assert data["self_test"]["exponent_fit"] == pytest.approx(1.0, abs=1e-10)
        assert data["self_test"]["M_hat"] == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("dt", [0.0, -0.01], ids=["dt_zero", "dt_negative"])
    def test_synthetic_self_test_bad_dt_exits_2(self, tmp_path, capsys, dt):
        payload = {
            "system": {"type": "coupled_waves", "k_max": 2},
            "scheme": {"dt": dt, "t_final": 50.0},
            "study": {"synthetic_exponent": 1.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "dt must be positive" in capsys.readouterr().err
        assert not (tmp_path / "d_decay.json").exists()

    def test_verdict_field_enumeration(self, tmp_path):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 8},
            "scheme": {"dt_list": [0.05], "t_final": 60.0},
            "study": {"T": 60.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        main(["decay", "--config", str(p), "--out", str(tmp_path)])
        data = json.loads((tmp_path / "d_decay.json").read_text())
        assert data["study"]["verdict"] in ("uniform", "non-uniform", "inconclusive")
        assert data["study"]["verdict"] == "uniform"


class TestObservabilityCommand:
    def test_report_fields_per_dt(self, tmp_path):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 8},
            "scheme": {"dt_list": [0.05, 0.02]},
            "study": {"trials": 10, "seed": 2, "delta": 1.0},
            "output": {"prefix": "o"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["observability", "--config", str(p), "--out", str(tmp_path)]) == 0
        study = json.loads((tmp_path / "o_observability.json").read_text())["study"]
        assert study["gamma"] > 0 and study["gamma1"] > 0
        assert study["delta"] == 1.0
        for cell in study["cells"]:
            assert cell["t_star"] > 0
            assert cell["cutoff"] == pytest.approx(1.0 / cell["dt"])
            assert cell["min_ratio"] > 0.0

    def test_zero_damping_viscosity_only(self, tmp_path):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 0.0, "k_max": 4},
            "scheme": {"dt": 0.05},
            "study": {"trials": 5, "seed": 0, "t_star": 2.0},
            "output": {"prefix": "o"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["observability", "--config", str(p), "--out", str(tmp_path)]) == 0
        study = json.loads((tmp_path / "o_observability.json").read_text())["study"]
        assert study["cells"][0]["min_ratio"] > 0.0  # viscosity terms only


    @pytest.mark.parametrize("scheme, study", [
        ({"dt_list": [0.05]}, {"trials": 0}),
        ({"dt_list": [0.05]}, {"trials": -3}),
        ({"dt_list": [0.05]}, {"trials": 2.5}),
        ({"dt_list": [0.0]}, {"trials": 3}),
        ({"dt_list": [0.05, 0.0]}, {"trials": 3}),
    ], ids=["trials_zero", "trials_negative", "trials_fraction", "dt_zero", "later_dt_zero"])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, scheme, study):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": scheme,
            "study": dict(study, t_star=2.0),
            "output": {"prefix": "o"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["observability", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "o_observability.json").exists()


class TestStudyDeterminism:
    @pytest.mark.parametrize("command, study, name", [
        ("decay", {"T": 10.0, "t_star": 4.0}, "s_decay.json"),
        ("observability", {"trials": 6, "seed": 3}, "s_observability.json"),
        ("ingham", {"trials": 6, "seed": 3}, "s_ingham.json"),
    ])
    def test_json_byte_identical(self, tmp_path, command, study, name):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt_list": [0.1, 0.05], "t_final": 10.0},
            "study": study,
            "output": {"prefix": "s"},
        }
        p = write_config(tmp_path / "c.json", payload)
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main([command, "--config", p, "--out", str(out)]) == 0
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestInghamCommand:
    def test_self_test_and_seed_echo(self, tmp_path):
        payload = {
            "system": {"type": "boundary_coupled_waves", "alpha": 0.5, "gamma": 1.0,
                       "k_max": 8},
            "scheme": {"dt": 0.01},
            "study": {"trials": 50, "seed": 21},
            "output": {"prefix": "i"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["ingham", "--config", str(p), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "i_ingham.json").read_text())
        assert data["seed"] == 21
        assert data["self_test"]["ratio"] == pytest.approx(
            data["self_test"]["expected"], rel=1e-13
        )
        assert data["scalar"]["estimate"]["c_lo"] > 0.0
        assert data["clustered"]["estimate"]["c_lo"] > 0.0

    def test_clustered_vs_scalar_comparison(self, tmp_path):
        lows = {}
        for k_max in (8, 32):
            payload = {
                "system": {"type": "coupled_waves", "alpha": 1.0, "gamma": 1.0,
                           "k_max": k_max},
                "scheme": {"dt": 0.01},
                # force the gamma1-scale sampling for the scalar estimate too
                "study": {"trials": 100, "seed": 3, "gamma": 1.5},
                "output": {"prefix": f"i{k_max}"},
            }
            p = write_config(tmp_path / f"c{k_max}.json", payload)
            assert main(["ingham", "--config", str(p), "--out", str(tmp_path)]) == 0
            data = json.loads((tmp_path / f"i{k_max}_ingham.json").read_text())
            lows[k_max] = (
                data["scalar"]["estimate"]["c_lo"],
                data["clustered"]["estimate"]["c_lo"],
            )
        assert lows[8][0] > 10.0 * lows[32][0]
        assert lows[32][1] > 0.5

    def test_boundary_k_max_256_exact_envelope(self, tmp_path):
        # the auto-sampled scalar J is 721495: the n x n Dirichlet Gram does
        # not depend on J, so the exact envelope costs what a small J does
        payload = {
            "system": {"type": "boundary_coupled_waves", "alpha": 0.5, "gamma": 1.0,
                       "k_max": 256},
            "scheme": {"dt": 0.01},
            "study": {"trials": 10, "seed": 0},
            "output": {"prefix": "big"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["ingham", "--config", str(p), "--out", str(tmp_path)]) == 0
        scalar = json.loads((tmp_path / "big_ingham.json").read_text())["scalar"]
        assert (scalar["J"], scalar["estimate"]["n_active"]) == (721495, 512)
        est = scalar["estimate"]
        assert est["c_lo"] == pytest.approx(3962.6, rel=1e-4)
        assert est["c_hi"] == pytest.approx(6163.9, rel=1e-4)
        assert est["c_lo"] <= est["sampled_lo"] <= est["sampled_hi"] <= est["c_hi"]

    def test_envelope_missing_a_draw_exits_3(self, tmp_path, capsys, monkeypatch):
        # an eigen-solve that halves the envelope, so the top draws lie above it
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: 0.5 * eigvalsh(A))
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt": 0.01},
            "study": {"trials": 5, "seed": 0},
            "output": {"prefix": "i"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["ingham", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert "outside the exact envelope" in capsys.readouterr().err
        assert not (tmp_path / "i_ingham.json").exists()

    def test_fractional_trials_exits_2(self, tmp_path, capsys):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt": 0.01},
            "study": {"trials": 2.5, "seed": 0},
            "output": {"prefix": "i"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["ingham", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "trials must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "i_ingham.json").exists()


class TestSeeds:
    @pytest.mark.parametrize("command", ["trace", "observability", "ingham"])
    @pytest.mark.parametrize("blocks, flag", [
        ({"init": {"seed": -1}}, []),
        ({"study": {"seed": -1}}, []),
        ({"study": {"seed": 2.5}}, []),
        ({}, ["--seed", "-1"]),
    ], ids=["init_negative", "study_negative", "study_fraction", "flag_negative"])
    def test_bad_seed_exits_2(self, tmp_path, capsys, command, blocks, flag):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt": 0.05, "t_final": 1.0},
            "output": {"prefix": "s"},
            **blocks,
        }
        p = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", p, "--out", str(out), *flag]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "seed must be a non-negative integer" in err
        assert not out.exists()
