"""CLI contract: config round-trip, file formats, determinism, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polystab.cli import TRACE_HEADER, main
from polystab.config import ExperimentConfig, build_init, build_system
from polystab.errors import ConfigError, DomainError
from polystab import config, schemes
from polystab.schemes import SchemeConfig, factorize
from polystab.spectra import filtering_cutoff


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def base_trace_config(**scheme):
    scheme_block = {"dt": 0.05, "t_final": 2.0}
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
        st = build_init(cfg, sys_)
        assert st.a[1] == 1.0
        cfg.init.mode = 5
        with pytest.raises(ConfigError):
            build_init(cfg, sys_)

    def test_key_census(self):
        # every settable config value: a new key needs a deliberate edit here
        keys = {f"{f.name}.{g.name}" for f in dataclasses.fields(ExperimentConfig)
                for g in dataclasses.fields(f.default_factory)}
        assert keys == {
            "system.type", "system.alpha", "system.gamma", "system.k_max", "system.eta",
            "system.damp_gram", "scheme.dt", "scheme.dt_list", "scheme.t_final",
            "scheme.viscosity", "scheme.damping", "init.kind", "init.mode", "init.pair",
            "init.seed", "study.beta", "study.delta", "study.trials",
            "study.seed", "study.t_star", "output.prefix",
        }
        assert len(keys) == 21

    def test_dt_and_dt_list_together_exit_2(self, tmp_path, capsys):
        # one source for the time step: setting both is refused at load
        p = write_config(tmp_path / "c.json", base_trace_config(dt_list=[0.05, 0.02]))
        out = tmp_path / "out"
        for command in ("trace", "decay"):
            assert main([command, "--config", p, "--out", str(out)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "config error: scheme needs exactly one of dt and dt_list"]
            assert not out.exists()

    def test_schema_docstring_lists_every_field(self):
        # the documented schema names exactly the blocks and fields the loader takes
        schema = re.search(r"\n    \{\n(.*?)\n    \}\n", config.__doc__, re.S).group(1)
        documented = {name: sorted(re.findall(r'"(\w+)":', body))
                      for name, body in re.findall(r'"(\w+)": \{(.*?)\}', schema, re.S)}
        fields = {f.name: sorted(g.name for g in dataclasses.fields(f.default_factory))
                  for f in dataclasses.fields(ExperimentConfig)}
        assert documented == fields

    def test_readme_example_config_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Example config", 1)[1].split("```json\n", 1)[1].split("```")[0]
        cfg = ExperimentConfig.from_dict(json.loads(example))
        assert cfg.to_dict() == ExperimentConfig.from_dict(cfg.to_dict()).to_dict()

    @pytest.mark.parametrize("block, key, value", [
        ("scheme", "solve_tol", 1e-13),
        ("study", "uniformity_factor", 4.0),
        ("study", "exponent_floor", 0.7),
        ("study", "T", 60.0),
        ("study", "synthetic_exponent", 1.0),
        ("study", "fit_window", [2.0, 8.0]),
    ])
    def test_threshold_keys_are_unknown(self, tmp_path, capsys, block, key, value):
        # the pass/fail thresholds are constants, not config keys
        payload = base_trace_config()
        payload.setdefault(block, {})[key] = value
        p = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["trace", "--config", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"unknown keys in block '{block}': ['{key}']" in err[0], err
        assert not out.exists()


class TestHighpassInit:
    """A ``highpass`` init is the seeded draw with the low-pass modes of
    ``filtering_cutoff(sys, dt, study.delta)`` zeroed."""

    def payload(self, dt=0.05, **study):
        return {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 8},
            "scheme": {"dt": dt, "t_final": 1.0},
            "init": {"kind": "highpass", "seed": 3},
            "study": study,
            "output": {"prefix": "h"},
        }

    @pytest.mark.parametrize("seed", [None, 11])
    def test_zero_up_to_cutoff_and_seeded_draw_above(self, seed):
        sys_ = build_system(ExperimentConfig.from_dict(self.payload()).system)
        # delta / dt = 20 keeps 12 of 16 modes; at dt = 2^-4 the cutoff is
        # exactly mu[5], a mode at the cutoff being zeroed too
        for dt, delta, kept in ((0.05, 1.0, 12), (0.0625, float(sys_.mu[5]) * 0.0625, 6)):
            cfg = ExperimentConfig.from_dict(self.payload(dt, delta=delta))
            low = filtering_cutoff(sys_, dt, delta).retained
            assert low.tolist() == list(range(kept))
            st = build_init(cfg, sys_, seed)
            rng = np.random.default_rng(3 if seed is None else seed)
            a, b = rng.standard_normal(sys_.n), rng.standard_normal(sys_.n)
            a[low] = b[low] = 0.0
            assert np.array_equal(st.a, a) and np.array_equal(st.b, b)
            assert np.all(st.a[kept:] != 0.0) and np.all(st.b[kept:] != 0.0)

    def test_trace_runs(self, tmp_path):
        p = write_config(tmp_path / "c.json", self.payload(0.1))
        assert main(["trace", "--config", p, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "h_summary.json").read_text())["E0"] > 0.0

    @pytest.mark.parametrize("dt, study, message", [
        (0.05, {"delta": 3.2}, "delta must lie in (0, 3.10281); got 3.2"),
        (0.01, {}, "init.kind=highpass leaves no mode above study.delta / dt"),
        (0.05, {"delta": 0.0}, "delta must lie in (0, 3.10281); got 0.0"),
        (0.05, {"delta": -1.0}, "delta must lie in (0, 3.10281); got -1.0"),
        (0.05, {"delta": math.nan}, "study.delta must be finite; got nan"),
    ], ids=["delta_beyond_delta0", "cutoff_above_every_mode", "cutoff_zero", "cutoff_negative",
            "cutoff_nan"])
    def test_bad_cutoff_exits_2(self, tmp_path, capsys, dt, study, message):
        # the cutoff is delta / dt, so a delta outside (0, delta0) or one that
        # leaves no mode above the cutoff exits 2 and writes nothing
        p = write_config(tmp_path / "c.json", self.payload(dt, **study))
        out = tmp_path / "out"
        assert main(["trace", "--config", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        assert not out.exists()

    def test_build_refuses_nan_cutoff(self):
        # loading refuses a NaN delta; building refuses one set afterwards
        cfg = ExperimentConfig.from_dict(self.payload())
        cfg.study.delta = math.nan
        with pytest.raises(DomainError, match="delta must lie in .*; got nan"):
            build_init(cfg, build_system(cfg.system))


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
                                  damping=sc.damping)
        trace = factorize(sys_, scheme_cfg).run(build_init(cfg, sys_), beta=cfg.study.beta)
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

    def test_float_fields_round_trip_at_17_digits(self, tmp_path):
        # the conservative midpoint map adds exact zeros to damp, visc1 and
        # visc2, the final row pads every step term with them, and the first
        # row is t = 0: every float field is the 17-digit form of its value
        cfg_path = write_config(tmp_path / "c.json",
                                base_trace_config(viscosity=False, damping=False))
        assert main(["trace", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "t_trace.csv").read_text().splitlines()]
        assert rows[0] == TRACE_HEADER.split(",") and rows[1][1] == "0"
        assert [row[0] for row in rows[1:]] == [str(k) for k in range(len(rows) - 1)]
        fields = [f for row in rows[1:] for f in row[1:]]
        assert len(fields) == 7 * (len(rows) - 1) and fields.count("0") >= 3 * (len(rows) - 1)
        assert all(f == format(float(f), ".17g") for f in fields)

    def test_repeated_calls_write_what_each_writes_alone(self, tmp_path):
        # main builds its parser once per process: a call writes the bytes it
        # writes in a fresh process, and no --seed carries over to the next
        obs = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt_list": [0.1]},
            "study": {"trials": 4, "seed": 3, "t_star": 2.0},
            "output": {"prefix": "o"},
        }
        calls = [["trace", "--config", write_config(tmp_path / "t.json", base_trace_config()),
                  "--seed", "99"],
                 ["observability", "--config", write_config(tmp_path / "o.json", obs)],
                 ["trace", "--config", str(tmp_path / "t.json")]]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for i, args in enumerate(calls):
            assert main(args + ["--out", str(tmp_path / f"in{i}")]) == 0
            alone = [sys.executable, "-m", "polystab.cli", *args, "--out", str(tmp_path / f"a{i}")]
            assert subprocess.run(alone, env=env).returncode == 0
        for i in range(len(calls)):
            names = sorted(p.name for p in (tmp_path / f"a{i}").iterdir())
            assert names == sorted(p.name for p in (tmp_path / f"in{i}").iterdir())
            for name in names:
                assert (tmp_path / f"in{i}" / name).read_bytes() == (
                    tmp_path / f"a{i}" / name).read_bytes(), (i, name)
        seeds = [json.loads((tmp_path / f"in{i}" / "t_summary.json").read_text())["seed_override"]
                 for i in (0, 2)]
        assert seeds == [99, None]

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

    @pytest.mark.parametrize("command, blocks", [
        ("trace", {"system": {"k_max": 2.5}}),
        ("trace", {"system": {"k_max": "4"}}),
        ("trace", {"scheme": {"dt": "0.05"}}),
        ("trace", {"scheme": {"t_final": math.inf}}),
        ("trace", {"scheme": {"dt": math.inf, "t_final": math.inf}}),
        ("trace", {"init": {"kind": "single_mode", "mode": 2.5}}),
        ("trace", {"init": {"kind": "cluster_pair", "pair": 0.5}}),
        ("decay", {"scheme": {"t_final": math.inf}}),
    ], ids=["k_max_fraction", "k_max_string", "dt_string", "t_final_infinite",
            "dt_and_t_final_infinite", "mode_fraction", "pair_fraction",
            "synthetic_t_final_infinite"])
    def test_bad_field_exits_2(self, tmp_path, capsys, command, blocks):
        payload = base_trace_config()
        for name, fields in blocks.items():
            payload.setdefault(name, {}).update(fields)
        p = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", p, "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists() or not any(out.iterdir())

    def test_unwritable_output_exits_1(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_trace_config())
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        assert main(["trace", "--config", cfg_path, "--out", str(target)]) == 1


class TestOutDir:
    """``main`` creates ``--out`` before the command runs (so an unwritable
    one exits 1 early); a command that raises removes the directories this
    run created, leaf first, and no other."""

    # decay exits 2 (no usable gap constant), trace 3 (non-finite state)
    FAILING = {
        2: ("decay", {"system": {"type": "custom", "eta": [1.0, 1.0]},
                      "scheme": {"dt_list": [0.05], "t_final": 4.0}}),
        3: ("trace", {"system": {"type": "custom", "eta": [1e300]},
                      "scheme": {"dt": 1e100, "t_final": 2e100, "damping": False},
                      "init": {"kind": "single_mode", "mode": 0}}),
    }

    def run(self, tmp_path, code, out):
        command, payload = self.FAILING[code]
        p = write_config(tmp_path / "c.json", payload)
        with np.errstate(all="ignore"):
            assert main([command, "--config", p, "--out", str(out)]) == code

    @pytest.mark.parametrize("code", [2, 3])
    def test_new_nested_out_is_removed(self, tmp_path, code):
        self.run(tmp_path, code, tmp_path / "a" / "b" / "c")
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("code", [2, 3])
    def test_existing_out_is_kept(self, tmp_path, code):
        (tmp_path / "a" / "b").mkdir(parents=True)
        self.run(tmp_path, code, tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir() and not any((tmp_path / "a" / "b").iterdir())
        # only the missing leaf under an existing parent goes
        self.run(tmp_path, code, tmp_path / "a" / "new")
        assert os.listdir(tmp_path / "a") == ["b"]

    def test_new_nested_out_holds_outputs_on_success(self, tmp_path):
        p = write_config(tmp_path / "c.json", base_trace_config())
        out = tmp_path / "a" / "b"
        assert main(["trace", "--config", p, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["t_summary.json", "t_trace.csv"]


class TestFieldTypes:
    """Every config value is checked against its field's annotation."""

    @pytest.mark.parametrize("command, block, key, value", [
        ("spectrum", "scheme", "dt", "0.05"),
        ("trace", "system", "alpha", "0.5"),
        ("trace", "study", "beta", "0"),
        ("observability", "study", "delta", "1"),
        ("observability", "study", "trials", True),
        ("trace", "output", "prefix", 3),
        ("trace", "scheme", "viscosity", "no"),
        ("trace", "system", "k_max", True),
        ("trace", "scheme", "dt", True),
        ("trace", "scheme", "dt_list", 0.05),
        ("trace", "scheme", "t_final", None),
        ("trace", "system", "eta", 3),
        # int fields are checked at load, also where trace does not read them
        ("trace", "study", "trials", 2.5),
        ("trace", "study", "trials", 0),
        ("trace", "system", "k_max", 8.0),
        ("trace", "init", "mode", 2.5),
        ("trace", "init", "mode", -1),
        ("trace", "init", "pair", 0.5),
        ("trace", "init", "seed", 2.0),
        # float fields must be finite, also where the subcommand does not read them
        ("trace", "study", "beta", math.nan),
        ("observability", "study", "beta", math.nan),
        ("spectrum", "study", "beta", math.nan),
        ("observability", "study", "beta", math.inf),
        ("trace", "system", "gamma", math.nan),
        ("trace", "system", "alpha", -math.inf),
        ("trace", "scheme", "dt", math.nan),
        # a key that no field declares is refused before any type check
        ("trace", "init", "cutoff", math.inf),
        ("trace", "study", "sigma", math.nan),
    ], ids=["dt_string", "alpha_string", "beta_string", "delta_string", "trials_bool",
            "prefix_int", "viscosity_string", "k_max_bool", "dt_bool", "dt_list_number",
            "t_final_null", "eta_number", "trials_fraction",
            "trials_zero", "k_max_float", "mode_fraction", "mode_negative",
            "pair_fraction", "init_seed_float", "trace_beta_nan", "observability_beta_nan",
            "spectrum_beta_nan", "observability_beta_inf", "gamma_nan", "alpha_minus_inf",
            "dt_nan", "cutoff_inf", "sigma_nan"])
    def test_wrong_type_exits_2(self, tmp_path, capsys, command, block, key, value):
        payload = base_trace_config()
        payload["study"] = {"t_star": 2.0, "trials": 3}
        payload[block][key] = value
        p = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        fragment = (f"unknown keys in block '{block}': ['{key}']" if key in ("sigma", "cutoff")
                    else f"{block}.{key} must be")
        assert len(err) == 1 and fragment in err[0], err
        assert not out.exists() or not any(out.iterdir())

    def test_numbers_fit_float_fields(self):
        payload = base_trace_config(dt=1, t_final=2)
        payload["system"]["alpha"] = 1
        payload["study"] = {"beta": 0, "seed": 3}
        cfg = ExperimentConfig.from_dict(payload)
        assert (cfg.scheme.dt, cfg.system.alpha, cfg.study.beta) == (1, 1, 0)


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
            "study": {"t_star": 8.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "d_decay.json").read_text())
        assert data["study"]["verdict"] == "non-uniform"

    def test_identity_audit_failure_exits_3(self, tmp_path, monkeypatch):
        # no rounding residual fits under 10 * 1e-300 * E0
        monkeypatch.setattr(schemes, "AUDIT_RTOL", 10 * 1e-300)
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt_list": [0.05], "t_final": 4.0},
            "study": {"t_star": 4.0},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "d_decay.json").exists()

    @pytest.mark.parametrize("scheme, study", [
        ({"dt_list": [-0.05], "t_final": 10.0}, {}),
        ({"dt_list": [0.5], "t_final": 0.2}, {}),
        # the window (T*/2, t_final): beyond t_final, and holding t = 10 alone
        ({"dt_list": [0.05], "t_final": 10.0}, {"t_star": 30.0}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"t_star": 19.95}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"beta": -0.5}),
        ({"dt_list": [0.05], "t_final": math.inf}, {}),
        ({"dt_list": ["0.05"], "t_final": 10.0}, {}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"t_star": -4.0}),
        ({"dt_list": [0.05], "t_final": 10.0}, {"t_star": math.inf}),
    ], ids=["dt_negative", "T_below_dt", "window_beyond_T", "one_sample_window",
            "beta_at_minus_half", "t_final_infinite", "dt_string", "t_star_negative",
            "t_star_infinite"])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, scheme, study):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": scheme,
            "study": {"t_star": 4.0, **study},
            "output": {"prefix": "d"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
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

    def test_verdict_field_enumeration(self, tmp_path):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 8},
            "scheme": {"dt_list": [0.05], "t_final": 60.0},
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
        ({"dt_list": [0.05]}, {"trials": 3, "delta": 0.0}),
        ({"dt_list": [0.05]}, {"trials": 3, "delta": -1.0}),
        ({"dt_list": [0.05]}, {"trials": 3, "delta": math.inf}),
        ({"dt_list": [0.05]}, {"trials": 3, "t_star": -1.0}),
        ({"dt_list": [0.05]}, {"trials": 3, "t_star": math.inf}),
    ], ids=["trials_zero", "trials_negative", "trials_fraction", "dt_zero", "later_dt_zero",
            "delta_zero", "delta_negative", "delta_infinite", "t_star_negative",
            "t_star_infinite"])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, scheme, study):
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": scheme,
            "study": {"t_star": 2.0, **study},
            "output": {"prefix": "o"},
        }
        p = write_config(tmp_path / "c.json", payload)
        assert main(["observability", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "o_observability.json").exists()

    def test_delta_above_delta0_exits_2_as_in_spectrum(self, tmp_path, capsys):
        # filtering_cutoff checks delta for every subcommand that reads it
        payload = {
            "system": {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
            "scheme": {"dt": 0.05},
            "study": {"trials": 3, "t_star": 2.0, "delta": 5.0},
            "output": {"prefix": "o"},
        }
        p = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        for command in ("observability", "spectrum", "ingham"):
            assert main([command, "--config", p, "--out", str(out)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: delta must lie in (0, 3.10281); got 5.0"]
            assert not out.exists() or not any(out.iterdir())


class TestZeroGap:
    @pytest.mark.parametrize("command", ["decay", "observability", "ingham"])
    def test_repeated_frequency_exits_2(self, tmp_path, capsys, command):
        # gamma = 0 and no 2-separated gap: no horizon without study.t_star
        payload = {
            "system": {"type": "custom", "eta": [1.0, 1.0]},
            "scheme": {"dt_list": [0.05], "t_final": 4.0},
            "study": {"trials": 3},
            "output": {"prefix": "z"},
        }
        p = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", p, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: no usable gap constant; pass t_star explicitly"]
        assert not out.exists() or not any(out.iterdir())


class TestStudyDeterminism:
    @pytest.mark.parametrize("command, study, name", [
        ("decay", {"t_star": 4.0}, "s_decay.json"),
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


def ingham_payload(system=None, scheme=None, study=None):
    """An ``ingham`` config: coupled waves k_max 4 at dt 0.01 unless overridden."""
    return {
        "system": system or {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 4},
        "scheme": scheme or {"dt": 0.01},
        "study": {"trials": 5, "seed": 0, **(study or {})},
        "output": {"prefix": "i"},
    }


def run_ingham(tmp_path, payload, name="c"):
    p = write_config(tmp_path / f"{name}.json", payload)
    out = tmp_path / name
    assert main(["ingham", "--config", p, "--out", str(out)]) == 0
    return json.loads((out / "i_ingham.json").read_text())


class TestInghamCommand:
    """``ingham`` reports, per dt, the envelopes of the midpoint frequencies
    ``±alpha(mu)`` of the low-pass modes sampled at sigma = dt, J = floor(T*/dt) // 2."""

    def test_self_test_and_seed_echo(self, tmp_path):
        # no constant self-test; one cell per dt at sigma = dt and J = (N - 1) // 2
        data = run_ingham(tmp_path, ingham_payload(
            {"type": "boundary_coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 8},
            {"dt_list": [0.01, 0.02]}, {"trials": 50, "seed": 21}))
        assert sorted(data) == ["cells", "config", "seed", "t_star"] and data["seed"] == 21
        assert [(c["dt"], c["sigma"]) for c in data["cells"]] == [(0.01, 0.01), (0.02, 0.02)]
        for cell in data["cells"]:
            assert cell["J"] == schemes.substep_count(data["t_star"], cell["dt"]) // 2
            assert cell["clustered"]["estimate"]["c_lo"] > 0.0

    def test_clustered_vs_scalar_comparison(self, tmp_path):
        # the low-pass family at dt 0.02 and 0.01 is the same at k_max 32 and
        # 128, so is every clustered number; the pairwise gap of the ± pairs
        # is too small for J sigma > pi/gamma, so no scalar envelope exists
        cells = {}
        for k_max in (32, 128):
            cells[k_max] = run_ingham(tmp_path, ingham_payload(
                {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": k_max},
                {"dt_list": [0.02, 0.01]}, {"trials": 20}), f"k{k_max}")["cells"]
        assert cells[32] == cells[128]
        for cell in cells[32]:
            assert cell["scalar"]["estimate"] is None
            assert cell["scalar"]["note"] == "J * sigma must exceed pi/gamma"
            assert cell["J"] * cell["sigma"] <= math.pi / cell["scalar"]["gamma"]

    @pytest.mark.parametrize("k_max, dt_list, c_lo, n_freqs", [
        (32, [0.02, 0.01, 0.005], [6.2935, 6.2156, 6.2488], [60, 124, 128]),
        (128, [0.005], [6.1011], [252]),
    ])
    def test_clustered_c_lo_per_dt(self, tmp_path, k_max, dt_list, c_lo, n_freqs):
        # coupled waves alpha 0.5, gamma 1, delta 1: the envelope the
        # theorem chain's low-pass observability bound consumes
        data = run_ingham(tmp_path, ingham_payload(
            {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": k_max},
            {"dt_list": dt_list}, {"trials": 20}))
        cells = data["cells"]
        assert [c["n_freqs"] for c in cells] == n_freqs
        assert [c["clustered"]["estimate"]["c_lo"] for c in cells] == pytest.approx(c_lo,
                                                                                   rel=1e-4)

    def test_boundary_k_max_256_exact_envelope(self, tmp_path):
        # the 124 low-pass frequencies of 512 modes at dt 0.01; the n x n
        # Dirichlet Gram does not depend on J, so J = 405 costs what a small J does
        data = run_ingham(tmp_path, ingham_payload(
            {"type": "boundary_coupled_waves", "alpha": 0.5, "gamma": 1.0, "k_max": 256},
            study={"trials": 10}))
        (cell,) = data["cells"]
        assert (cell["J"], cell["n_freqs"]) == (405, 124)
        assert cell["scalar"]["note"] == "J * sigma must exceed pi/gamma"
        est = cell["clustered"]["estimate"]
        assert est["n_active"] == 124
        assert est["c_lo"] == pytest.approx(6.2052, rel=1e-4)
        assert est["c_hi"] == pytest.approx(35.552, rel=1e-4)
        assert est["c_lo"] <= est["sampled_lo"] <= est["sampled_hi"] <= est["c_hi"]

    def test_envelope_missing_a_draw_exits_3(self, tmp_path, capsys, monkeypatch):
        # an eigen-solve that halves the envelope, so the top draws lie above it
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: 0.5 * eigvalsh(A))
        p = write_config(tmp_path / "c.json", ingham_payload())
        assert main(["ingham", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert "outside the exact envelope" in capsys.readouterr().err
        assert not (tmp_path / "i_ingham.json").exists()

    @pytest.mark.parametrize("blocks, message", [
        ({"study": {"sigma": 0.0}}, "config error: unknown keys in block 'study': ['sigma']"),
        ({"study": {"sigma": math.nan}}, "config error: unknown keys in block 'study': ['sigma']"),
        ({"study": {"gamma": 0.0}}, "config error: unknown keys in block 'study': ['gamma']"),
        ({"study": {"gamma": math.nan}}, "config error: unknown keys in block 'study': ['gamma']"),
        ({"study": {"J": 2.5}}, "config error: unknown keys in block 'study': ['J']"),
        # a frequency three times over: no gap constant gives T*
        ({"system": {"type": "custom", "eta": [1.0, 1.0, 1.0]}},
         "error: no usable gap constant; pass t_star explicitly"),
    ], ids=["sigma_zero", "sigma_nan", "gamma_zero", "gamma_nan", "J_fraction", "gamma1_zero"])
    def test_bad_sampling_exits_2(self, tmp_path, capsys, blocks, message):
        # sigma = dt, J and the gaps follow from the config: no key sets them
        payload = ingham_payload()
        for name, fields in blocks.items():
            payload[name].update(fields)
        p = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["ingham", "--config", p, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("system, dt, study, n_freqs, notes", [
        # no low-pass mode at dt 0.5 (cutoff 2 < mu_min): no frequency, no gap
        ({"k_max": 4}, 0.5, {}, 0, {"scalar": "gamma must be positive and finite; got inf",
                                    "clustered": "gamma1 must be positive and finite; got inf"}),
        # one mode gives the pair ±alpha: a pairwise gap but no 2-cluster
        ({"type": "custom", "eta": [1.0]}, 0.01, {"t_star": 4.0}, 2,
         {"clustered": "gamma1 must be positive and finite; got inf"}),
        # three equal modes: every gap is zero
        ({"type": "custom", "eta": [1.0, 1.0, 1.0]}, 0.01, {"t_star": 4.0}, 6,
         {"scalar": "gamma must be positive and finite; got 0.0",
          "clustered": "gamma1 must be positive and finite; got 0.0"}),
        # two modes give 4 frequencies and both envelopes, with two 2-clusters
        # (±alpha of the coupled pair) or none
        ({"k_max": 1}, 0.01, {}, 4, {}),
        ({"type": "custom", "eta": [1.0, 4.0]}, 0.01, {}, 4, {}),
    ], ids=["no_lowpass_mode", "one_mode", "zero_gaps", "two_modes", "custom_two_modes"])
    def test_failed_conditions_are_noted(self, tmp_path, system, dt, study, n_freqs, notes):
        # an envelope whose sampling conditions fail exits 0 with a null
        # estimate and a note naming the condition; the others are estimated
        data = run_ingham(tmp_path, ingham_payload(
            {"type": "coupled_waves", "alpha": 0.5, "gamma": 1.0, **system}, {"dt": dt}, study))
        (cell,) = data["cells"]
        assert cell["n_freqs"] == n_freqs
        for key in ("scalar", "clustered"):
            if key in notes:
                assert cell[key]["estimate"] is None and cell[key]["note"] == notes[key]
            else:
                assert "note" not in cell[key] and cell[key]["estimate"]["n_active"] == n_freqs

    def test_fractional_trials_exits_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", ingham_payload(study={"trials": 2.5}))
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
