import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cavspin import __version__
from cavspin.cli import COMMAND_KEYS, _problem_from_config, _sweep_rows, build_parser, main
from cavspin.dicke import EffectiveCoeffs, ideal_trace
from cavspin.moments import MomentGenerator, evolve_squeezing, trace_csv_rows
from cavspin.optimize import SweepPoint, SweepResult, problem_for_cooperativity
from cavspin.params import demo_params, params_to_mapping, read_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def write_config(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    return str(path)


def evolve_mapping(**extra):
    mapping = {"command": "evolve"}
    mapping.update(params_to_mapping(demo_params()))
    mapping.update({k: str(v) for k, v in extra.items()})
    return mapping


class TestEvolve:
    def test_bundled_demo_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["evolve", "--config", config_path("fig2.cfg"),
                     "--out", str(out), "--ref-rate-hz", "1e5"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.05 <= summary["summary"]["min_xi2"] <= 0.15
        assert summary["summary"]["t_min_seconds"] < 1e-6
        assert summary["config"]["command"] == "evolve"
        assert summary["artifact"]["name"] == "cavspin"
        lines = (out / "trace.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == ("t,xi2,theta_min,jz_re,nab_re,jpp_re,jpp_im,"
                          "jpm_re,jmp_re,commutator_residual")
        assert any(l.startswith("# n_atoms = 1000000") for l in lines)

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["evolve", "--config", config_path("fig2.cfg"),
                         "--out", str(out)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == \
            (out_b / "summary.json").read_bytes()

    def test_count_in_float_notation_reads_as_the_integer(self, tmp_path):
        # n_atoms = 1e6 is the count 1000000: only the config echo differs
        runs = {}
        for text in ("1000000", "1e6"):
            mapping = {**read_config(config_path("fig2.cfg")), "n_atoms": text}
            cfg = write_config(tmp_path, "fig2.cfg", mapping)
            out = tmp_path / text
            assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
            assert main(["budget", "--config", cfg, "--out", str(out)]) == 0
            rows = [line for line in (out / "trace.csv").read_text().splitlines()
                    if not line.startswith("#")]
            docs = [json.loads((out / name).read_text()) for name in ("summary.json",
                                                                      "budget.json")]
            runs[text] = rows, [{k: v for k, v in doc.items() if k != "config"}
                                for doc in docs]
        assert runs["1e6"] == runs["1000000"]
        assert len(runs["1e6"][0]) == 401

    def test_dissipation_free_variant_is_lower(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", config_path("fig2.cfg"),
                     "--out", str(out_a)]) == 0
        assert main(["evolve", "--config", config_path("fig2_nodissipation.cfg"),
                     "--out", str(out_b)]) == 0
        with_loss = json.loads((out_a / "summary.json").read_text())
        lossless = json.loads((out_b / "summary.json").read_text())
        assert lossless["summary"]["min_xi2"] < with_loss["summary"]["min_xi2"]

    def test_decayed_trace_writes_no_inf(self, tmp_path):
        # dissipative N = 156: <J_z> decays below 1e-12 N inside the default
        # horizon, and the trace ends there instead of exporting xi2 = inf
        params = replace(demo_params(n_atoms=156), omega_1=14485.0, omega_2=6982.0,
                         delta_1=79304.0, omega_ab=11158.0, delta=996.0, kappa=75.8,
                         gamma_a=31.9, gamma_b=39.8, gamma_o=42.9)
        mapping = {"command": "evolve", **params_to_mapping(params)}
        cfg = write_config(tmp_path, "decayed.cfg", mapping)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = [l for l in (tmp_path / "trace.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 + 28
        assert not any("inf" in row or "nan" in row for row in rows)
        summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
        assert summary["truncated"]
        assert summary["truncation_reason"].startswith("<J_z> below 1e-12 N")

    def test_trace_truncated_at_row_1_writes_one_data_row(self, tmp_path, monkeypatch):
        # Im <J_z> / N = sin(1.5e-7 t) / 2 leaves the physicality tolerance at t = 1
        gen = MomentGenerator(m=np.diag([1.5e-7j, 0, 0, 0, 0, 0]))
        monkeypatch.setattr(sys.modules["cavspin.moments"], "assemble_generator",
                            lambda params: gen)
        cfg = write_config(tmp_path, "short.cfg", evolve_mapping(t_max=9, n_steps=10))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = [l for l in (tmp_path / "trace.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0].startswith("t,xi2,")
        assert rows[1:] == ["0,1,1.5707963267948966,500000,1000000,0,0,1000000,0,0"]
        summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
        assert summary["truncation_reason"] == "physicality tolerance exceeded at t=1"

    @pytest.mark.parametrize("key,value", [("t_max", "0"), ("t_max", "-1"), ("t_max", "nan"),
                                           ("t_max", "inf"), ("max_extensions", "-3")])
    def test_bad_horizon_key_is_config_error(self, tmp_path, capsys, key, value):
        message = {"t_max": f"t_max must be finite and positive, got {float(value)!r}",
                   "max_extensions": f"max_extensions must be >= 0, got {value}"}[key]
        cfg = write_config(tmp_path, "bad.cfg", evolve_mapping(**{key: value}))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "summary.json").exists()
        assert main(["validate", "--config", cfg]) == 2

    def test_horizon_refusal_is_the_model_text(self, tmp_path, capsys):
        for value in ("-1", "nan", "inf"):
            cfg = write_config(tmp_path, "bad.cfg", evolve_mapping(t_max=value))
            assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
            with pytest.raises(ValueError) as refusal:
                evolve_squeezing(demo_params(), t_max=float(value))
            assert capsys.readouterr().err == f"config error: {refusal.value}\n"

    def test_empty_grid_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.cfg", evolve_mapping(n_steps=1))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n_steps must be >= 2, got 1" in capsys.readouterr().err
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_drive_is_config_error(self, tmp_path, capsys, value):
        mapping = read_config(config_path("fig2.cfg"))
        mapping["omega1_re"] = value
        cfg = write_config(tmp_path, "bad.cfg", mapping)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "omega_1 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("name", ["fig2.cfg", "oracle_n2.cfg", "fig3.cfg"])
    def test_zero_ground_splitting_is_config_error(self, tmp_path, capsys, name):
        # ratio_freqs divides by omega_ab: the run would write it as inf, and
        # the oracle's frame and elimination need the splitting too
        mapping = read_config(config_path(name))
        mapping["omega_ab"] = "0"
        cfg = write_config(tmp_path, "bad.cfg", mapping)
        out = tmp_path / "run"
        message = ("config error: omega_ab must be nonzero: the validity ratio ratio_freqs "
                   "divides by it\n")
        assert main([mapping["command"], "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("key", ["t_max", "ref_rate_hz"])
    def test_non_finite_grid_key_is_config_error(self, tmp_path, key):
        cfg = write_config(tmp_path, "bad.cfg", evolve_mapping(**{key: "inf"}))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_bad_ref_rate_flag_is_config_error(self, tmp_path, capsys, value):
        assert main(["evolve", "--config", config_path("fig2.cfg"),
                     "--out", str(tmp_path), "--ref-rate-hz", value]) == 2
        assert capsys.readouterr().err == (
            f"config error: ref_rate_hz must be finite and positive, got {float(value)!r}\n")
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_bad_ref_rate_key_is_config_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "bad.cfg", evolve_mapping(ref_rate_hz=value))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: ref_rate_hz must be finite and positive, got {float(value)!r}\n")
        assert not (tmp_path / "summary.json").exists()
        assert main(["validate", "--config", cfg]) == 2

    def test_ref_rate_key_converts_t_min(self, tmp_path):
        cfg = write_config(tmp_path, "rate.cfg", evolve_mapping(ref_rate_hz="1e5"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
        assert summary["ref_rate_hz"] == 1e5
        assert summary["t_min_seconds"] == pytest.approx(
            summary["t_min"] / (2.0 * math.pi * 1e5), rel=1e-15)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.cfg", evolve_mapping(bogus=3))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert main(["validate", "--config", cfg]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe" + "command = evolve\n".encode("utf-16-le"))
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: not UTF-8 text")
        assert not out.exists()

    def test_directory_config_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("kept\n")
        assert main(["evolve", "--config", config_path("fig2.cfg"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("config error: ")
        assert out.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["run"]


class TestBudget:
    def test_demo_budget(self, tmp_path, capsys):
        code = main(["budget", "--config", config_path("fig2.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "budget.json").read_text())
        assert doc["budget"]["decayed_atoms"] == pytest.approx(5e4)
        assert doc["budget"]["lost_photons"] == pytest.approx(0.2)

    def test_lossless_cavity(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg",
                           {**evolve_mapping(), "kappa": "0", "command": "budget"})
        assert main(["budget", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "budget.json").read_text())
        assert doc["budget"]["lost_photons"] == 0.0

    def test_zero_detuning_reports_unbounded(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg",
                           {**evolve_mapping(), "delta": "0", "command": "budget"})
        assert main(["budget", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "budget.json").read_text())
        assert doc["budget"]["lost_photons"] == "unbounded"


class TestOracle:
    @pytest.mark.parametrize("name", ["oracle_n2.cfg", "oracle_n2_dissipative.cfg"])
    def test_byte_identical_reruns(self, tmp_path, name):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["oracle", "--config", config_path(name), "--out", str(out)]) == 0
        assert (out_a / "validation.json").read_bytes() == \
            (out_b / "validation.json").read_bytes()

    @pytest.mark.parametrize("key,value", [("n_times", "1"), ("t_final", "0"),
                                           ("t_final", "nan"), ("t_final", "inf")])
    def test_bad_output_grid_is_config_error(self, tmp_path, capsys, key, value):
        message = {"n_times": "n_times must be >= 2, got 1",
                   "t_final": f"t_final must be finite and positive, got {float(value)!r}"}[key]
        mapping = read_config(config_path("oracle_n2.cfg"))
        mapping[key] = value
        cfg = write_config(tmp_path, "bad.cfg", mapping)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert main(["validate", "--config", cfg]) == 2
        assert not (tmp_path / "validation.json").exists()

    @pytest.mark.parametrize("name", ["oracle_n2.cfg", "oracle_n2_dissipative.cfg"])
    def test_bundled_two_atom_config(self, tmp_path, name):
        code = main(["oracle", "--config", config_path(name), "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "validation.json").read_text())
        val = doc["validation"]
        assert val["in_validity_regime"] is True
        assert val["max_rel_dev_fi"]["jz"] < 0.10
        assert val["max_rel_dev_fi"]["jpp"] < 0.10
        rec = val["records"][0]
        assert set(rec) == {"t", "moment", "full", "intermediate", "linear",
                            "rel_dev_fi", "rel_dev_il"}

    def test_missing_level_refused(self, tmp_path):
        mapping = {"command": "oracle"}
        mapping.update(params_to_mapping(demo_params()))
        mapping.update({"n_atoms": "2", "gamma_a": "0.1", "gamma_b": "0.1",
                        "gamma_o": "0.1", "kappa": "0.1", "omega1_re": "2",
                        "omega2_re": "2", "delta1": "100", "omega_ab": "120",
                        "delta": "1", "atom_levels": "3", "cavity_cutoff": "1",
                        "t_final": "1.0", "n_times": "3"})
        cfg = write_config(tmp_path, "o.cfg", mapping)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert main(["validate", "--config", cfg]) == 3

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_drive_is_config_error(self, tmp_path, capsys, value):
        mapping = read_config(config_path("oracle_n2.cfg"))
        mapping["omega1_re"] = value
        cfg = write_config(tmp_path, "bad.cfg", mapping)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "omega_1 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "validation.json").exists()
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("value", ["7", "-1", "2"])
    def test_compensate_stark_not_a_flag_is_config_error(self, tmp_path, capsys, value):
        mapping = read_config(config_path("oracle_n2.cfg"))
        mapping["compensate_stark"] = value
        cfg = write_config(tmp_path, "bad.cfg", mapping)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "compensate_stark" in capsys.readouterr().err
        assert not (tmp_path / "validation.json").exists()
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("key", ["dt_full", "dt_intermediate"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_non_positive_step_is_config_error(self, tmp_path, capsys, key, value):
        # both bundled oracles: a unitary and a dissipative model pair
        for name in ("oracle_n2.cfg", "oracle_n2_dissipative.cfg"):
            mapping = read_config(config_path(name))
            mapping[key] = value
            cfg = write_config(tmp_path, "bad.cfg", mapping)
            assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
            assert main(["validate", "--config", cfg]) == 2
            assert capsys.readouterr().err == 2 * (
                f"config error: {key} must be finite and positive, got {float(value)!r}\n")
            assert not (tmp_path / "validation.json").exists()

    def test_wide_step_leaves_the_validation(self, tmp_path):
        # a dt as wide as the run, t_final, caps neither model's own blocks:
        # only the config echo changes
        mapping = read_config(config_path("oracle_n2_dissipative.cfg"))
        mapping.update({"dt_full": mapping["t_final"], "dt_intermediate": mapping["t_final"]})
        docs = []
        for name, cfg in (("plain", config_path("oracle_n2_dissipative.cfg")),
                          ("capped", write_config(tmp_path, "capped.cfg", mapping))):
            assert main(["oracle", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            docs.append(json.loads((tmp_path / name / "validation.json").read_text()))
        assert docs[0]["validation"] == docs[1]["validation"]
        assert docs[0]["config"] != docs[1]["config"]

    def test_runaway_step_exits_numerical_at_once(self, tmp_path, capsys):
        # dt_full = 1e-12 over t_final = 3 would be 3e12 Taylor blocks
        mapping = read_config(config_path("oracle_n2_dissipative.cfg"))
        mapping["dt_full"] = "1e-12"
        cfg = write_config(tmp_path, "runaway.cfg", mapping)
        start = time.perf_counter()
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert f"needs {math.ceil(3.0 / 1e-12)} blocks" in capsys.readouterr().err
        assert not (tmp_path / "validation.json").exists()

    def test_hilbert_space_error_exits_numerical_under_validate_too(self, tmp_path):
        mapping = read_config(config_path("oracle_n2.cfg"))
        mapping["atom_levels"] = "5"
        cfg = write_config(tmp_path, "bad.cfg", mapping)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert main(["validate", "--config", cfg]) == 3
        assert not (tmp_path / "validation.json").exists()

    def test_zero_drive_all_deviations_zero(self, tmp_path):
        mapping = {"command": "oracle"}
        mapping.update(params_to_mapping(demo_params()))
        mapping.update({"n_atoms": "2", "omega1_re": "0", "omega2_re": "0",
                        "delta1": "100", "omega_ab": "120", "delta": "1",
                        "kappa": "0", "gamma_a": "0", "gamma_b": "0",
                        "gamma_o": "0", "atom_levels": "3", "cavity_cutoff": "1",
                        "t_final": "2.0", "n_times": "3"})
        cfg = write_config(tmp_path, "o.cfg", mapping)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "validation.json").read_text())
        for table in ("max_rel_dev_fi", "max_rel_dev_il"):
            assert all(v == 0.0 for v in doc["validation"][table].values())


class TestOptimizeCommand:
    def test_small_budget_run(self, tmp_path):
        mapping = {"command": "optimize", "n_atoms": "1000000",
                   "omega_ab": "100000", "kappa": "100", "gamma_total": "100",
                   "restarts": "2", "max_evals": "50", "n_steps": "160",
                   "seed": "11"}
        cfg = write_config(tmp_path, "opt.cfg", mapping)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "optimum.json").read_text())
        assert 0.7 / 10.0 * 0.7 <= doc["optimum"]["xi2_min"] <= 0.7 / 10.0 * 1.3
        assert doc["seed"] == 11

    def test_seed_flag_overrides(self, tmp_path):
        mapping = {"command": "optimize", "n_atoms": "1000000",
                   "omega_ab": "100000", "kappa": "100", "gamma_total": "100",
                   "restarts": "1", "max_evals": "25", "n_steps": "120"}
        cfg = write_config(tmp_path, "opt.cfg", mapping)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "5"]) == 0
        doc = json.loads((tmp_path / "optimum.json").read_text())
        assert doc["seed"] == 5

    def test_infeasible_bounds_exit_numerical(self, tmp_path):
        mapping = {"command": "optimize", "n_atoms": "1000000",
                   "omega_ab": "5", "kappa": "100", "gamma_total": "100",
                   "restarts": "1", "max_evals": "15", "n_steps": "60"}
        cfg = write_config(tmp_path, "opt.cfg", mapping)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 3


OPTIMIZE_MAPPING = {"command": "optimize", "n_atoms": "1000000", "omega_ab": "100000",
                    "kappa": "100", "gamma_total": "100", "restarts": "1",
                    "max_evals": "15", "n_steps": "60"}


class TestSearchSettings:
    BAD = [("restarts", "0"), ("max_evals", "0"), ("n_steps", "1"),
           ("r_min", "-1"), ("delta1_min", "0"), ("r_min", "40"),
           ("n_atoms", "0"), ("gamma_split", "2,-1,0"), ("g_b", "0"), ("seed", "-1"),
           ("omega_ab", "0"), ("gamma_split", "1,1")]
    #: keys that sweep refuses as unknown
    BAD_OPTIMIZE_ONLY = [("kappa", "-1"), ("gamma_total", "-1")]

    @pytest.mark.parametrize("key,value", BAD + BAD_OPTIMIZE_ONLY)
    def test_optimize_exits_config(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "opt.cfg", {**OPTIMIZE_MAPPING, key: value})
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "optimum.json").exists()
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("key,value", BAD)
    def test_sweep_exits_config(self, tmp_path, capsys, key, value):
        mapping = {"command": "sweep", "n_atoms": "1000000", "omega_ab": "100000",
                   "cooperativities": "100", "kappa_over_gamma": "1", key: value}
        cfg = write_config(tmp_path, "sweep.cfg", mapping)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_negative_seed_flag_exits_config(self, tmp_path, capsys, command):
        cfg = (write_config(tmp_path, "opt.cfg", OPTIMIZE_MAPPING) if command == "optimize"
               else config_path("fig3.cfg"))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestProblemFromConfig:
    def test_half_given_bounds_and_seed_fall_back_to_problem_defaults(self):
        config = {"n_atoms": "1000", "omega_ab": "100000", "kappa": "1",
                  "gamma_total": "1", "r_min": "0.5", "delta1_max": "2e6"}
        problem = _problem_from_config(config, None)
        assert problem.r_bounds == (0.5, 30.0)
        assert problem.delta_bounds == (-4000.0, 4000.0)
        assert problem.delta1_bounds == (1e4, 2e6)
        assert problem.seed == 2024
        assert (problem.g_a, problem.g_b) == (1.0, 1.0)

    def test_search_keys_of_optimize_and_sweep(self):
        search = {"g_a", "g_b", "gamma_split", "r_min", "r_max", "delta_min",
                  "delta_max", "delta1_min", "delta1_max", "restarts",
                  "max_evals", "seed", "n_steps"}
        assert COMMAND_KEYS["sweep"]["optional"] == search
        assert COMMAND_KEYS["optimize"]["optional"] == search | {"fixed_delta"}


class TestSweepCommand:
    def test_single_point(self, tmp_path):
        mapping = {"command": "sweep", "n_atoms": "1000000",
                   "omega_ab": "100000", "cooperativities": "100",
                   "kappa_over_gamma": "1", "restarts": "2", "max_evals": "50",
                   "n_steps": "160", "seed": "7"}
        cfg = write_config(tmp_path, "sweep.cfg", mapping)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        xi2 = doc["fit"]["points"][0]["xi2_min"]
        assert doc["fit"]["prefactor_fixed_slope"] == pytest.approx(xi2 * 10.0)
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = next(l for l in csv_lines if not l.startswith("#"))
        assert header == ("cooperativity,xi2_min,r_opt,delta_opt,delta1_opt,"
                          "t_min,C_fixed_slope")

    @pytest.mark.parametrize("ratio", ["0", "-1", "nan", "inf"])
    def test_bad_loss_ratio_is_config_error(self, tmp_path, capsys, ratio):
        # every value is refused by the rule, in the library's words
        message = f"kappa_over_gamma must be finite and positive, got {float(ratio)!r}"
        mapping = {"command": "sweep", "n_atoms": "1000000", "omega_ab": "100000",
                   "cooperativities": "100", "kappa_over_gamma": ratio}
        cfg = write_config(tmp_path, "sweep.cfg", mapping)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "fit.json").exists()
        assert main(["validate", "--config", cfg]) == 2

    def test_loss_ratio_refusal_is_the_model_text(self, tmp_path, capsys):
        for ratio in ("0", "nan", "inf"):
            mapping = {"command": "sweep", "n_atoms": "1000000", "omega_ab": "100000",
                       "cooperativities": "100", "kappa_over_gamma": ratio}
            cfg = write_config(tmp_path, "sweep.cfg", mapping)
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
            template = _problem_from_config(mapping, None)
            with pytest.raises(ValueError) as refusal:
                problem_for_cooperativity(template, 1.0, kappa_over_gamma=float(ratio))
            assert capsys.readouterr().err == f"config error: {refusal.value}\n"

    @pytest.mark.parametrize("key,value", [("cooperativities", "10,inf"),
                                           ("cooperativities", "nan"),
                                           ("r_max", "inf"), ("gamma_split", "1,nan,1"),
                                           ("omega_ab", "nan"), ("g_a", "nan"),
                                           ("g_b", "inf"), ("r_min", "nan"),
                                           ("delta_min", "-inf"), ("delta_max", "nan"),
                                           ("delta1_min", "nan"), ("delta1_max", "inf"),
                                           ("fixed_delta", "inf"), ("kappa", "nan"),
                                           ("gamma_total", "inf")])
    def test_non_finite_search_key_is_config_error(self, tmp_path, capsys, key, value):
        # every float key of optimize and sweep is refused by a rule of params,
        # in its words, under the key's name
        bad = next(v for v in map(float, value.split(",")) if not math.isfinite(v))
        if key == "cooperativities":
            message = f"cooperativities must be finite and positive, got {bad!r}"
        else:
            message = f"{key} must be finite, got {bad!r}"
        if key in COMMAND_KEYS["sweep"]["required"] | COMMAND_KEYS["sweep"]["optional"]:
            command, out_file = "sweep", "fit.json"
            mapping = {"command": "sweep", "n_atoms": "1000000", "omega_ab": "100000",
                       "cooperativities": "100", "kappa_over_gamma": "1", key: value}
        else:
            command, out_file = "optimize", "optimum.json"
            mapping = {**OPTIMIZE_MAPPING, key: value}
        cfg = write_config(tmp_path, "search.cfg", mapping)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / out_file).exists()
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("coops", ["-5,100", "0,100", ","])
    def test_non_positive_cooperativity_is_config_error(self, tmp_path, capsys, coops):
        # each listed value goes through the rule; an empty list has no value >= 1
        message = {"-5,100": "cooperativities must be finite and positive, got -5.0",
                   "0,100": "cooperativities must be finite and positive, got 0.0",
                   ",": "cooperativities must include a value >= 1, as the scaling fit "
                        "uses only those: ','"}[coops]
        mapping = {"command": "sweep", "n_atoms": "1000000", "omega_ab": "100000",
                   "cooperativities": coops, "kappa_over_gamma": "1"}
        cfg = write_config(tmp_path, "sweep.cfg", mapping)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert main(["validate", "--config", cfg]) == 2
        assert not (tmp_path / "fit.json").exists()
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("coops", ["0.5", "0.05,0.5,0.99"])
    def test_no_point_the_fit_uses_is_config_error(self, tmp_path, capsys, coops):
        # the scaling fit uses only cooperativities >= 1
        mapping = {"command": "sweep", "n_atoms": "1000000", "omega_ab": "100000",
                   "cooperativities": coops, "kappa_over_gamma": "1"}
        cfg = write_config(tmp_path, "sweep.cfg", mapping)
        out = tmp_path / "out"
        for argv in (["sweep", "--config", cfg, "--out", str(out)],
                     ["validate", "--config", cfg]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "cooperativities" in err
        assert not out.exists()

    def test_every_point_failed_exits_numerical_and_writes_nothing(self, tmp_path,
                                                                    monkeypatch, capsys):
        def fail(problem):
            raise RuntimeError("no feasible start")
        monkeypatch.setattr(sys.modules["cavspin.optimize"], "optimize", fail)
        mapping = {"command": "sweep", "n_atoms": "1000000", "omega_ab": "100000",
                   "cooperativities": "10,100", "kappa_over_gamma": "1"}
        cfg = write_config(tmp_path, "sweep.cfg", mapping)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "no successful sweep points" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rows_of_failed_points_are_the_header(self):
        result = SweepResult(points=(SweepPoint(100.0, None, "no feasible start"),),
                             prefactor_fixed_slope=math.nan, free_slope=math.nan,
                             free_intercept=math.nan)
        assert list(_sweep_rows(result)) == [
            "cooperativity,xi2_min,r_opt,delta_opt,delta1_opt,t_min,C_fixed_slope"]

    def test_failed_point_exits_numerical(self, tmp_path):
        mapping = {"command": "sweep", "n_atoms": "1000000",
                   "omega_ab": "100000", "cooperativities": "0.05,100",
                   "kappa_over_gamma": "1", "restarts": "2", "max_evals": "40",
                   "n_steps": "120", "seed": "7"}
        cfg = write_config(tmp_path, "sweep.cfg", mapping)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


class TestValidate:
    @pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIG_DIR)
                                            if n.endswith(".cfg")))
    def test_bundled_configs_validate(self, name, capsys):
        assert main(["validate", "--config", config_path(name)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_rejects_undeclared(self, tmp_path):
        cfg = write_config(tmp_path, "x.cfg", {"n_atoms": "5"})
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("command,source,overrides,message", [
        ("oracle", "oracle_n2.cfg", {"gamma_o": "0.1"}, "requires atom_levels = 4"),
        ("oracle", "oracle_n2.cfg", {"delta1": "0"}, "delta_1 and delta_2 must be nonzero"),
        ("evolve", "fig2.cfg", {"omega1_re": "0"}, "no drive"),
        ("budget", "fig2.cfg", {"command": "budget", "g_b_re": "0"},
         "cavity couplings must be nonzero"),
        ("evolve", "fig2.cfg", {"delta1": "0"}, "delta_1 and delta_2 must be nonzero"),
        ("evolve", "fig2.cfg", {"delta1": "-10000"}, "delta_1 and delta_2 must be nonzero"),
    ], ids=["three_levels_with_gamma_o", "oracle_zero_delta_1",
            "no_drive", "zero_coupling_budget", "zero_delta_1", "zero_delta_2"])
    def test_model_refusal_matches_the_command(self, tmp_path, capsys, command, source,
                                               overrides, message):
        mapping = read_config(config_path(source))
        assert "t_max" not in mapping
        mapping.update(overrides)
        cfg = write_config(tmp_path, "bad.cfg", mapping)
        out = tmp_path / "out"
        failures = []
        for argv in ([command, "--config", cfg, "--out", str(out)],
                     ["validate", "--config", cfg]):
            code = main(argv)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            failures.append((code, captured.err))
        assert failures[0] == failures[1]
        code, err = failures[0]
        assert code == 3
        assert err.startswith("numerical failure: ") and message in err
        assert not out.exists()

    #: each field's bad values, with the refusal every command that reads the
    #: field gives, and those commands (budget reads no n_steps); omega_ab = 0
    #: is TestEvolve::test_zero_ground_splitting_is_config_error's
    FIELD_REFUSALS = [
        ("n_atoms", "0", "n_atoms must be >= 1, got 0", "evolve budget oracle optimize sweep"),
        ("n_atoms", "2.5", "n_atoms must be an integer, got 2.5",
         "evolve budget oracle optimize sweep"),
        ("n_atoms", "nan", "n_atoms must be an integer, got nan",
         "evolve budget oracle optimize sweep"),
        ("omega_ab", "nan", "omega_ab must be finite, got nan",
         "evolve budget oracle optimize sweep"),
        ("kappa", "-1", "kappa must be nonnegative, got -1.0", "evolve budget oracle optimize"),
        ("kappa", "nan", "kappa must be finite, got nan", "evolve budget oracle optimize"),
        ("gamma_total", "-1", "gamma_total must be nonnegative, got -1.0", "optimize"),
        ("n_steps", "1", "n_steps must be >= 2, got 1", "evolve optimize sweep"),
        ("n_steps", "2.5", "n_steps must be an integer, got 2.5", "evolve optimize sweep"),
        ("seed", "-1", "seed must be >= 0, got -1", "optimize sweep"),
        ("atom_levels", "3.5", "atom_levels must be an integer, got 3.5", "oracle"),
        ("cavity_cutoff", "0", "cavity_cutoff must be >= 1, got 0", "oracle"),
    ]

    @pytest.mark.parametrize("key,value,message,commands", FIELD_REFUSALS,
                             ids=[f"{key}={value}" for key, value, *_ in FIELD_REFUSALS])
    def test_one_refusal_per_field(self, tmp_path, capsys, key, value, message, commands):
        sources = {"evolve": read_config(config_path("fig2.cfg")),
                   "budget": {**read_config(config_path("fig2.cfg")), "command": "budget"},
                   "oracle": read_config(config_path("oracle_n2.cfg")),
                   "optimize": OPTIMIZE_MAPPING,
                   "sweep": read_config(config_path("fig3.cfg"))}
        for command in commands.split():
            cfg = write_config(tmp_path, f"{command}.cfg", {**sources[command], key: value})
            out = tmp_path / command
            for argv in ([command, "--config", cfg, "--out", str(out)],
                         ["validate", "--config", cfg]):
                assert (main(argv), capsys.readouterr().err) == (2, f"config error: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("source,key,value", [
        ("fig2.cfg", "n_atoms", "1e6"), ("fig3.cfg", "n_atoms", "1e6"),
        ("fig3.cfg", "restarts", "8.0"), ("oracle_n2.cfg", "n_atoms", "2e0"),
        ("oracle_n2.cfg", "cavity_cutoff", "2.0"), ("oracle_n2.cfg", "compensate_stark", "1.0"),
    ])
    def test_count_in_float_notation_validates(self, tmp_path, capsys, source, key, value):
        cfg = write_config(tmp_path, "x.cfg", {**read_config(config_path(source)), key: value})
        assert main(["validate", "--config", cfg]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_command_key_cross_checks(self, tmp_path):
        cfg = write_config(tmp_path, "x.cfg", evolve_mapping())
        # budgeting an evolve config is allowed; other commands reject it
        assert main(["budget", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_import_leaves_scipy_stats_unloaded(module):
    # either would add a third or more to the import time of every command,
    # and optimize has its own Sobol' starts and Nelder-Mead: a small run
    # loads neither
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, cavspin, cavspin.cli\n"
            f"print({module!r} in sys.modules)\n"
            "cavspin.optimize(cavspin.OptimizationProblem(\n"
            "    n_atoms=10 ** 6, omega_ab=1e5, kappa=100.0, gamma_total=100.0,\n"
            "    restarts=2, max_evals=8))\n"
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def scipy_imports(stderr):
    """The scipy modules named in ``python -X importtime`` output."""
    names = (line.rpartition("|")[2].strip() for line in stderr.splitlines()
             if line.startswith("import time:"))
    return [n for n in names if n == "scipy" or n.startswith("scipy.")]


def test_cold_start_loads_no_scipy(tmp_path):
    # importing scipy.linalg and scipy.sparse took longer than an evolve run
    # spends in its physics, which never calls them on these configs; the
    # dissipation-free oracle propagates its linear level by the moment kernel
    run = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import cavspin, cavspin.cli"],
                         cwd=SRC, check=True, capture_output=True, text=True)
    assert "cavspin.cli" in run.stderr and scipy_imports(run.stderr) == []
    for name in ("fig2.cfg", "fig2_nodissipation.cfg"):
        cold, warm = tmp_path / f"cold-{name}", tmp_path / f"warm-{name}"
        cfg = os.path.abspath(config_path(name))
        run = subprocess.run([sys.executable, "-X", "importtime", "-m", "cavspin.cli",
                              "evolve", "--config", cfg, "--out", str(cold)],
                             cwd=SRC, check=True, capture_output=True, text=True)
        assert scipy_imports(run.stderr) == []
        assert main(["evolve", "--config", cfg, "--out", str(warm)]) == 0
        assert (cold / "trace.csv").read_bytes() == (warm / "trace.csv").read_bytes()
    cfg = os.path.abspath(config_path("oracle_n2.cfg"))
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "cavspin.cli",
                          "oracle", "--config", cfg, "--out", str(tmp_path / "oracle")],
                         cwd=SRC, check=True, capture_output=True, text=True)
    assert scipy_imports(run.stderr) == []
    assert (tmp_path / "oracle" / "validation.json").exists()


@pytest.mark.parametrize("module, call, loaded", [
    ("scipy.linalg", "cavspin.propagate(cavspin.assemble_generator(p),\n"
                     "    cavspin.initial_state(2), 1.0)", False),
    ("scipy.linalg", "cavspin.validate_elimination(\n"
                     "    dataclasses.replace(p, kappa=0.0, gamma_a=0.0),\n"
                     "    cavspin.HilbertSpec(2, 3, 1), [0.0, 0.5])", False),
    ("scipy.linalg", "cavspin.moments._COND_LIMIT = 0.0\n"
                     "cavspin.evolve_squeezing(cavspin.params.demo_params())", False),
    ("scipy.linalg", "from cavspin.dicke import DickePropagator\n"
                     "DickePropagator(cavspin.EffectiveCoeffs(.1, .1, .1, .1), 4)"
                     ".evolve_amplitudes(\n"
                     "    cavspin.stretched_state(4).amplitudes, [1.0])", True),
    ("scipy.sparse", "cavspin.validate_elimination(p, cavspin.HilbertSpec(2, 3, 1),"
                     " [0.0, 0.5])", True),
], ids=["propagate", "dissipation-free-oracle", "fallback-grid", "dicke",
        "dissipative-oracle"])
def test_scipy_is_imported_where_it_is_called(module, call, loaded):
    # only the Dicke layer loads scipy.linalg and only a dissipative oracle
    # scipy.sparse; the moment kernel serves the rest
    code = ("import dataclasses, sys, cavspin, cavspin.cli\n"
            "p = cavspin.PhysicalParams(n_atoms=2, omega_1=1.2, delta_1=30.0,\n"
            "    omega_ab=60.0, delta=0.5, kappa=0.5, gamma_a=0.1)\n"
            f"print({module!r} in sys.modules)\n"
            f"{call}\n"
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", str(loaded)]


class TestParser:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--config", config_path("fig2.cfg")])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--config", config_path("fig2.cfg")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"cavspin {__version__}" == "cavspin 0.1.0"

    def test_options_after_the_subcommand(self):
        args = build_parser().parse_args(["sweep", "--config", "c.cfg", "--out", "o",
                                          "--seed", "3"])
        assert (args.subcommand, args.config, args.out, args.seed, args.ref_rate_hz) == \
            ("sweep", "c.cfg", "o", 3, None)
        args = build_parser().parse_args(["evolve", "--config", "c.cfg",
                                          "--ref-rate-hz", "1e5"])
        assert (args.subcommand, args.out, args.seed, args.ref_rate_hz) == \
            ("evolve", ".", None, 1e5)

    @pytest.mark.parametrize("command,flag,value", [
        ("evolve", "--seed", "5"), ("oracle", "--seed", "5"), ("budget", "--seed", "5"),
        ("validate", "--seed", "5"), ("optimize", "--ref-rate-hz", "1e5"),
        ("sweep", "--ref-rate-hz", "1e5"), ("oracle", "--ref-rate-hz", "1e5"),
        ("budget", "--ref-rate-hz", "nan"), ("validate", "--ref-rate-hz", "1e5")])
    def test_flag_the_subcommand_ignores_is_config_error(self, tmp_path, capsys,
                                                         command, flag, value):
        if command == "optimize":
            config = write_config(tmp_path, "opt.cfg", OPTIMIZE_MAPPING)
        else:
            config = config_path({"oracle": "oracle_n2.cfg",
                                  "sweep": "fig3.cfg"}.get(command, "fig2.cfg"))
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert ("optimize and sweep" if flag == "--seed" else "evolve") in err
        assert not out.exists()


def per_cell_rows(header, table):
    """The per-cell CSV formatting the row formatter must reproduce."""
    yield header
    for cells in table:
        yield ",".join("%.17g" % c for c in cells)


def reference_trace_rows(trace):
    resid = trace.commutator_residual
    table = []
    for k in range(len(trace.times)):
        mk = trace.moments[k]
        table.append((trace.times[k], trace.xi2[k], trace.theta_min[k],
                      mk[0].real, mk[1].real, mk[2].real, mk[2].imag,
                      mk[4].real, mk[5].real, resid[k]))
    return list(per_cell_rows("t,xi2,theta_min,jz_re,nab_re,jpp_re,jpp_im,jpm_re,"
                              "jmp_re,commutator_residual", table))


def decayed_params():
    """Dissipative N = 156 point whose trace is truncated at a decayed <J_z>."""
    return replace(demo_params(n_atoms=156), omega_1=14485.0, omega_2=6982.0,
                   delta_1=79304.0, omega_ab=11158.0, delta=996.0, kappa=75.8,
                   gamma_a=31.9, gamma_b=39.8, gamma_o=42.9)


class TestExportRows:
    def test_demo_trace(self):
        trace = evolve_squeezing(demo_params())
        assert list(trace_csv_rows(trace)) == reference_trace_rows(trace)

    def test_truncated_trace(self):
        trace = evolve_squeezing(decayed_params())
        assert trace.truncated
        assert list(trace_csv_rows(trace)) == reference_trace_rows(trace)

    def test_extended_trace(self):
        params = demo_params()
        short = evolve_squeezing(params).t_min / 8.0
        trace = evolve_squeezing(params, t_max=short, n_steps=60, max_extensions=5)
        assert trace.times[-1] > short
        assert list(trace_csv_rows(trace)) == reference_trace_rows(trace)

    def test_ideal_trace(self):
        n = 1000
        times = np.linspace(0.0, 4.0 * n ** (-2.0 / 3.0), 400)
        trace = ideal_trace(EffectiveCoeffs(0.25, 0.25, 0.25, 0.25), n, times)
        assert list(trace_csv_rows(trace)) == reference_trace_rows(trace)

    def test_sweep_rows_skip_failed_points(self):
        def report(*values):
            names = ("xi2_min", "r_opt", "delta_opt", "delta1_opt", "t_min")
            return SimpleNamespace(**dict(zip(names, values)))
        points = (SweepPoint(100.0, report(0.1, 1.0 / 3.0, -0.0, 5e-324, 1e22)),
                  SweepPoint(0.05, None, "no feasible start"),
                  SweepPoint(2e3, report(0.0123456789012345678, 2.5, 1e-300, -7.0,
                                         math.pi)))
        result = SweepResult(points=points, prefactor_fixed_slope=0.7,
                             free_slope=-0.5, free_intercept=-0.1)
        header = "cooperativity,xi2_min,r_opt,delta_opt,delta1_opt,t_min,C_fixed_slope"
        table = [(pt.cooperativity, pt.report.xi2_min, pt.report.r_opt,
                  pt.report.delta_opt, pt.report.delta1_opt, pt.report.t_min, 0.7)
                 for pt in points if pt.report is not None]
        rows = list(_sweep_rows(result))
        assert rows == list(per_cell_rows(header, table))
        assert len(rows) == 3
