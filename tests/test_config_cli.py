"""Strict config schema, CLI exit codes, artifact formats, reproducibility."""

import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stoqg.cli
from stoqg.cli import main
from stoqg.config import ConfigError, config_sha256, load_config, normalize

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def base_config(out_dir: str, **sim_overrides) -> dict:
    sim = {
        "M": 4,
        "dt": 0.01,
        "T": 0.1,
        "output_times": {"kind": "uniform", "n": 11},
        "n_paths": 10,
        "master_seed": 12345,
        "initial_condition": {"type": "zero"},
    }
    sim.update(sim_overrides)
    return {
        "model": {"nu": 1.0, "r": 0.1, "beta": 0.0, "linearized": True, "beta_term": False},
        "spectrum": {"c_mu": 1.0, "mu_exp": 2.0, "theta": 0.1},
        "sim": sim,
        "analysis": {},
        "io": {"out_dir": out_dir},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestConfigSchema:
    def test_round_trip_is_fixed_point(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        once = normalize(cfg)
        twice = normalize(json.loads(json.dumps(once)))
        assert once == twice
        assert config_sha256(once) == config_sha256(twice)

    def test_unknown_key_is_named(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["model"]["nun"] = 1.0
        with pytest.raises(ConfigError, match="model.nun"):
            normalize(cfg)

    def test_unknown_nested_key_is_named(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["sim"]["output_times"]["q"] = 0.5
        with pytest.raises(ConfigError, match="sim.output_times.q"):
            normalize(cfg)

    def test_bad_theta_is_named(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["spectrum"]["theta"] = 1.5
        with pytest.raises(ConfigError, match="spectrum.theta"):
            normalize(cfg)

    def test_summability_rule(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["spectrum"].update({"mu_exp": 0.05, "theta": 0.1})
        with pytest.raises(ConfigError, match="spectrum.mu_exp"):
            normalize(cfg)

    def test_mu_sq_list_length_checked(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["spectrum"] = {"mu_sq_list": [1.0, 1.0], "theta": 0.5}
        with pytest.raises(ConfigError, match="spectrum.mu_sq_list"):
            normalize(cfg)

    def test_output_times_snapped(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["sim"]["output_times"] = {"kind": "explicit", "times": [0.0, 0.014, 0.05]}
        with pytest.warns(UserWarning):
            doc = normalize(cfg)
        assert doc["sim"]["output_times"]["times"] == [0.0, 0.01, 0.05]

    def test_geometric_grid_prepends_zero(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"), dt=1e-4, T=0.01)
        cfg["sim"]["output_times"] = {"kind": "geometric", "t_min": 1e-3, "n": 5}
        doc = normalize(cfg)
        times = doc["sim"]["output_times"]["times"]
        assert times[0] == 0.0 and times[1] == pytest.approx(1e-3)

    @pytest.mark.parametrize("section, key, value", [
        ("model", "nu", 0.0),
        ("model", "r", -0.1),
        ("model", "beta", -1.0),
        ("spectrum", "theta", 1.5),
        ("spectrum", "c_mu", -1.0),
        ("spectrum", "mu_exp", 0.05),
        ("spectrum", "mu_sq_list", [1.0] * 15 + [-1.0]),
        ("spectrum", "mu_sq_list", [1.0, 1.0]),
        ("sim", "M", 0),
        ("sim", "dt", 0.0),
        ("sim", "T", -1.0),
        ("sim", "n_paths", 0),
        ("sim", "master_seed", -1),
        ("sim", "batch_size", 0),
        ("sim", "noise_fault_scale", -1.0),
        ("sim.initial_condition", "values", [1.0, 2.0]),
        ("sim.initial_condition", "sigma", -0.1),
        ("sim.initial_condition", "sigma", [0.1] * 15 + [-0.1]),
        ("sim.initial_condition", "sigma", [0.1, 0.2]),
        # json.loads accepts NaN and Infinity, and NaN slips through every range rule
        ("model", "nu", float("nan")),
        ("model", "r", float("inf")),
        ("spectrum", "c_mu", float("nan")),
        ("spectrum", "mu_sq_list", [1.0] * 15 + [float("nan")]),
        ("sim", "dt", float("nan")),
        ("sim", "T", float("inf")),
        ("sim.initial_condition", "sigma", float("nan")),
        ("analysis", "gamma", float("nan")),
        ("analysis", "c1", float("inf")),
        ("analysis", "mu_tilde", float("nan")),
        ("analysis", "alpha_grid", [1.0, float("inf")]),
        ("model", "beta", 10**400),  # an integer literal beyond the float range
    ])
    def test_range_rule_names_its_key(self, tmp_path, section, key, value):
        cfg = base_config(str(tmp_path / "o"))
        if key == "mu_sq_list":
            cfg["spectrum"] = {"theta": 0.5}
        if section == "sim.initial_condition":
            cfg["sim"]["initial_condition"] = {"type": "coeffs" if key == "values" else "gaussian"}
        target = cfg
        for name in section.split("."):
            target = target[name]
        target[key] = value
        with pytest.raises(ConfigError) as err:
            normalize(cfg)
        assert err.value.key == f"{section}.{key}"

    def test_load_config_materializes(self, tmp_path):
        path = write_config(tmp_path, base_config(str(tmp_path / "o")))
        cfg = load_config(path)
        assert cfg.basis.M == 4
        assert cfg.sim.n_paths == 10
        assert cfg.params.linearized

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


def _output_times(draw, dt, T):
    kind = draw(st.sampled_from(["uniform", "geometric", "explicit"]))
    if kind == "uniform":
        return {"kind": kind, "n": draw(st.integers(2, 12))}
    if kind == "geometric":
        return {"kind": kind, "n": draw(st.integers(2, 12)),
                "t_min": T * draw(st.floats(0.01, 0.99))}
    return {"kind": kind, "times": draw(st.lists(st.floats(0.0, T), min_size=1, max_size=8))}


def _initial_condition(draw, n_modes):
    kind = draw(st.sampled_from(["zero", "coeffs", "gaussian", "gaussian_list"]))
    if kind == "zero":
        return {"type": "zero"}
    if kind == "coeffs":
        return {"type": "coeffs", "values": draw(st.lists(
            st.floats(-10.0, 10.0), min_size=n_modes, max_size=n_modes))}
    if kind == "gaussian":
        return {"type": "gaussian", "sigma": draw(st.floats(0.0, 2.0))}
    return {"type": "gaussian", "sigma": draw(st.lists(
        st.floats(0.0, 2.0), min_size=n_modes, max_size=n_modes))}


@st.composite
def valid_documents(draw):
    M = draw(st.integers(1, 6))
    dt = draw(st.sampled_from([1e-4, 1e-3, 2.5e-3, 0.01, 0.02]))
    T = dt * draw(st.integers(1, 200))
    theta = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        spectrum = {"c_mu": draw(st.floats(0.0, 4.0)),
                    "mu_exp": theta + draw(st.floats(0.01, 3.0)), "theta": theta}
    else:
        spectrum = {"mu_sq_list": draw(st.lists(st.floats(0.0, 4.0), min_size=M * M,
                                                max_size=M * M)), "theta": theta}
    sim = {"M": M, "dt": dt, "T": T, "output_times": _output_times(draw, dt, T),
           "n_paths": draw(st.integers(1, 64)), "master_seed": draw(st.integers(0, 2**64 - 1)),
           "initial_condition": _initial_condition(draw, M * M)}
    return {"model": {"nu": draw(st.floats(0.01, 5.0)), "r": draw(st.floats(0.01, 2.0))},
            "spectrum": spectrum, "sim": sim}


class TestNormalizeProperties:
    @settings(max_examples=200, deadline=None)
    @given(valid_documents())
    def test_normalize_is_idempotent_and_hash_stable(self, raw):
        once = normalize(raw)
        twice = normalize(json.loads(json.dumps(once)))
        assert twice == once
        assert config_sha256(twice) == config_sha256(once)
        assert config_sha256(json.loads(json.dumps(once))) == config_sha256(once)


class TestSimulateCommand:
    def test_smoke_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, base_config(str(out)))
        assert main(["simulate", "--config", path]) == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "time,ens_mean,ens_se,wa_var_analytic"
        assert (out / "trace.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 12345
        assert manifest["config_sha256"] == config_sha256(manifest["config"])
        assert "code_version" in manifest

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, base_config(str(out)))
        assert main(["simulate", "--config", path]) == 0
        first = (out / "trace.csv").read_bytes()
        assert main(["simulate", "--config", path]) == 0
        assert (out / "trace.csv").read_bytes() == first

    def test_thread_count_byte_identical(self, tmp_path):
        cfg = base_config(str(tmp_path / "a"), n_paths=12)
        cfg["model"]["linearized"] = False
        cfg["sim"]["batch_size"] = 4
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        one = (tmp_path / "a" / "trace.csv").read_bytes()
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "b"),
                     "--threads", "3"]) == 0
        assert (tmp_path / "b" / "trace.csv").read_bytes() == one

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_bad_thread_count_exit_2(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, base_config(str(tmp_path / "o")))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", path, "--threads", threads])
        assert exc.value.code == 2
        assert "argument --threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_blas_thread_count_byte_identical(self, tmp_path):
        # the drift GEMMs give the same bits whatever OpenBLAS threading the child runs with
        cfg = base_config(str(tmp_path / "o"), M=32, dt=1e-3, T=0.01, n_paths=4,
                          initial_condition={"type": "gaussian", "sigma": 0.1})
        cfg["model"].update({"linearized": False, "beta": 0.2, "beta_term": True})
        path = write_config(tmp_path, cfg)
        src = str(Path(__file__).resolve().parent.parent / "src")
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "stoqg.cli", "simulate", "--config", path,
                            "--out", str(out)], env=env, check=True, timeout=300)
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "o"))
        cfg["spectrum"]["theta"] = 1.5
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        assert "spectrum.theta" in capsys.readouterr().err

    def test_blowup_exit_3(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "o"), n_paths=2)
        cfg["model"].update({"linearized": False})
        cfg["spectrum"] = {"c_mu": 0.0, "mu_exp": 2.0, "theta": 0.1}
        cfg["sim"]["initial_condition"] = {
            "type": "coeffs", "values": [1e200, -1e200] * 8,
        }
        path = write_config(tmp_path, cfg)
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", path]) == 3
        assert "path" in capsys.readouterr().err

    def test_single_path_exit_2(self, tmp_path):
        path = write_config(tmp_path, base_config(str(tmp_path / "o"), n_paths=1))
        assert main(["simulate", "--config", path]) == 2

    def test_unhashable_format_exit_2(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "o"))
        cfg["io"]["formats"] = [{}]
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        assert "io.formats" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["long_integer", "utf16_bom", "directory"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "long_integer":  # beyond Python's int-string digit limit
            path.write_text('{"model": {"nu": 1' + "0" * 5000 + "}}", encoding="utf-8")
        elif kind == "utf16_bom":
            path.write_bytes(b"\xff\xfe" + json.dumps(base_config(str(tmp_path / "o"))).encode("utf-16-le"))
        else:
            path.mkdir()
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_crashed_worker_exit_7(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise BrokenProcessPool("a process in the pool was terminated abruptly")

        monkeypatch.setattr(stoqg.cli, "run_ensemble", crash)
        path = write_config(tmp_path, base_config(str(tmp_path / "o")))
        assert main(["simulate", "--config", path, "--threads", "2"]) == 7
        err = capsys.readouterr().err
        assert "terminated abruptly" in err and len(err.strip().splitlines()) == 1

    def test_trajectory_dump(self, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(str(out), n_paths=3)
        cfg["io"]["write_trajectories"] = True
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["path", "time"]
        assert len(lines[0].split(",")) == 2 + 16
        assert len(lines) == 1 + 3 * 11  # header + paths * times

    def test_seed_override_changes_hash(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, base_config(str(out)))
        assert main(["simulate", "--config", path]) == 0
        h1 = json.loads((out / "manifest.json").read_text())["config_sha256"]
        assert main(["simulate", "--config", path, "--seed", "999"]) == 0
        m2 = json.loads((out / "manifest.json").read_text())
        assert m2["master_seed"] == 999 and m2["config_sha256"] != h1


class TestVerifyLinearCommand:
    def linear_cfg(self, out_dir, **kw):
        sim = dict(M=8, dt=0.02, T=0.2, n_paths=400)
        sim.update(kw)
        cfg = base_config(out_dir, **sim)
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 6}
        return cfg

    def test_pass(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, self.linear_cfg(str(out)))
        assert main(["verify-linear", "--config", path]) == 0
        report = json.loads((out / "linear_report.json").read_text())
        assert report["verdict"] == "pass"
        assert abs(report["worst_z"]) <= 3.0

    def test_injected_noise_fault_caught(self, tmp_path, capsys):
        cfg = self.linear_cfg(str(tmp_path / "run"))
        cfg["sim"]["noise_fault_scale"] = 2.0  # solver-only mis-scaling
        path = write_config(tmp_path, cfg)
        assert main(["verify-linear", "--config", path]) == 4
        assert "z" in capsys.readouterr().err

    def test_single_path_exit_2(self, tmp_path):
        path = write_config(tmp_path, self.linear_cfg(str(tmp_path / "o"), n_paths=1))
        assert main(["verify-linear", "--config", path]) == 2

    def test_requires_linearized_switch(self, tmp_path):
        cfg = self.linear_cfg(str(tmp_path / "o"))
        cfg["model"]["linearized"] = False
        path = write_config(tmp_path, cfg)
        assert main(["verify-linear", "--config", path]) == 2


class TestBoundsCommand:
    def bounds_cfg(self, out_dir, **kw):
        # long enough that the Gronwall fit prefix reaches stationarity
        cfg = base_config(out_dir, n_paths=100, **kw)
        cfg["model"]["linearized"] = False
        cfg["sim"]["dt"] = 1e-3
        cfg["sim"]["T"] = 1.0
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 21}
        return cfg

    def test_trace_class_pass(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, self.bounds_cfg(str(out)))
        assert main(["bounds", "--config", path]) == 0
        report = json.loads((out / "bounds_report.json").read_text())
        kinds = {r["kind"]: r["verdict"] for r in report["bounds"]}
        assert kinds["trace_class"] == "pass"
        assert kinds["theorem2b"] == "pass"
        assert report["lemma1"]["verdict"] in ("pass", "not_applicable")
        assert len(report["phi_table"]["alpha"]) == len(report["phi_table"]["phi"])

    def test_non_trace_class_marks_na(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.bounds_cfg(str(out))
        cfg["spectrum"] = {"c_mu": 1.0, "mu_exp": 0.5, "theta": 0.25}
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 0
        report = json.loads((out / "bounds_report.json").read_text())
        kinds = {r["kind"]: r["verdict"] for r in report["bounds"]}
        assert kinds["trace_class"] == "not_applicable"
        assert kinds["theorem2a"] in ("pass", "fail")
        assert kinds["theorem2b"] == "not_applicable"  # mu_exp - theta < 1

    def test_envelopes_csv_written(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, self.bounds_cfg(str(out)))
        assert main(["bounds", "--config", path]) == 0
        header = (out / "envelopes.csv").read_text().splitlines()[0].split(",")
        assert header[:3] == ["time", "ens_mean", "ens_se"]
        assert "envelope_trace_class" in header
        assert header[-1] == "analytic_wa_var"

    def test_violated_bound_exit_5(self, tmp_path, capsys):
        # solver-only noise inflation pushes the true enstrophy far above
        # the constant-free envelope
        out = tmp_path / "run"
        cfg = self.bounds_cfg(str(out))
        cfg["sim"]["noise_fault_scale"] = 3.0
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 5
        assert "trace_class" in capsys.readouterr().err
        report = json.loads((out / "bounds_report.json").read_text())
        kinds = {r["kind"]: r for r in report["bounds"]}
        assert kinds["trace_class"]["verdict"] == "fail"
        assert kinds["trace_class"]["violations"]

    def test_c1_override_moves_threshold(self, tmp_path):
        cfg = self.bounds_cfg(str(tmp_path / "o"))
        cfg["analysis"]["c1"] = 1.0  # weaker Poincare constant: threshold -nu - r
        cfg["analysis"]["gamma"] = -1.0
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 0
        report = json.loads((tmp_path / "o" / "bounds_report.json").read_text())
        assert report["gamma_threshold"] == pytest.approx(-1.1)

    def test_gamma_below_threshold_exit_2(self, tmp_path, capsys):
        cfg = self.bounds_cfg(str(tmp_path / "o"))
        cfg["analysis"]["gamma"] = -100.0
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 2
        assert "analysis.gamma" in capsys.readouterr().err

    def test_needs_eight_output_times(self, tmp_path):
        cfg = self.bounds_cfg(str(tmp_path / "o"))
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 5}
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 2


class TestHolderCommand:
    def test_synthetic_sqrt(self, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(str(out))
        cfg["analysis"]["holder"] = {
            "window": [1e-8, 1.0],
            "lags": [1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
            "synthetic": "sqrt",
        }
        path = write_config(tmp_path, cfg)
        assert main(["holder", "--config", path]) == 0
        report = json.loads((out / "holder_report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["exponent"] == pytest.approx(0.5, abs=0.01)

    def test_synthetic_linear(self, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(str(out))
        cfg["analysis"]["holder"] = {
            "window": [1e-8, 1.0],
            "lags": [1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
            "synthetic": "linear",
        }
        path = write_config(tmp_path, cfg)
        assert main(["holder", "--config", path]) == 0
        report = json.loads((out / "holder_report.json").read_text())
        assert report["exponent"] == pytest.approx(1.0, abs=0.01)

    def test_missing_window_exit_2(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "o"))
        cfg["analysis"]["holder"] = {"lags": [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]}
        path = write_config(tmp_path, cfg)
        assert main(["holder", "--config", path]) == 2
        assert "analysis.holder.window" in capsys.readouterr().err

    def test_bad_lag_span_exit_2(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["analysis"]["holder"] = {
            "window": [0.01, 0.09],
            "lags": [0.01, 0.02, 0.03, 0.04, 0.05],
            "synthetic": "sqrt",
        }
        path = write_config(tmp_path, cfg)
        assert main(["holder", "--config", path]) == 2


class TestAsymptoticsCommand:
    def test_zero_mode_linear_run_passes(self, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(str(out), M=8, dt=1e-4, T=1e-2, n_paths=400)
        cfg["spectrum"] = {"c_mu": 1.0, "mu_exp": 0.5, "theta": 0.1}
        cfg["sim"]["output_times"] = {"kind": "geometric", "t_min": 1e-4, "n": 7}
        cfg["analysis"]["asymptotics"] = {"mode": "zero", "delta": 0.5}
        path = write_config(tmp_path, cfg)
        assert main(["asymptotics", "--config", path]) == 0
        report = json.loads((out / "asymptotics_report.json").read_text())
        assert report["verdict"] == "pass"
        ratios = np.asarray(report["ratio_empirical"])
        np.testing.assert_allclose(ratios, 1.0, rtol=1e-12)

    def test_faulted_ratio_exit_6(self, tmp_path):
        # inflated solver noise breaks the small-time ratio against the
        # analytic convolution variance
        out = tmp_path / "run"
        cfg = base_config(str(out), M=8, dt=1e-4, T=1e-2, n_paths=200)
        cfg["spectrum"] = {"c_mu": 1.0, "mu_exp": 0.5, "theta": 0.1}
        cfg["sim"]["output_times"] = {"kind": "geometric", "t_min": 1e-4, "n": 7}
        cfg["sim"]["noise_fault_scale"] = 2.0
        cfg["analysis"]["asymptotics"] = {"mode": "zero", "delta": 0.5}
        path = write_config(tmp_path, cfg)
        assert main(["asymptotics", "--config", path]) == 6
        report = json.loads((out / "asymptotics_report.json").read_text())
        assert report["verdict"] == "fail"

    def test_general_mode_deterministic(self, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(str(out), M=2, dt=1e-4, T=1e-3, n_paths=2)
        cfg["model"]["linearized"] = False
        cfg["spectrum"] = {"c_mu": 0.0, "mu_exp": 2.0, "theta": 0.1}
        cfg["sim"]["initial_condition"] = {"type": "coeffs", "values": [1.0, 0.0, 0.0, 0.0]}
        cfg["sim"]["output_times"] = {
            "kind": "explicit",
            "times": [0.0, 1e-4, 2e-4, 4e-4, 7e-4, 1e-3],
        }
        cfg["analysis"]["asymptotics"] = {"mode": "general", "delta": 0.5, "gamma_reg": 1.0}
        path = write_config(tmp_path, cfg)
        assert main(["asymptotics", "--config", path]) == 0
        report = json.loads((out / "asymptotics_report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["exponent"] == pytest.approx(1.0, abs=0.05)
