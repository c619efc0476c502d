"""Strict config schema, CLI exit codes, artifact formats, reproducibility."""

import ast
import concurrent.futures
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stoqg.cli
import stoqg.config
import stoqg.noise
from stoqg.analysis import estimate_enstrophy, theorem2_shape
from stoqg.artifacts import write_csv, write_json
from stoqg.cli import main
from stoqg.config import ConfigError, config_sha256, materialize, normalize, read_document
from stoqg.dynamics import run_ensemble
from stoqg.noise import linear_law

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

ROOT = Path(__file__).resolve().parent.parent

# the minimal linear run of the README's Configuration section
README_CONFIG = {
    "model": {"nu": 1.0, "r": 0.1, "beta": 0.0, "linearized": True, "beta_term": False},
    "spectrum": {"c_mu": 1.0, "mu_exp": 2.0, "theta": 0.1},
    "sim": {"M": 16, "dt": 0.001, "T": 1.0, "output_times": {"kind": "uniform", "n": 11},
            "n_paths": 2000, "master_seed": 12345, "initial_condition": {"type": "zero"}},
    "analysis": {},
    "io": {"out_dir": "out"},
}


def perfbench_document(name: str, seed: int) -> dict:
    """The config document the benchmark builds for workload `name` at `seed`."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while the file runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS[name].build(seed, False)


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


def schema_leaves() -> set[str]:
    """Every leaf key path `config._SCHEMA` declares, each variant's keys included."""
    paths = set(stoqg.config._key_paths())
    return paths - {path.rpartition(".")[0] for path in paths}


def readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table under `header`, one list of cells a row."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:  # past the |---| rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


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
            materialize(normalize(cfg))

    def test_summability_rule(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["spectrum"].update({"mu_exp": 0.05, "theta": 0.1})
        with pytest.raises(ConfigError, match="spectrum.mu_exp"):
            materialize(normalize(cfg))

    def test_mu_sq_list_length_checked(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["spectrum"] = {"mu_sq_list": [1.0, 1.0], "theta": 0.5}
        with pytest.raises(ConfigError, match="spectrum.mu_sq_list"):
            materialize(normalize(cfg))

    def test_output_times_snapped(self, tmp_path):
        cfg = base_config(str(tmp_path / "o"))
        cfg["sim"]["output_times"] = {"kind": "explicit", "times": [0.0, 0.014, 0.05]}
        with pytest.warns(UserWarning):
            doc = normalize(cfg)
        assert doc["sim"]["output_times"]["times"] == [0.0, 0.01, 0.05]

    @pytest.mark.parametrize("T, dt, output_times, k", [
        (0.5, 0.3, {"kind": "uniform", "n": 2}, 1),
        (0.5, 0.3, {"kind": "geometric", "n": 2, "t_min": 0.1}, 1),
        (0.0106, 1e-3, {"kind": "explicit", "times": [0.0, 0.0106]}, 10),
    ])
    def test_time_rounding_past_off_grid_T_takes_last_step(self, tmp_path, T, dt, output_times, k):
        # T / dt has a fractional step >= 1/2, so rounding T lands a step beyond T
        out = tmp_path / "run"
        cfg = base_config(str(out), T=T, dt=dt, output_times=output_times)
        with pytest.warns(UserWarning, match="snapped"):
            assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        assert json.loads((out / "trace.json").read_text())["times"] == [0.0, k * dt]

    @pytest.mark.parametrize("times", [[-0.5, 0.1, 5.0], [-0.01, 0.1], [0.0, 1.01]])
    def test_explicit_times_outside_run_are_rejected(self, tmp_path, times):
        # on-grid times outside [0, T] would be clipped onto 0 and T without a warning
        cfg = base_config(str(tmp_path / "o"), T=1.0)
        cfg["sim"]["output_times"] = {"kind": "explicit", "times": times}
        with pytest.raises(ConfigError) as err:
            normalize(cfg)
        assert err.value.key == "sim.output_times.times"

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
        ("sim", "master_seed", 2**64),  # one past the 64-bit range
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
        ("model", "beta", 10**400),  # an integer literal beyond the float range
        # the analysis rules run at load too, whatever the command
        ("analysis.asymptotics", "mode", "weird"),
        ("analysis.asymptotics", "delta", 1.5),
        ("analysis.holder", "window", [0.05, 0.01]),
        # counts numpy cannot size an array by: ValueError, not MemoryError, past the rule
        ("sim", "M", 2**64),
        ("sim", "n_paths", 2**64),
        ("sim.output_times", "n", 2**64),
        ("sim", "dt", 1e-300),  # T/dt steps overflow int64
    ])
    def test_range_rule_names_its_key(self, tmp_path, section, key, value):
        cfg = base_config(str(tmp_path / "o"))
        if key == "mu_sq_list":
            cfg["spectrum"] = {"theta": 0.5}
        if section == "sim.initial_condition":
            cfg["sim"]["initial_condition"] = {"type": "coeffs" if key == "values" else "gaussian"}
        if section == "analysis.holder":
            cfg["analysis"]["holder"] = {"lags": [0.01, 0.02, 0.03, 0.05, 0.1]}
        target = cfg
        for name in section.split("."):
            target = target.setdefault(name, {})
        target[key] = value
        with pytest.raises(ConfigError) as err:
            materialize(normalize(cfg))
        assert err.value.key == f"{section}.{key}"

    def test_load_config_materializes(self, tmp_path):
        path = write_config(tmp_path, base_config(str(tmp_path / "o")))
        cfg = materialize(normalize(read_document(path)))
        assert cfg.basis.M == 4
        assert cfg.sim.n_paths == 10
        assert cfg.params.linearized

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            read_document(tmp_path / "absent.json")

    @pytest.mark.parametrize("text, key", [
        ('{"sim": {"dt": 0.1, "T": 1.0, "dt": 0.001}}', "sim.dt"),
        ('{"model": {}, "io": {"out_dir": "a"}, "model": {}}', "model"),
        ('{"sim": {"output_times": {"kind": "explicit", "times": [0.1], "kind": "uniform"}}}',
         "sim.output_times.kind"),
    ], ids=["leaf", "section", "variant"])
    def test_duplicate_key_exit_2(self, tmp_path, capsys, text, key):
        # plain JSON parsing keeps the last value of a repeated key without a word
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            read_document(path)
        assert err.value.key == key
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {key}: duplicate key\n"

    @pytest.mark.parametrize("section, key, value", [
        ("sim", "store_fields", True),
        ("analysis.holder", "synthetic", "sqrt"),
        ("io", "formats", ["csv"]),
        ("analysis", "split", 0.5),
        ("analysis", "alpha_grid", [100.0, 1000.0]),
        ("analysis", "c1", 1.0),
        ("analysis.asymptotics", "rho", 0.01),
        ("sim", "noise_fault_scale", 2.0),
        ("analysis.asymptotics", "gamma_reg", 1.0),  # a Galerkin initial condition is smooth
        ("analysis", "gamma", 0.5),  # bounds derives gamma and mu_tilde
        ("analysis", "mu_tilde", 0.5),
    ])
    def test_retired_key_exit_2(self, tmp_path, capsys, section, key, value):
        cfg = base_config(str(tmp_path / "o"))
        target = cfg
        for name in section.split("."):
            target = target.setdefault(name, {})
        target[key] = value
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_leaf_keys_are_pinned(self, tmp_path):
        # a new config knob has to change this set on purpose
        pinned = {
            "model.nu", "model.r", "model.beta", "model.linearized", "model.beta_term",
            "spectrum.c_mu", "spectrum.mu_exp", "spectrum.theta", "spectrum.mu_sq_list",
            "sim.M", "sim.dt", "sim.T", "sim.n_paths", "sim.master_seed", "sim.batch_size",
            "sim.output_times.kind", "sim.output_times.n",
            "sim.output_times.t_min", "sim.output_times.times", "sim.initial_condition.type",
            "sim.initial_condition.values", "sim.initial_condition.sigma",
            "analysis.holder.window", "analysis.holder.lags",
            "analysis.asymptotics.mode", "analysis.asymptotics.delta",
            "io.out_dir", "io.write_trajectories",
        }
        assert len(pinned) == 28 and schema_leaves() == pinned

        def leaf_paths(doc, prefix=""):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from leaf_paths(value, f"{prefix}{key}.")
                else:
                    yield f"{prefix}{key}"

        cfg = base_config(str(tmp_path / "o"), initial_condition={"type": "gaussian", "sigma": 0.1})
        cfg["analysis"]["holder"] = {"window": [0.01, 0.1], "lags": [0.01, 0.02, 0.03, 0.05, 0.1]}
        listed = base_config(str(tmp_path / "o"))
        listed["spectrum"] = {"mu_sq_list": [1.0] * 16, "theta": 0.5}
        for doc in (cfg, listed):
            assert set(leaf_paths(normalize(doc))) <= pinned

    def test_every_parameter_error_field_names_a_key(self):
        # keyed() reports a ParameterError under _key_of(field): a field no key path ends
        # in would be a KeyError there, a traceback and exit 1 instead of exit 2
        fields = set()
        for path in (ROOT / "src" / "stoqg").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("ParameterError", "SummabilityError")):
                    assert isinstance(node.args[0], ast.Constant), f"{path.name}:{node.lineno}"
                    fields.add(node.args[0].value)
        assert {"nu", "mu_exp", "T", "output_times", "lags"} <= fields
        paths = set(stoqg.config._key_paths())

        def names_a_key(field):
            try:
                return stoqg.config._key_of(field) in paths
            except KeyError:
                return False

        assert {field for field in fields if not names_a_key(field)} == set()

    def test_readme_tables_list_every_leaf_key(self):
        # a knob documented but not declared, or declared but not documented, fails here
        documented = {row[0].strip("`") for row in readme_table("| Key | Type | Default |")}
        documented |= {f"{row[0].strip('`')}.{key}" for row in readme_table("| Section | Variant | Keys |")
                       for key in re.findall(r"`(\w+)`", row[2])}
        assert documented == schema_leaves()

    @pytest.mark.parametrize("name, digest", [
        ("readme", "f5f5dd6928dc2e7e2e292b17ddabaaaa4418132d3a3b1fa7f8fecafc9da14f54"),
        ("nl16_pool", "7c5f997a6fe04d6e0c1921887a80c34fb99b016fa85531acfb8ebb077b969f93"),
        ("lin16_dense", "7d8689e1703a3dc30753887c969faa840c7ac6710f929e9c8fc7b9c966d8b515"),
        ("nl32_dump", "5cd335b9d90a03fb1104593559241ba72ea875edaf50bad7172e5c4df88c85de"),
    ])
    def test_normalized_documents_are_pinned(self, name, digest):
        # a moved default, type coercion or snapped output grid changes these hashes
        doc = README_CONFIG if name == "readme" else perfbench_document(name, 1)
        assert config_sha256(normalize(doc)) == digest

    @pytest.mark.parametrize("section, value, message", [
        ("output_times", {"kind": "uniform", "n": 11, "times": [0.05]},
         "sim.output_times.times: does not apply to kind 'uniform'"),
        ("output_times", {"kind": "uniform", "n": 11, "t_min": 0.01},
         "sim.output_times.t_min: does not apply to kind 'uniform'"),
        ("output_times", {"kind": "explicit", "times": [0.0, 0.05], "n": 3},
         "sim.output_times.n: does not apply to kind 'explicit'"),
        ("initial_condition", {"type": "zero", "sigma": 3.0},
         "sim.initial_condition.sigma: does not apply to type 'zero'"),
        ("initial_condition", {"type": "gaussian", "sigma": 0.1, "values": [0.0] * 16},
         "sim.initial_condition.values: does not apply to type 'gaussian'"),
    ])
    def test_key_of_another_variant_exit_2(self, tmp_path, capsys, section, value, message):
        cfg = base_config(str(tmp_path / "o"))
        cfg["sim"][section] = value
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_load_builds_each_model_object_once(self, tmp_path, monkeypatch):
        counts = Counter()

        def count_calls(module, name):
            build = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return build(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("ModelParams", "Basis", "SimConfig"):
            count_calls(stoqg.config, name)
        count_calls(stoqg.noise, "NoiseSpectrum")
        path = write_config(tmp_path, base_config(str(tmp_path / "o")))
        args = stoqg.cli._build_parser().parse_args(["simulate", "--config", path])
        stoqg.cli._load(args)
        assert (counts["ModelParams"], counts["Basis"], counts["NoiseSpectrum"]) == (1, 1, 1)
        assert counts["SimConfig"] <= 2  # normalize range-checks the step grid before snapping


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
        materialize(once)
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

    @staticmethod
    def _child_env(**extra) -> dict:
        src = str(Path(__file__).resolve().parent.parent / "src")
        return {**os.environ, **extra,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def test_blas_thread_count_byte_identical(self, tmp_path):
        # the drift GEMMs give the same bits whatever BLAS threading the child runs with;
        # 10 paths at M=32 run the drift as a chunk of 8 paths and one of 2
        cfg = base_config(str(tmp_path / "o"), M=32, dt=1e-3, T=0.01, n_paths=10,
                          initial_condition={"type": "gaussian", "sigma": 0.1})
        cfg["model"].update({"linearized": False, "beta": 0.2, "beta_term": True})
        cfg["io"]["write_trajectories"] = True
        path = write_config(tmp_path, cfg)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = self._child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                                  MKL_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "stoqg.cli", "simulate", "--config", path,
                            "--out", str(out)], env=env, check=True, timeout=300)
            outputs.append([(out / name).read_bytes() for name in ("trace.csv", "trajectories.csv")])
        assert outputs[0] == outputs[1]

    def test_one_worker_run_loads_no_pool_or_masked_arrays(self, tmp_path):
        # a 1-worker run never opens a process pool, so no command loads the pool's
        # module or the logging it imports; snapping the output times does not go
        # through np.unique, whose first call imports numpy.ma; only the linear
        # oracle's verdict imports statistics (0.5 MB at start-up), and only a
        # trajectory dump imports its float kernel stoqg._ryu, so those two run last
        nonlinear = base_config(str(tmp_path / "nl"))
        nonlinear["model"].update({"linearized": False, "beta": 0.2, "beta_term": True})
        linear = base_config(str(tmp_path / "lin"), T=0.2, output_times={"kind": "uniform", "n": 21},
                             n_paths=200)
        linear["analysis"]["holder"] = {"window": [0.01, 0.2], "lags": [0.01, 0.02, 0.03, 0.05, 0.1]}
        dump = base_config(str(tmp_path / "dump"))
        dump["io"]["write_trajectories"] = True
        runs = [("simulate", write_config(tmp_path, nonlinear, "nl.json"))] + [
            (command, write_config(tmp_path, linear, "lin.json"))
            for command in ("simulate", "bounds", "holder", "asymptotics", "verify-linear")] + [
            ("simulate", write_config(tmp_path, dump, "dump.json"))]
        probe = ("import sys, stoqg.cli\n"
                 f"for command, path in {runs!r}:\n"
                 "    code = stoqg.cli.main([command, '--config', path, '--threads', '1'])\n"
                 "    print(command, code, [m for m in ('numpy.ma', 'multiprocessing', "
                 "'concurrent.futures', 'logging', 'statistics', 'stoqg._ryu') if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", probe], env=self._child_env(),
                              capture_output=True, text=True, check=True, timeout=300)
        loaded = [line for line in done.stdout.splitlines() if line.split()[0] in dict(runs)]
        assert loaded == ["simulate 0 []"] * 2 + [f"{command} 0 []" for command in (
            "bounds", "holder", "asymptotics")] + ["verify-linear 0 ['statistics']",
                                                   "simulate 0 ['statistics', 'stoqg._ryu']"]

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
        assert main(["simulate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "path" in err
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_code"] == 3 and manifest["error"] == err.strip()
        assert manifest["failures"] == [[0, 0.0], [1, 0.0]]  # ||omega(0)||^2 overflows
        assert manifest["config"] == normalize(cfg)

    def test_single_path_exit_2(self, tmp_path):
        path = write_config(tmp_path, base_config(str(tmp_path / "o"), n_paths=1))
        assert main(["simulate", "--config", path]) == 2
        assert not (tmp_path / "o").exists()  # a config error leaves no out dir behind

    @pytest.mark.parametrize("command", ["bounds", "holder", "asymptotics"])
    def test_blowup_manifest_from_every_command(self, tmp_path, capsys, command):
        # T = 0.2 holds the decade of holder lags that every command checks
        cfg = base_config(str(tmp_path / "o"), n_paths=2, T=0.2,
                          output_times={"kind": "uniform", "n": 21})
        cfg["model"].update({"linearized": False})
        cfg["spectrum"] = {"c_mu": 0.0, "mu_exp": 2.0, "theta": 0.1}
        cfg["sim"]["initial_condition"] = {
            "type": "coeffs", "values": [1e200, -1e200] * 8,
        }
        cfg["analysis"]["holder"] = {"window": [0.01, 0.2], "lags": [0.01, 0.02, 0.03, 0.05, 0.1]}
        cfg["analysis"]["asymptotics"] = {"mode": "general"}  # zero mode refuses a start off rest
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_code"] == 3 and manifest["error"] == err.strip()
        assert manifest["failures"] == [[0, 0.0], [1, 0.0]]
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("workers, n_paths", [(1, 4), (2, 64)])
    def test_overflowing_norm_exit_3(self, tmp_path, capsys, workers, n_paths):
        # every coefficient of the start is finite, but ||omega(0)||^2 ~ 16 * 1e310
        # overflows: the run fails there and writes no trace with inf or NaN, and its
        # stderr is the one blowup line, no numpy warning; 2 workers run in a child,
        # where a warning would print instead of raising
        cfg = base_config(str(tmp_path / "o"), n_paths=n_paths, dt=1e-3, T=0.005,
                          output_times={"kind": "explicit", "times": [0.0, 0.002, 0.005]},
                          initial_condition={"type": "gaussian", "sigma": 1e155})
        args = ["simulate", "--config", write_config(tmp_path, cfg), "--threads", str(workers)]
        if workers == 1:
            assert main(args) == 3
            err = capsys.readouterr().err
        else:
            done = subprocess.run([sys.executable, "-m", "stoqg.cli", *args], env=self._child_env(),
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 3, done.stderr
            err = done.stderr
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_code"] == 3 and err == manifest["error"] + "\n"
        assert err.startswith("blowup: ") and err.count("\n") == 1, err
        assert manifest["failures"] == [[p, 0.0] for p in range(n_paths)]
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json"]

    def test_every_command_writes_the_same_trace(self, tmp_path):
        # each command that runs the ensemble writes its trace through one path
        cfg = base_config(str(tmp_path / "o"), T=0.2, output_times={"kind": "uniform", "n": 21})
        cfg["analysis"]["holder"] = {"window": [0.01, 0.2], "lags": [0.01, 0.02, 0.03, 0.05, 0.1]}
        path = write_config(tmp_path, cfg)
        traces = set()
        for command in ("simulate", "verify-linear", "bounds", "holder", "asymptotics"):
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) in (0, 4, 5, 6)
            traces.add(tuple((out / name).read_bytes() for name in ("trace.csv", "trace.json")))
        assert len(traces) == 1

    def test_success_manifest_fields_are_pinned(self, tmp_path):
        # the failure fields appear only when a run fails
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_config(tmp_path, base_config(str(out)))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.keys() == {"config_sha256", "master_seed", "code_version", "wall_time_s",
                                   "config", "spectrum_tail_bound"}

    @pytest.mark.parametrize("kind", ["long_integer", "deep_nesting", "utf16_bom", "directory"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "long_integer":  # beyond Python's int-string digit limit
            path.write_text('{"model": {"nu": 1' + "0" * 5000 + "}}", encoding="utf-8")
        elif kind == "deep_nesting":  # beyond the parser's recursion limit
            path.write_text('{"model": ' + "[" * 5000, encoding="utf-8")
        elif kind == "utf16_bom":
            path.write_bytes(b"\xff\xfe" + json.dumps(base_config(str(tmp_path / "o"))).encode("utf-16-le"))
        else:
            path.mkdir()
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: <file>: ") and err.count("\n") == 1, err

    def test_crashed_worker_exit_7(self, tmp_path, capsys, monkeypatch):
        # the pool breaks inside run_ensemble, as when a worker is killed
        class CrashingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                raise BrokenProcessPool("a process in the pool was terminated abruptly")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CrashingPool)
        path = write_config(tmp_path, base_config(str(tmp_path / "o"), batch_size=5))
        assert main(["simulate", "--config", path, "--threads", "2"]) == 7
        err = capsys.readouterr().err
        assert "terminated abruptly" in err and len(err.strip().splitlines()) == 1
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_code"] == 7 and manifest["error"] == err.strip()
        assert "failures" not in manifest

    def test_out_of_memory_exit_8(self, tmp_path, capsys, monkeypatch):
        # what numpy raises when a dump's (n_paths, n_out, M^2) field array does not fit
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 15.3 GiB for an array with shape "
                              "(32, 20001, 4096) and data type float64")

        monkeypatch.setattr(stoqg.cli, "run_ensemble", exhausted)
        path = write_config(tmp_path, base_config(str(tmp_path / "o")))
        assert main(["simulate", "--config", path]) == 8
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate") and len(err.strip().splitlines()) == 1
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_code"] == 8 and manifest["error"] == err.strip()

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

    def test_trajectory_dump_leaves_the_config_as_loaded(self, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(str(out), n_paths=3)
        cfg["io"]["write_trajectories"] = True
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == normalize(cfg)

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

    def test_injected_noise_fault_caught(self, tmp_path, capsys, noise_fault):
        cfg = self.linear_cfg(str(tmp_path / "run"))
        noise_fault(2.0)
        path = write_config(tmp_path, cfg)
        assert main(["verify-linear", "--config", path]) == 4
        assert "z" in capsys.readouterr().err

    @staticmethod
    def lin16_dense_cfg(out_dir, seed):
        # 64 linearized M=16 paths with an output at each of 500 steps: 500 z-scores
        cfg = base_config(out_dir, M=16, dt=1e-3, T=0.5, n_paths=64, master_seed=seed)
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 501}
        return cfg

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_many_output_times_pass(self, tmp_path, seed):
        out = tmp_path / "run"
        path = write_config(tmp_path, self.lin16_dense_cfg(str(out), seed))
        assert main(["verify-linear", "--config", path]) == 0
        report = json.loads((out / "linear_report.json").read_text())
        assert report["z_threshold"] == pytest.approx(4.5486, abs=1e-4)
        assert abs(report["worst_z"]) <= report["z_threshold"]

    def test_small_noise_fault_caught_at_many_output_times(self, tmp_path, noise_fault):
        cfg = self.lin16_dense_cfg(str(tmp_path / "run"), 1)
        noise_fault(1.1)
        assert main(["verify-linear", "--config", write_config(tmp_path, cfg)]) == 4

    def test_gross_rate_fault_caught_at_many_output_times(self, tmp_path, rate_fault):
        # the solver at r + delta against the oracle at r: over seeds 1-20 the verdict
        # fails at all 20 for delta = 40 and at none for delta = 20 (or no fault), so
        # 64 paths see only gross rate faults
        def codes():
            return [main(["verify-linear", "--config",
                          write_config(tmp_path, self.lin16_dense_cfg(str(tmp_path / "run"), seed))])
                    for seed in range(1, 6)]

        assert codes() == [0] * 5
        rate_fault(40.0)
        assert codes() == [4] * 5

    def test_oracle_se_is_exact(self, tmp_path):
        # the standard error of 0.5 ||V(t)||^2 under the oracle, not of the sample
        out = tmp_path / "run"
        cfg = self.linear_cfg(str(out))
        assert main(["verify-linear", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((out / "linear_report.json").read_text())
        spec = materialize(normalize(read_document(write_config(tmp_path, cfg, "again.json")))).spectrum
        rates = spec.basis.eigenvalues - 0.1
        for t, se in zip(report["times"], report["oracle_se"]):
            s_k = spec.mu_sq * (1.0 - np.exp(2.0 * rates * t)) / (-2.0 * rates)
            assert se == pytest.approx(np.sqrt(0.5 * np.sum(s_k**2) / 400), rel=1e-12, abs=0.0)
        assert report["z_threshold"] == pytest.approx(3.4601, abs=1e-4)  # 5 positive output times

    @staticmethod
    def amplitude_report(tmp_path, c_mu) -> dict:
        """linear_report.json of 4 linearized M=4 paths from rest, 3 outputs to T = 0.01."""
        out = tmp_path / f"amp{c_mu!r}"
        cfg = base_config(str(out), dt=1e-3, T=0.01, n_paths=4, master_seed=1,
                          output_times={"kind": "uniform", "n": 3})
        cfg["spectrum"]["c_mu"] = c_mu
        assert main(["verify-linear", "--config", write_config(tmp_path, cfg)]) == 0
        return json.loads((out / "linear_report.json").read_text())

    def test_oracle_scales_exactly_with_the_amplitude(self, tmp_path):
        # a linear run from rest is its amplitude times the unit-amplitude run, exactly
        # for a power of two; so are the oracle and its SE, at 2^-560 too, where
        # sum_k s_k^2 (about 2^-1135) underflows unless the law is taken at scaled amplitudes
        unit, tiny = (self.amplitude_report(tmp_path, c_mu) for c_mu in (1.0, 2.0**-560))
        assert tiny["z_scores"] == unit["z_scores"] and tiny["z_scores"][1] != 0.0
        for key in ("ens_mean", "oracle_half_variance", "oracle_se"):
            assert tiny[key] == [np.ldexp(v, -560) for v in unit[key]], key

    @pytest.mark.parametrize("h", [996, -560])
    def test_trace_scales_exactly_with_the_amplitude(self, tmp_path, h):
        # the estimator reduces each series at its own power-of-two scale, so std's
        # squares neither overflow (2^996) nor underflow (2^-560, where ens_se was 0)
        def trace(c_mu):
            self.amplitude_report(tmp_path, c_mu)
            text = (tmp_path / f"amp{c_mu!r}" / "trace.json").read_text()
            return json.loads(text, parse_constant=lambda name: pytest.fail(f"trace.json holds {name}"))

        unit, scaled = trace(1.0), trace(2.0**h)
        assert all(se > 0 for se in unit["ens_se"][1:])
        for key in ("ens_mean", "ens_se", "residual_mean", "wa_var_empirical", "wa_var_analytic"):
            assert scaled[key] == [np.ldexp(v, h) for v in unit[key]], key

    @pytest.mark.parametrize("c_mu", [1e-170, 1e300])
    def test_oracle_se_neither_underflows_nor_overflows(self, tmp_path, c_mu):
        # at 1e-170, sum_k s_k^2 underflowed and a correct run failed with z = inf; at
        # 1e300 it overflowed and the verdict could not fail
        report = self.amplitude_report(tmp_path, c_mu)
        se = np.asarray(report["oracle_se"][1:])
        assert np.all(np.isfinite(se)) and np.all(se > 0)
        assert report["verdict"] == "pass" and np.all(np.isfinite(report["z_scores"]))

    @pytest.mark.parametrize("section, key, value", [
        ("model", "beta_term", True),
    ])
    def test_drift_outside_the_oracle_exit_2(self, tmp_path, capsys, section, key, value):
        cfg = self.linear_cfg(str(tmp_path / "o"))
        cfg[section][key] = value
        cfg["model"]["beta"] = 0.2
        assert main(["verify-linear", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("start", [
        {"type": "gaussian", "sigma": 1.0},
        {"type": "gaussian", "sigma": 0.1},
        {"type": "coeffs", "values": [0.3 * k - 7.1 for k in range(64)]},
        {"type": "coeffs", "values": [1e-200] + [0.0] * 63},  # its square underflows to 0
    ], ids=["gaussian", "gaussian_small", "coeffs", "coeffs_tiny"])
    def test_start_off_rest_passes(self, tmp_path, start):
        # the oracle is the law of the run from its own start (such a start exited 2); at
        # t = 0 a coefficient start has no spread, and its trace agrees to rounding
        out = tmp_path / "run"
        cfg = self.linear_cfg(str(out), initial_condition=start)
        assert main(["verify-linear", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((out / "linear_report.json").read_text())
        assert report["verdict"] == "pass" and all(math.isfinite(z) for z in report["z_scores"])
        run = materialize(normalize(cfg))
        mean, sd = linear_law(run.spectrum, run.params.r, run.sim.output_times, *run.sim.initial_condition.moments(64))
        assert report["oracle_half_variance"] == (0.5 * mean).tolist()
        assert report["oracle_se"] == (0.5 * sd / 20.0).tolist()  # sqrt(400 paths)

    def test_start_off_rest_without_noise_is_deterministic(self, tmp_path, rate_fault):
        # no noise: the law is a point mass, so the run must agree with its mean to rounding
        cfg = self.linear_cfg(str(tmp_path / "run"), n_paths=4,
                              initial_condition={"type": "coeffs", "values": [0.3 * k - 7.1 for k in range(64)]})
        cfg["spectrum"]["c_mu"] = 0.0
        path = write_config(tmp_path, cfg)
        assert main(["verify-linear", "--config", path]) == 0
        rate_fault(0.01)
        assert main(["verify-linear", "--config", path]) == 4

    def test_single_path_exit_2(self, tmp_path):
        path = write_config(tmp_path, self.linear_cfg(str(tmp_path / "o"), n_paths=1))
        assert main(["verify-linear", "--config", path]) == 2

    def test_trajectory_dump_matches_simulate(self, tmp_path):
        cfg = self.linear_cfg(str(tmp_path / "o"), n_paths=20)
        cfg["io"]["write_trajectories"] = True
        path = write_config(tmp_path, cfg)
        assert main(["verify-linear", "--config", path, "--out", str(tmp_path / "verify")]) == 0
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "simulate")]) == 0
        dumped = (tmp_path / "verify" / "trajectories.csv").read_bytes()
        assert dumped == (tmp_path / "simulate" / "trajectories.csv").read_bytes()

    def test_requires_linearized_switch(self, tmp_path):
        cfg = self.linear_cfg(str(tmp_path / "o"))
        cfg["model"]["linearized"] = False
        path = write_config(tmp_path, cfg)
        assert main(["verify-linear", "--config", path]) == 2


class TestBoundsCommand:
    def bounds_cfg(self, out_dir, **kw):
        # long enough that the fit prefix reaches stationarity
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

    @pytest.mark.parametrize("spectrum, notes", [
        ({"c_mu": 0.0, "mu_exp": -1.0, "theta": 0.1},  # mu_exp <= 0 needs c_mu = 0, Tr Q = 0
         {"trace_class": "",
          "theorem2a": "mu_exp <= 0: no mu_tilde in (0, mu_exp)",
          "theorem2b": "mu_exp - theta <= 1: sum mu_k^2 |lambda_k|^theta diverges under the decay rule"}),
        ({"mu_sq_list": [1.0] * 16, "theta": 0.1},
         {"trace_class": "", "theorem2a": "explicit mu_sq_list: no power-law decay rule",
          "theorem2b": ""}),
    ])
    def test_not_applicable_notes_name_the_failed_premise(self, tmp_path, spectrum, notes):
        out = tmp_path / "run"
        cfg = base_config(str(out), dt=1.25e-3, T=0.01, n_paths=4)
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 9}
        cfg["spectrum"] = spectrum
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((out / "bounds_report.json").read_text())
        assert {r["kind"]: r["notes"] for r in report["bounds"]} == notes

    def test_envelopes_csv_written(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, self.bounds_cfg(str(out)))
        assert main(["bounds", "--config", path]) == 0
        header = (out / "envelopes.csv").read_text().splitlines()[0].split(",")
        assert header[:3] == ["time", "ens_mean", "ens_se"]
        assert "envelope_trace_class" in header
        assert header[-1] == "analytic_wa_var"

    @pytest.mark.parametrize("spectrum", [{"c_mu": 0.0, "mu_exp": 2.0, "theta": 0.1},
                                          {"mu_sq_list": [0.0] * 16, "theta": 0.1}])
    def test_zero_noise_writes_strict_json(self, tmp_path, spectrum):
        # phi(alpha) = 0 without noise, so 1/phi once went out as a bare Infinity token
        out = tmp_path / "run"
        cfg = base_config(str(out))
        cfg["spectrum"] = spectrum
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        docs = {path.name: json.loads(path.read_text(), parse_constant=reject) for path in out.glob("*.json")}
        assert docs.keys() == {"bounds_report.json", "manifest.json", "trace.json"}
        assert docs["bounds_report.json"]["phi_table"]["indicative_time_window"] == [None] * 9

    def test_violated_bound_exit_5(self, tmp_path, capsys, noise_fault):
        # solver-only noise inflation pushes the true enstrophy far above
        # the constant-free envelope
        out = tmp_path / "run"
        cfg = self.bounds_cfg(str(out))
        noise_fault(3.0)
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 5
        assert "trace_class" in capsys.readouterr().err
        report = json.loads((out / "bounds_report.json").read_text())
        kinds = {r["kind"]: r for r in report["bounds"]}
        assert kinds["trace_class"]["verdict"] == "fail"
        assert kinds["trace_class"]["violations"]

    def test_theorem2_envelopes_are_the_fitted_shapes(self, tmp_path):
        # each fitted envelope is C * theorem2_shape at its mu_tilde; 2(b)'s is 1
        out = tmp_path / "run"
        cfg = base_config(str(out), initial_condition={"type": "gaussian", "sigma": 0.1})
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) in (0, 5)
        report = json.loads((out / "bounds_report.json").read_text())
        run = materialize(normalize(read_document(path)))
        start = run.sim.initial_condition.moments(run.basis.n_modes)
        e0 = float(linear_law(run.spectrum, run.params.r, [0.0], *start)[0][0])  # E||omega_0||^2
        bounds = {r["kind"]: r for r in report["bounds"]}
        mu_tilde = bounds["theorem2a"]["params"]["mu_tilde"]
        assert bounds["theorem2a"]["params"].keys() == {"gamma", "mu_tilde", "C"}
        assert bounds["theorem2b"]["params"].keys() == {"gamma", "C"}
        for kind, shape_mu in (("theorem2a", mu_tilde), ("theorem2b", 1.0)):
            shape = theorem2_shape(e0, report["gamma"], run.sim.output_times, shape_mu)
            want = bounds[kind]["params"]["C"] * shape
            assert np.asarray(bounds[kind]["envelope"]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_report_keys_and_summary_are_pinned(self, tmp_path, capsys, seed):
        # nl16_pool's physics at 32 paths: the three bound verdicts pass
        out = tmp_path / "run"
        cfg = base_config(str(out), M=16, dt=1e-3, T=1.0, n_paths=32, master_seed=seed)
        cfg["model"]["linearized"] = False
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 21}
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((out / "bounds_report.json").read_text())
        assert {r["kind"]: r["verdict"] for r in report["bounds"]} == {
            "trace_class": "pass", "theorem2a": "pass", "theorem2b": "pass"}
        assert report.keys() == {"bounds", "c1", "gamma", "gamma_threshold", "phi_table",
                                 "spectrum_tail_bound"}
        assert capsys.readouterr().out == "bounds: trace_class=pass, theorem2a=pass, theorem2b=pass\n"

    def test_needs_eight_output_times(self, tmp_path):
        cfg = self.bounds_cfg(str(tmp_path / "o"))
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 5}
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 2


class TestConfigErrorsBeforeEnsemble:
    LAGS = [0.01, 0.02, 0.03, 0.05, 0.1]

    @pytest.fixture()
    def ensemble_calls(self, monkeypatch):
        """The argument tuples of each `run_ensemble` call the CLI makes."""
        calls = []
        ensemble = stoqg.cli.run_ensemble

        def counted(*args, **kwargs):
            calls.append(args)
            return ensemble(*args, **kwargs)

        monkeypatch.setattr(stoqg.cli, "run_ensemble", counted)
        return calls

    @pytest.mark.parametrize("command, section, settings, key", [
        ("holder", "holder", {"window": [0.01, 0.09], "lags": [0.01, 0.02, 0.03, 0.04, 0.05]},
         "analysis.holder.lags"),  # less than a decade
        ("holder", "holder", {"window": [0.011, 0.019], "lags": LAGS},
         "analysis.holder.window"),  # no output time inside
        ("holder", "holder", {"window": [0.01, 0.1], "lags": [0.005] + LAGS[1:]},
         "analysis.holder.lags"),  # no output-time pair is 0.005 apart
        ("simulate", "holder", {"window": [0.01, 0.1], "lags": [0.005] + LAGS[1:]},
         "analysis.holder.lags"),  # checked at load, whatever the command
        # 5 lags spanning a decade, each realized on the 0.01 grid to T = 0.2, but 2
        # and 4 distinct ones
        ("holder", None, {"sim": {"T": 0.2, "output_times": {"kind": "uniform", "n": 21}},
                          "analysis": {"holder": {"window": [0.01, 0.2], "lags": [0.01] * 4 + [0.1]}}},
         "analysis.holder.lags"),
        ("simulate", None, {"sim": {"T": 0.2, "output_times": {"kind": "uniform", "n": 21}},
                            "analysis": {"holder": {"window": [0.01, 0.2], "lags": [0.01, 0.01] + LAGS[2:]}}},
         "analysis.holder.lags"),
        ("asymptotics", "sim", {"output_times": {"kind": "explicit", "times": [0.0, 0.05, 0.1]}},
         "sim.output_times"),  # fewer than 3 positive output times
        # the derived gamma, 205.34 with the beta term at beta = 1000, overflows e^(2 gamma T)
        ("bounds", None, {"model": {"beta": 1000.0, "beta_term": True},
                          "sim": {"T": 2.0, "output_times": {"kind": "uniform", "n": 9}}}, "sim.T"),
        ("bounds", "sim", {"output_times": {"kind": "uniform", "n": 5}},
         "sim.output_times"),  # the fit protocol needs 8
        ("simulate", "sim", {"output_times": {"kind": "explicit", "times": [-0.5, 0.1, 5.0]}},
         "sim.output_times.times"),  # outside [0, T]
        ("simulate", "sim", {"n_paths": 2**64}, "sim.n_paths"),  # run_ensemble's np.arange raised
        ("simulate", "sim", {"M": 2**64}, "sim.M"),
        ("simulate", "sim", {"output_times": {"kind": "uniform", "n": 2**64}},
         "sim.output_times.n"),
        ("simulate", "sim", {"dt": 1e-300}, "sim.dt"),
        ("asymptotics", "sim", {"initial_condition": {"type": "gaussian", "sigma": 0.1}},
         "analysis.asymptotics.mode"),  # zero mode, the default, compares a run from rest
        # 1e-200 is not rest, though its square underflows to 0
        ("asymptotics", "sim", {"initial_condition": {"type": "coeffs", "values": [1e-200] + [0.0] * 15}},
         "analysis.asymptotics.mode"),
    ])
    def test_exit_2_without_running(self, tmp_path, capsys, ensemble_calls, command, section,
                                    settings, key):
        cfg = base_config(str(tmp_path / "o"))
        if section == "holder":
            cfg["analysis"]["holder"] = settings
        else:  # section None: the settings of several sections, by name
            for name, values in (settings if section is None else {section: settings}).items():
                cfg[name].update(values)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert key + ":" in capsys.readouterr().err
        assert ensemble_calls == []
        assert not (tmp_path / "o").exists()

    def test_out_dir_naming_a_file_exits_2_without_running(self, tmp_path, capsys, ensemble_calls):
        out = tmp_path / "o"
        out.write_text("kept")
        assert main(["simulate", "--config", write_config(tmp_path, base_config(str(out)))]) == 2
        assert "io.out_dir:" in capsys.readouterr().err
        assert ensemble_calls == []
        assert out.read_text() == "kept"

    def test_artifact_that_cannot_be_written_exits_2(self, tmp_path, capsys, ensemble_calls):
        # mkdir cannot tell that the out dir will refuse an artifact, so the ensemble has
        # run; the failed write is still a one-line config error, not a traceback
        out = tmp_path / "o"
        (out / "trace.csv").mkdir(parents=True)
        assert main(["simulate", "--config", write_config(tmp_path, base_config(str(out), n_paths=4))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: io.out_dir: cannot write into") and len(err.splitlines()) == 1
        assert len(ensemble_calls) == 1
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]  # no partial file, no manifest


class TestHolderCommand:
    # the exact-trace recoveries (sqrt(t) -> 0.5, t -> 1.0) are pinned by acceptance criterion 7
    @staticmethod
    def holder_cfg(out_dir):
        # enough paths that every lag's increment clears the Monte Carlo noise floor
        cfg = base_config(out_dir, dt=1e-3, T=0.2, n_paths=800)
        cfg["sim"]["output_times"] = {"kind": "uniform", "n": 201}
        cfg["analysis"]["holder"] = {
            "window": [0.005, 0.2],
            "lags": [1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
        }
        return cfg

    def test_exit_code_follows_verdict(self, tmp_path):
        out = tmp_path / "run"
        code = main(["holder", "--config", write_config(tmp_path, self.holder_cfg(str(out)))])
        report = json.loads((out / "holder_report.json").read_text())
        assert report["verdict"] in ("pass", "fail")
        assert code == (6 if report["verdict"] == "fail" else 0)

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
        }
        path = write_config(tmp_path, cfg)
        assert main(["holder", "--config", path]) == 2


class TestAsymptoticsCommand:
    @staticmethod
    def zero_mode_cfg(out_dir, n_paths=400):
        cfg = base_config(out_dir, M=8, dt=1e-4, T=1e-2, n_paths=n_paths)
        cfg["spectrum"] = {"c_mu": 1.0, "mu_exp": 0.5, "theta": 0.1}
        cfg["sim"]["output_times"] = {"kind": "geometric", "t_min": 1e-4, "n": 7}
        cfg["analysis"]["asymptotics"] = {"mode": "zero", "delta": 0.5}
        return cfg

    def test_zero_mode_linear_run_passes(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, self.zero_mode_cfg(str(out)))
        assert main(["asymptotics", "--config", path]) == 0
        report = json.loads((out / "asymptotics_report.json").read_text())
        assert report["verdict"] == "pass"
        ratios = np.asarray(report["ratio_empirical"])
        np.testing.assert_allclose(ratios, 1.0, rtol=1e-12)

    def test_faulted_ratio_exit_6(self, tmp_path, noise_fault):
        # inflated solver noise breaks the small-time ratio against the
        # analytic convolution variance
        out = tmp_path / "run"
        noise_fault(2.0)
        path = write_config(tmp_path, self.zero_mode_cfg(str(out), n_paths=200))
        assert main(["asymptotics", "--config", path]) == 6
        report = json.loads((out / "asymptotics_report.json").read_text())
        assert report["verdict"] == "fail"

    @pytest.mark.parametrize("command", ["asymptotics", "verify-linear"])
    def test_zero_companion_passes_with_valid_json(self, tmp_path, command):
        # no noise from rest: Ens(t) and its companion are both exactly 0, an exact agreement
        out = tmp_path / "run"
        cfg = base_config(str(out))
        cfg["spectrum"]["c_mu"] = 0.0
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        reports = {p.name: json.loads(p.read_text(), parse_constant=reject) for p in out.glob("*.json")}
        assert len(reports) == 3  # trace, manifest and the command's report
        if command == "asymptotics":
            report = reports["asymptotics_report.json"]
            assert report["ratio_analytic"] == report["ratio_empirical"] == [None] * 10
            assert report["ratio_tolerance"] == [None, None] and report["verdict"] == "pass"

    @pytest.mark.parametrize("scale, code", [(None, 0), (1.2, 6), (1.5, 6)])
    def test_lin16_dense_ratio_tolerance(self, tmp_path, noise_fault, scale, code):
        # 64 paths: a correct run sits within 3 exact SE of the companion, not within 5%
        # (ratios 0.964 and 1.062 at seed 1), and an inflated noise still fails
        cfg = perfbench_document("lin16_dense", 1)
        cfg["io"]["out_dir"] = str(tmp_path / "run")
        if scale is not None:
            noise_fault(scale)
        assert main(["asymptotics", "--config", write_config(tmp_path, cfg)]) == code
        report = json.loads((tmp_path / "run" / "asymptotics_report.json").read_text())
        assert report["ratio_ok"] == (code == 0)
        assert min(report["ratio_tolerance"]) > 0.05

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
        cfg["analysis"]["asymptotics"] = {"mode": "general", "delta": 0.5}
        path = write_config(tmp_path, cfg)
        assert main(["asymptotics", "--config", path]) == 0
        report = json.loads((out / "asymptotics_report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["exponent"] == pytest.approx(1.0, abs=0.05)
        assert report["threshold"] == 0.5 / 2.0 - 0.05  # delta/2 - 0.05
        # all six outputs lie before the slowest mode relaxes: 1 / (2 |lambda_1 - r|)
        assert report["fit_time_limit"] == pytest.approx(1.0 / (2.0 * (2.0 * np.pi**2 + 0.1)), rel=1e-12)

    def test_general_mode_after_relaxation_not_applicable(self, tmp_path, capsys):
        # every output lies past 1 / (2 |lambda_1 - r|) = 0.0252, where Ens(t) has
        # already relaxed: the fit of |Ens(t) - Ens(0)| once failed there (exit 6)
        out = tmp_path / "run"
        cfg = base_config(str(out), dt=0.01, T=0.5, n_paths=8, master_seed=1,
                          initial_condition={"type": "gaussian", "sigma": 0.1})
        cfg["model"].update({"linearized": False, "beta": 0.2, "beta_term": True})
        cfg["analysis"]["asymptotics"] = {"mode": "general"}
        assert main(["asymptotics", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.strip() == "asymptotics[general]: not_applicable"
        report = json.loads((out / "asymptotics_report.json").read_text())
        assert report.keys() == {"mode", "verdict", "fit_time_limit", "notes"}
        assert report["fit_time_limit"] == pytest.approx(0.0252, abs=1e-4)


class TestVerdictTable:
    """The CLI's verdict is the library's: `<command>_premise` and `<command>_verdict` on a trace."""

    CONFIGS = {
        "verify-linear": lambda out: TestVerifyLinearCommand.linear_cfg(None, out),
        "bounds": lambda out: TestBoundsCommand.bounds_cfg(None, out),
        "holder": TestHolderCommand.holder_cfg,
        "asymptotics": TestAsymptoticsCommand.zero_mode_cfg,
    }

    @pytest.mark.parametrize("command, fault, code", [
        ("verify-linear", None, 0), ("verify-linear", 2.0, 4), ("bounds", None, 0), ("bounds", 3.0, 5),
        ("holder", None, 0), ("asymptotics", None, 0), ("asymptotics", 2.0, 6),
    ])
    def test_reports_summary_and_exit_code(self, tmp_path, capsys, noise_fault, command, fault, code):
        path = write_config(tmp_path, self.CONFIGS[command](str(tmp_path / "cli")))
        if fault is not None:  # the fault holds for the CLI's run and the library's
            noise_fault(fault)
        assert main([command, "--config", path]) == code
        printed = capsys.readouterr()

        premise, judge, fail_code, _ = stoqg.cli._COMMANDS[command]
        cfg = materialize(normalize(read_document(path)))
        premise(cfg)
        trace = estimate_enstrophy(run_ensemble(cfg.sim, cfg.params, cfg.spectrum), cfg.spectrum, cfg.params.r)
        verdict, summary, reports, extra = judge(cfg, trace)
        assert code == (fail_code if verdict == "fail" else 0) and extra is None
        assert (printed.out if code == 0 else printed.err) == summary + "\n"
        written = {p.name for p in (tmp_path / "cli").iterdir()} - {"trace.csv", "trace.json", "manifest.json"}
        assert written == reports.keys()
        (tmp_path / "lib").mkdir()
        for name, payload in reports.items():
            if isinstance(payload, tuple):
                write_csv(tmp_path / "lib" / name, *payload)
            else:
                write_json(tmp_path / "lib" / name, payload)
            assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes(), name
