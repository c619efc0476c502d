"""stoqg benchmark: closed-loop `stoqg simulate` runs, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Each run is a fresh process (`child.py`)
that imports stoqg from `src/` and calls `stoqg.cli.main` on a config built
from the seed; runs repeat until S seconds have passed and every output is
checked. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones; the last line of stdout is the JSON result. `--smoke` runs
every workload and its checks once at a tiny size, gating on nothing but
correctness. README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# one BLAS/OpenMP thread per process, so workers x BLAS threads <= nproc
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_TIMEOUT_S = 120.0
BUDGET_S = 150.0  # no new iteration once the last one would end past this

END_TO_END_UNITS = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}
LAYER_UNITS = {
    "spectral.drift_s": "s", "spectral.drift_calls": "count",
    "spectral.drift_gflop": "Gflop", "spectral.drift_gflops": "Gflop/s",
    "noise.draw_s": "s", "noise.draw_calls": "count", "noise.draw_values": "count",
    "noise.draw_ns_per_value": "ns",
    "dynamics.advance_self_s": "s", "dynamics.loop_rest_s": "s",
    "dynamics.batch_s_p50": "s", "dynamics.batch_s_max": "s",
    "dynamics.parallel_efficiency": "frac", "dynamics.run_ensemble_s": "s",
    "dynamics.stepper_init_s": "s", "dynamics.result_mb": "MB",
    "analysis.estimate_s": "s",
    "artifacts.write_s": "s", "artifacts.bytes_written": "bytes",
    "config.load_s": "s",
    "cli.self_s": "s", "cli.wall_s": "s",
    "trace_overhead_frac": "frac",
}
# counts (computed from the config or counted in the run) that repeat exactly
COMPUTED = ("spectral.drift_gflop", "noise.draw_values", "artifacts.bytes_written",
            "dynamics.result_mb")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]}


def run_child(config_path: Path, threads: int, trace: bool, result_path: Path) -> int:
    """Runs child.py as the leader of a new process group; on timeout the group is killed."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path), str(threads),
           "1" if trace else "0", str(result_path)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0 and stderr:
        print(stderr.strip().splitlines()[-1], file=sys.stderr)
    return proc.returncode


class Bench:
    """Runs one workload in a closed loop and checks every output."""

    def __init__(self, workload, seed: int, tiny: bool):
        from stoqg.config import materialize, normalize

        self.workload = workload
        self.document = workload.build(seed, tiny)
        self.cfg = materialize(normalize(self.document))
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.attempted = 0
        self.errors: list[str] = []
        self.trace_digest: str | None = None

    def run(self, label: str, threads: int, trace: bool) -> dict | None:
        """One subcommand; returns its result, or None if it failed a check."""
        run_dir = self.work / f"{self.attempted:04d}-{label}"
        out_dir = run_dir / "out"
        run_dir.mkdir(parents=True)
        document = json.loads(json.dumps(self.document))
        document["io"]["out_dir"] = str(out_dir)
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(document), encoding="utf-8")
        result_path = run_dir / "result.json"
        self.attempted += 1
        result = None
        try:
            error = self._check(run_child(config_path, threads, trace, result_path), out_dir)
            if error is None:
                result = json.loads(result_path.read_text(encoding="utf-8"))
                # manifest.json is left out: it holds the run's wall time, whose digits vary
                result["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir()
                                              if p.name != "manifest.json")
                if trace:  # the last traced run's spans outlive the run directory
                    os.replace(run_dir / "spans.json",
                               WORK / f"{self.workload.name}.{label}.spans.json")
        except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as err:
            error = f"{type(err).__name__}: {err}"
        shutil.rmtree(run_dir, ignore_errors=True)
        if error is not None:
            self.errors.append(f"{label} run {self.attempted}: {error}")
            print(f"check failed: {self.errors[-1]}", file=sys.stderr)
            return None
        return result

    def _check(self, code: int, out_dir: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        # same config, so trace.csv must be byte-identical for any run and worker count
        digest = hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest()
        if self.trace_digest is None:
            self.trace_digest = digest
        elif digest != self.trace_digest:
            return "trace.csv differs from the first run's"
        return self.workload.check(out_dir, self.cfg)

    def loop(self, seconds: float, plan: list[tuple[str, int, bool]]) -> list[dict]:
        """Repeats the plan's runs until `seconds` pass; keeps groups that all passed."""
        groups = []
        started = time.perf_counter()
        while True:
            begun = time.perf_counter()
            results = [self.run(label, threads, trace) for label, threads, trace in plan]
            if all(r is not None for r in results):
                groups.append(dict(zip((label for label, _, _ in plan), results)))
            now = time.perf_counter()
            if now - started >= seconds or now - started + (now - begun) > BUDGET_S:
                break
        shutil.rmtree(self.work, ignore_errors=True)
        return groups

    def end_to_end(self, seconds: float) -> dict:
        from workloads import path_steps

        groups = self.loop(seconds, [("untraced", self.workload.threads, False)])
        runs = [g["untraced"] for g in groups]
        if not runs:
            return {}
        walls = sorted(r["wall_s"] for r in runs)
        print(f"wall_s samples n={len(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
        wall = statistics.median(walls)
        return {
            "wall_s": wall,
            "path_steps_per_s": path_steps(self.cfg) / wall,
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "ok_frac": (self.attempted - len(self.errors)) / self.attempted,
        }

    def per_layer(self, seconds: float) -> dict:
        """Traced runs at 1 worker; an untraced twin and a traced 2-worker run beside each."""
        from workloads import draw_values, drift_flop

        plan = [("base", 1, False), ("traced", 1, True), ("traced2", 2, True)]
        samples = []
        for group in self.loop(seconds, plan):
            traced, layers = group["traced"], dict(group["traced"]["layers"])
            if layers["noise.draw_values"] != draw_values(self.cfg):
                self.errors.append(f"counted {layers['noise.draw_values']} draws, "
                                   f"expected {draw_values(self.cfg)}")
                continue
            gflop = drift_flop(self.cfg) / 1e9
            layers["spectral.drift_gflop"] = gflop
            layers["spectral.drift_gflops"] = (gflop / layers["spectral.drift_s"]
                                               if layers["spectral.drift_s"] > 0 else 0.0)
            layers["artifacts.bytes_written"] = traced["bytes_written"]
            layers["dynamics.parallel_efficiency"] = layers["dynamics.run_ensemble_s"] / (
                2.0 * group["traced2"]["layers"]["dynamics.run_ensemble_s"])
            base_wall = group["base"]["wall_s"]
            layers["trace_overhead_frac"] = (traced["wall_s"] - base_wall) / base_wall
            samples.append(layers)
        if not samples:
            return {}
        return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def report(metrics: dict, units: dict[str, str]) -> dict:
    out = {}
    for name in sorted(metrics):
        unit = units[name]
        tag = " (computed)" if name in COMPUTED else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{tag}")
        out[name] = {"value": metrics[name], "unit": unit}
    return out


def smoke() -> int:
    """Every workload once, untraced and traced, at a tiny size; correctness only."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "workloads": {w["name"] for w in spec["workloads"]} == set(WORKLOADS),
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS,
    }
    failed = False
    for key, ok in declared.items():
        failed |= not ok
        print(f"smoke BENCHMARK.json {key}: {'ok' if ok else 'FAIL (differs from run.py)'}")
    units = {False: END_TO_END_UNITS, True: LAYER_UNITS}
    for workload in WORKLOADS.values():
        for trace in (False, True):
            bench = Bench(workload, seed=1, tiny=True)
            metrics = bench.per_layer(0.0) if trace else bench.end_to_end(0.0)
            ok = set(metrics) == set(units[trace]) and not bench.errors
            failed |= not ok
            print(f"smoke {workload.name} trace={int(trace)}: "
                  f"{'ok' if ok else 'FAIL'} ({bench.attempted} runs)")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stoqg" / "cli.py").is_file():
        print(f"perfbench: no stoqg sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if not 0 <= args.seed < 2**64 or args.seconds < 0:
        parser.error("--seed must be a 64-bit unsigned integer and --seconds >= 0")

    bench = Bench(WORKLOADS[args.workload], args.seed, tiny=False)
    print("env " + json.dumps(environment()))
    if args.trace:
        metrics = report(bench.per_layer(args.seconds), LAYER_UNITS)
    else:
        metrics = report(bench.end_to_end(args.seconds), END_TO_END_UNITS)
        print(f"failed_frac = {len(bench.errors) / bench.attempted:.6g} frac")
    if not metrics:
        print("perfbench: no run passed its checks", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not bench.errors, "attempted": bench.attempted,
                      "failed": len(bench.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
