"""Command-line front door for simulation and bound-verification runs.

Subcommands: simulate, verify-linear, bounds, holder, asymptotics. Every
command reads a strict JSON config, runs what it needs, and writes its
artifacts plus a manifest into the output directory.

Exit codes are stable: 0 success (including not-applicable checks), 2 config
validation error, 3 path blowup, 4 linear-oracle mismatch, 5 bound
violation (trace_class, theorem2a or theorem2b), 6 regularity failure, 7
crashed ensemble worker, 8 out of memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis as lab
from . import noise as noise_mod
from .artifacts import (
    Stopwatch,
    write_csv,
    write_json,
    write_manifest,
    write_trace,
    write_trajectories,
)
from .config import ConfigError, RunConfig, keyed, materialize, normalize, read_document
from .dynamics import BlowupError, WorkerError, run_ensemble

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ORACLE = 4
EXIT_BOUND = 5
EXIT_REGULARITY = 6
EXIT_WORKER = 7
EXIT_MEMORY = 8

# command-line flag -> the config key it overrides
_OVERRIDES = (("paths", "sim", "n_paths"), ("seed", "sim", "master_seed"), ("out", "io", "out_dir"))

# what a command can fail with besides a config error -> its exit code and the
# prefix of its one-line message
_RUN_FAILURES = {
    BlowupError: (EXIT_BLOWUP, "blowup"),
    WorkerError: (EXIT_WORKER, "worker crash"),
    MemoryError: (EXIT_MEMORY, "out of memory"),
}


@dataclass
class _Outcome:
    """What a command leaves behind besides the trace and the manifest."""

    code: int
    summary: str  # one line, on stdout for success and on stderr otherwise
    reports: dict[str, dict] = field(default_factory=dict)  # JSON file name -> payload
    manifest_extra: dict | None = None


def _load(args) -> RunConfig:
    raw = read_document(args.config)
    if isinstance(raw, dict):
        raw.setdefault("io", {})  # the io section is optional, but --out writes into it
        for flag, section, key in _OVERRIDES:
            value = getattr(args, flag)
            if value is not None and isinstance(raw.get(section), dict):
                raw[section][key] = value
    return materialize(normalize(raw))


def _execute(command, args) -> int:
    """Load, let the command run and report, then write its artifacts and manifest.

    A command checks the rules of its settings before it calls `run`, which
    returns the ensemble's complete enstrophy trace. Every command that ran the
    ensemble writes trace.csv and trace.json, and with `io.write_trajectories`
    on also trajectories.csv. A run failure (_RUN_FAILURES) prints its one-line
    message and returns its exit code; once `run` has made the out dir, it also
    leaves a manifest there with the exit code, the message and, for a blowup,
    the failing (path, time) pairs.
    """
    clock = Stopwatch()
    records = trace = None
    started = False

    def run() -> lab.EnstrophyTrace:
        """The ensemble's enstrophy trace, timed for the manifest."""
        nonlocal records, trace, started
        if cfg.sim.n_paths < 2:
            raise ConfigError("sim.n_paths", "ensemble statistics need at least 2 paths")
        try:  # a directory that cannot hold the artifacts fails before the ensemble runs
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError("io.out_dir", f"cannot create {out_dir}: {err.strerror or err}") from None
        started = True
        with clock:
            records = run_ensemble(cfg.sim, cfg.params, cfg.spectrum, n_workers=args.threads)
            trace = lab.estimate_enstrophy(records, cfg.spectrum, cfg.params.r)
        return trace

    try:
        cfg = _load(args)
        out_dir = Path(cfg.io["out_dir"])
        with keyed():  # a rule's ParameterError is a config error under its key
            outcome = command(cfg, run)
        if trace is not None:
            write_trace(out_dir, trace)
            if cfg.io["write_trajectories"]:
                write_trajectories(out_dir, records)
        for name, payload in outcome.reports.items():
            write_json(out_dir / name, payload)
    except tuple(_RUN_FAILURES) as err:
        code, prefix = next(v for kind, v in _RUN_FAILURES.items() if isinstance(err, kind))
        message = f"{prefix}: {err}"
        if started:
            extra = {"exit_code": code, "error": message}
            if isinstance(err, BlowupError):
                extra["failures"] = [[path, time] for path, time in err.failures]
            write_manifest(out_dir, cfg.document, clock.elapsed, extra=extra)
        print(message, file=sys.stderr)
        return code
    write_manifest(out_dir, cfg.document, clock.elapsed, extra=outcome.manifest_extra)
    print(outcome.summary, file=sys.stdout if outcome.code == EXIT_OK else sys.stderr)
    return outcome.code


def cmd_simulate(cfg: RunConfig, run) -> _Outcome:
    trace = run()
    return _Outcome(
        EXIT_OK,
        f"simulate: wrote {Path(cfg.io['out_dir'])} "
        f"({trace.n_paths} paths, {len(trace.times)} output times)",
        manifest_extra={"spectrum_tail_bound": noise_mod.stationary_tail_bound(cfg.spectrum)},
    )


def cmd_verify_linear(cfg: RunConfig, run) -> _Outcome:
    if not cfg.params.linearized:
        raise ConfigError("model.linearized", "verify-linear requires the linearized switch")
    # the oracle is the law of the companion convolution V, which omega equals only
    # when nothing but the noise drives it
    if cfg.params.effective_beta != 0.0:
        raise ConfigError("model.beta_term", "verify-linear requires the beta term off")
    if not cfg.sim.initial_condition.at_rest:
        raise ConfigError("sim.initial_condition", "verify-linear requires a zero initial condition")
    report = lab.linear_oracle_check(run())
    worst_z = f"worst |z|={abs(report['worst_z']):.3g}, threshold {report['z_threshold']:.3g}"
    if report["verdict"] == "pass":
        code, summary = EXIT_OK, f"verify-linear: pass ({worst_z})"
    else:
        code, summary = EXIT_ORACLE, (f"verify-linear: oracle mismatch, {worst_z} "
                                      f"at t={report['worst_time']:g}")
    return _Outcome(code, summary, reports={"linear_report.json": report})


def cmd_bounds(cfg: RunConfig, run) -> _Outcome:
    times = cfg.sim.output_times
    lab.check_fit_times(times)
    mu_exp, theta = cfg.spectrum.mu_exp, cfg.spectrum.theta
    gamma, threshold, mu_tilde = lab.bound_parameters(cfg.params.nu, cfg.params.r,
                                                      cfg.params.effective_beta, mu_exp, times)
    trace = run()

    e0 = cfg.sim.initial_condition.mean_sq_norm(cfg.basis.n_modes)
    reports: list[dict] = []

    if cfg.spectrum.trace_class:
        envelope = lab.trace_class_envelope(0.5 * e0, gamma, noise_mod.trace(cfg.spectrum), times)
        reports.append(lab.validate_bound(trace, envelope).to_dict())
    else:
        reports.append({"kind": "trace_class", "verdict": "not_applicable",
                        "notes": "spectrum is not trace-class"})

    # Theorem 2(b) is 2(a)'s shape at mu_tilde = 1: (kind, shape's mu_tilde, params, the
    # premise that failed, or None where the theorem applies)
    theorem2 = (
        ("theorem2a", mu_tilde, {"gamma": gamma, "mu_tilde": mu_tilde},
         "explicit mu_sq_list: no power-law decay rule" if mu_exp is None
         else "mu_exp <= 0: no mu_tilde in (0, mu_exp)" if mu_tilde is None else None),
        ("theorem2b", 1.0, {"gamma": gamma},
         None if mu_exp is None or mu_exp - theta > 1.0
         else "mu_exp - theta <= 1: sum mu_k^2 |lambda_k|^theta diverges under the decay rule"),
    )
    for kind, shape_mu, params, failed in theorem2:
        if failed is None:
            shape = lab.theorem2_shape(e0, gamma, times, shape_mu)
            reports.append(lab.fit_and_validate_bound(trace, shape, kind=kind, params=params).to_dict())
        else:
            reports.append({"kind": kind, "verdict": "not_applicable", "notes": failed})

    alphas = np.geomspace(1e2, 1e4, 9)
    phi_values = [noise_mod.phi_alpha(cfg.spectrum, a) for a in alphas]
    phi_table = {  # JSON has no Infinity: the window is None where phi = 0 (no noise)
        "alpha": alphas,
        "phi": phi_values,
        "indicative_time_window": [1.0 / phi if phi > 0 else None for phi in phi_values],
        "notes": "window t <= C/phi(alpha) has an unknown constant; indicative only",
    }

    payload = {
        "gamma": gamma,
        "gamma_threshold": threshold,
        "c1": lab.DIRICHLET_C1,
        "spectrum_tail_bound": noise_mod.stationary_tail_bound(cfg.spectrum),
        "bounds": reports,
        "phi_table": phi_table,
    }
    _write_envelopes_csv(Path(cfg.io["out_dir"]), trace, reports)

    failed = [r["kind"] for r in reports if r["verdict"] == "fail"]
    summary = ", ".join(f"{r['kind']}={r['verdict']}" for r in reports)
    if failed:
        code, summary = EXIT_BOUND, f"bounds: violation in {failed} ({summary})"
    else:
        code, summary = EXIT_OK, f"bounds: {summary}"
    return _Outcome(code, summary, reports={"bounds_report.json": payload})


def _write_envelopes_csv(out_dir: Path, trace: lab.EnstrophyTrace, reports: list[dict]):
    """Flat table of the trace against every evaluated envelope."""
    header = ["time", "ens_mean", "ens_se"]
    columns = [trace.times, trace.ens_mean, trace.ens_se]
    for rep in reports:
        if "envelope" in rep:
            header.append(f"envelope_{rep['kind']}")
            columns.append(np.asarray(rep["envelope"]))
    header.append("analytic_wa_var")
    columns.append(2.0 * trace.wa_half_analytic)
    write_csv(out_dir / "envelopes.csv", header, zip(*(c.tolist() for c in columns)))


def cmd_holder(cfg: RunConfig, run) -> _Outcome:
    holder = cfg.analysis["holder"]  # checked against the output times at load
    if not holder:
        raise ConfigError("analysis.holder.window", "required for the holder command")
    trace = run()
    result = lab.holder_exponent_fit(trace, holder["window"], holder["lags"])
    verdict = result["verdict"]
    exponent = result.get("exponent")
    summary = f"holder: {verdict}" + (f" (exponent {exponent:.4f})" if exponent is not None else "")
    return _Outcome(EXIT_REGULARITY if verdict == "fail" else EXIT_OK, summary,
                    reports={"holder_report.json": result})


def cmd_asymptotics(cfg: RunConfig, run) -> _Outcome:
    asym = cfg.analysis["asymptotics"]
    lab.check_small_times(cfg.sim.output_times)  # mode and delta were checked at load
    ens0 = 0.5 * cfg.sim.initial_condition.mean_sq_norm(cfg.basis.n_modes)
    # zero mode's premise is omega(0) = 0: only from rest does Ens(t) start out as the convolution's
    if asym["mode"] == "zero" and not cfg.sim.initial_condition.at_rest:
        raise ConfigError("analysis.asymptotics.mode", "zero mode requires a zero initial condition")
    trace = run()
    # general mode fits only times before the slowest mode has relaxed, 1 / (2 |lambda_1 - r|)
    limit = 1.0 / (2.0 * abs(float(cfg.basis.eigenvalues[0]) - cfg.params.r))
    result = lab.asymptotics_check(trace, asym["mode"], asym["delta"], ens0=ens0,
                                   fit_time_limit=limit)
    return _Outcome(EXIT_REGULARITY if result["verdict"] == "fail" else EXIT_OK,
                    f"asymptotics[{asym['mode']}]: {result['verdict']}",
                    reports={"asymptotics_report.json": result})


_COMMANDS = {
    "simulate": (cmd_simulate, "run the ensemble and write the enstrophy trace"),
    "verify-linear": (cmd_verify_linear,
                      "compare a linearized run against the analytic convolution variance"),
    "bounds": (cmd_bounds, "evaluate the enstrophy bound envelopes"),
    "holder": (cmd_holder, "fit the increment exponent of the enstrophy curve"),
    "asymptotics": (cmd_asymptotics, "check the small-time behaviour of the enstrophy"),
}


def _worker_count(text: str) -> int:
    """The --threads value: a count of worker processes, at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoqg",
        description="stochastic quasi-geostrophic vorticity simulator and enstrophy lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory (overrides io.out_dir)")
        cmd.add_argument("--paths", type=int, default=None, help="override sim.n_paths")
        cmd.add_argument("--seed", type=int, default=None, help="override sim.master_seed")
        cmd.add_argument("--threads", type=_worker_count, default=1,
                         help="ensemble worker processes, >= 1 (never more than the batch count)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _execute(_COMMANDS[args.command][0], args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
