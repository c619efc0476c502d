"""Command-line front door for simulation and bound-verification runs.

Subcommands: simulate, verify-linear, bounds, holder, asymptotics. Every
command reads a strict JSON config, runs what it needs, and writes its
artifacts plus a manifest into the output directory.

Exit codes are stable: 0 success (including not-applicable checks), 2 config
validation error, 3 path blowup, 4 linear-oracle mismatch, 5 bound
violation, 6 regularity failure, 7 crashed ensemble worker.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool
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
from .config import ConfigError, RunConfig, materialize, normalize, read_document
from .dynamics import BlowupError, convolution_sup_norms, run_ensemble

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ORACLE = 4
EXIT_BOUND = 5
EXIT_REGULARITY = 6
EXIT_WORKER = 7

# command-line flag -> the config key it overrides
_OVERRIDES = (("paths", "sim", "n_paths"), ("seed", "sim", "master_seed"), ("out", "io", "out_dir"))


@dataclass
class _Outcome:
    """What a command leaves behind besides the manifest."""

    code: int
    summary: str  # one line, on stdout for success and on stderr otherwise
    trace: lab.EnstrophyTrace | None = None
    reports: dict[str, dict] = field(default_factory=dict)  # JSON file name -> payload
    records: list | None = None  # per-batch ensemble records for trajectories.csv
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
    """Load, let the command run and report, then write its artifacts and manifest."""
    cfg = _load(args)
    clock = Stopwatch()

    def run():
        """The ensemble and its enstrophy trace, timed for the manifest."""
        if cfg.sim.n_paths < 2:
            raise ConfigError("sim.n_paths", "ensemble statistics need at least 2 paths")
        with clock:
            records = run_ensemble(cfg.sim, cfg.params, cfg.spectrum, n_workers=args.threads)
            solver_rates = cfg.basis.eigenvalues - cfg.params.r
            trace = lab.estimate_enstrophy(records, cfg.spectrum, solver_rates)
        return records, trace

    outcome = command(cfg, run)
    out_dir = Path(cfg.io["out_dir"])
    if outcome.trace is not None:
        write_trace(out_dir, outcome.trace, cfg.io["formats"])
    if outcome.records is not None:
        write_trajectories(out_dir, outcome.records)
    for name, payload in outcome.reports.items():
        write_json(out_dir / name, payload)
    write_manifest(out_dir, cfg.document, clock.elapsed, extra=outcome.manifest_extra)
    print(outcome.summary, file=sys.stdout if outcome.code == EXIT_OK else sys.stderr)
    return outcome.code


def _gamma_settings(cfg: RunConfig) -> tuple[float, float]:
    beta_eff = cfg.params.beta if cfg.params.beta_term else 0.0
    threshold = lab.gamma_threshold(cfg.params.nu, cfg.params.r, beta_eff, cfg.c1())
    gamma = cfg.analysis["gamma"]
    if gamma is None:
        gamma = threshold + 0.1
    if gamma <= threshold:
        raise ConfigError("analysis.gamma", f"must exceed gamma_threshold={threshold:.6g}")
    return gamma, threshold


def cmd_simulate(cfg: RunConfig, run) -> _Outcome:
    dump = cfg.io["write_trajectories"]
    if dump:
        cfg.sim.store_fields = cfg.document["sim"]["store_fields"] = True
    records, trace = run()
    return _Outcome(
        EXIT_OK,
        f"simulate: wrote {Path(cfg.io['out_dir'])} "
        f"({trace.n_paths} paths, {len(trace.times)} output times)",
        trace=trace,
        records=records if dump else None,
        manifest_extra={"spectrum_tail_bound": noise_mod.stationary_tail_bound(cfg.spectrum)},
    )


def cmd_verify_linear(cfg: RunConfig, run) -> _Outcome:
    if not cfg.params.linearized:
        raise ConfigError("model.linearized", "verify-linear requires the linearized switch")
    _, trace = run()
    oracle = trace.wa_half_analytic
    diff = trace.ens_mean - oracle
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(trace.ens_se > 0, diff / trace.ens_se, np.where(diff == 0.0, 0.0, np.inf))
    worst = int(np.argmax(np.abs(z)))
    passed = bool(np.all(np.abs(z) <= 3.0))
    report = {
        "times": trace.times,
        "ens_mean": trace.ens_mean,
        "oracle_half_variance": oracle,
        "z_scores": z,
        "worst_time": float(trace.times[worst]),
        "worst_z": float(z[worst]),
        "verdict": "pass" if passed else "fail",
    }
    worst_z = f"worst |z|={abs(report['worst_z']):.3g}"
    if passed:
        code, summary = EXIT_OK, f"verify-linear: pass ({worst_z})"
    else:
        code, summary = EXIT_ORACLE, (f"verify-linear: oracle mismatch, {worst_z} "
                                      f"at t={report['worst_time']:g}")
    return _Outcome(code, summary, trace=trace, reports={"linear_report.json": report})


def cmd_bounds(cfg: RunConfig, run) -> _Outcome:
    if len(cfg.sim.output_times) < 8:
        raise ConfigError("sim.output_times", "bound fitting needs at least 8 output times")
    gamma, threshold = _gamma_settings(cfg)
    records, trace = run()

    e0 = cfg.sim.initial_condition.mean_sq_norm(cfg.basis.n_modes)
    split = cfg.analysis["split"]
    times = trace.times
    reports: list[dict] = []

    if cfg.spectrum.trace_class:
        envelope = lab.trace_class_envelope(0.5 * e0, gamma, noise_mod.trace(cfg.spectrum), times)
        reports.append(lab.validate_bound(trace, envelope).to_dict())
    else:
        reports.append({"kind": "trace_class", "verdict": "not_applicable",
                        "notes": "spectrum is not trace-class"})

    mu_exp = cfg.spectrum.mu_exp
    mu_tilde = cfg.mu_tilde_default()
    if mu_exp is not None and mu_exp > 0 and mu_tilde is not None:
        shape = lab.theorem2_shape("a", e0, gamma, times, mu_tilde, mu_exp)
        rep = lab.fit_and_validate_bound(trace, shape, split, kind="theorem2a",
                                         params={"gamma": gamma, "mu_tilde": mu_tilde})
        reports.append(rep.to_dict())
    else:
        reports.append({"kind": "theorem2a", "verdict": "not_applicable",
                        "notes": "no power-law decay rule available"})

    theta_summable = cfg.spectrum.mu_exp is None or (cfg.spectrum.mu_exp - cfg.spectrum.theta > 1.0)
    if theta_summable:
        shape = lab.theorem2_shape("b", e0, gamma, times)
        rep = lab.fit_and_validate_bound(trace, shape, split, kind="theorem2b",
                                         params={"gamma": gamma})
        reports.append(rep.to_dict())
    else:
        reports.append({"kind": "theorem2b", "verdict": "not_applicable",
                        "notes": "sum mu_k^2 |lambda_k|^theta diverges under the decay rule"})

    # path 0 is replayed from its forcing draws for its ||V||_inf series
    v_inf = convolution_sup_norms(cfg.sim, cfg.params, cfg.spectrum, 0)
    lemma1 = lab.lemma1_pathwise_check(records[0].times, records[0].u_sq[0], v_inf, gamma,
                                       split=split)
    lemma1_out = {k: v for k, v in lemma1.items() if k != "residuals"}
    lemma1_out["kind"] = "lemma1"

    alphas = np.asarray(cfg.analysis["alpha_grid"], dtype=float)
    phi_values = np.array([noise_mod.phi_alpha(cfg.spectrum, a) for a in alphas])
    phi_table = {
        "alpha": alphas,
        "phi": phi_values,
        "indicative_time_window": 1.0 / phi_values,
        "notes": "window t <= C/phi(alpha) has an unknown constant; indicative only",
    }

    payload = {
        "gamma": gamma,
        "gamma_threshold": threshold,
        "c1": cfg.c1(),
        "spectrum_tail_bound": noise_mod.stationary_tail_bound(cfg.spectrum),
        "bounds": reports,
        "lemma1": lemma1_out,
        "phi_table": phi_table,
    }
    if "csv" in cfg.io["formats"]:
        _write_envelopes_csv(Path(cfg.io["out_dir"]), trace, reports)

    failed = [r["kind"] for r in reports + [lemma1_out] if r["verdict"] == "fail"]
    summary = ", ".join(f"{r['kind']}={r['verdict']}" for r in reports + [lemma1_out])
    if failed:
        code, summary = EXIT_BOUND, f"bounds: violation in {failed} ({summary})"
    else:
        code, summary = EXIT_OK, f"bounds: {summary}"
    return _Outcome(code, summary, trace=trace, reports={"bounds_report.json": payload})


def _write_envelopes_csv(out_dir: Path, trace: lab.EnstrophyTrace, reports: list[dict]):
    """Flat table of the trace against every evaluated envelope."""
    header = ["time", "ens_mean", "ens_se"]
    columns = [trace.times, trace.ens_mean, trace.ens_se]
    for rep in reports:
        if "envelope" in rep:
            header.append(f"envelope_{rep['kind']}")
            columns.append(np.asarray(rep["envelope"]))
    header.append("analytic_wa_var")
    wa = trace.wa_half_analytic
    columns.append(2.0 * wa if wa is not None else np.full_like(trace.times, np.nan))
    write_csv(out_dir / "envelopes.csv", header, zip(*(c.tolist() for c in columns)))


def _synthetic_trace(kind: str, window, lags) -> lab.EnstrophyTrace:
    t0 = float(window[0])
    times = np.concatenate(([t0], t0 + np.asarray(sorted(lags), dtype=float)))
    ens = np.sqrt(times) if kind == "sqrt" else times
    zeros = np.zeros_like(times)
    return lab.EnstrophyTrace(times=times, ens_mean=ens, ens_se=zeros, n_paths=0)


def cmd_holder(cfg: RunConfig, run) -> _Outcome:
    holder_cfg = cfg.analysis["holder"]
    for key in ("window", "lags"):
        if key not in holder_cfg:
            raise ConfigError(f"analysis.holder.{key}", "required for the holder command")
    window, lags = holder_cfg["window"], holder_cfg["lags"]
    if holder_cfg["synthetic"]:
        trace = _synthetic_trace(holder_cfg["synthetic"], window, lags)
    else:
        _, trace = run()
    try:
        result = lab.holder_exponent_fit(trace, tuple(window), lags)
    except ValueError as err:
        raise ConfigError("analysis.holder", str(err))
    verdict = result["verdict"]
    exponent = result.get("exponent")
    summary = f"holder: {verdict}" + (f" (exponent {exponent:.4f})" if exponent is not None else "")
    return _Outcome(EXIT_REGULARITY if verdict == "fail" else EXIT_OK, summary,
                    reports={"holder_report.json": result})


def cmd_asymptotics(cfg: RunConfig, run) -> _Outcome:
    asym = cfg.analysis["asymptotics"]
    _, trace = run()
    ens0 = 0.5 * cfg.sim.initial_condition.mean_sq_norm(cfg.basis.n_modes)
    try:
        result = lab.asymptotics_check(
            trace, cfg.spectrum, asym["mode"], asym["delta"],
            gamma_reg=asym["gamma_reg"], rho=asym["rho"],
            ens0=ens0 if asym["mode"] == "general" else None,
        )
    except ValueError as err:
        raise ConfigError("analysis.asymptotics", str(err))
    return _Outcome(EXIT_REGULARITY if result["verdict"] == "fail" else EXIT_OK,
                    f"asymptotics[{asym['mode']}]: {result['verdict']}",
                    trace=trace, reports={"asymptotics_report.json": result})


_COMMANDS = {
    "simulate": (cmd_simulate, "run the ensemble and write the enstrophy trace"),
    "verify-linear": (cmd_verify_linear,
                      "compare a linearized run against the analytic convolution variance"),
    "bounds": (cmd_bounds, "evaluate the enstrophy bound envelopes and Gronwall diagnostics"),
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
    except BlowupError as err:
        print(f"blowup: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except BrokenProcessPool as err:
        print(f"worker crash: {err}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
