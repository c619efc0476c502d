"""Command-line front door for simulation and bound-verification runs.

Subcommands: simulate, verify-linear, bounds, holder, asymptotics. Each is a
premise and a verdict in `stoqg.analysis` (`<command>_premise`,
`<command>_verdict`), and one loop runs them all: it reads a strict JSON
config, checks the premise, runs the ensemble, judges its enstrophy trace,
and writes the trace, the verdict's reports and a manifest into the output
directory.

Exit codes are stable: 0 success (including not-applicable checks), 2 config
validation error, 3 path blowup, 4 linear-oracle mismatch, 5 bound
violation (trace_class, theorem2a or theorem2b), 6 regularity failure, 7
crashed ensemble worker, 8 out of memory.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import analysis as lab
from .artifacts import Stopwatch, write_csv, write_json, write_manifest, write_trace, write_trajectories
from .config import ConfigError, RunConfig, keyed, materialize, normalize, read_document
from .dynamics import BlowupError, WorkerError, run_ensemble

# command-line flag -> the config key it overrides
_OVERRIDES = (("paths", "sim", "n_paths"), ("seed", "sim", "master_seed"), ("out", "io", "out_dir"))

# what a command can fail with besides a config error -> its exit code and the
# prefix of its one-line message
_RUN_FAILURES = {BlowupError: (3, "blowup"), WorkerError: (7, "worker crash"), MemoryError: (8, "out of memory")}

_COMMANDS = {  # command -> (premise, verdict, exit code of a "fail" verdict, help text)
    "simulate": (lab.simulate_premise, lab.simulate_verdict, 0, "run the ensemble and write the enstrophy trace"),
    "verify-linear": (lab.verify_linear_premise, lab.verify_linear_verdict, 4,
                      "compare a linearized run against the exact law of its squared norm"),
    "bounds": (lab.bounds_premise, lab.bounds_verdict, 5, "evaluate the enstrophy bound envelopes"),
    "holder": (lab.holder_premise, lab.holder_verdict, 6, "fit the increment exponent of the enstrophy curve"),
    "asymptotics": (lab.asymptotics_premise, lab.asymptotics_verdict, 6,
                    "check the small-time behaviour of the enstrophy"),
}


def _load(args) -> RunConfig:
    raw = read_document(args.config)
    if isinstance(raw, dict):
        raw.setdefault("io", {})  # the io section is optional, but --out writes into it
        for flag, section, key in _OVERRIDES:
            value = getattr(args, flag)
            if value is not None and isinstance(raw.get(section), dict):
                raw[section][key] = value
    return materialize(normalize(raw))


def _failure(err: BaseException) -> tuple[int, str]:
    """The exit code and one-line message of a run failure (_RUN_FAILURES)."""
    code, prefix = next(v for kind, v in _RUN_FAILURES.items() if isinstance(err, kind))
    return code, f"{prefix}: {err}"


@contextmanager
def _out_dir(out_dir: Path, action: str):
    """An OSError in the block is a config error under io.out_dir: "cannot {action} {out_dir}"."""
    try:
        yield
    except OSError as err:
        raise ConfigError("io.out_dir", f"cannot {action} {out_dir}: {err.strerror or err}") from None


def _execute(command: str, args) -> tuple[int, str]:
    """Load, check the premise, run, judge and write; returns the exit code and summary line.

    Every rule is checked before the ensemble runs: the config's, the premise,
    n_paths >= 2 and an out dir that exists or can be made. A failed write is a
    config error under io.out_dir. A run failure (_RUN_FAILURES) propagates, and
    leaves a manifest with its code, its message and a blowup's (path, time) pairs.
    """
    premise, judge, fail_code, _ = _COMMANDS[command]
    cfg = _load(args)
    with keyed():  # a premise's ParameterError is a config error under its key
        premise(cfg)
    if cfg.sim.n_paths < 2:
        raise ConfigError("sim.n_paths", "ensemble statistics need at least 2 paths")
    out_dir = Path(cfg.io["out_dir"])
    with _out_dir(out_dir, "create"):
        out_dir.mkdir(parents=True, exist_ok=True)
    clock = Stopwatch()
    try:
        with clock:
            records = run_ensemble(cfg.sim, cfg.params, cfg.spectrum, n_workers=args.threads)
            trace = lab.estimate_enstrophy(records, cfg.spectrum, cfg.params.r)
        verdict, summary, reports, extra = judge(cfg, trace)
        with _out_dir(out_dir, "write into"):
            write_trace(out_dir, trace)
            if cfg.io["write_trajectories"]:
                write_trajectories(out_dir, records)
            for name, payload in reports.items():
                if isinstance(payload, tuple):  # a CSV's (header, rows)
                    write_csv(out_dir / name, *payload)
                else:
                    write_json(out_dir / name, payload)
    except tuple(_RUN_FAILURES) as err:
        code, message = _failure(err)
        extra = {"exit_code": code, "error": message}
        if isinstance(err, BlowupError):
            extra["failures"] = [[path, time] for path, time in err.failures]
        with _out_dir(out_dir, "write into"):
            write_manifest(out_dir, cfg.document, clock.elapsed, extra=extra)
        raise
    with _out_dir(out_dir, "write into"):
        write_manifest(out_dir, cfg.document, clock.elapsed, extra=extra)
    return fail_code if verdict == "fail" else 0, summary


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
    for name, (*_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory (overrides io.out_dir)")
        cmd.add_argument("--paths", type=int, default=None, help="override sim.n_paths")
        cmd.add_argument("--seed", type=int, default=None, help="override sim.master_seed")
        cmd.add_argument("--threads", type=_worker_count, default=1,
                         help="ensemble worker processes, >= 1 (never more than the batch count)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its one-line summary goes to stdout on exit 0 and to stderr otherwise."""
    args = _build_parser().parse_args(argv)
    try:
        code, summary = _execute(args.command, args)
    except ConfigError as err:
        code, summary = 2, f"config error: {err}"
    except tuple(_RUN_FAILURES) as err:
        code, summary = _failure(err)
    print(summary, file=sys.stdout if code == 0 else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
