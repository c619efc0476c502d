"""Artifact persistence: CSV time series, JSON reports, run manifests.

Files are written atomically: the text goes into a temp file in the target
directory, which is renamed over the target only after the last chunk, so a
reader never sees a partial file and a failed write leaves an existing target
as it was. New files get the mode a plain `open(path, "w")` would give them
(0o666 less the umask). CSV rows are formatted and written one at a time, so
writing `trajectories.csv` holds one path's coefficients in memory, not the
whole dump.
Floats are serialized with Python's shortest round-trip repr, so a rerun that
produces bit-identical doubles produces byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import EnstrophyTrace
from .config import config_sha256
from .dynamics import EnsembleRecord


def _new_file_mode() -> int:
    """The mode `open(path, "w")` gives a new file: 0o666 less the process umask."""
    umask = os.umask(0)  # reading the umask means setting it; put it straight back
    os.umask(umask)
    return 0o666 & ~umask


def _atomic_write(path: Path, chunks) -> None:
    """Write an iterable of str chunks to path; path appears only after the last one.

    If a chunk raises, the temp file is removed and an existing path keeps its bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.fchmod(handle.fileno(), _new_file_mode())  # mkstemp creates 0600
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: Path, header: list[str], rows) -> None:
    """Rows hold Python ints and floats (e.g. from `ndarray.tolist()`), written by repr."""
    lines = (",".join(map(repr, row)) + "\n" for row in rows)
    _atomic_write(path, chain([",".join(header) + "\n"], lines))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, [json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"])


def write_trace(out_dir: Path, trace: EnstrophyTrace, formats: list[str]) -> None:
    """Persist the enstrophy trace as trace.csv and/or trace.json."""
    wa = trace.wa_half_analytic
    wa_var = 2.0 * wa if wa is not None else np.full_like(trace.times, np.nan)
    if "csv" in formats:
        rows = zip(*(c.tolist() for c in (trace.times, trace.ens_mean, trace.ens_se, wa_var)))
        write_csv(out_dir / "trace.csv", ["time", "ens_mean", "ens_se", "wa_var_analytic"], rows)
    if "json" in formats:
        payload = {
            "times": trace.times,
            "ens_mean": trace.ens_mean,
            "ens_se": trace.ens_se,
            "wa_var_analytic": wa_var,
            "n_paths": trace.n_paths,
        }
        if trace.wa_half_empirical is not None:
            payload["wa_var_empirical"] = 2.0 * trace.wa_half_empirical
        if trace.resid_mean is not None:
            payload["residual_mean"] = trace.resid_mean
        write_json(out_dir / "trace.json", payload)


def write_trajectories(out_dir: Path, records: list[EnsembleRecord]) -> None:
    """One row per (path, time) with coefficients in rank order."""
    first = next((r for r in records if r.fields is not None), None)
    if first is None:
        raise ValueError("trajectory dump requires a run with store_fields enabled")
    n_modes = first.fields.shape[2]
    header = ["path", "time"] + [f"c_{k}" for k in range(1, n_modes + 1)]

    def rows():
        for rec in records:
            times = rec.times.tolist()
            # one path's fields at a time: a whole batch as Python floats costs MBs
            for path, fields in zip(rec.path_index.tolist(), rec.fields):
                for t, coeffs in zip(times, fields.tolist()):
                    yield (path, t, *coeffs)

    write_csv(out_dir / "trajectories.csv", header, rows())


def write_manifest(out_dir: Path, document: dict, wall_time_s: float, extra: dict | None = None) -> None:
    payload = {
        "config_sha256": config_sha256(document),
        "master_seed": document["sim"]["master_seed"],
        "code_version": __version__,
        "wall_time_s": wall_time_s,
        "config": document,
    }
    if extra:
        payload.update(extra)
    write_json(out_dir / "manifest.json", payload)


class Stopwatch:
    elapsed = 0.0  # until a timed block has run

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False
