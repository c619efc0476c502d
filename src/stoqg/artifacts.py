"""Artifact persistence: CSV time series, JSON reports, run manifests.

Files are written atomically: the text goes into a temp file in the target
directory, which is renamed over the target only after the last chunk, so a
reader never sees a partial file and a failed write leaves an existing target
as it was. New files get the mode a plain `open(path, "w")` would give them
(0o666 less the umask). Files are written chunk by chunk, never built as one
string first: the CSV tables a row at a time, `trajectories.csv` a few rows
at a time, so writing it takes working memory independent of the dump's
size, and the JSON documents as their encoder yields them.
Floats are serialized as Python's shortest round-trip repr, so a rerun that
produces bit-identical doubles produces byte-identical files. The small
tables format each value with `repr`; the trajectory dump goes through
`_ryu.repr_join`, a vectorized shortest round-trip kernel (Ryu's algorithm)
whose bytes are `repr`'s, with bounded working memory.
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


def _numpy_to_python(obj):
    """The JSON encoder's fallback: arrays become lists and numpy scalars Python numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    """The bytes of `json.dumps(payload, sort_keys=True, indent=2)` and a newline, streamed."""
    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=_numpy_to_python)
    _atomic_write(path, chain(encoder.iterencode(payload), ["\n"]))


def write_trace(out_dir: Path, trace: EnstrophyTrace) -> None:
    """Persist the enstrophy trace, with its companion series, as trace.csv and trace.json."""
    wa_var = 2.0 * trace.wa_half_analytic
    rows = zip(*(c.tolist() for c in (trace.times, trace.ens_mean, trace.ens_se, wa_var)))
    write_csv(out_dir / "trace.csv", ["time", "ens_mean", "ens_se", "wa_var_analytic"], rows)
    write_json(out_dir / "trace.json", {
        "times": trace.times,
        "ens_mean": trace.ens_mean,
        "ens_se": trace.ens_se,
        "wa_var_analytic": wa_var,
        "wa_var_empirical": 2.0 * trace.wa_half_empirical,
        "residual_mean": trace.resid_mean,
        "n_paths": trace.n_paths,
    })


# values of the dump formatted per `repr_join` call, in whole rows (at least
# one): with its text, the kernel's working set is about 230 bytes a value, so
# a write holds under 1 MB with the kernel's tables (two rows at M=32)
_DUMP_CHUNK_VALUES = 3072


def write_trajectories(out_dir: Path, records: list[EnsembleRecord]) -> None:
    """One row per (path, time) with coefficients in rank order.

    Each path's rows are formatted a few at a time by `_ryu.repr_join`, through
    one reused input block and working set, so the dump is never held in memory.
    """
    # imported here: stoqg.cli loads this module at start-up, and runs that write
    # no dump need not load the kernel, nor compile it where bytecode is not cached
    from ._ryu import ReprWork, repr_join

    first = next((r for r in records if r.fields is not None), None)
    if first is None:
        raise ValueError("trajectory dump requires a run with store_fields enabled")
    n_modes = first.fields.shape[2]
    header = ["path", "time"] + [f"c_{k}" for k in range(1, n_modes + 1)]
    per_chunk = max(1, _DUMP_CHUNK_VALUES // (n_modes + 1))
    block = np.empty((per_chunk, n_modes + 1))
    work = ReprWork(block.size)

    def chunks():
        yield ",".join(header) + "\n"
        for rec in records:
            for path, fields in zip(rec.path_index.tolist(), rec.fields):
                prefix = f"{path},"
                for lo in range(0, len(rec.times), per_chunk):
                    rows = block[:min(per_chunk, len(rec.times) - lo)]
                    rows[:, 0] = rec.times[lo:lo + len(rows)]
                    rows[:, 1:] = fields[lo:lo + len(rows)]
                    yield prefix
                    yield repr_join(rows, work).replace("\n", "\n" + prefix)
                    yield "\n"

    _atomic_write(out_dir / "trajectories.csv", chunks())


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
