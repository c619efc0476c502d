"""Atomic, streamed artifact writers: bytes, failure cleanup, file modes, memory."""

import os
import stat
import tracemalloc

import numpy as np
import pytest

from stoqg.artifacts import write_csv, write_json, write_trajectories
from stoqg.dynamics import EnsembleRecord


def joined_csv(header, rows) -> str:
    """The whole-file formula the streamed writer must reproduce byte for byte."""
    return "\n".join([",".join(header)] + [",".join(map(repr, r)) for r in rows]) + "\n"


SPECIAL_ROWS = [
    (0, 0.0, -0.0, 1),
    (-3, float("nan"), float("inf"), float("-inf")),
    (2**70, 1e-300, 5e-324, 1.7976931348623157e308),
    (7, 0.1, 1 / 3, -2.5e-17),
]


class TestStreamedCsv:
    @pytest.mark.parametrize("rows", [
        SPECIAL_ROWS,
        [],
        [tuple(np.random.default_rng(3).standard_normal(1024).tolist())],
    ], ids=["specials", "empty", "wide"])
    def test_bytes_match_joined_formula(self, tmp_path, rows):
        header = [f"h{j}" for j in range(len(rows[0]) if rows else 3)]
        target = tmp_path / "out.csv"
        write_csv(target, header, iter(rows))
        assert target.read_bytes() == joined_csv(header, rows).encode("utf-8")

    def test_raising_rows_leave_no_file(self, tmp_path):
        def rows():
            yield (1, 2.0)
            raise RuntimeError("row formatting failed")

        with pytest.raises(RuntimeError, match="row formatting failed"):
            write_csv(tmp_path / "out.csv", ["a", "b"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_raising_rows_keep_existing_target(self, tmp_path):
        target = tmp_path / "out.csv"
        write_csv(target, ["a"], [(1,), (2,)])
        before = target.read_bytes()

        def rows():
            yield (3,)
            raise RuntimeError("row formatting failed")

        with pytest.raises(RuntimeError):
            write_csv(target, ["a"], rows())
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_new_files_respect_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_csv(tmp_path / "t.csv", ["a"], [(1.0,)])
            write_json(tmp_path / "m.json", {"a": 1})
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("x")
        finally:
            os.umask(previous)
        for name in ("t.csv", "m.json", "plain.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def synthetic_records(n_paths=8, n_times=11, n_modes=1024, batch=4):
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 0.5, n_times)
    records = []
    for lo in range(0, n_paths, batch):
        zeros = np.zeros((batch, n_times))
        records.append(EnsembleRecord(
            path_index=np.arange(lo, lo + batch), times=times,
            omega_sq=zeros, grad_sq=zeros, u_sq=zeros, wa_sq=zeros,
            fields=rng.standard_normal((batch, n_times, n_modes)),
        ))
    return records


class TestTrajectoryDump:
    def test_bytes_match_joined_formula(self, tmp_path):
        records = synthetic_records(n_paths=4, n_times=3, n_modes=5, batch=2)
        write_trajectories(tmp_path, records)
        header = ["path", "time"] + [f"c_{k}" for k in range(1, 6)]
        rows = [(int(p), float(t), *map(float, rec.fields[i, j]))
                for rec in records for i, p in enumerate(rec.path_index)
                for j, t in enumerate(rec.times)]
        assert (tmp_path / "trajectories.csv").read_bytes() == joined_csv(header, rows).encode()

    def test_memory_does_not_grow_with_dump(self, tmp_path):
        records = synthetic_records()
        tracemalloc.start()
        try:
            write_trajectories(tmp_path, records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "trajectories.csv").stat().st_size
        assert size > 1_500_000
        assert peak < size / 2, (peak, size)
