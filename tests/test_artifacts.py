"""Atomic, streamed artifact writers: bytes, failure cleanup, file modes, memory;
the vectorized float formatting kernel against repr, its oracle."""

import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoqg._ryu import repr_join
from stoqg.artifacts import _numpy_to_python, write_csv, write_json, write_trajectories
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


# nested arrays and numpy scalars among the plain values a report holds
JSON_PAYLOAD = {
    "times": np.linspace(0.0, 0.5, 7),
    "nested": {"z": [np.float64(0.1), np.int64(-3)], "a": np.arange(6.0).reshape(2, 3)},
    "scalars": [np.float32(0.5), np.bool_(True), None, "text", -0.0, 2**70],
    "specials": [float("inf"), float("-inf"), float("nan"), 5e-324, 1.7976931348623157e308],
    "empty": {"list": [], "dict": {}, "array": np.zeros((2, 0))},
    "deep": [[np.array([1e-300, 1 / 3])], {"n": np.int32(7)}],
}


class TestStreamedJson:
    def test_bytes_match_dumps(self, tmp_path):
        target = tmp_path / "out.json"
        write_json(target, JSON_PAYLOAD)
        want = json.dumps(JSON_PAYLOAD, sort_keys=True, indent=2, default=_numpy_to_python) + "\n"
        assert target.read_bytes() == want.encode("utf-8")

    def test_unserializable_payload_keeps_existing_target(self, tmp_path):
        target = tmp_path / "out.json"
        write_json(target, {"a": 1})
        before = target.read_bytes()
        # keys are sorted, so "a" has been written when "b" fails
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(target, {"a": np.arange(3.0), "b": object()})
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def repr_oracle(values: np.ndarray) -> str:
    return ",".join(map(repr, values.tolist()))


def edge_values() -> np.ndarray:
    """Zeros, subnormals, extremes, every power of ten with both neighbours, the
    fixed/scientific switch points, 2**53 and 2**54, exact dyadics (the trailing-zero
    branch, with halves that round to even), every power of two below 2**50 (whose
    rounding interval is asymmetric), 15-, 16- and 17-digit values, nan and infinities."""
    powers = [float(f"1e{e}") for e in range(-323, 309)]
    neighbours = [np.nextafter(p, d) for p in powers for d in (0.0, np.inf)]
    twos = np.ldexp(1.0, np.arange(-1074, 50)).tolist()
    return np.array([
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
        1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
        2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54, 2.0**50, np.nextafter(2.0**50, 0),
        0.5, 0.25, 100.0, -0.5, 3.0, 2.0**-60, 2.0**-1022, 0.125, 1.5, 1048576.0,
        0.1, 0.3, 1 / 3, 2 / 3, 123456789012345.0, 1234567890123456.0, 0.1234567890123456,
        0.12345678901234568, 1.2345678901234567e-05, 9007199254740991.0,
        903041892098739.25, -213077307271050.625, 112030791690135.125,
        6.378276598180247e-17, 2933556525.3156905, -3.044793134289668e-147,
        float("nan"), -float("nan"), float("inf"), -float("inf"),
    ] + powers + neighbours + twos)


class TestReprJoin:
    def test_edge_values(self):
        values = edge_values()
        assert repr_join(values) == repr_oracle(values)

    def test_sweep_of_random_bit_patterns(self):
        # a million random patterns over every exponent field the kernel formats itself
        # (subnormals up to |x| < 2**50; above, it defers to repr, so the oracle would
        # only check repr against itself, at about 1.8 us a value)
        rng = np.random.default_rng(20250101)
        bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
        bits |= rng.integers(0, 1073, 10**6, dtype=np.uint64) << np.uint64(52)
        for chunk in np.split(bits.view(np.float64), 10):
            assert repr_join(chunk) == repr_oracle(chunk)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert repr_join(values) == repr_oracle(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, floats):
        values = np.array(floats, dtype=np.float64)
        assert repr_join(values) == repr_oracle(values)

    def test_rows_are_joined_by_newlines(self):
        values = np.random.default_rng(5).standard_normal((3, 7)) * 1e-3
        assert repr_join(values) == "\n".join(map(repr_oracle, values))

    def test_empty(self):
        assert repr_join(np.array([])) == ""


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
            omega_sq=zeros, u_sq=zeros, wa_sq=zeros,
            fields=rng.standard_normal((batch, n_times, n_modes)),
        ))
    return records


def special_records(n_modes: int, n_times=5, batch=2):
    """Fields and times holding edge values; time 0.0 first, then one all-zero row."""
    specials = edge_values()
    times = np.array([0.0, 0.5, 2.0**-60, 1e-4, 0.25][:n_times])
    records = []
    for lo in range(0, 2 * batch, batch):
        fields = np.resize(np.roll(specials, 7 * lo), (batch, n_times, n_modes))
        fields[0, 1] = 0.0
        zeros = np.zeros((batch, n_times))
        records.append(EnsembleRecord(
            path_index=np.arange(lo, lo + batch), times=times,
            omega_sq=zeros, u_sq=zeros, wa_sq=zeros, fields=fields,
        ))
    return records


class TestTrajectoryDump:
    @pytest.mark.parametrize("records", [
        synthetic_records(n_paths=4, n_times=3, n_modes=5, batch=2),
        special_records(n_modes=7),
        special_records(n_modes=1, n_times=4),
        special_records(n_modes=1023),
    ], ids=["normals", "specials-7", "specials-1", "specials-1023"])
    def test_bytes_match_joined_formula(self, tmp_path, records):
        write_trajectories(tmp_path, records)
        n_modes = records[0].fields.shape[2]
        header = ["path", "time"] + [f"c_{k}" for k in range(1, n_modes + 1)]
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
