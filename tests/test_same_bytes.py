"""`tools/same_bytes.py` compares two checkouts' artifacts byte for byte."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_bytes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself_is_the_same():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 13 and all(line.endswith(": same") for line in lines), lines
    # two cases fail their premise: exit 2, before any path runs; the last two blow up
    assert all("exit 0," in line for line in lines[:9]), lines
    assert all("exit 2, 0 files" in line for line in lines[9:11]), lines
    assert all("exit 3, 1 files" in line for line in lines[11:]), lines
    assert lines[8].startswith("verify-linear-lin16_dense+c1-w1 (exit 0, 4 files)"), lines


def test_lists_each_differing_file(tmp_path):
    tool = load_tool()
    left, right = tmp_path / "left", tmp_path / "right"
    for side, wall, last, var in ((left, 1.0, "0.5", "1.0"), (right, 2.0, "0.25", "1.5")):
        side.mkdir()
        (side / "manifest.json").write_text(json.dumps({"config_sha256": "x", "wall_time_s": wall}))
        (side / "trace.csv").write_text(f"time,ens_mean,wa_var_analytic\n0.0,0.0,0.0\n0.1,2.0,{var}\n")
        (side / "trace.json").write_text(last)
        (side / "linear_report.json").write_text(json.dumps({"verdict": "pass", "worst_z": float(var)}))
    (left / "report.json").write_text("{}")
    (right / "linear_report.json").write_text(json.dumps({"verdict": "pass", "worst_z": 1.5, "z_threshold": 4.5}))
    # the manifests differ only in wall_time_s; a CSV is named by the columns that
    # differ and a JSON object by its top-level keys, each with the largest relative
    # move of its numbers or the side that alone has it, other files as a whole
    assert tool.differing(left, right) == ["linear_report.json[worst_z] (max rel 3.3e-01)",
                                           "linear_report.json[z_threshold] (only in change)",
                                           "report.json (only in parent)",
                                           "trace.csv[wa_var_analytic] (max rel 3.3e-01)", "trace.json"]
    (right / "manifest.json").write_text(json.dumps({"config_sha256": "y", "wall_time_s": 2.0}))
    (right / "trace.csv").write_text("time,ens_mean\n0.0,0.0\n0.1,2.0\n")  # another header
    assert tool.differing(left, right) == ["linear_report.json[worst_z] (max rel 3.3e-01)",
                                           "linear_report.json[z_threshold] (only in change)",
                                           "manifest.json[config_sha256]", "report.json (only in parent)",
                                           "trace.csv", "trace.json"]


def test_how_far_a_value_moved():
    tool = load_tool()
    # |a - b| / max(|a|, |b|) over the paired numbers: equal NaNs do not move, and a move
    # to an infinity is infinite; '' where the values do not pair up as numbers
    assert tool.how_far({"a": [1.0, -2.0]}, {"a": [1.0, -3.0]}) == " (max rel 3.3e-01)"
    assert tool.how_far(("nan", "0.0", "1e308"), ("nan", "-0.0", "-1e308")) == " (max rel 2.0e+00)"
    assert tool.how_far(("1.0",), ("inf",)) == " (max rel inf)"
    for a, b in (([1.0], [1.0, 2.0]), ({"a": 1.0}, {"b": 1.0}), (True, False), (None, 1.0), ("x", "y")):
        assert tool.how_far(a, b) == "", (a, b)
