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
    assert len(lines) == 8 and all(line.endswith(": same") for line in lines), lines
    assert all("exit 0," in line for line in lines), lines


def test_lists_each_differing_file(tmp_path):
    tool = load_tool()
    left, right = tmp_path / "left", tmp_path / "right"
    for side, wall, last in ((left, 1.0, "0.5"), (right, 2.0, "0.25")):
        side.mkdir()
        (side / "manifest.json").write_text(json.dumps({"config_sha256": "x", "wall_time_s": wall}))
        (side / "trace.csv").write_text("time\n0.0\n")
        (side / "trace.json").write_text(last)
    (left / "report.json").write_text("{}")
    # the manifests differ only in wall_time_s
    assert tool.differing(left, right) == ["report.json", "trace.json"]
    (right / "manifest.json").write_text(json.dumps({"config_sha256": "y", "wall_time_s": 2.0}))
    assert tool.differing(left, right) == ["manifest.json", "report.json", "trace.json"]
