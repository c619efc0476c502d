"""The benchmark harness still runs end to end against this checkout.

`perfbench/run.py --smoke` runs every workload once at a tiny size, traced
and untraced, and checks every output; the traced runs patch the stoqg entry
points by name, so a renamed hook fails here. Correctness only, never timing.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def test_perfbench_smoke_exits_zero():
    existed = WORK.exists()
    try:
        result = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                                capture_output=True, text=True, timeout=600)
    finally:
        if not existed:
            shutil.rmtree(WORK, ignore_errors=True)
    assert result.returncode == 0, result.stdout + result.stderr
