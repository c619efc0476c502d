"""Do two checkouts write the same artifacts? Compares them byte for byte.

    python3 tools/same_bytes.py PARENT CHANGE [--tiny] [--blas-threads N]

PARENT and CHANGE are checkout directories. Each runs the same behaviour
matrix at seed 1, with its own `src` on PYTHONPATH and N BLAS threads
(default 1, set through OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS): `simulate` on the three configs of `perfbench/workloads.py`
(nl16_pool at 1 and 2 workers), `verify-linear` and `asymptotics` on
lin16_dense's config, and `bounds` and `holder` on nl16_pool's. `holder`
adds the window [h, T] and the lags {1, 2, 3, 5, 10} h, h the output
spacing, which no workload sets. The configs come from this script's
checkout. Both sides write to the same output path, one after the other, so
their manifests hash the same config. Every file is compared byte for byte, and `manifest.json` without its
`wall_time_s`; so are the exit codes. Each case prints one line, and every
file that differs is listed; the exit code is 1 if anything differs.
`--tiny` runs the workloads' tiny sizes, in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# (command, workload, workers)
CASES = (("simulate", "nl16_pool", 1), ("simulate", "nl16_pool", 2), ("simulate", "lin16_dense", 1),
         ("simulate", "nl32_dump", 1), ("verify-linear", "lin16_dense", 1),
         ("asymptotics", "lin16_dense", 1), ("bounds", "nl16_pool", 1), ("holder", "nl16_pool", 1))
MAIN = "import sys; from stoqg.cli import main; sys.exit(main(sys.argv[1:]))"


def documents(tiny: bool) -> dict[str, dict]:
    """Each workload's config document at seed 1."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    return {name: workload.build(1, tiny) for name, workload in WORKLOADS.items()}


def run(checkout: Path, command: str, config: Path, workers: int, blas_threads: int) -> int:
    """One command of `checkout` on `config`; returns its exit code."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **dict.fromkeys(THREAD_VARS, str(blas_threads)))
    return subprocess.run([sys.executable, "-c", MAIN, command, "--config", str(config),
                           "--threads", str(workers)], cwd=checkout, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def differing(left: Path, right: Path) -> list[str]:
    """The names of the files that differ between two output directories."""
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    out = []
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()):
            out.append(name)
        elif name == "manifest.json":
            manifests = [json.loads(p.read_text(encoding="utf-8")) for p in (a, b)]
            for manifest in manifests:
                manifest.pop("wall_time_s", None)
            if manifests[0] != manifests[1]:
                out.append(name)
        elif a.read_bytes() != b.read_bytes():
            out.append(name)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    docs = documents(args.tiny)
    failed = False
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as work:
        for command, workload, workers in CASES:
            case = Path(work) / f"{command}-{workload}-w{workers}"
            out = case / "out"
            document = json.loads(json.dumps(docs[workload]))
            document["io"]["out_dir"] = str(out)
            if command == "holder":
                sim = document["sim"]
                h = sim["T"] / (sim["output_times"]["n"] - 1)
                document["analysis"]["holder"] = {"window": [h, sim["T"]],
                                                  "lags": [k * h for k in (1, 2, 3, 5, 10)]}
            case.mkdir()
            config = case / "config.json"
            config.write_text(json.dumps(document), encoding="utf-8")
            codes = {}
            for label, checkout in sides.items():
                codes[label] = run(checkout, command, config, workers, args.blas_threads)
                out.mkdir(exist_ok=True)  # a config error leaves no out dir
                out.rename(case / label)
            diff = differing(case / "parent", case / "change")
            if codes["parent"] != codes["change"]:
                diff.insert(0, f"exit code {codes['parent']} -> {codes['change']}")
            failed |= bool(diff)
            n_files = len(list((case / "change").iterdir()))
            status = "DIFFERS: " + ", ".join(diff) if diff else "same"
            print(f"{case.name} (exit {codes['change']}, {n_files} files): {status}")
            shutil.rmtree(case)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
