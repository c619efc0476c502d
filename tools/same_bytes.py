"""Do two checkouts write the same artifacts? Compares them byte for byte.

    python3 tools/same_bytes.py PARENT CHANGE [--tiny] [--blas-threads N]

PARENT and CHANGE are checkout directories. Each runs the same behaviour
matrix at seed 1, with its own `src` on PYTHONPATH and N BLAS threads
(default 1, set through OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS): `simulate` on the three configs of `perfbench/workloads.py`
(nl16_pool at 1 and 2 workers), `verify-linear` and `asymptotics` on
lin16_dense's config, `bounds` and `holder` on nl16_pool's, and
`verify-linear` on lin16_dense's from every c_k = 1 (workload
`lin16_dense+c1`). `holder` adds the window [h, T] and the lags
{1, 2, 3, 5, 10} h, h the output spacing, which no workload sets. Two more
cases fail their premise and run
no ensemble: `verify-linear` on nl16_pool's config (not linearized) and
`holder` on lin16_dense's (no holder section). The last two blow up, exit 3:
`simulate` at 1 and 2 workers on nl16_pool's config from 1e100 on every
seventh mode, with T = 0.02, 5 outputs and 8 paths in 2 batches (workload
`nl16_pool+blowup`, the same at both sizes); every path fails at t = 0.005,
and `manifest.json` lists the failures. The configs come from this
script's checkout. Both sides write to the same output path, one after the
other, so their manifests hash the same config. Every file is compared byte
for byte, and `manifest.json` without its `wall_time_s`; so are the exit
codes and stdout, and for a failing case the last stderr line (its one-line
message) up to its second `:`, the key of a config error. Each case prints
one line, and every file or stream that differs is listed, a CSV by each
column and a JSON object by each top-level key whose values differ (as
`trace.csv[wa_var_analytic]`). A file, column or key that one side lacks
says `(only in parent)` or `(only in change)`; a column or key whose values
all parse as numbers on both sides gives its largest relative move
|a - b| / max(|a|, |b|), as `(max rel 3.3e-01)`. The exit code is 1 if
anything differs.
`--tiny` runs the workloads' tiny sizes, in a few seconds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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
         ("asymptotics", "lin16_dense", 1), ("bounds", "nl16_pool", 1), ("holder", "nl16_pool", 1),
         ("verify-linear", "lin16_dense+c1", 1), ("verify-linear", "nl16_pool", 1),
         ("holder", "lin16_dense", 1), ("simulate", "nl16_pool+blowup", 1),
         ("simulate", "nl16_pool+blowup", 2))
MAIN = "import sys; from stoqg.cli import main; sys.exit(main(sys.argv[1:]))"


def documents(tiny: bool) -> dict[str, dict]:
    """Each workload's config document at seed 1, lin16_dense's from every c_k = 1, and
    nl16_pool's blowup: 1e100 on every seventh mode, 8 paths in batches of 4 to T = 0.02."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    docs = {name: workload.build(1, tiny) for name, workload in WORKLOADS.items()}
    docs["lin16_dense+c1"] = json.loads(json.dumps(docs["lin16_dense"]))
    sim = docs["lin16_dense+c1"]["sim"]
    sim["initial_condition"] = {"type": "coeffs", "values": [1.0] * sim["M"] ** 2}
    docs["nl16_pool+blowup"] = json.loads(json.dumps(docs["nl16_pool"]))
    sim = docs["nl16_pool+blowup"]["sim"]
    sim.update(T=0.02, output_times={"kind": "uniform", "n": 5}, n_paths=8, batch_size=4,
               initial_condition={"type": "coeffs",
                                  "values": [0.0 if k % 7 else 1e100 for k in range(sim["M"] ** 2)]})
    return docs


def run(checkout: Path, command: str, config: Path, workers: int, blas_threads: int) -> tuple:
    """One command of `checkout` on `config`; returns its exit code, stdout and compared stderr."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **dict.fromkeys(THREAD_VARS, str(blas_threads)))
    done = subprocess.run([sys.executable, "-c", MAIN, command, "--config", str(config),
                           "--threads", str(workers)], cwd=checkout, env=env, capture_output=True)
    last = done.stderr.splitlines()[-1:] if done.returncode else []
    return done.returncode, done.stdout, b":".join(last[0].split(b":")[:2]) if last else b""


def relative_move(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 where the two are equal (or both NaN), inf where a NaN or
    an infinity moved."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a / scale - b / scale)


def paired(a, b) -> list[tuple]:
    """The scalars of two JSON values (or two CSV columns) paired by position; ValueError
    where their shapes differ or a scalar is JSON's true or false, which is no number."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [pair for key in a for pair in paired(a[key], b[key])]
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        return [pair for x, y in zip(a, b) for pair in paired(x, y)]
    if any(isinstance(x, (dict, list, tuple, bool)) for x in (a, b)):
        raise ValueError("the values do not pair up as numbers")
    return [(a, b)]


def how_far(a, b) -> str:
    """` (max rel 3.3e-01)`, the largest relative move between two values whose scalars pair
    up and all parse as numbers; else ''."""
    try:
        moves = [relative_move(float(x), float(y)) for x, y in paired(a, b)]
    except (TypeError, ValueError):
        return ""
    return f" (max rel {max(moves, default=0.0):.1e})"


def inside(a: Path, b: Path) -> list[str]:
    """What differs between the parent's file `a` and the change's `b` of one name:
    `name[column]` for each CSV column and `name[key]` for each top-level key of a JSON
    object whose values differ, a manifest's wall_time_s aside, each with its suffix
    (see the module's doc); `name` alone where the files do not split alike (other
    headers, row counts or JSON types) or differ only in their layout."""
    name = a.name
    try:
        texts = [p.read_text(encoding="utf-8") for p in (a, b)]
        if name.endswith(".csv"):
            tables = [list(csv.reader(io.StringIO(text))) for text in texts]
            if tables[0][:1] == tables[1][:1] and len(tables[0]) == len(tables[1]):
                columns = [list(zip(*table)) for table in tables]
                return [f"{name}[{col[0]}]{how_far(col[1:], other[1:])}"
                        for col, other in zip(*columns) if col != other] or [name]
        elif name.endswith(".json"):
            docs = [json.loads(text) for text in texts]
            if all(isinstance(doc, dict) for doc in docs):
                if name == "manifest.json":
                    for doc in docs:
                        doc.pop("wall_time_s", None)
                values = [{key: json.dumps(value, sort_keys=True) for key, value in doc.items()}
                          for doc in docs]
                found = [f"{name}[{key}]" + (" (only in change)" if key not in docs[0] else
                                             " (only in parent)" if key not in docs[1] else
                                             how_far(docs[0][key], docs[1][key]))
                         for key in sorted(values[0].keys() | values[1].keys())
                         if values[0].get(key) != values[1].get(key)]
                return found or ([] if name == "manifest.json" else [name])
    except (ValueError, csv.Error):  # not UTF-8, not JSON, not CSV
        pass
    return [name]


def differing(left: Path, right: Path) -> list[str]:
    """What differs between the parent's output directory and the change's: files, or the
    columns or keys inside them."""
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    out = []
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()):
            out.append(f"{name} (only in {'parent' if a.is_file() else 'change'})")
        elif name == "manifest.json" or a.read_bytes() != b.read_bytes():
            out += inside(a, b)
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
            if (command, workload) == ("holder", "nl16_pool"):
                sim = document["sim"]
                h = sim["T"] / (sim["output_times"]["n"] - 1)
                document["analysis"]["holder"] = {"window": [h, sim["T"]],
                                                  "lags": [k * h for k in (1, 2, 3, 5, 10)]}
            case.mkdir()
            config = case / "config.json"
            config.write_text(json.dumps(document), encoding="utf-8")
            results = {}
            for label, checkout in sides.items():
                results[label] = run(checkout, command, config, workers, args.blas_threads)
                out.mkdir(exist_ok=True)  # a config error leaves no out dir
                out.rename(case / label)
            diff = differing(case / "parent", case / "change")
            (code, *streams), (new_code, *new_streams) = results["parent"], results["change"]
            diff[:0] = [name for name, a, b in zip(("stdout", "stderr"), streams, new_streams) if a != b]
            if code != new_code:
                diff.insert(0, f"exit code {code} -> {new_code}")
            failed |= bool(diff)
            n_files = len(list((case / "change").iterdir()))
            status = "DIFFERS: " + ", ".join(diff) if diff else "same"
            print(f"{case.name} (exit {new_code}, {n_files} files): {status}")
            shutil.rmtree(case)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
