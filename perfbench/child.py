"""One benchmark run in a fresh process.

    python3 perfbench/child.py CONFIG THREADS TRACE RESULT

Imports stoqg from the checkout's `src`, loads and materializes CONFIG (the
set-up time), then runs `stoqg simulate --config CONFIG --threads THREADS`
through `stoqg.cli.main` and writes wall time, set-up time, exit code and
peak RSS to RESULT as JSON. With TRACE=1 the layer wrappers of `tracing.py`
are installed first, the layer summary is added to RESULT and the raw spans
go to `spans.json` beside it.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    config, threads, trace, result_path = argv[1], argv[2], argv[3] == "1", Path(argv[4])

    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import stoqg.cli
    from stoqg.config import materialize, normalize

    materialize(normalize(json.loads(Path(config).read_text(encoding="utf-8"))))
    setup_s = time.perf_counter() - started

    run = stoqg.cli.main
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli.main", run)
    start = time.perf_counter()
    code = run(["simulate", "--config", config, "--threads", threads])
    wall_s = time.perf_counter() - start

    # ru_maxrss is in KiB; RUSAGE_CHILDREN holds the largest reaped pool worker
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {"exit_code": code, "wall_s": wall_s, "setup_s": setup_s,
              "peak_rss_mb": peak_kib * 1024 / 1e6}
    if trace:
        result["layers"] = tracer.summary()
        tracer.write(result_path.with_name("spans.json"))
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
