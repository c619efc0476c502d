"""Layer spans for a traced run, recorded from outside the program.

`Tracer.install` replaces each layer entry point with a timing wrapper in
the namespace its caller looks it up in: `stoqg.cli` imports `normalize`,
`materialize`, `run_ensemble` and the `write_*` functions by name, reaches
the estimator through the `stoqg.analysis` module, and `stoqg.dynamics`
calls `_simulate_batch`, `_path_generators` and the `_Stepper` methods
through its own globals and class. Nothing in `src/stoqg` changes.

Spans stay in memory and are written when the run ends. Noise draws are far
too many for one span each, so their wrapper only sums time, calls and
values. Spans opened in forked pool workers are lost with the worker, which
is why per-layer numbers come from a run at one worker.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class _TimedGenerator:
    """Stands in for a numpy Generator whose only use is `standard_normal`; times and counts it."""

    def __init__(self, rng: np.random.Generator, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        start = perf_counter()
        out = self._rng.standard_normal(*args, **kwargs)
        elapsed = perf_counter() - start
        tracer = self._tracer
        tracer.draw_s += elapsed
        tracer.draw_calls += 1
        tracer.draw_values += np.size(out)
        return out


class Tracer:
    """Spans and draw counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.draw_s = 0.0
        self.draw_calls = 0
        self.draw_values = 0
        self.result_bytes = 0

    def span(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans.append(record)
            open_spans.append(index)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_spans.pop()

        return traced

    def install(self):
        import stoqg.analysis
        import stoqg.cli
        import stoqg.dynamics

        cli, dyn = stoqg.cli, stoqg.dynamics
        for name in ("normalize", "materialize"):
            setattr(cli, name, self.span(f"config.{name}", getattr(cli, name)))
        for name in ("write_trace", "write_trajectories", "write_manifest"):
            setattr(cli, name, self.span(f"artifacts.{name}", getattr(cli, name)))
        cli.run_ensemble = self._count_result(self.span("dynamics.run_ensemble", cli.run_ensemble))
        stoqg.analysis.estimate_enstrophy = self.span(
            "analysis.estimate_enstrophy", stoqg.analysis.estimate_enstrophy)
        dyn._simulate_batch = self.span("dynamics.batch", dyn._simulate_batch)
        dyn._Stepper.__init__ = self.span("dynamics.stepper_init", dyn._Stepper.__init__)
        dyn._Stepper.advance = self.span("dynamics.advance", dyn._Stepper.advance)
        dyn._Stepper.drift_flat = self.span("spectral.drift", dyn._Stepper.drift_flat)

        path_generators = dyn._path_generators

        def timed_generators(master_seed, path_index):
            ic_rng, noise_rng = path_generators(master_seed, path_index)
            return _TimedGenerator(ic_rng, self), _TimedGenerator(noise_rng, self)

        dyn._path_generators = timed_generators

    def _count_result(self, run_ensemble):
        """Adds the bytes of the returned trajectory arrays, outside the span."""

        @functools.wraps(run_ensemble)
        def counted(*args, **kwargs):
            trajectories = run_ensemble(*args, **kwargs)
            arrays = {id(a): a for t in trajectories for a in vars(t).values()
                      if isinstance(a, np.ndarray)}
            self.result_bytes += sum(a.nbytes for a in arrays.values())
            return trajectories

        return counted

    def write(self, path: Path):
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def summary(self) -> dict[str, float]:
        """Per-layer totals, self times and counts under their metric names."""
        total: dict[str, float] = defaultdict(float)
        children: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            durations[name].append(end - start)
            if parent >= 0:
                children[self.spans[parent][0]] += end - start

        def self_time(name):
            return total[name] - children[name]

        batches = durations["dynamics.batch"] or [0.0]
        return {
            "spectral.drift_s": total["spectral.drift"],
            "spectral.drift_calls": len(durations["spectral.drift"]),
            "noise.draw_s": self.draw_s,
            "noise.draw_calls": self.draw_calls,
            "noise.draw_values": self.draw_values,
            "noise.draw_ns_per_value": 1e9 * self.draw_s / max(self.draw_values, 1),
            "dynamics.advance_self_s": self_time("dynamics.advance"),
            "dynamics.loop_rest_s": self_time("dynamics.batch") - self.draw_s,
            "dynamics.batch_s_p50": statistics.median(batches),
            "dynamics.batch_s_max": max(batches),
            "dynamics.run_ensemble_s": total["dynamics.run_ensemble"],
            "dynamics.stepper_init_s": total["dynamics.stepper_init"],
            "dynamics.result_mb": self.result_bytes / 1e6,
            "analysis.estimate_s": total["analysis.estimate_enstrophy"],
            "artifacts.write_s": sum(v for k, v in total.items() if k.startswith("artifacts.")),
            "config.load_s": sum(v for k, v in total.items() if k.startswith("config.")),
            "cli.self_s": self_time("cli.main"),
            "cli.wall_s": total["cli.main"],
        }
