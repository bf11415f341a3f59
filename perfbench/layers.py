"""Per-layer measurement for the benchmark: spans and layer microbenchmarks.

Spans wrap public module attributes of the installed-from-source `fdma`
package.  Callers look these names up at call time (`annealing.alternate_sa`,
`from .perturbation import alternate_perturb` inside a function, module
globals such as `solve_ridge`), so a wrapper placed on the attribute the
caller reads sees every call.  A target that no longer exists is reported as
absent and its metrics read 0.

A span's self time is its duration minus the time its child spans cover.
The program runs single-threaded (the CLI's `--threads` is never passed), so
one stack of open spans is enough.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module the caller reads the attribute from, attribute, hook)
TARGETS = (
    ("cli", "fdma.cli", "main", None),
    ("config.parse_config_file", "fdma.cli", "parse_config_file", None),
    ("scenario.place_canonical_eves", "fdma.cli", "place_canonical_eves", None),
    ("scenario.place_canonical_eves", "fdma.experiments", "place_canonical_eves", None),
    ("scenario.sample_eves", "fdma.experiments", "sample_eves_outside_target", None),
    ("experiments.raster_beampattern", "fdma.cli", "raster_beampattern", None),
    ("model.beampattern_batch", "fdma.experiments", "beampattern_batch", "kernel"),
    ("experiments.optimize_configuration", "fdma.cli", "optimize_configuration", None),
    ("experiments.optimize_configuration", "fdma.experiments", "optimize_configuration",
     None),
    ("experiments.sweep", "fdma.cli", "sweep_vs_num_eves", None),
    ("experiments.sweep", "fdma.cli", "sweep_vs_num_antennas", None),
    ("annealing.alternate_sa", "fdma.annealing", "alternate_sa", "alternation"),
    ("annealing.phase", "fdma.annealing", "anneal_positions", "phase"),
    ("annealing.phase", "fdma.annealing", "anneal_freq_shifts", "phase"),
    ("perturbation.alternate_perturb", "fdma.perturbation", "alternate_perturb",
     "perturb"),
    ("perturbation.solve_ridge", "fdma.perturbation", "solve_ridge", None),
)

GREEDY_TEMPERATURE = 1e-10  # share of T0 below which an SA step is greedy descent
COMPLEX_BYTES = 16  # one complex128 entry of the N x M phase matrix


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Patches the span targets while active and accumulates their statistics."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._open: list[list[float]] = []
        self._patches = []
        for name, module_name, attr, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original,
                                  self._wrapper(name, original, hook)))

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def span(self, name, fn, args, kwargs):
        children = [0.0]
        self._open.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            stats = self.spans[name]
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration - children[0]
            if self._open:
                self._open[-1][0] += duration

    def _wrapper(self, name, fn, hook):
        if hook is None:
            return lambda *args, **kwargs: self.span(name, fn, args, kwargs)
        observe = getattr(self, "_observe_" + hook)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError:
                return self.span(name, fn, args, kwargs)  # let the callee report it
            bound.apply_defaults()
            return observe(name, fn, bound)

        return wrapper

    # -- hooks: counts taken at the same boundaries as the spans -------------

    def _call(self, name, fn, bound):
        return self.span(name, fn, bound.args, bound.kwargs)

    @staticmethod
    def _own_trace(bound) -> list:
        "The call's trace list, substituting a fresh one when the caller passed none."
        if bound.arguments.get("trace") is None and "trace" in bound.arguments:
            bound.arguments["trace"] = []
        return bound.arguments.get("trace", [])

    def _observe_kernel(self, name, fn, bound):
        cells = len(bound.arguments["ranges_m"])
        self.counts["kernel.cells"] += cells
        self.counts["kernel.bytes"] += cells * bound.arguments["design"].num_antennas \
            * COMPLEX_BYTES
        return self._call(name, fn, bound)

    def _observe_alternation(self, name, fn, bound):
        phases = bound.arguments.get("phases") or ("positions", "shifts")
        before = self.spans["annealing.phase"].calls
        try:
            return self._call(name, fn, bound)
        finally:
            ran = self.spans["annealing.phase"].calls - before
            self.counts["annealing.rounds"] += math.ceil(ran / len(phases))

    def _observe_phase(self, name, fn, bound):
        trace = self._own_trace(bound)
        before = len(trace)
        try:
            return self._call(name, fn, bound)
        finally:
            steps = [r for r in trace[before:] if hasattr(r, "temperature")]
            self.counts["annealing.iterations"] += len(steps)
            self.counts["annealing.accepted"] += sum(bool(r.accepted) for r in steps)
            if len(steps) >= 2 and steps[0].temperature > 0.0:
                # T_t = T0 * alpha^t, so T0 = T_1 / alpha with alpha = T_2 / T_1.
                t0 = steps[0].temperature ** 2 / steps[1].temperature
                self.counts["annealing.greedy"] += sum(
                    r.temperature < GREEDY_TEMPERATURE * t0 for r in steps)

    def _observe_perturb(self, name, fn, bound):
        trace = self._own_trace(bound)
        before = len(trace)
        try:
            return self._call(name, fn, bound)
        finally:
            self.counts["perturbation.clip_count"] += sum(
                int(r.clip_count) for r in trace[before:] if hasattr(r, "clip_count"))


def span_metrics(tracer: Tracer, sets: int, command_time: float) -> dict:
    """Per-layer metrics from the traced command sets, per set unless a ratio.

    Returns name -> (value, unit, sample count).
    """
    spans, counts = tracer.spans, tracer.counts

    def self_s(name):
        return spans[name].self_time / sets, "s", spans[name].calls

    def total_s(name):
        return spans[name].total / sets, "s", spans[name].calls

    def ratio(numerator, denominator, unit):
        return numerator / max(denominator, 1), unit, denominator

    kernel = spans["model.beampattern_batch"].calls
    phases = spans["annealing.phase"].calls
    iterations = counts["annealing.iterations"]
    optimize = spans["experiments.optimize_configuration"]
    perturb = spans["perturbation.alternate_perturb"].calls
    attributed = sum(s.self_time for s in spans.values())
    return {
        "model.beampattern_batch.self_s": self_s("model.beampattern_batch"),
        "model.beampattern_batch.cells": (counts["kernel.cells"] / sets, "count", kernel),
        "model.beampattern_batch.computed_mb": (counts["kernel.bytes"] / 1e6 / sets, "MB",
                                                kernel),
        "experiments.raster_beampattern.self_s": self_s("experiments.raster_beampattern"),
        "experiments.optimize_configuration.calls": (optimize.calls / sets, "count",
                                                     optimize.calls),
        "experiments.optimize_configuration.s": ratio(optimize.total, optimize.calls, "s"),
        "experiments.sweep.self_s": self_s("experiments.sweep"),
        "scenario.sample_eves.s": total_s("scenario.sample_eves"),
        "scenario.place_canonical_eves.s": total_s("scenario.place_canonical_eves"),
        "annealing.iter_us": ratio(1e6 * spans["annealing.phase"].total, iterations, "us"),
        "annealing.iterations": (iterations / sets, "count", phases),
        "annealing.phases": (phases / sets, "count", phases),
        "annealing.rounds": (counts["annealing.rounds"] / sets, "count",
                             spans["annealing.alternate_sa"].calls),
        "annealing.accept_rate": ratio(counts["annealing.accepted"], iterations, "ratio"),
        "annealing.greedy_frac": ratio(counts["annealing.greedy"], iterations, "ratio"),
        "perturbation.solves": (spans["perturbation.solve_ridge"].calls / sets, "count",
                                spans["perturbation.solve_ridge"].calls),
        "perturbation.alternate_perturb.s": total_s("perturbation.alternate_perturb"),
        "perturbation.clip_count": (counts["perturbation.clip_count"] / sets, "count", perturb),
        "cli.self_s": self_s("cli"),
        "cli.bytes_written": (counts["cli.bytes_written"] / sets, "B", spans["cli"].calls),
        "config.parse_s": total_s("config.parse_config_file"),
        "trace.unattributed_s": ((command_time - attributed) / sets, "s", sets),
    }


# -- microbenchmarks through public names ------------------------------------

def _median_per_call(fn, calls_per_batch: int, min_seconds: float) -> tuple[float, int]:
    "Median seconds per call over batches run for at least min_seconds."
    per_call = []
    start = time.perf_counter()
    while not per_call or time.perf_counter() - start < min_seconds:
        t = time.perf_counter()
        for _ in range(calls_per_batch):
            fn()
        per_call.append((time.perf_counter() - t) / calls_per_batch)
    return statistics.median(per_call), len(per_call) * calls_per_batch


def _shapes(fdma, cfg, eve_seed: int) -> dict:
    "The two microbenchmark shapes: canonical K=3 at M=21, random K=6 at M=31."
    base = cfg.base_scenario()
    c, f0, link = cfg.speed_of_light, cfg.f0_hz, cfg.link_budget()
    shapes = {}
    for label, m, k in (("m21k3", 21, 3), ("m31k6", 31, 6)):
        params = fdma.default_baseline_params(m, f0, c)
        if k == 3:
            eves = fdma.place_canonical_eves(m, base.bob, params, link, f0, c)
        else:
            eves = fdma.sample_eves_outside_target(k, base.bob, m, params, link, f0, c,
                                                   rng_seed=eve_seed)
        scenario = fdma.Scenario(base.bob, tuple(eves), base.tx_power_linear, c)
        shapes[label] = (scenario, params, fdma.make_linear_fda(m, params, f0))
    return shapes


def microbenchmarks(cfg, eve_seed: int, absent: list[str]) -> dict:
    """Layer microbenchmarks at both shapes: name -> (value, unit, sample count).

    A public name that no longer exists is appended to `absent` and its
    metrics read 0.
    """
    import fdma

    shapes = _shapes(fdma, cfg, eve_seed)
    grid_x, grid_y = (a.ravel() for a in np.meshgrid(cfg.grid().x_points(),
                                                     cfg.grid().y_points(), indexing="ij"))
    ranges = np.hypot(grid_x, grid_y)
    cosines = grid_x / ranges  # the stock grid starts at y = 1 m, so ranges > 0
    out = {}
    sa_iterations = 400

    def measure(name, unit, scale, module, attr, make_call, calls, seconds):
        if getattr(module, attr, None) is None:
            absent.append(f"{module.__name__}.{attr}")
            out[name] = (0.0, unit, 0)
            return
        seconds_per_call, samples = _median_per_call(make_call(getattr(module, attr)),
                                                     calls, seconds)
        out[name] = (seconds_per_call * scale, unit, samples)

    for label, (scenario, params, design) in shapes.items():
        m = label[:3]
        measure(f"model.gain_eval_us.{label}", "us", 1e6, fdma, "cost",
                lambda f: lambda: f(scenario, design), 100, 0.3)
        measure(f"model.raster_compute_s.{m}", "s", 1.0, fdma, "beampattern_batch",
                lambda f: lambda: f(design, ranges, cosines, scenario.bob,
                                    scenario.speed_of_light), 1, 0.3)
        annealer = fdma.AnnealerConfig(max_iterations=sa_iterations, seed=eve_seed)
        measure(f"annealing.sa_iter_us.{label}", "us", 1e6 / sa_iterations,
                fdma.annealing, "anneal_freq_shifts",
                lambda f: lambda: f(scenario, design, params, annealer), 1, 0.3)
        perturbation = fdma.perturbation
        if all(hasattr(perturbation, a) for a in ("build_position_system", "default_ridge")):
            system = perturbation.build_position_system(scenario, params,
                                                        design.freq_shifts, design.f0)
            ridge = perturbation.default_ridge(system)
            measure(f"perturbation.solve_us.{label}", "us", 1e6, perturbation,
                    "solve_ridge", lambda f: lambda: f(system, ridge), 100, 0.3)
        else:
            absent.append("fdma.perturbation.build_position_system/default_ridge")
            out[f"perturbation.solve_us.{label}"] = (0.0, "us", 0)
    return out
