#!/usr/bin/env python3
"""Benchmark of the `fdma` batch tool: raster, anneal and sweep workloads.

Run from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload raster --seed 1 --seconds 25 --trace 0

Load model: closed loop, one client.  One process runs the workload's fixed
set of CLI commands through `fdma.cli.main(argv)`, one after another, until
--seconds have passed, and checks the files each command writes.  The seed
only generates argv and config; the default `--threads 1` is kept by never
passing the flag.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(spans around public module functions plus layer microbenchmarks, see
layers.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Outputs go to a scratch
directory under `.bench_work/` in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# numpy and fdma are imported inside functions, after bench() has started
# tracemalloc, so that the memory peak covers their import footprint.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STOCK_CONFIG = "f0_hz = 30e9\n"
# The sweep keeps the stock scenario but one trial and 1000 SA iterations per
# phase, so that a run holds about a dozen sweep commands and the tracemalloc
# pass of one command stays within the run's time budget.
SWEEP_CONFIG = STOCK_CONFIG + ("k_values = 1, 3, 6\nsweep_k_m_values = 21, 31\n"
                               "trials = 1\nsa_iterations = 1000\n")
SETUP_SAMPLES = 5
RECEIVER_TOLERANCE_DB = 1e-9
COST_RTOL = 1e-9
FEASIBILITY_RTOL = 1e-9

SETUP_CHILD = """\
import sys, time
from fdma import Scenario, place_canonical_eves
from fdma.config import parse_config_file
cfg = parse_config_file(sys.argv[1])
base = cfg.base_scenario()
eves = place_canonical_eves(cfg.m, base.bob, cfg.baseline_params(), cfg.link_budget(),
                            cfg.f0_hz, cfg.speed_of_light)
Scenario(base.bob, tuple(eves), base.tx_power_linear, base.speed_of_light)
print(time.monotonic())
"""


class CheckFailed(Exception):
    "An output file that does not meet the workload's correctness checks."


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def canonical_scenario(fdma, cfg):
    "The CLI's canonical three-adversary scenario, built from public names."
    base = cfg.base_scenario()
    eves = fdma.place_canonical_eves(cfg.m, base.bob, cfg.baseline_params(),
                                     cfg.link_budget(), cfg.f0_hz, cfg.speed_of_light)
    return fdma.Scenario(base.bob, tuple(eves), base.tx_power_linear, base.speed_of_light)


def rate_upper_bound(fdma, cfg, num_antennas: int) -> float:
    "Eavesdropper-free rate log2(1 + snr_bob) of an M-element array."
    params = fdma.default_baseline_params(num_antennas, cfg.f0_hz, cfg.speed_of_light)
    design = fdma.make_cpa(num_antennas, params, cfg.f0_hz)
    return math.log2(1.0 + fdma.snr_bob(cfg.base_scenario(), design))


# -- workloads ---------------------------------------------------------------
#
# Each workload names its config, its fixed command set (argv after --config
# and --out), a reference command for the untimed memory pass, and checks
# the files a command wrote, returning the work it did.

class Raster:
    """Stock `beampattern` on the 301 x 300 grid, alternating CPA and LINEAR_FDA.

    Neither kind runs an optimizer, so the time goes to the raster kernel,
    the per-cell records and the CSV formatting.  Both files are independent
    of the seed, so their digests are pinned in expected.json.
    """

    config = STOCK_CONFIG
    work_unit = "cells"

    def __init__(self, fdma, cfg, rng):
        self.pinned = json.loads((HERE / "expected.json").read_text())["raster_sha256"]
        grid = cfg.grid()
        self.cells = grid.x_points().size * grid.y_points().size
        self.receiver = (float(cfg.bob_x_m), float(cfg.bob_y_m))
        self.verified = set()
        self.rates = {}

    def reference(self):
        return ["--kind", "CPA", "beampattern"]

    def next_set(self):
        return [["--kind", kind, "beampattern"] for kind in ("CPA", "LINEAR_FDA")]

    def check(self, args, out: Path) -> int:
        path = out / "raster.csv"
        digest = sha256(path)
        kind = args[1]
        if digest != self.pinned[kind]:
            raise CheckFailed(f"raster.csv for {kind} has sha256 {digest}, "
                              f"expected {self.pinned[kind]}")
        if digest not in self.verified:
            import numpy as np

            table = np.loadtxt(path, delimiter=",", skiprows=1)
            if table.shape != (self.cells, 3):
                raise CheckFailed(f"raster.csv has shape {table.shape}, "
                                  f"expected ({self.cells}, 3)")
            at_receiver = table[(table[:, 0] == self.receiver[0])
                                & (table[:, 1] == self.receiver[1]), 2]
            if at_receiver.size != 1 or abs(at_receiver[0]) > RECEIVER_TOLERANCE_DB:
                raise CheckFailed(f"receiver cell reads {at_receiver} dB, expected 0")
            if table[:, 2].max() > RECEIVER_TOLERANCE_DB:
                raise CheckFailed(f"a cell reads {table[:, 2].max()} dB, above 0 dB")
            self.verified.add(digest)
        return self.cells


class Anneal:
    """Stock `optimize --method sa` (M=21, K=3) over seeds drawn from the workload seed.

    One long chain per command, so the annealing loop and the gain kernel
    dominate; its 40,003-row trace.csv exercises many-short-row output.
    """

    config = STOCK_CONFIG
    work_unit = "SA iterations"

    def __init__(self, fdma, cfg, rng):
        self.fdma, self.rng = fdma, rng
        self.scenario = canonical_scenario(fdma, cfg)
        self.params = cfg.baseline_params()
        self.digests = {}
        self.repeat_pending = True
        self.rates = {"FDMA_OPT1": []}

    def reference(self):
        # The config's own seed, so the memory pass is the same command in every run.
        return ["optimize", "--method", "sa"]

    def next_set(self):
        # The first set repeats the reference command, whose files must come
        # back byte-identical; later sets draw fresh seeds.
        if self.repeat_pending:
            self.repeat_pending = False
            return [self.reference()]
        return [["--seed", str(self.rng.randrange(1, 2 ** 31)), "optimize", "--method", "sa"]]

    def check(self, args, out: Path) -> int:
        fdma, params = self.fdma, self.params
        doc = json.loads((out / "design.json").read_text())
        import numpy as np

        positions = np.asarray(doc["positions_m"], dtype=float)
        shifts = np.asarray(doc["freq_shifts_hz"], dtype=float)
        if np.diff(positions).min() < params.min_spacing * (1.0 - FEASIBILITY_RTOL):
            raise CheckFailed("design.json has a spacing below the minimum")
        if positions[-1] - positions[0] > 2.0 * params.aperture_half_width * (
                1.0 + FEASIBILITY_RTOL):
            raise CheckFailed("design.json spans more than the aperture")
        lo, hi = params.freq_shift_bounds
        if shifts.min() < lo or shifts.max() > hi:
            raise CheckFailed("design.json has a frequency shift outside the box")
        design = fdma.ArrayDesign(positions, float(doc["f0_hz"]), shifts)
        lines = (out / "trace.csv").read_text().splitlines()
        footer = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        final_cost = float(footer["final_cost"])
        recomputed = fdma.cost(self.scenario, design)
        if abs(recomputed - final_cost) > COST_RTOL * abs(final_cost):
            raise CheckFailed(f"cost of design.json is {recomputed!r}, "
                              f"trace.csv footer says {final_cost!r}")
        digests = (sha256(out / "design.json"), sha256(out / "trace.csv"))
        if self.digests.setdefault(tuple(args), digests) != digests:
            raise CheckFailed("a repeated seed changed design.json or trace.csv")
        self.rates["FDMA_OPT1"].append(fdma.worst_case_secrecy_rate(self.scenario, design))
        return sum(1 for line in lines[1:] if not line.startswith("#"))


class Sweep:
    """`sweep-k` at K in {1, 3, 6} and M in {21, 31}, FDMA_OPT1 and FDMA_OPT2.

    Many independent optimizer jobs with a tiny output: job orchestration,
    annealing restarts, random placement and the perturbation solver.
    """

    config = SWEEP_CONFIG
    work_unit = "jobs"

    def __init__(self, fdma, cfg, rng):
        self.rng = rng
        self.jobs = len(cfg.k_values) * len(cfg.sweep_k_m_values) * cfg.trials * 2
        # Rows do not carry M, so each rate is held to the largest M's bound.
        self.bound = rate_upper_bound(fdma, cfg, max(cfg.sweep_k_m_values))
        self.rates = {"FDMA_OPT1": [], "FDMA_OPT2": []}

    def reference(self):
        return ["sweep-k"]

    def next_set(self):
        return [["--seed", str(self.rng.randrange(1, 2 ** 31)), "sweep-k"]]

    def check(self, args, out: Path) -> int:
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != self.jobs:
            raise CheckFailed(f"sweep.csv has {len(rows)} rows, expected {self.jobs}")
        for row in rows:
            rate = float(row["secrecy_rate"])
            if not 0.0 <= rate <= self.bound:
                raise CheckFailed(f"rate {rate!r} outside [0, {self.bound!r}]")
            self.rates[row["configuration"]].append(rate)
        return len(rows)


WORKLOADS = {"raster": Raster, "anneal": Anneal, "sweep": Sweep}


# -- running commands --------------------------------------------------------

class Run:
    "Executes CLI commands in process and tallies attempts, failures and time."

    def __init__(self, fdma, workload, config_path: Path, work: Path, tracer=None):
        self.fdma, self.workload = fdma, workload
        self.config_path, self.out = config_path, work / "out"
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.work_rates = []  # work per second of each timed command

    def execute(self, args, timed=True, traced=False) -> float:
        "Run one command and check its outputs; returns its wall time."
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["--config", str(self.config_path), "--out", str(self.out), *args]
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer:
                    code = self.fdma.cli.main(argv)
            else:
                code = self.fdma.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        elapsed = time.perf_counter() - start
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            work = self.workload.check(args, self.out)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            print(f"FAILED {' '.join(args)}: {exc}", file=sys.stderr)
            work = 0  # a failed command did no useful work
        else:
            if traced:
                self.tracer.counts["cli.bytes_written"] += sum(
                    p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        if timed:
            self.work_rates.append(work / elapsed)
        return elapsed

    def command_set(self, commands, traced=False) -> float:
        return sum(self.execute(args, traced=traced) for args in commands)


def measure_setup(config_path: Path, work: Path) -> tuple[float, int]:
    """Median seconds from spawning a fresh interpreter until fdma is ready.

    Ready means: fdma (with numpy and scipy) imported, the config parsed and
    the canonical scenario built.  CLOCK_MONOTONIC is shared by parent and
    child on Linux, so the child's ready stamp excludes interpreter teardown.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples, failures = [], 0
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(config_path)],
                               cwd=work, env=env, capture_output=True, text=True,
                               timeout=60)
        try:
            samples.append(float(child.stdout.split()[-1]) - start)
        except (ValueError, IndexError):
            failures += 1
            print(f"FAILED set-up child: {child.stderr.strip()}", file=sys.stderr)
    return (statistics.median(samples) if samples else 0.0), failures


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }


def blas_threads():
    "OpenBLAS worker threads as the loaded library reports them, else None."
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def report(metrics: dict, run: Run) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:9s} n={samples}")
    print(f"  fail_frac {run.failed}/{run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fdma" / "__init__.py").is_file():
        print(f"error: no fdma package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, work: Path) -> int:
    if not args.trace:
        # Traced from before `import fdma`: the peak covers a CLI process's
        # import footprint plus one command, as a user of the tool pays it.
        tracemalloc.start()
    import fdma
    import fdma.cli
    from fdma.config import parse_config_text

    workload_cls = WORKLOADS[args.workload]
    config_path = work / "run.cfg"
    config_path.write_text(workload_cls.config)
    cfg = parse_config_text(workload_cls.config)
    rng = random.Random(args.seed)
    print("env:", json.dumps(environment()))

    if args.trace:
        return traced_run(fdma, args, cfg, rng, workload_cls, config_path, work)

    setup_s, setup_failures = measure_setup(config_path, work)
    workload = workload_cls(fdma, cfg, rng)
    run = Run(fdma, workload, config_path, work)
    run.attempted += SETUP_SAMPLES
    run.failed += setup_failures

    # Untimed pass: the reference command, still under tracemalloc.  It also
    # lets lazy imports and first-call set-up finish before timing starts.
    run.execute(workload.reference(), timed=False)
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()

    set_times = []
    deadline = time.perf_counter() + args.seconds
    while not set_times or time.perf_counter() < deadline:
        set_times.append(run.command_set(workload.next_set()))

    metrics = {
        "wall_s": (statistics.median(set_times), "s", len(set_times)),
        "work_per_s": (statistics.median(run.work_rates), "1/s", len(run.work_rates)),
        "peak_mem_mb": (peak_mb, "MB", 1),
        "setup_s": (setup_s, "s", SETUP_SAMPLES),
    }
    print(f"  work unit: {workload.work_unit}")
    report(metrics, run)
    return 0


def traced_run(fdma, args, cfg, rng, workload_cls, config_path, work) -> int:
    """Alternate untraced and traced runs of each command set; report per-layer metrics."""
    import layers

    workload = workload_cls(fdma, cfg, rng)
    tracer = layers.Tracer()
    run = Run(fdma, workload, config_path, work, tracer)
    run.execute(workload.reference(), timed=False)  # warm-up, as in the timed run

    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        commands = workload.next_set()
        plain.append(run.command_set(commands))
        traced.append(run.command_set(commands, traced=True))

    metrics = layers.span_metrics(tracer, len(traced), sum(traced))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain),
                                   "s", len(traced))
    metrics.update(layers.microbenchmarks(cfg, rng.randrange(1, 2 ** 31), tracer.absent))
    for kind, label in (("FDMA_OPT1", "opt1"), ("FDMA_OPT2", "opt2")):
        rates = workload.rates.get(kind, [])
        metrics[f"quality.rate_{label}_bps_hz"] = (
            statistics.fmean(rates) if rates else 0.0, "bit/s/Hz", len(rates))
    if tracer.absent:
        print("absent wrap targets:", ", ".join(sorted(set(tracer.absent))))
    report(dict(sorted(metrics.items())), run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
