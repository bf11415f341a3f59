"""Batch command-line front-end.

Subcommands: beampattern, sweep-m, sweep-k, optimize, compare.  Each run
writes its data files plus a manifest.json recording the resolved
configuration, seed, tool version and timestamps.  Floating-point values
are serialized with 17 significant digits, so data files are byte-identical
across re-runs with the same config and seed (the manifest carries
wall-clock timestamps, per-stage wall times and the environment, and is
exempt).
FDMA_LOG=DEBUG|INFO|... controls log verbosity.  On failure a single-line
JSON error record goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import logging
import os
import platform
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

import numpy as np
import scipy

from . import __version__
from .annealing import IterationRecord, cost
from .config import ConfigError, RunConfig, parse_config_file
from .experiments import ALL_KINDS, ConfigurationKind, baseline_design, compare_designs, \
    optimize_configuration, raster_columns, sweep_vs_num_antennas, sweep_vs_num_eves
# Not called here since the raster streams by column; kept importable from
# fdma.cli because perfbench/layers.py places its raster span on this name.
from .experiments import raster_beampattern  # noqa: F401
from .model import ArrayDesign, Scenario, wavelength
from .perturbation import RoundRecord
from .scenario import place_canonical_eves

logger = logging.getLogger("fdma")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _json_dumps(obj, indent: int = 0) -> str:
    "Deterministic JSON with 17-significant-digit floats."
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(key))}: {_json_dumps(val, indent + 1)}'
                 for key, val in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{_json_dumps(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


@contextlib.contextmanager
def _atomic_open(path: Path) -> Iterator[TextIO]:
    """Text handle on `<path>.tmp`, renamed to path once the block completes.

    On any exception the temporary file is removed, so a failed run leaves
    neither a truncated file nor the temporary one behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], fmt: str, rows: Iterable[tuple],
               footer: dict | None = None) -> None:
    """Header line, then one `fmt % row` line per row tuple, then `# key=value` footers.

    fmt must match the column types: `%.17g` prints a float as `_fmt` does,
    `%d` an int or bool, `%s` a string; `%d` of a float would truncate it.
    """
    lines = [",".join(header)]
    lines.extend(map(fmt.__mod__, rows))
    if footer:
        lines.extend(f"# {key}={_fmt(value)}" for key, value in footer.items())
    _write_text(path, "\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, experiment_id: str, cfg: RunConfig,
                    outputs: list[str], started: str, stage_seconds: dict) -> None:
    manifest = {
        "experiment_id": experiment_id,
        "tool_version": __version__,
        "master_seed": cfg.seed,
        "config": cfg.snapshot(),
        "outputs": sorted(outputs),
        "stage_seconds": stage_seconds,
        "environment": _environment(),
        "started_utc": started,
        "finished_utc": _utc_now(),
    }
    _write_text(out_dir / "manifest.json", _json_dumps(manifest) + "\n")


def _environment() -> dict:
    "Interpreter and library versions, and the CPUs this process may run on."
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": len(os.sched_getaffinity(0)),
    }


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class _Stopwatch:
    """Wall seconds per named stage; each lap runs from the end of the previous one.

    Laps of the same stage add up, so interleaved stages keep separate totals.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._mark
        self._mark = now


def _canonical_scenario(cfg: RunConfig) -> Scenario:
    base = cfg.base_scenario()
    if cfg.k == 0:
        return base
    if cfg.k != 3:
        raise ConfigError("canonical adversary placement defines exactly three "
                          "eavesdroppers; set k = 3 or 0", key="k")
    eves = place_canonical_eves(cfg.m, base.bob, cfg.baseline_params(),
                                cfg.link_budget(), cfg.f0_hz, cfg.speed_of_light)
    return Scenario(base.bob, tuple(eves), base.tx_power_linear, base.speed_of_light)


def _design_document(design: ArrayDesign) -> dict:
    lam = wavelength(design.f0)
    return {
        "num_antennas": design.num_antennas,
        "f0_hz": design.f0,
        "positions_m": list(design.positions),
        "positions_wavelengths": list(design.positions / lam),
        "freq_shifts_hz": list(design.freq_shifts),
        "freq_shifts_mhz": list(design.freq_shifts / 1e6),
    }


def _load_design(path: str) -> ArrayDesign:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return ArrayDesign(np.array(doc["positions_m"]), float(doc["f0_hz"]),
                       np.array(doc["freq_shifts_hz"]))


def cmd_beampattern(cfg: RunConfig, kind: ConfigurationKind, out_dir: Path) -> None:
    started = _utc_now()
    clock = _Stopwatch()
    scenario = _canonical_scenario(cfg)
    design = optimize_configuration(kind, scenario, cfg.m, cfg.baseline_params(),
                                    cfg.f0_hz, cfg.annealer(), cfg.alternation(),
                                    cfg.perturber(), seed=cfg.seed)
    clock.lap("design")
    grid = cfg.grid()
    y_text = ["%.17g" % y for y in grid.y_points().tolist()]
    with _atomic_open(out_dir / "raster.csv") as handle:
        handle.write("x_m,y_m,power_db\n")
        clock.lap("write")
        # Each column is written as soon as it is computed, so memory stays
        # bounded by one column whatever the grid size.
        for x, _, power_db in raster_columns(scenario, design, grid):
            clock.lap("raster")
            row = "%.17g," % x + "%s,%.17g\n"
            handle.writelines(map(row.__mod__, zip(y_text, power_db.tolist())))
            clock.lap("write")
    _write_text(out_dir / "design.json", _json_dumps(_design_document(design)) + "\n")
    clock.lap("write")
    _write_manifest(out_dir, f"beampattern/{kind.value}", cfg,
                    ["raster.csv", "design.json"], started, clock.seconds)


def cmd_sweep(cfg: RunConfig, axis: str, out_dir: Path) -> None:
    started = _utc_now()
    clock = _Stopwatch()
    base = cfg.base_scenario()
    if axis == "m":
        records = sweep_vs_num_antennas(
            base, list(cfg.m_values), ALL_KINDS, cfg.link_budget(), cfg.f0_hz,
            cfg.annealer(), cfg.alternation(), cfg.perturber(), cfg.seed)
    else:
        kinds = (ConfigurationKind.FDMA_OPT1, ConfigurationKind.FDMA_OPT2)
        records = sweep_vs_num_eves(
            base, list(cfg.k_values), list(cfg.sweep_k_m_values), kinds,
            cfg.link_budget(), cfg.f0_hz, cfg.annealer(), cfg.alternation(),
            cfg.perturber(), cfg.seed, trials=cfg.trials,
            domain=cfg.eve_domain())
    rows = sorted(
        (rec.sweep_value, rec.configuration.value, rec.secrecy_rate_bps_hz,
         rec.seed, rec.trial)
        for rec in records)
    clock.lap("sweep")
    _write_csv(out_dir / "sweep.csv",
               ["sweep_value", "configuration", "secrecy_rate", "seed", "trial"],
               "%d,%s,%.17g,%d,%d", rows)
    clock.lap("write")
    _write_manifest(out_dir, f"sweep-{axis}", cfg, ["sweep.csv"], started, clock.seconds)


def cmd_optimize(cfg: RunConfig, method: str, out_dir: Path) -> None:
    started = _utc_now()
    clock = _Stopwatch()
    scenario = _canonical_scenario(cfg)
    params = cfg.baseline_params()
    kind = ConfigurationKind.FDMA_OPT1 if method == "sa" else ConfigurationKind.FDMA_OPT2
    baseline = baseline_design(kind, cfg.m, params, cfg.f0_hz)
    initial_cost = cost(scenario, baseline)

    trace: list = []
    if method == "sa":
        from .annealing import alternate_sa

        design = alternate_sa(scenario, baseline, params, cfg.annealer(),
                              cfg.alternation(), trace=trace)
        header = ["iteration", "temperature", "cost", "accepted", "best_cost"]
        fmt = "%d,%.17g,%.17g,%d,%.17g"
        rows = [(r.iteration, r.temperature, r.cost, r.accepted, r.best_cost)
                for r in trace if isinstance(r, IterationRecord)]
    else:
        from .perturbation import alternate_perturb

        design = alternate_perturb(scenario, baseline, params, cfg.perturber(),
                                   trace=trace)
        header = ["round", "subproblem", "cost", "clip_count"]
        fmt = "%d,%s,%.17g,%d"
        rows = [(r.round, r.subproblem, r.cost, r.clip_count)
                for r in trace if isinstance(r, RoundRecord)]
    final_cost = cost(scenario, design)
    clock.lap("optimize")
    _write_csv(out_dir / "trace.csv", header, fmt, rows,
               footer={"initial_cost": initial_cost, "final_cost": final_cost})
    _write_text(out_dir / "design.json", _json_dumps(_design_document(design)) + "\n")
    clock.lap("write")
    _write_manifest(out_dir, f"optimize/{method}", cfg,
                    ["design.json", "trace.csv"], started, clock.seconds)
    logger.info("optimize %s: cost %.6g -> %.6g", method, initial_cost, final_cost)


def cmd_compare(cfg: RunConfig, design_a: str, design_b: str, out_dir: Path) -> None:
    started = _utc_now()
    clock = _Stopwatch()
    records = compare_designs(_load_design(design_a), _load_design(design_b))
    clock.lap("compare")
    _write_csv(out_dir / "compare.csv",
               ["antenna", "pos_a_lambda", "pos_b_lambda", "shift_a_mhz", "shift_b_mhz"],
               "%d,%.17g,%.17g,%.17g,%.17g",
               [(r.antenna, r.position_a_wavelengths, r.position_b_wavelengths,
                 r.shift_a_mhz, r.shift_b_mhz) for r in records])
    clock.lap("write")
    _write_manifest(out_dir, "compare", cfg, ["compare.csv"], started, clock.seconds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdma",
        description="Beampattern and worst-case secrecy-rate experiments for "
                    "frequency-diverse movable-antenna arrays.")
    parser.add_argument("--config", required=True, help="path to a key/value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--kind", default="CPA",
                        choices=[k.value for k in ConfigurationKind],
                        help="transmitter configuration for beampattern runs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("beampattern", help="raster the normalized beampattern power")
    sub.add_parser("sweep-m", help="secrecy rate versus array size")
    sub.add_parser("sweep-k", help="secrecy rate versus adversary count")
    optimize = sub.add_parser("optimize", help="optimize one design and dump it")
    optimize.add_argument("--method", choices=["sa", "perturb"], required=True)
    compare = sub.add_parser("compare", help="tabulate two optimized designs")
    compare.add_argument("--design-a", required=True)
    compare.add_argument("--design-b", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FDMA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.out)
        if args.command == "beampattern":
            cmd_beampattern(cfg, ConfigurationKind(args.kind), out_dir)
        elif args.command == "sweep-m":
            cmd_sweep(cfg, "m", out_dir)
        elif args.command == "sweep-k":
            cmd_sweep(cfg, "k", out_dir)
        elif args.command == "optimize":
            cmd_optimize(cfg, args.method, out_dir)
        elif args.command == "compare":
            cmd_compare(cfg, args.design_a, args.design_b, out_dir)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:  # noqa: BLE001 - single error boundary for the CLI
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            record["key"] = exc.key
            record["line"] = exc.line
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
