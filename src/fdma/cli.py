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
import dataclasses
import datetime
import json
import logging
import os
import pickle
import platform
import shutil
import signal
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np
import scipy

from . import __version__
from .annealing import IterationRecord, schedule_summary
from .config import ConfigError, RunConfig, parse_config_file
from .experiments import ALL_KINDS, ConfigurationKind, available_cpus, baseline_design, \
    job_workers, optimize_configuration, raster_columns, sweep_vs_num_antennas, \
    sweep_vs_num_eves
from .model import ArrayDesign, cost, wavelength
from .perturbation import RoundRecord

logger = logging.getLogger("fdma")


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _json_dumps(obj, indent: int = 0) -> str:
    "Deterministic JSON with 17-significant-digit floats."
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, dict):
        brackets, entries = "{}", [(json.dumps(str(key)) + ": ", val)
                                   for key, val in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        brackets, entries = "[]", [("", val) for val in obj]
    else:
        return json.dumps(obj)
    if not entries:
        return brackets
    inner = "\n" + "  " * (indent + 1)
    items = ",".join(inner + key + _json_dumps(val, indent + 1) for key, val in entries)
    return brackets[0] + items + "\n" + "  " * indent + brackets[1]


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


def _write_csv(path: Path, header: Iterable[str], fmt: str, blocks: list[Iterable[tuple]],
               footer: dict | None = None) -> None:
    """Header line, one `fmt % row` line per row of each block in order, then `# key=value` footers.

    fmt must match the column types: `%.17g` prints a float as `_fmt` does,
    `%d` an int or bool, `%s` a string; `%d` of a float would truncate it.

    The calling process renders block 0.  Where the OS can fork, each later
    block i renders in a child, forked before the output is opened, into an
    unnamed file beside path that the parent holds open, and the parent
    appends the parts in block order, so the bytes do not depend on the
    split.  A failure in any block kills and reaps the children and is raised
    here as that block's exception, which a child leaves in its part.
    """
    render = (fmt + "\n").__mod__
    own, forked = (blocks[:1], blocks[1:]) if hasattr(os, "fork") else (blocks, [])
    parts, pids = [], []  # part files; children not yet reaped
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        for rows in forked:
            parts.append(tempfile.TemporaryFile(dir=path.parent))
            pids.append(_fork_part(rows, render, parts[-1]))
        with _atomic_open(path) as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(map(render, chain.from_iterable(own)))
            handle.flush()  # the parts are copied into the byte buffer beneath
            for part in parts:
                failure = _join_part(pids[0], part)
                del pids[0]
                if failure is not None:
                    raise failure
                shutil.copyfileobj(part, handle.buffer)
            handle.writelines(f"# {key}={_fmt(value)}\n" for key, value in (footer or {}).items())
    finally:
        for pid in pids:  # still running only when a block failed
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


def _fork_part(rows: Iterable[tuple], render, part: BinaryIO) -> int:
    """Fork a child that writes `render(row)` for each row to part; returns its pid.

    The child writes through part's inherited descriptor and never returns
    into the caller's stack: it leaves through os._exit, with status 0 once
    part is complete, else 1 after rewriting part with its pickled exception.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with open(part.fileno(), "w", encoding="utf-8", newline="\n", closefd=False) as handle:
            handle.writelines(map(render, rows))
        status = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            part.seek(0)
            pickle.dump(exc, part)
            part.truncate()  # flushes the pickle, then drops any rows after it
    finally:
        os._exit(status)


def _join_part(pid: int, part: BinaryIO) -> BaseException | None:
    """Wait for a `_fork_part` child; None if it wrote part, else the exception it raised.

    part is left at its start.  The exception is read back from part only
    when the child exited with status 1; any other failure, or a part that
    does not unpickle, is a ChildProcessError.
    """
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    part.seek(0)
    if code == 0:
        return None
    if code == 1:
        with contextlib.suppress(Exception):
            return pickle.load(part)
    return ChildProcessError(f"row block worker {pid} failed with exit code {code}")


def _split_rows(count: int) -> list[slice]:
    """Contiguous near-equal slices of range(count), one per CPU this process may use.

    Never more slices than rows, and at least one, so the CSV writer forks
    one child per slice after the first (`_write_csv`).
    """
    parts = max(1, min(available_cpus(), count))
    edges = [count * i // parts for i in range(parts + 1)]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def _write_json(path: Path, obj) -> None:
    with _atomic_open(path) as handle:
        handle.write(_json_dumps(obj) + "\n")


def _write_manifest(out_dir: Path, experiment_id: str, cfg: RunConfig,
                    outputs: list[str], clock: _Stopwatch,
                    extra: dict | None = None) -> None:
    manifest = {
        "experiment_id": experiment_id,
        "tool_version": __version__,
        "master_seed": cfg.seed,
        "config": cfg.snapshot(),
        "outputs": sorted(outputs),
        "stage_seconds": clock.seconds,
        "environment": _environment(),
        "started_utc": clock.started_utc,
        "finished_utc": _utc_now(),
        **(extra or {}),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _environment() -> dict:
    """Interpreter and library versions, and the CPUs this process may run on.

    The BLAS build numpy links sets the last bits of its stacked products,
    and so of every optimizer result.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": available_cpus(),
    }


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class _Stopwatch:
    """Wall seconds per named stage; each lap runs from the end of the previous one.

    Laps of the same stage add up, so interleaved stages keep separate totals.
    """

    def __init__(self) -> None:
        self.started_utc = _utc_now()
        self.seconds: dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._mark
        self._mark = now


def _design_document(design: ArrayDesign, c: float) -> dict:
    lam = wavelength(design.f0, c)
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
    clock = _Stopwatch()
    scenario = cfg.scenario()
    design = optimize_configuration(kind, scenario, cfg.m, cfg.baseline_params(),
                                    cfg.f0_hz, cfg.annealer(), cfg.perturber())
    clock.lap("design")
    grid = cfg.grid()
    y_text = ["%.17g" % y for y in grid.y_points().tolist()]

    def rows(columns: slice) -> Iterator[tuple]:
        # Each column is written as soon as it is computed, so memory stays
        # bounded by one column per process whatever the grid size.  Only the
        # calling process's block reaches this clock.
        clock.lap("write")
        for x, _, power_db in raster_columns(scenario, design, grid, columns):
            clock.lap("raster")
            yield from zip(repeat("%.17g" % x), y_text, power_db.tolist())
            clock.lap("write")

    blocks = [rows(columns) for columns in _split_rows(grid.x_points().size)]
    _write_csv(out_dir / "raster.csv", ["x_m", "y_m", "power_db"], "%s,%s,%.17g", blocks)
    _write_json(out_dir / "design.json", _design_document(design, cfg.speed_of_light))
    clock.lap("write")
    _write_manifest(out_dir, f"beampattern/{kind.value}", cfg,
                    ["raster.csv", "design.json"], clock)


def cmd_sweep(cfg: RunConfig, axis: str, out_dir: Path) -> None:
    clock = _Stopwatch()
    base = cfg.base_scenario()
    if axis == "m":
        records = sweep_vs_num_antennas(
            base, list(cfg.m_values), ALL_KINDS, cfg.link_budget(), cfg.f0_hz,
            cfg.annealer(), cfg.perturber(), cfg.seed, baseline_params=cfg.baseline_params)
    else:
        kinds = (ConfigurationKind.FDMA_OPT1, ConfigurationKind.FDMA_OPT2)
        records = sweep_vs_num_eves(
            base, list(cfg.k_values), list(cfg.sweep_k_m_values), kinds,
            cfg.link_budget(), cfg.f0_hz, cfg.annealer(), cfg.perturber(), cfg.seed,
            trials=cfg.trials, domain=cfg.eve_domain(), baseline_params=cfg.baseline_params)
    rows = sorted(
        (rec.sweep_value, rec.configuration.value, rec.secrecy_rate_bps_hz,
         rec.seed, rec.trial)
        for rec in records)
    clock.lap("sweep")
    _write_csv(out_dir / "sweep.csv",
               ["sweep_value", "configuration", "secrecy_rate", "seed", "trial"],
               "%d,%s,%.17g,%d,%d", [rows])
    clock.lap("write")
    jobs = [{"label": rec.label, "seconds": rec.seconds} for rec in records]
    _write_manifest(out_dir, f"sweep-{axis}", cfg, ["sweep.csv"], clock,
                    {"workers": job_workers([rec.configuration for rec in records]),
                     "jobs": jobs})


def cmd_optimize(cfg: RunConfig, method: str, out_dir: Path) -> None:
    clock = _Stopwatch()
    scenario = cfg.scenario()
    params = cfg.baseline_params()
    kind = ConfigurationKind.FDMA_OPT1 if method == "sa" else ConfigurationKind.FDMA_OPT2
    initial_cost = cost(scenario, baseline_design(kind, cfg.m, params, cfg.f0_hz))
    trace: list = []
    design = optimize_configuration(kind, scenario, cfg.m, params, cfg.f0_hz,
                                    cfg.annealer(), cfg.perturber(), trace=trace)
    final_cost = cost(scenario, design)
    clock.lap("optimize")
    record, fmt, blocks = ((IterationRecord, "%d,%.17g,%.17g,%d,%.17g",
                            [islice(trace, s.start, s.stop) for s in _split_rows(len(trace))])
                           if method == "sa" else (RoundRecord, "%d,%s,%.17g,%d", [trace]))
    _write_csv(out_dir / "trace.csv", record._fields, fmt, blocks,
               footer={"initial_cost": initial_cost, "final_cost": final_cost})
    _write_json(out_dir / "design.json", _design_document(design, cfg.speed_of_light))
    clock.lap("write")
    extra = {"annealer": schedule_summary(trace, cfg.sa_cooling)} if method == "sa" else None
    _write_manifest(out_dir, f"optimize/{method}", cfg,
                    ["design.json", "trace.csv"], clock, extra)
    logger.info("optimize %s: cost %.6g -> %.6g", method, initial_cost, final_cost)


def cmd_compare(cfg: RunConfig, design_a: str, design_b: str, out_dir: Path) -> None:
    clock = _Stopwatch()
    docs = [_design_document(_load_design(path), cfg.speed_of_light)
            for path in (design_a, design_b)]
    if docs[0]["num_antennas"] != docs[1]["num_antennas"]:
        raise ValueError("designs must have the same number of antennas")
    rows = list(zip(range(docs[0]["num_antennas"]), *(
        doc[key] for key in ("positions_wavelengths", "freq_shifts_mhz") for doc in docs)))
    clock.lap("compare")
    _write_csv(out_dir / "compare.csv",
               ["antenna", "pos_a_lambda", "pos_b_lambda", "shift_a_mhz", "shift_b_mhz"],
               "%d,%.17g,%.17g,%.17g,%.17g", [rows])
    clock.lap("write")
    _write_manifest(out_dir, "compare", cfg, ["compare.csv"], clock)


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
    # Each run(cfg, args, out_dir) looks up its cmd_* when called, so patching one works.
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("beampattern", help="raster the normalized beampattern power").set_defaults(
        run=lambda cfg, args, out: cmd_beampattern(cfg, ConfigurationKind(args.kind), out))
    sub.add_parser("sweep-m", help="secrecy rate versus array size").set_defaults(
        run=lambda cfg, args, out: cmd_sweep(cfg, "m", out))
    sub.add_parser("sweep-k", help="secrecy rate versus adversary count").set_defaults(
        run=lambda cfg, args, out: cmd_sweep(cfg, "k", out))
    optimize = sub.add_parser("optimize", help="optimize one design and dump it")
    optimize.add_argument("--method", choices=["sa", "perturb"], required=True)
    optimize.set_defaults(run=lambda cfg, args, out: cmd_optimize(cfg, args.method, out))
    compare = sub.add_parser("compare", help="tabulate two optimized designs")
    compare.add_argument("--design-a", required=True)
    compare.add_argument("--design-b", required=True)
    compare.set_defaults(
        run=lambda cfg, args, out: cmd_compare(cfg, args.design_a, args.design_b, out))
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
            cfg = dataclasses.replace(cfg, seed=args.seed)
        args.run(cfg, args, Path(args.out))
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
