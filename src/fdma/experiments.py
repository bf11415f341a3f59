"""Experiment harness: beampattern rasters and secrecy-rate sweeps.

Transmitter configurations under comparison:

  CPA         uniform spacing, single carrier
  LINEAR_FDA  uniform spacing, linear frequency ramp
  MA_OPT1/2   positions optimized, shifts frozen at zero
  FDA_OPT1/2  shifts optimized, positions frozen at the uniform grid
  FDMA_OPT1/2 positions and shifts optimized jointly
  UPPER_BOUND eavesdropper-free rate log2(1 + snr_bob)

OPT1 uses simulated annealing under the general box constraints; OPT2 uses
the closed-form minor-perturbation solver.  Optimized kinds start from the
matching un-optimized baseline (CPA when shifts are frozen, the linear ramp
otherwise).

Randomized sweeps draw per-trial sub-seeds from a master seed by hashing a
descriptive label, so results are reproducible and order-independent.  For
the adversary-count sweep each trial samples one adversary set of the
largest requested size and reuses its prefixes for the smaller counts,
which makes per-trial rates comparable across counts.  A sweep with an
optimized kind runs its jobs in forked worker processes, one per CPU the
process may run on, and its rows do not depend on the number of workers.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import annealing, perturbation
from .annealing import AnnealerConfig
from .model import ArrayDesign, Scenario, beampattern_batch, snr_bob, \
    worst_case_secrecy_rate
from .perturbation import PerturbConfig
from .scenario import BaselineParams, DEFAULT_EVE_DOMAIN, GridSpec, LinkBudgetConfig, \
    PolarDomain, derive_seed, make_cpa, make_linear_fda, place_canonical_eves, \
    sample_eves_outside_target

logger = logging.getLogger("fdma.experiments")


class ConfigurationKind(Enum):
    CPA = "CPA"
    LINEAR_FDA = "LINEAR_FDA"
    MA_OPT1 = "MA_OPT1"
    MA_OPT2 = "MA_OPT2"
    FDA_OPT1 = "FDA_OPT1"
    FDA_OPT2 = "FDA_OPT2"
    FDMA_OPT1 = "FDMA_OPT1"
    FDMA_OPT2 = "FDMA_OPT2"
    UPPER_BOUND = "UPPER_BOUND"


_PHASES = {
    ConfigurationKind.MA_OPT1: ("positions",),
    ConfigurationKind.MA_OPT2: ("positions",),
    ConfigurationKind.FDA_OPT1: ("shifts",),
    ConfigurationKind.FDA_OPT2: ("shifts",),
    ConfigurationKind.FDMA_OPT1: ("positions", "shifts"),
    ConfigurationKind.FDMA_OPT2: ("positions", "shifts"),
}

SA_KINDS = (ConfigurationKind.MA_OPT1, ConfigurationKind.FDA_OPT1,
            ConfigurationKind.FDMA_OPT1)
ALL_KINDS = tuple(ConfigurationKind)


@dataclass(frozen=True)
class SweepRecord:
    """One sweep sample: swept value, configuration, rate, and provenance.

    label is the job's seed label; seconds, the job's wall time, is
    telemetry and takes no part in comparisons.
    """

    sweep_value: int
    configuration: ConfigurationKind
    secrecy_rate_bps_hz: float
    seed: int
    trial: int = 0
    label: str = ""
    seconds: float = field(default=0.0, compare=False)


class _Job(NamedTuple):
    "One sweep job: its row's sweep value and trial, seed label, and what to optimize."

    sweep_value: int
    trial: int
    label: str
    scenario: Scenario
    num_antennas: int
    params: BaselineParams
    kind: ConfigurationKind


def baseline_design(kind: ConfigurationKind, num_antennas: int,
                    params: BaselineParams, f0: float) -> ArrayDesign:
    "Starting design for a configuration: zero shifts when shifts are frozen."
    if kind in (ConfigurationKind.CPA, ConfigurationKind.MA_OPT1,
                ConfigurationKind.MA_OPT2, ConfigurationKind.UPPER_BOUND):
        return make_cpa(num_antennas, params, f0)
    return make_linear_fda(num_antennas, params, f0)


def optimize_configuration(kind: ConfigurationKind, scenario: Scenario,
                           num_antennas: int, params: BaselineParams, f0: float,
                           sa_cfg: AnnealerConfig, perturb_cfg: PerturbConfig,
                           trace: list | None = None) -> ArrayDesign:
    """Design realizing a configuration kind on the given scenario.

    OPT1 kinds are seeded by sa_cfg.seed.  trace, when given, receives the
    optimizer's records (IterationRecord for OPT1 kinds, RoundRecord for
    OPT2 kinds).
    """
    design = baseline_design(kind, num_antennas, params, f0)
    if kind not in _PHASES:
        return design
    phases = _PHASES[kind]
    if kind in SA_KINDS:
        return annealing.alternate_sa(scenario, design, params, sa_cfg, trace=trace,
                                      phases=phases)
    return perturbation.alternate_perturb(scenario, design, params, perturb_cfg,
                                          trace=trace, phases=phases)


def configuration_rate(kind: ConfigurationKind, scenario: Scenario,
                       design: ArrayDesign) -> float:
    "Worst-case secrecy rate of the configuration; the bound ignores adversaries."
    if kind is ConfigurationKind.UPPER_BOUND:
        return math.log2(1.0 + snr_bob(scenario, design))
    return worst_case_secrecy_rate(scenario, design)


def raster_columns(scenario: Scenario, design: ArrayDesign, grid: GridSpec,
                   columns: slice = slice(None)
                   ) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Normalized beampattern power over a Cartesian grid, one x column at a time.

    Yields (x, ys, power_db) for each x of `grid.x_points()[columns]` in
    increasing order: ys holds the grid's y points and power_db the power in
    dB at (x, ys).  A column's values do not depend on which columns are
    asked for, so blocks of columns concatenate to the whole grid bit for
    bit.  Only one column's phase matrices are held at a time.  The power is
    0 dB at the intended receiver and at most rounding above 0 dB elsewhere.
    """
    ys = grid.y_points()
    norm = design.num_antennas ** 2
    for x in grid.x_points()[columns].tolist():
        ranges = np.hypot(x, ys)
        cosines = np.where(ranges > 0.0, x / np.where(ranges > 0, ranges, 1.0), 0.0)
        etas = beampattern_batch(design, ranges, cosines, scenario.bob,
                                 scenario.speed_of_light)
        power = np.abs(etas) ** 2 / norm
        yield x, ys, 10.0 * np.log10(np.maximum(power, 1e-300))


def available_cpus() -> int:
    "CPUs this process may run on: its affinity set where the OS has one (not macOS)."
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def job_workers(kinds: list[ConfigurationKind]) -> int:
    """Worker processes for jobs of these kinds: one per CPU this process may use.

    Only 1 when no job is optimized: a baseline job takes microseconds, far
    less than forking a pool, while a closed-form job can take as long as the fork.
    """
    if not any(kind in _PHASES for kind in kinds):
        return 1
    return min(available_cpus(), len(kinds))


def _run_job(job: _Job, f0: float, sa_cfg: AnnealerConfig, perturb_cfg: PerturbConfig,
             master_seed: int) -> SweepRecord:
    """Optimize and rate one sweep job.

    Its seed is derived from the master seed and its own label only, so the
    row does not depend on which other jobs the sweep holds or where it runs.
    """
    start = time.perf_counter()
    seed = derive_seed(master_seed, job.label)
    design = optimize_configuration(job.kind, job.scenario, job.num_antennas, job.params,
                                    f0, replace(sa_cfg, seed=seed), perturb_cfg)
    rate = configuration_rate(job.kind, job.scenario, design)
    logger.info("%s rate=%.4f", job.label, rate)
    return SweepRecord(job.sweep_value, job.kind, rate, seed, job.trial, job.label,
                       time.perf_counter() - start)


def _job_weight(job: _Job) -> tuple[bool, int]:
    "Sort key of a job's expected run time: annealed kinds, then phases x M x (K + 1)."
    phases = len(_PHASES.get(job.kind, ()))
    return job.kind in SA_KINDS, phases * job.num_antennas * (len(job.scenario.eves) + 1)


def _run_jobs(jobs: list[_Job], f0: float, sa_cfg: AnnealerConfig,
              perturb_cfg: PerturbConfig, master_seed: int) -> list[SweepRecord]:
    """Records of `_run_job` for each job, in list order.

    With more than one worker (`job_workers`) the jobs run in a pool of
    forked processes, the longest expected first, so the longest job does
    not start last.  Fork, not spawn: a spawned worker re-imports numpy and
    fdma, which costs about as long as a small sweep takes.  When a job
    solves in closed form, scipy.linalg is imported here before the fork, so
    the workers inherit it rather than each importing it.  The first job
    to raise cancels the jobs not yet started and is re-raised here; no
    worker outlives the call.
    """
    run = functools.partial(_run_job, f0=f0, sa_cfg=sa_cfg, perturb_cfg=perturb_cfg,
                            master_seed=master_seed)
    workers = job_workers([job.kind for job in jobs])
    if workers <= 1:
        return list(map(run, jobs))
    # Imported here, not at module level: `import fdma` stays free of the
    # process-pool modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    if any(job.kind in _PHASES and job.kind not in SA_KINDS for job in jobs):
        import scipy.linalg  # noqa: F401 - for the workers' solve_ridge to inherit
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [None] * len(jobs)
        for i in sorted(range(len(jobs)), key=lambda i: _job_weight(jobs[i]), reverse=True):
            futures[i] = pool.submit(run, jobs[i])
        for future in as_completed(futures):
            future.result()  # raises the first failure as it arrives
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def sweep_vs_num_antennas(base_scenario: Scenario, m_values: list[int],
                          kinds: tuple[ConfigurationKind, ...],
                          link_cfg: LinkBudgetConfig, f0: float,
                          sa_cfg: AnnealerConfig, perturb_cfg: PerturbConfig,
                          master_seed: int, *,
                          baseline_params: Callable[[int], BaselineParams]
                          ) -> list[SweepRecord]:
    """Secrecy rate versus array size with the three canonical adversaries.

    baseline_params(M) gives the baseline grid and box constraints for an
    M-element array.  The adversaries are re-placed for every array size
    because their sidelobe locations depend on it.
    """
    if any(m < 4 for m in m_values):
        raise ValueError("array-size sweep needs at least four antennas")
    jobs = []
    for m in m_values:
        params = baseline_params(m)
        eves = place_canonical_eves(m, base_scenario.bob, params, link_cfg, f0,
                                    base_scenario.speed_of_light)
        scenario = replace(base_scenario, eves=eves)
        jobs += [_Job(m, 0, f"sweep-m/M={m}/kind={kind.value}", scenario, m, params, kind)
                 for kind in kinds]
    return _run_jobs(jobs, f0, sa_cfg, perturb_cfg, master_seed)


def sweep_vs_num_eves(base_scenario: Scenario, k_values: list[int], m_values: list[int],
                      kinds: tuple[ConfigurationKind, ...],
                      link_cfg: LinkBudgetConfig, f0: float,
                      sa_cfg: AnnealerConfig, perturb_cfg: PerturbConfig,
                      master_seed: int, trials: int = 20,
                      domain: PolarDomain = DEFAULT_EVE_DOMAIN, *,
                      baseline_params: Callable[[int], BaselineParams]
                      ) -> list[SweepRecord]:
    """Secrecy rate versus adversary count with random placements per trial.

    baseline_params(M) gives the baseline grid and box constraints for an
    M-element array.  Every trial draws max(k_values) adversaries outside
    the target region and evaluates each requested count on the first K of
    them, so rates for different counts within a trial share the same
    adversary draw.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not k_values or min(k_values) < 0:
        raise ValueError("k_values must be non-empty with no negative entry")
    k_max = max(k_values)
    if any(k_max >= m for m in m_values):
        raise ValueError("need fewer eavesdroppers than antennas")
    jobs = []
    for m in m_values:
        params = baseline_params(m)
        for trial in range(trials):
            all_eves = sample_eves_outside_target(
                k_max, base_scenario.bob, m, params, link_cfg, f0,
                base_scenario.speed_of_light, domain=domain,
                rng_seed=derive_seed(master_seed, f"sweep-k/M={m}/trial={trial}"))
            for k in k_values:
                scenario = replace(base_scenario, eves=all_eves[:k])
                jobs += [_Job(k, trial, f"sweep-k/M={m}/K={k}/trial={trial}/kind={kind.value}",
                              scenario, m, params, kind) for kind in kinds]
    return _run_jobs(jobs, f0, sa_cfg, perturb_cfg, master_seed)


def mean_rates(records: list[SweepRecord]) -> dict[tuple[int, ConfigurationKind], float]:
    "Arithmetic mean secrecy rate per (sweep value, configuration)."
    sums: dict[tuple[int, ConfigurationKind], list[float]] = {}
    for rec in records:
        sums.setdefault((rec.sweep_value, rec.configuration), []).append(
            rec.secrecy_rate_bps_hz)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}

