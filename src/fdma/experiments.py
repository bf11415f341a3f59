"""Experiment harness: beampattern rasters, secrecy-rate sweeps, design diffs.

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
which makes per-trial rates comparable across counts.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import annealing, perturbation
from .annealing import AlternationConfig, AnnealerConfig
from .model import ArrayDesign, Placement, Scenario, beampattern_batch, snr_bob, \
    wavelength, worst_case_secrecy_rate
from .perturbation import PerturbConfig
from .scenario import BaselineParams, DEFAULT_EVE_DOMAIN, GridSpec, LinkBudgetConfig, \
    PolarDomain, default_baseline_params, derive_seed, make_cpa, make_linear_fda, \
    place_canonical_eves, sample_eves_outside_target

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
PERTURB_KINDS = (ConfigurationKind.MA_OPT2, ConfigurationKind.FDA_OPT2,
                 ConfigurationKind.FDMA_OPT2)
ALL_KINDS = tuple(ConfigurationKind)


@dataclass(frozen=True)
class SweepRecord:
    "One sweep sample: swept value, configuration, rate, and provenance."

    sweep_value: int
    configuration: ConfigurationKind
    secrecy_rate_bps_hz: float
    seed: int
    trial: int = 0


@dataclass(frozen=True)
class DesignDiffRecord:
    "Per-element comparison of two designs (positions in wavelengths, shifts in MHz)."

    antenna: int
    position_a_wavelengths: float
    position_b_wavelengths: float
    shift_a_mhz: float
    shift_b_mhz: float


def baseline_design(kind: ConfigurationKind, num_antennas: int,
                    params: BaselineParams, f0: float) -> ArrayDesign:
    "Starting design for a configuration: zero shifts when shifts are frozen."
    if kind in (ConfigurationKind.CPA, ConfigurationKind.MA_OPT1,
                ConfigurationKind.MA_OPT2, ConfigurationKind.UPPER_BOUND):
        return make_cpa(num_antennas, params, f0)
    return make_linear_fda(num_antennas, params, f0)


def optimize_configuration(kind: ConfigurationKind, scenario: Scenario,
                           num_antennas: int, params: BaselineParams, f0: float,
                           sa_cfg: AnnealerConfig, alt_cfg: AlternationConfig,
                           perturb_cfg: PerturbConfig,
                           seed: int | None = None) -> ArrayDesign:
    """Design realizing a configuration kind on the given scenario.

    seed overrides the annealer seed for sweep bookkeeping; baselines and
    the upper bound ignore it.
    """
    design = baseline_design(kind, num_antennas, params, f0)
    if kind not in _PHASES:
        return design
    phases = _PHASES[kind]
    if kind in SA_KINDS:
        cfg = sa_cfg if seed is None else replace(sa_cfg, seed=seed)
        return annealing.alternate_sa(scenario, design, params, cfg, alt_cfg,
                                      phases=phases)
    return perturbation.alternate_perturb(scenario, design, params, perturb_cfg,
                                          phases=phases)


def configuration_rate(kind: ConfigurationKind, scenario: Scenario,
                       design: ArrayDesign) -> float:
    "Worst-case secrecy rate of the configuration; the bound ignores adversaries."
    if kind is ConfigurationKind.UPPER_BOUND:
        return math.log2(1.0 + snr_bob(scenario, design))
    return worst_case_secrecy_rate(scenario, design)


def raster_columns(scenario: Scenario, design: ArrayDesign,
                   grid: GridSpec) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Normalized beampattern power over a Cartesian grid, one x column at a time.

    Yields (x, ys, power_db) for each grid x in increasing order: ys holds
    the grid's y points and power_db the power in dB at (x, ys).  Only one
    column's phase matrices are held at a time.  The power is exactly 0 dB
    at the intended receiver and never positive elsewhere.
    """
    ys = grid.y_points()
    norm = design.num_antennas ** 2
    for x in grid.x_points().tolist():
        ranges = np.hypot(x, ys)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosines = np.where(ranges > 0.0, x / np.where(ranges > 0, ranges, 1.0), 0.0)
        etas = beampattern_batch(design, ranges, cosines, scenario.bob,
                                 scenario.speed_of_light)
        power = np.abs(etas) ** 2 / norm
        yield x, ys, 10.0 * np.log10(np.maximum(power, 1e-300))


def raster_beampattern(scenario: Scenario, design: ArrayDesign,
                       grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized beampattern power over a Cartesian grid, in dB.

    Returns the flat arrays (x_m, y_m, power_db), one entry per grid point,
    row-major over (x, y): the concatenated blocks of `raster_columns`.
    """
    xs, ys, power_db = [], [], []
    for x, column_ys, column_db in raster_columns(scenario, design, grid):
        xs.append(np.full(column_ys.size, x))
        ys.append(column_ys)
        power_db.append(column_db)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(power_db)


def _scenario_with_eves(base: Scenario, eves: list[Placement]) -> Scenario:
    return Scenario(base.bob, tuple(eves), base.tx_power_linear, base.speed_of_light)


def sweep_vs_num_antennas(base_scenario: Scenario, m_values: list[int],
                          kinds: tuple[ConfigurationKind, ...],
                          link_cfg: LinkBudgetConfig, f0: float,
                          sa_cfg: AnnealerConfig, alt_cfg: AlternationConfig,
                          perturb_cfg: PerturbConfig, master_seed: int) -> list[SweepRecord]:
    """Secrecy rate versus array size with the three canonical adversaries.

    The adversaries are re-placed for every array size because their
    sidelobe locations depend on it.
    """
    if any(m < 4 for m in m_values):
        raise ValueError("array-size sweep needs at least four antennas")
    records = []
    for m in m_values:
        params = default_baseline_params(m, f0, base_scenario.speed_of_light)
        eves = place_canonical_eves(m, base_scenario.bob, params, link_cfg, f0,
                                    base_scenario.speed_of_light)
        scenario = _scenario_with_eves(base_scenario, eves)
        for kind in kinds:
            seed = derive_seed(master_seed, f"sweep-m/M={m}/kind={kind.value}")
            design = optimize_configuration(kind, scenario, m, params, f0,
                                            sa_cfg, alt_cfg, perturb_cfg, seed=seed)
            rate = configuration_rate(kind, scenario, design)
            logger.info("sweep-m M=%d %s rate=%.4f", m, kind.value, rate)
            records.append(SweepRecord(m, kind, rate, seed))
    return records


def sweep_vs_num_eves(base_scenario: Scenario, k_values: list[int], m_values: list[int],
                      kinds: tuple[ConfigurationKind, ...],
                      link_cfg: LinkBudgetConfig, f0: float,
                      sa_cfg: AnnealerConfig, alt_cfg: AlternationConfig,
                      perturb_cfg: PerturbConfig, master_seed: int,
                      trials: int = 20,
                      domain: PolarDomain | None = None) -> list[SweepRecord]:
    """Secrecy rate versus adversary count with random placements per trial.

    Every trial draws max(k_values) adversaries outside the target region
    and evaluates each requested count on the first K of them, so rates for
    different counts within a trial share the same adversary draw.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    k_max = max(k_values)
    if any(k_max >= m for m in m_values):
        raise ValueError("need fewer eavesdroppers than antennas")
    c = base_scenario.speed_of_light
    records = []
    for m in m_values:
        params = default_baseline_params(m, f0, c)
        for trial in range(trials):
            eve_seed = derive_seed(master_seed, f"sweep-k/M={m}/trial={trial}")
            all_eves = sample_eves_outside_target(
                k_max, base_scenario.bob, m, params, link_cfg, f0, c,
                domain=domain if domain is not None else DEFAULT_EVE_DOMAIN,
                rng_seed=eve_seed)
            for k in k_values:
                scenario = _scenario_with_eves(base_scenario, all_eves[:k])
                for kind in kinds:
                    seed = derive_seed(
                        master_seed, f"sweep-k/M={m}/K={k}/trial={trial}/kind={kind.value}")
                    design = optimize_configuration(kind, scenario, m, params, f0, sa_cfg,
                                                    alt_cfg, perturb_cfg, seed=seed)
                    rate = configuration_rate(kind, scenario, design)
                    logger.info("sweep-k K=%d M=%d %s trial=%d rate=%.4f",
                                k, m, kind.value, trial, rate)
                    records.append(SweepRecord(k, kind, rate, seed, trial))
    return records


def mean_rates(records: list[SweepRecord]) -> dict[tuple[int, ConfigurationKind], float]:
    "Arithmetic mean secrecy rate per (sweep value, configuration)."
    sums: dict[tuple[int, ConfigurationKind], list[float]] = {}
    for rec in records:
        sums.setdefault((rec.sweep_value, rec.configuration), []).append(
            rec.secrecy_rate_bps_hz)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


def compare_designs(design_a: ArrayDesign, design_b: ArrayDesign) -> list[DesignDiffRecord]:
    "Per-element table of two designs, positions in wavelengths and shifts in MHz."
    if design_a.num_antennas != design_b.num_antennas:
        raise ValueError("designs must have the same number of antennas")
    lam_a = wavelength(design_a.f0)
    lam_b = wavelength(design_b.f0)
    return [
        DesignDiffRecord(
            antenna=i,
            position_a_wavelengths=float(design_a.positions[i] / lam_a),
            position_b_wavelengths=float(design_b.positions[i] / lam_b),
            shift_a_mhz=float(design_a.freq_shifts[i] / 1e6),
            shift_b_mhz=float(design_b.freq_shifts[i] / 1e6),
        )
        for i in range(design_a.num_antennas)
    ]
