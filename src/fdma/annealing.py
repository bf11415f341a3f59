"""Simulated annealing over element spacings and frequency shifts.

Positions are searched through the inter-element spacing vector d with
d_m = x_{m+1} - x_m, which turns the ordering constraint into simple box
bounds: every spacing stays at or above the mutual-coupling minimum, and
the total span never exceeds the aperture.  One coordinate is redrawn per
iteration from a uniform proposal; worse moves are accepted with
probability exp(-dJ / T) under a geometric cooling schedule T_t = alpha^t T0.
The best state ever visited is returned.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import ArrayDesign, Scenario, eve_gains
from .scenario import BaselineParams

logger = logging.getLogger("fdma.annealing")

_SPAN_SLACK = 1e-9  # relative tolerance on the aperture constraint


class InfeasibleSpacingError(ValueError):
    "Spacing vector cannot be realized inside the aperture."


class InfeasibleInitializationError(InfeasibleSpacingError):
    "Starting design violates the spacing or frequency-shift constraints."


@dataclass(frozen=True)
class AnnealerConfig:
    """Annealing schedule.

    initial_temperature None means: start each run at the current cost
    magnitude (floored at 1e-12), which keeps early uphill acceptance
    moderate regardless of the cost scale.
    """

    initial_temperature: float | None = None
    cooling_factor: float = 0.95
    max_iterations: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.initial_temperature is not None and not self.initial_temperature > 0.0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class AlternationConfig:
    "Outer loop: alternate subproblems until the round improvement stalls."

    max_rounds: int = 4
    relative_tolerance: float = 1e-3

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if not self.relative_tolerance > 0.0:
            raise ValueError("relative_tolerance must be positive")


class IterationRecord(NamedTuple):
    "One annealing iteration (a trace.csv row): candidate cost and acceptance outcome."

    iteration: int
    temperature: float
    cost: float
    accepted: bool
    best_cost: float


def cost(scenario: Scenario, design: ArrayDesign) -> float:
    "Optimization objective: total linear eavesdropper SNR under matched weights."
    return _raw_cost(scenario, design.positions, design.freq_shifts, design.f0)


def _raw_cost(scenario: Scenario, positions: np.ndarray, shifts: np.ndarray,
              f0: float) -> float:
    "cost() on raw design arrays; the annealer evaluates candidates through it."
    gains = eve_gains(scenario, positions, shifts, f0)
    return float(scenario.eve_weights @ gains) / positions.size


def spacings(positions: np.ndarray) -> np.ndarray:
    "Inter-element spacing vector (length M-1)."
    return np.diff(np.asarray(positions, dtype=float))


def reconstruct_positions(spacing_vec: np.ndarray, aperture_half_width: float) -> np.ndarray:
    """Positions from spacings, with the occupied span centered at the origin.

    Raises InfeasibleSpacingError when the total span exceeds the aperture.
    """
    d = np.asarray(spacing_vec, dtype=float)
    span = float(d.sum())
    limit = 2.0 * aperture_half_width
    if span > limit * (1.0 + _SPAN_SLACK):
        raise InfeasibleSpacingError(
            f"total span {span:.6g} exceeds aperture 2D = {limit:.6g}"
        )
    return np.concatenate(([-span / 2.0], -span / 2.0 + np.cumsum(d)))


def adaptive_max_spacing(spacing_vec: np.ndarray, index: int,
                         aperture_half_width: float) -> float:
    "Largest value spacing `index` may take while the span still fits the aperture."
    d = np.asarray(spacing_vec, dtype=float)
    return 2.0 * aperture_half_width - (float(d.sum()) - float(d[index]))


def metropolis_accept(delta_cost: float, temperature: float,
                      rng: np.random.Generator) -> bool:
    "Accept downhill moves always, uphill with probability exp(-delta/T)."
    if delta_cost < 0.0:
        return True
    if temperature <= 0.0:
        return False
    return math.exp(-delta_cost / temperature) >= rng.uniform(0.0, 1.0)


def _check_optimizable(scenario: Scenario, design: ArrayDesign) -> None:
    if scenario.num_eves >= design.num_antennas:
        raise ValueError("need fewer eavesdroppers than antennas")


def _boxed_shifts(shifts: np.ndarray, params: BaselineParams) -> np.ndarray:
    # A linear ramp outgrows the shift box for wide arrays; the box is the
    # optimizer's constraint, so saturate the starting point instead of
    # rejecting it.
    lo, hi = params.freq_shift_bounds
    if np.any(shifts < lo) or np.any(shifts > hi):
        logger.debug("clipping %d starting shifts into the allowed box",
                     int(np.count_nonzero((shifts < lo) | (shifts > hi))))
        return np.clip(shifts, lo, hi)
    return shifts


def _initial_spacings(design: ArrayDesign, params: BaselineParams) -> np.ndarray:
    d = spacings(design.positions)
    if np.any(d < params.min_spacing * (1.0 - _SPAN_SLACK)):
        raise InfeasibleInitializationError("initial spacing below the minimum")
    span = float(d.sum())
    if span > 2.0 * params.aperture_half_width * (1.0 + _SPAN_SLACK):
        raise InfeasibleInitializationError("initial span exceeds the aperture")
    return d


def _anneal_loop(state: np.ndarray, evaluate, propose, cfg: AnnealerConfig,
                 rng: np.random.Generator, trace: list | None) -> tuple[np.ndarray, float]:
    "Shared single-coordinate annealing loop; returns the best visited state."
    current = state.copy()
    current_cost = evaluate(current)
    best, best_cost = current.copy(), current_cost
    t0 = cfg.initial_temperature
    if t0 is None:
        t0 = max(current_cost, 1e-12)
    for t in range(1, cfg.max_iterations + 1):
        temperature = t0 * cfg.cooling_factor ** t
        candidate = propose(current, rng)
        candidate_cost = evaluate(candidate)
        accepted = metropolis_accept(candidate_cost - current_cost, temperature, rng)
        if accepted:
            current, current_cost = candidate, candidate_cost
            if current_cost < best_cost:
                best, best_cost = current.copy(), current_cost
        if trace is not None:
            trace.append(IterationRecord(t, temperature, candidate_cost, accepted, best_cost))
    return best, best_cost


def anneal_positions(scenario: Scenario, design: ArrayDesign, params: BaselineParams,
                     cfg: AnnealerConfig, trace: list | None = None) -> ArrayDesign:
    """Anneal element positions with frequency shifts held fixed.

    Candidates redraw one spacing uniformly in [min_spacing, adaptive max],
    so every evaluated state is feasible by construction.
    """
    _check_optimizable(scenario, design)
    if design.num_antennas == 1:
        return design
    d0 = _initial_spacings(design, params)
    shifts = design.freq_shifts

    def evaluate(d: np.ndarray) -> float:
        return _raw_cost(scenario, reconstruct_positions(d, params.aperture_half_width),
                         shifts, design.f0)

    def propose(d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        m = int(rng.integers(d.size))
        upper = adaptive_max_spacing(d, m, params.aperture_half_width)
        candidate = d.copy()
        candidate[m] = rng.uniform(params.min_spacing, upper)
        return candidate

    rng = np.random.default_rng(cfg.seed)
    best_d, _ = _anneal_loop(d0, evaluate, propose, cfg, rng, trace)
    positions = reconstruct_positions(best_d, params.aperture_half_width)
    return ArrayDesign(positions, design.f0, shifts)


def anneal_freq_shifts(scenario: Scenario, design: ArrayDesign, params: BaselineParams,
                       cfg: AnnealerConfig, trace: list | None = None) -> ArrayDesign:
    """Anneal frequency shifts with element positions held fixed.

    A starting shift vector outside the allowed box is saturated to the box
    first, so every state visited is feasible.
    """
    _check_optimizable(scenario, design)
    lo, hi = params.freq_shift_bounds
    start = _boxed_shifts(design.freq_shifts, params)
    positions = design.positions

    def evaluate(shifts: np.ndarray) -> float:
        return _raw_cost(scenario, positions, shifts, design.f0)

    def propose(shifts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        m = int(rng.integers(shifts.size))
        candidate = shifts.copy()
        candidate[m] = rng.uniform(lo, hi)
        return candidate

    rng = np.random.default_rng(cfg.seed)
    best_shifts, _ = _anneal_loop(start.copy(), evaluate, propose, cfg, rng, trace)
    return ArrayDesign(positions, design.f0, best_shifts)


def alternate_sa(scenario: Scenario, init: ArrayDesign, params: BaselineParams,
                 sa_cfg: AnnealerConfig, alt_cfg: AlternationConfig,
                 trace: list | None = None,
                 phases: tuple[str, ...] = ("positions", "shifts")) -> ArrayDesign:
    """Alternate position and shift annealing until the improvement stalls.

    Each phase re-anneals from a temperature matched to the current cost and
    draws its seed from a per-phase child of sa_cfg.seed, so a run is fully
    reproducible.  phases restricts the loop to one subproblem when wanted.
    """
    _check_optimizable(scenario, init)
    if not phases or any(p not in ("positions", "shifts") for p in phases):
        raise ValueError("phases must be a non-empty subset of ('positions', 'shifts')")
    design = init
    current = cost(scenario, design)
    best_design, best_cost = design, current
    phase_seeds = np.random.SeedSequence(sa_cfg.seed).generate_state(
        max(1, alt_cfg.max_rounds) * len(phases), dtype=np.uint64)
    step = 0
    for round_idx in range(alt_cfg.max_rounds):
        round_start = current
        for phase in phases:
            phase_cfg = replace(sa_cfg, seed=int(phase_seeds[step]))
            step += 1
            if phase == "positions":
                design = anneal_positions(scenario, design, params, phase_cfg, trace)
            else:
                design = anneal_freq_shifts(scenario, design, params, phase_cfg, trace)
            current = cost(scenario, design)
            if current < best_cost:
                best_design, best_cost = design, current
        improvement = (round_start - current) / max(round_start, 1e-300)
        logger.debug("annealing round %d: cost %.6g (improvement %.3g)",
                     round_idx + 1, current, improvement)
        if improvement < alt_cfg.relative_tolerance:
            break
    return best_design
