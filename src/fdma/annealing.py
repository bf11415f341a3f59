"""Simulated annealing over element spacings and frequency shifts.

Positions are searched through the inter-element spacing vector d with
d_m = x_{m+1} - x_m, which turns the ordering constraint into simple box
bounds: every spacing stays at or above the mutual-coupling minimum, and
the total span never exceeds the aperture.  One coordinate is redrawn per
iteration from a uniform proposal; worse moves are accepted with
probability exp(-dJ / T) under a geometric cooling schedule T_t = alpha^t T0.
The best state ever visited is returned.

One loop drives a move object per phase.  A candidate's cost is always the
floating-point computation cost() does on the candidate design, bit for bit;
the shift phase only caches the parts of it that its fixed positions fix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import ArrayDesign, Scenario, _bob_path, _bob_phasors, _probe_paths, \
    _probe_phasors, eve_gains
from .scenario import BaselineParams

logger = logging.getLogger("fdma.annealing")

_SPAN_SLACK = 1e-9  # relative tolerance on the aperture constraint


class InfeasibleSpacingError(ValueError):
    "Spacing vector cannot be realized inside the aperture."


class InfeasibleInitializationError(InfeasibleSpacingError):
    "Starting design violates the spacing or frequency-shift constraints."


def _check_alternation(max_rounds: int, relative_tolerance: float) -> None:
    "Validate the round limit and stop tolerance of an alternating optimizer."
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    if not relative_tolerance > 0.0:
        raise ValueError("relative_tolerance must be positive")


@dataclass(frozen=True)
class AnnealerConfig:
    """Annealing schedule and the rounds of the alternation around it.

    initial_temperature None means: start each run at the current cost
    magnitude (floored at 1e-12), which keeps early uphill acceptance
    moderate regardless of the cost scale.  alternate_sa alternates the
    subproblems for at most max_rounds rounds and stops early once a round's
    relative cost change |start - end| / start falls below relative_tolerance.
    """

    initial_temperature: float | None = None
    cooling_factor: float = 0.95
    max_iterations: int = 5000
    seed: int = 0
    max_rounds: int = 4
    relative_tolerance: float = 1e-3

    def __post_init__(self):
        if self.initial_temperature is not None and not self.initial_temperature > 0.0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        _check_alternation(self.max_rounds, self.relative_tolerance)


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
    positions = np.empty(d.size + 1)
    positions[0] = -span / 2.0
    d.cumsum(out=positions[1:])
    positions[1:] += -span / 2.0
    return positions


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
    return math.exp(-delta_cost / temperature) >= rng.random()


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


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi) for scalar bounds, at a fraction of its call overhead.

    numpy computes uniform as lo + (hi - lo) * next_double, so this gives the
    same value and leaves the generator in the same state.
    """
    return lo + (hi - lo) * rng.random()


class _PositionMove:
    """Position-phase state: one spacing redrawn per candidate, shifts fixed.

    Every move recentres the array, so each candidate's cost goes through
    eve_gains on the reconstructed positions.
    """

    __slots__ = ("cost", "_scenario", "_shifts", "_f0", "_min_spacing", "_half_width",
                 "_spacings", "_candidate", "_candidate_cost")

    def __init__(self, scenario: Scenario, spacing_vec: np.ndarray, shifts: np.ndarray,
                 f0: float, params: BaselineParams):
        self._scenario, self._shifts, self._f0 = scenario, shifts, f0
        self._min_spacing = params.min_spacing
        self._half_width = params.aperture_half_width
        self._spacings = spacing_vec.copy()
        self.cost = self._evaluate(self._spacings)

    def _evaluate(self, spacing_vec: np.ndarray) -> float:
        positions = reconstruct_positions(spacing_vec, self._half_width)
        return _raw_cost(self._scenario, positions, self._shifts, self._f0)

    def propose(self, rng: np.random.Generator) -> float:
        d = self._spacings
        m = int(rng.integers(d.size))
        upper = adaptive_max_spacing(d, m, self._half_width)
        candidate = d.copy()
        candidate[m] = _uniform(rng, self._min_spacing, upper)
        self._candidate = candidate
        self._candidate_cost = self._evaluate(candidate)
        return self._candidate_cost

    def accept(self) -> None:
        self._spacings, self.cost = self._candidate, self._candidate_cost

    def reject(self) -> None:
        pass

    def state(self) -> np.ndarray:
        return self._spacings.copy()


class _ShiftMove:
    """Shift-phase state: one element's shift redrawn per candidate, positions fixed.

    The adversary path matrix and the receiver path are built once.  The
    phasor matrix and receiver vector of the current state are kept; a
    candidate for element m recomputes column m and entry m through the
    model's kernel pieces, and a rejection restores them.  evaluate() is
    then cost() of the cached design, bit for bit.
    """

    __slots__ = ("cost", "_weights", "_f0", "_c", "_lo", "_hi", "_shifts", "_paths",
                 "_bob_path", "_phasors", "_bob", "_undo", "_candidate_cost")

    def __init__(self, scenario: Scenario, positions: np.ndarray, shifts: np.ndarray,
                 f0: float, bounds: tuple[float, float]):
        self._weights = scenario.eve_weights
        self._f0, self._c = f0, scenario.speed_of_light
        self._lo, self._hi = bounds
        self._shifts = np.array(shifts, dtype=float)
        self._paths = _probe_paths(scenario.eve_ranges, scenario.eve_cosines, positions)
        self._bob_path = _bob_path(scenario.bob, positions)
        f_over_c = (f0 + self._shifts) / self._c
        self._phasors = _probe_phasors(self._paths, f_over_c)
        self._bob = _bob_phasors(self._bob_path, f_over_c)
        self.cost = self.evaluate()

    def evaluate(self) -> float:
        "cost() of the design whose phasors are cached, as _raw_cost computes it."
        gains = np.abs(self._phasors @ self._bob) ** 2
        return float(self._weights @ gains) / self._shifts.size

    def propose(self, rng: np.random.Generator) -> float:
        m = int(rng.integers(self._shifts.size))
        shift = _uniform(rng, self._lo, self._hi)
        f_over_c = (self._f0 + shift) / self._c
        self._undo = (m, shift, self._phasors[:, m].copy(), self._bob[m])
        self._phasors[:, m] = _probe_phasors(self._paths[:, m], f_over_c)
        self._bob[m] = _bob_phasors(self._bob_path[m], f_over_c)
        self._candidate_cost = self.evaluate()
        return self._candidate_cost

    def accept(self) -> None:
        m, shift, _, _ = self._undo
        self._shifts[m], self.cost = shift, self._candidate_cost

    def reject(self) -> None:
        m, _, column, entry = self._undo
        self._phasors[:, m] = column
        self._bob[m] = entry

    def state(self) -> np.ndarray:
        return self._shifts.copy()


def _anneal_loop(move, cfg: AnnealerConfig, rng: np.random.Generator,
                 trace: list | None) -> tuple[np.ndarray, float]:
    """Shared single-coordinate annealing loop; returns the best visited state.

    move holds the current state and its cost; propose() draws a candidate
    and returns its cost, and accept() or reject() settles it.
    """
    best, best_cost = move.state(), move.cost
    t0 = cfg.initial_temperature
    if t0 is None:
        t0 = max(move.cost, 1e-12)
    for t in range(1, cfg.max_iterations + 1):
        temperature = t0 * cfg.cooling_factor ** t
        candidate_cost = move.propose(rng)
        accepted = metropolis_accept(candidate_cost - move.cost, temperature, rng)
        if accepted:
            move.accept()
            if candidate_cost < best_cost:
                best, best_cost = move.state(), candidate_cost
        else:
            move.reject()
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
    move = _PositionMove(scenario, _initial_spacings(design, params), design.freq_shifts,
                         design.f0, params)
    best_d, _ = _anneal_loop(move, cfg, np.random.default_rng(cfg.seed), trace)
    positions = reconstruct_positions(best_d, params.aperture_half_width)
    return ArrayDesign(positions, design.f0, design.freq_shifts)


def anneal_freq_shifts(scenario: Scenario, design: ArrayDesign, params: BaselineParams,
                       cfg: AnnealerConfig, trace: list | None = None) -> ArrayDesign:
    """Anneal frequency shifts with element positions held fixed.

    A starting shift vector outside the allowed box is saturated to the box
    first, so every state visited is feasible.
    """
    _check_optimizable(scenario, design)
    move = _ShiftMove(scenario, design.positions, _boxed_shifts(design.freq_shifts, params),
                      design.f0, params.freq_shift_bounds)
    best_shifts, _ = _anneal_loop(move, cfg, np.random.default_rng(cfg.seed), trace)
    return ArrayDesign(design.positions, design.f0, best_shifts)


def alternate(scenario: Scenario, init: ArrayDesign, phases: tuple[str, ...],
              max_rounds: int, tolerance: float, step) -> ArrayDesign:
    """Alternate block updates of a design until a round's cost change stalls.

    step(round, phase, design) updates one block (round counts from 1) and
    returns the new design and its cost.  A round runs the phases in order;
    the loop stops after max_rounds rounds, or once a round's relative cost
    change |start - end| / start falls below tolerance.  Returns the
    lowest-cost design visited, init itself when no step improves on it.
    """
    _check_optimizable(scenario, init)
    if not phases or any(p not in ("positions", "shifts") for p in phases):
        raise ValueError("phases must be a non-empty subset of ('positions', 'shifts')")
    design = best_design = init
    current = best_cost = cost(scenario, init)
    for round_idx in range(1, max_rounds + 1):
        round_start = current
        for phase in phases:
            design, current = step(round_idx, phase, design)
            if current < best_cost:
                best_design, best_cost = design, current
        change = abs(round_start - current) / max(round_start, 1e-300)
        logger.debug("alternation round %d: cost %.6g (change %.3g)",
                     round_idx, current, change)
        if change < tolerance:
            break
    return best_design


def alternate_sa(scenario: Scenario, init: ArrayDesign, params: BaselineParams,
                 sa_cfg: AnnealerConfig, trace: list | None = None,
                 phases: tuple[str, ...] = ("positions", "shifts")) -> ArrayDesign:
    """Alternate position and shift annealing until the improvement stalls.

    Each phase re-anneals from a temperature matched to the current cost and
    draws its seed from a per-phase child of sa_cfg.seed, so a run is fully
    reproducible.  phases restricts the loop to one subproblem when wanted.
    """
    seeds = iter(np.random.SeedSequence(sa_cfg.seed).generate_state(
        max(1, sa_cfg.max_rounds) * len(phases or ()), dtype=np.uint64))

    def step(_, phase: str, design: ArrayDesign) -> tuple[ArrayDesign, float]:
        anneal = anneal_positions if phase == "positions" else anneal_freq_shifts
        design = anneal(scenario, design, params, replace(sa_cfg, seed=int(next(seeds))),
                        trace)
        return design, cost(scenario, design)

    return alternate(scenario, init, phases, sa_cfg.max_rounds,
                     sa_cfg.relative_tolerance, step)


def _first_iteration_below(cooling_factor: float, ratio: float) -> int:
    "First iteration t >= 1 whose schedule ratio T/T0 = cooling_factor**t is below ratio."
    t = max(1, math.ceil(math.log(ratio) / math.log(cooling_factor)))
    while t > 1 and cooling_factor ** (t - 1) < ratio:
        t -= 1
    while not cooling_factor ** t < ratio:
        t += 1
    return t


def schedule_summary(trace: list, cooling_factor: float) -> dict:
    """Where an annealing run spent its iterations on the cooling schedule.

    Counts the IterationRecords of trace (all phases together) and their
    acceptances per decade of T/T0 = cooling_factor**t, from 10^0 down to
    10^-10, then below.  freeze_iteration is the first t with T/T0 < 1e-10,
    past which the walk is in effect greedy descent.
    """
    edges = [float(f"1e-{j}") for j in range(11)]
    # starts[j] is the first t with T/T0 < 10^-(j+1); decade j holds the t
    # with starts[j-1] <= t < starts[j].
    starts = [_first_iteration_below(cooling_factor, edge) for edge in edges[1:]]
    t = np.fromiter((rec.iteration for rec in trace), dtype=np.int64, count=len(trace))
    accepted = np.fromiter((rec.accepted for rec in trace), dtype=bool, count=len(trace))
    decade = np.searchsorted(starts, t, side="right")
    iterations = np.bincount(decade, minlength=len(edges))
    acceptances = np.bincount(decade[accepted], minlength=len(edges))
    labels = [f"{low:g} to {high:g}" for low, high in zip(edges[1:], edges)]
    labels.append(f"below {edges[-1]:g}")
    return {
        "freeze_iteration": starts[-1],
        "decades": [{"t_over_t0": label, "iterations": int(n), "accepted": int(a)}
                    for label, n, a in zip(labels, iterations, acceptances)],
    }
