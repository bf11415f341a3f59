"""Simulated annealing over element spacings and frequency shifts.

Positions are searched through the inter-element spacing vector d with
d_m = x_{m+1} - x_m, which turns the ordering constraint into simple box
bounds: every spacing stays at or above the mutual-coupling minimum, and
the total span never exceeds the aperture.  One coordinate is redrawn per
iteration from a uniform proposal; worse moves are accepted with
probability exp(-dJ / T) under a geometric cooling schedule T_t = alpha^t T0.
The best state ever visited is returned.

One loop drives both phases.  It decodes a window of candidates from the
generator's raw words, costs them in one batched gain-kernel call and
scans them in order; each candidate's cost is the floating-point
computation cost() does on its design, bit for bit.  Only the words of the
candidates up to the window's first acceptance count as used, so every
chain, trace and generator state is the one a loop that draws and costs one
candidate at a time would produce.  A move object costs the window: the
shift move keeps the current state's phasors and rebuilds one probe column
and one receiver entry per candidate, the one element whose frequency it
changes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import ArrayDesign, Scenario, _bob_phasors, _bob_rates, _probe_phasors, eve_gains
from .scenario import BaselineParams, fits_aperture, meets_min_spacing

logger = logging.getLogger("fdma.annealing")

_MAX_WINDOW = 32  # most candidates drawn from one state and costed in one kernel call
_CHUNK_WORDS = 4096  # raw generator words drawn at a time
_UNIT = 2.0 ** -53  # random() is (word >> 11) * 2**-53
_LOW_HALF = 0xFFFFFFFF


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
    return float(_raw_cost(scenario, design.positions, design.freq_shifts, design.f0))


def _raw_cost(scenario: Scenario, positions: np.ndarray, shifts: np.ndarray,
              f0: float) -> np.ndarray:
    """cost() on raw design arrays, or on stacks of them (leading axes broadcast).

    The weighted sum is one stacked dot product per row, so each row costs
    exactly what its own unbatched evaluation does.
    """
    gains = eve_gains(scenario, positions, shifts, f0)
    return _weighted_sum(gains, scenario.eve_weights[:, None], positions.shape[-1])


def _weighted_sum(gains: np.ndarray, weights: np.ndarray, num_antennas: int) -> np.ndarray:
    "Each row's cost from its gains and the weights as a column: one stacked dot per row."
    return np.matmul(gains[..., None, :], weights)[..., 0, 0] / num_antennas


def _row_costs(probes: np.ndarray, receiver: np.ndarray, weights: np.ndarray) -> np.ndarray:
    "_raw_cost of stacked probe matrices and receiver vectors, through _eta's product."
    gains = np.abs(np.matmul(probes, receiver[..., None])[..., 0]) ** 2
    return _weighted_sum(gains, weights, receiver.shape[-1])


def spacings(positions: np.ndarray) -> np.ndarray:
    "Inter-element spacing vector (length M-1)."
    return np.diff(np.asarray(positions, dtype=float))


def reconstruct_positions(spacing_vec: np.ndarray, aperture_half_width: float) -> np.ndarray:
    """Positions from spacings, with the occupied span centered at the origin.

    spacing_vec may be a (..., M-1) stack of spacing vectors.  Raises
    InfeasibleSpacingError when any total span exceeds the aperture.
    """
    d = np.asarray(spacing_vec, dtype=float)
    span = d.sum(axis=-1)
    if not np.all(fits_aperture(span, aperture_half_width)):
        raise InfeasibleSpacingError(f"total span {np.max(span):.6g} exceeds aperture "
                                     f"2D = {2.0 * aperture_half_width:.6g}")
    start = (-span / 2.0)[..., None]
    positions = np.empty(d.shape[:-1] + (d.shape[-1] + 1,))
    positions[..., :1] = start
    d.cumsum(axis=-1, out=positions[..., 1:])
    positions[..., 1:] += start
    return positions


def adaptive_max_spacing(spacing_vec: np.ndarray, index,
                         aperture_half_width: float):
    """Largest value spacing `index` may take while the span still fits the aperture.

    index may also be a slice or an index array, for several spacings at once.
    """
    d = np.asarray(spacing_vec, dtype=float)
    return 2.0 * aperture_half_width - (float(d.sum()) - d[index])


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


def _initial_spacings(design: ArrayDesign, params: BaselineParams) -> np.ndarray:
    d = spacings(design.positions)
    if not np.all(meets_min_spacing(d, params.min_spacing)):
        raise InfeasibleInitializationError("initial spacing below the minimum")
    if not fits_aperture(float(d.sum()), params.aperture_half_width):
        raise InfeasibleInitializationError("initial span exceeds the aperture")
    return d


# The annealer's draws, decoded from the generator's raw PCG64 words.  A
# candidate's draws are rng.integers(n) for its index, rng.random() for its
# value and, when T > 0 and it is not accepted downhill, rng.random() for its
# Metropolis test.  numpy computes random() as (word >> 11) * 2**-53 from one
# word.  integers(n) takes 32 bits: the half-word PCG64 buffered from its
# last fresh word if there is one (has_uint32), else the low half of a fresh
# word, whose high half it buffers (uinteger; using the buffer clears
# has_uint32 and leaves uinteger as it was).  It maps them to (x * n) >> 32
# and rejects x, taking 32 more bits, when the low 32 bits of x * n fall
# below (2**32 - n) % n (Lemire 2019); n == 1 takes no bits.
class _RawDraws:
    """Draws of annealing candidates from raw words, with the generator's buffer tracked.

    Words come from the generator in chunks through random_raw.  The decoder
    counts the words its candidates use, and sync() sets the generator to
    its state at the start plus those words, with the tracked half-word
    buffer: where the serial calls would have left it.
    """

    __slots__ = ("rng", "n", "threshold", "base", "has_uint32", "uinteger", "used",
                 "words", "pos", "hot", "records")

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng, self.n, self.threshold = rng, n, (2**32 - n) % n
        self.base = state = rng.bit_generator.state
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]
        self.used = self.pos = 0
        self.words = []  # words[pos:] are drawn and unused

    def _raw(self, count: int) -> list:
        "At least count fresh words, as Python integers."
        return self.rng.bit_generator.random_raw(max(_CHUNK_WORDS, count)).tolist()

    def window(self, hot: list) -> tuple[np.ndarray, np.ndarray, list]:
        """Indices, value fractions and Metropolis uniforms of len(hot) candidates.

        Candidate j is drawn as numpy's serial calls draw it after every
        candidate before it was rejected, taking its Metropolis draw where
        hot[j] (T > 0); a candidate that is not hot gets an unused uniform.
        """
        w, n, threshold = len(hot), self.n, self.threshold
        # A candidate reads at most three words (index, value, uniform)
        # unless its index is rejected.
        if len(self.words) - self.pos < 3 * w:
            self.words = self.words[self.pos:] + self._raw(3 * w)
            self.pos = 0
        words, p = self.words, self.pos
        has_uint32, uinteger = self.has_uint32, self.uinteger
        indices, fractions, uniforms, self.records = [0] * w, [], [], []
        for j, is_hot in enumerate(hot):
            if n > 1:
                while True:
                    # pcg64_next32
                    if has_uint32:
                        x, has_uint32 = uinteger, 0
                    else:
                        word = words[p]
                        p += 1
                        x, has_uint32, uinteger = word & _LOW_HALF, 1, word >> 32
                    # buffered_bounded_lemire_uint32
                    scaled = x * n
                    if scaled & _LOW_HALF >= threshold:
                        break
                    # Room for the retry's word and every later read of the window.
                    if len(words) - p < 3 * (w - j):
                        words.extend(self._raw(3 * (w - j)))
                indices[j] = scaled >> 32
            fractions.append((words[p] >> 11) * _UNIT)
            p += 1
            # Where the serial calls stand once candidate j has its value.
            self.records.append((p, has_uint32, uinteger))
            uniforms.append((words[p] >> 11) * _UNIT)
            p += is_hot
        self.hot = hot
        return np.array(indices), np.array(fractions), uniforms

    def use(self, j: int, metropolis: bool) -> None:
        """Count the words of candidates 0..j of the last window as used.

        Every candidate before j took its Metropolis draw where hot; j took it
        where hot and metropolis (it was not accepted downhill).
        """
        pos, self.has_uint32, self.uinteger = self.records[j]
        pos += self.hot[j] and metropolis
        self.used += pos - self.pos
        self.pos = pos

    def sync(self) -> None:
        "Set the generator to the state the used draws leave it in."
        bit_generator = self.rng.bit_generator
        bit_generator.state = self.base
        bit_generator.advance(self.used)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = self.has_uint32, self.uinteger
        bit_generator.state = state


class _PositionMove:
    """Spacings redrawn under the adaptive span limit; every candidate recentres the array.

    A move holds the block being annealed (state) and the smallest value of
    a coordinate (lo).  upper(state) gives the largest value each coordinate
    may take with the others held.  costs(stack, indices) costs a stack of
    blocks, row j differing from the current state in coordinate indices[j]
    at most, each row with the bits cost() gives its design; accept(row)
    makes that row of the last stack the current state.  Recentring moves
    every element, so this move keeps only the held shifts' phase constants
    and ignores indices and accept.
    """

    def __init__(self, scenario: Scenario, design: ArrayDesign, params: BaselineParams):
        self.state, self.lo = _initial_spacings(design, params), params.min_spacing
        self.half_width, self.bob = params.aperture_half_width, scenario.bob
        self.ranges, self.cosines = scenario.eve_ranges[:, None], scenario.eve_cosines[:, None]
        self.f_over_c = (design.f0 + design.freq_shifts) / scenario.speed_of_light
        self.rates, self.cos_bob = _bob_rates(self.f_over_c), math.cos(self.bob.angle_rad)
        self.weights = scenario.eve_weights[:, None]

    def upper(self, d: np.ndarray) -> np.ndarray:
        return adaptive_max_spacing(d, slice(None), self.half_width)

    def costs(self, stack: np.ndarray, indices) -> np.ndarray:
        positions = reconstruct_positions(stack, self.half_width)
        paths = self.ranges - self.cosines * positions[..., None, :]
        return _row_costs(_probe_phasors(paths, self.f_over_c),
                          _bob_phasors(self.rates, self.bob.range_m - positions * self.cos_bob),
                          self.weights)

    def accept(self, row: int) -> None:
        pass


class _ShiftMove:
    """Shifts redrawn inside the box, positions held; a move as _PositionMove describes it.

    A candidate changes one element's frequency, so one column of the probe
    matrix and one receiver entry.  The move keeps the current state's probe
    matrix and receiver vector, rebuilds only that column and entry in each
    row of a stack, and on accept(row) takes over the row's.
    """

    def __init__(self, scenario: Scenario, design: ArrayDesign, params: BaselineParams):
        self.lo, hi = params.freq_shift_bounds
        # A linear ramp outgrows the shift box for wide arrays; the box is the
        # optimizer's constraint, so saturate the starting point instead of
        # rejecting it.
        self.state, clipped = params.clip_shifts(design.freq_shifts)
        if clipped:
            logger.debug("clipping %d starting shifts into the allowed box", clipped)
        self.hi, self.f0, self.c = np.full(self.state.size, hi), design.f0, scenario.speed_of_light
        positions, bob = design.positions, scenario.bob
        self.paths = scenario.eve_ranges[:, None] - scenario.eve_cosines[:, None] * positions
        self.bob_paths = bob.range_m - positions * math.cos(bob.angle_rad)
        self.weights = scenario.eve_weights[:, None]
        f_over_c = (self.f0 + self.state) / self.c
        self.probes = _probe_phasors(self.paths, f_over_c)[None]
        self.receiver = _bob_phasors(_bob_rates(f_over_c), self.bob_paths)[None]

    def upper(self, shifts: np.ndarray) -> np.ndarray:
        return self.hi

    def costs(self, stack: np.ndarray, indices) -> np.ndarray:
        w = len(stack)
        rows = np.arange(w)
        f_over_c = (self.f0 + stack[rows, indices]) / self.c
        probes = self.probes.repeat(w, axis=0)
        probes[rows, :, indices] = _probe_phasors(self.paths[:, indices], f_over_c).T
        receiver = self.receiver.repeat(w, axis=0)
        receiver[rows, indices] = _bob_phasors(_bob_rates(f_over_c), self.bob_paths[indices])
        self.last = probes, receiver
        return _row_costs(probes, receiver, self.weights)

    def accept(self, row: int) -> None:
        probes, receiver = self.last
        self.probes, self.receiver = probes[row:row + 1], receiver[row:row + 1]


# Each phase's move constructor by its function-style name.
_position_move, _shift_move = _PositionMove, _ShiftMove


def _anneal_loop(move, cfg: AnnealerConfig, rng: np.random.Generator,
                 trace: list | None) -> tuple[np.ndarray, float]:
    """Single-coordinate annealing of a move's block; returns the best visited state.

    Works in windows: from the current state it decodes a window of
    candidates from the generator's raw words, each with the draws a
    one-at-a-time loop makes while it rejects (index, value, then the
    Metropolis draw when T > 0), costs them in one call, and scans them in
    order.  Only an acceptance can break that draw pattern, since a downhill
    move takes no Metropolis draw, and it ends the window: the words of the
    candidates up to the accepted one count as used and the rest of the
    window is dropped.  A window holds one candidate after an acceptance and
    doubles, up to _MAX_WINDOW, after each window without one, so a chain
    that accepts often drops little costed work.
    """
    state, lo = move.state, move.lo
    # Row 0 is the state itself, so the index it names rebuilds nothing new.
    current = float(move.costs(state[None], [0])[0])
    upper = move.upper(state)
    best, best_cost = state, current
    t0 = cfg.initial_temperature
    if t0 is None:
        t0 = max(current, 1e-12)
    # Iteration t's temperature and hot flag (T > 0) sit at t - 1.
    temperatures = [t0 * cfg.cooling_factor ** t for t in range(1, cfg.max_iterations + 1)]
    hot = [temperature > 0.0 for temperature in temperatures]
    draws = _RawDraws(rng, state.size)
    t = width = 1
    while t <= cfg.max_iterations:
        window = temperatures[t - 1:t - 1 + width]
        w = len(window)
        indices, fractions, uniforms = draws.window(hot[t - 1:t - 1 + w])
        stack = state[None].repeat(w, axis=0)
        stack[np.arange(w), indices] = lo + (upper[indices] - lo) * fractions
        costs = move.costs(stack, indices).tolist()
        accepted = False
        for j in range(w):
            delta = costs[j] - current
            temperature = window[j]
            # metropolis_accept on the pre-drawn uniform.
            if delta < 0.0 or (temperature > 0.0
                               and math.exp(-delta / temperature) >= uniforms[j]):
                accepted = True
                break
        draws.use(j, not delta < 0.0)
        if trace is not None:
            # The rejected rows, built as IterationRecord._make does but
            # without a Python frame per row.
            trace.extend(map(tuple.__new__, repeat(IterationRecord),
                             zip(range(t, t + j), window, costs, repeat(False),
                                 repeat(best_cost))))
        if accepted:
            state, current = stack[j].copy(), costs[j]
            move.accept(j)
            upper = move.upper(state)
            if current < best_cost:
                best, best_cost = state, current
        if trace is not None:
            trace.append(IterationRecord(t + j, window[j], costs[j], accepted, best_cost))
        t += j + 1
        width = 1 if accepted else min(2 * width, _MAX_WINDOW)
    draws.sync()
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
    best_d, _ = _anneal_loop(_PositionMove(scenario, design, params), cfg,
                             np.random.default_rng(cfg.seed), trace)
    positions = reconstruct_positions(best_d, params.aperture_half_width)
    return ArrayDesign(positions, design.f0, design.freq_shifts)


def anneal_freq_shifts(scenario: Scenario, design: ArrayDesign, params: BaselineParams,
                       cfg: AnnealerConfig, trace: list | None = None) -> ArrayDesign:
    """Anneal frequency shifts with element positions held fixed.

    A starting shift vector outside the allowed box is saturated to the box
    first, so every state visited is feasible.
    """
    _check_optimizable(scenario, design)
    best_shifts, _ = _anneal_loop(_ShiftMove(scenario, design, params), cfg,
                                  np.random.default_rng(cfg.seed), trace)
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
