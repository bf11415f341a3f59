"""Closed-form nulling via small perturbations of the uniform baseline.

Writing element m's position as (m - (M+1)/2) dD + dx_m and its frequency
shift as (m - (M+1)/2) dF + df_m, a first-order expansion of the
beampattern at each adversary yields one linear equation per adversary.
Stacked over K adversaries this gives A dx = b (positions, with shifts at
their current values) and A df = b (shifts, with positions at their current
values); both are solved in ridge-regularized weighted least-squares form

    delta = (A^T Q A + ridge I)^{-1} A^T Q b,

where Q weights each adversary by its linear SNR prefactor.  Alternating
the two solves couples the blocks; each solve replaces the previous
perturbation of its own block outright.

An adversary sharing the intended receiver's direction contributes an
all-zero row to the position system (angle factor vanishes), and one
sharing its range contributes an all-zero row to the frequency system, so
each block can only null the adversaries its geometry reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ArrayDesign, Scenario
from .scenario import BaselineParams, centered_indices, fits_aperture, meets_min_spacing
from .annealing import _check_alternation, alternate, cost, reconstruct_positions


class SingularSystemError(ValueError):
    "Unregularized normal matrix is rank-deficient."


@dataclass(frozen=True)
class PerturbConfig:
    """Ridge weights and alternation control.

    ridge None selects 1e-3 * trace(A^T Q A) / M per solve, which keeps the
    perturbations small enough for the first-order model to stay honest.
    Rounds stop as AnnealerConfig's do: after max_rounds, or once a
    round's relative cost change |start - end| / start is below relative_tolerance.
    """

    ridge_position: float | None = None
    ridge_frequency: float | None = None
    max_rounds: int = 20
    relative_tolerance: float = 1e-6

    def __post_init__(self):
        for ridge in (self.ridge_position, self.ridge_frequency):
            if ridge is not None and ridge < 0.0:
                raise ValueError("ridge weights must be non-negative")
        _check_alternation(self.max_rounds, self.relative_tolerance)


@dataclass(frozen=True)
class NullingSystem:
    """One linearized nulling block: K x M coefficients, K targets, K weights.

    q_diag holds the diagonal of the SNR weighting matrix,
    q_k = P L_k / (M sigma_k^2).
    """

    a: np.ndarray
    b: np.ndarray
    q_diag: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float)
        q = np.asarray(self.q_diag, dtype=float)
        if a.shape[0] != b.size or a.shape[0] != q.size:
            raise ValueError("system dimensions are inconsistent")
        if np.any(q <= 0.0):
            raise ValueError("SNR weights must be strictly positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q_diag", q)


class RoundRecord(NamedTuple):
    "One alternation step (a trace.csv row): block solved and the cost it reached."

    round: int
    subproblem: str
    cost: float
    clip_count: int


def _block(scenario: Scenario, params: BaselineParams, phase: str, held: np.ndarray,
           f0: float) -> tuple[np.ndarray, np.ndarray]:
    """Linearized phases (2 pi / c) (f0 dcos x^T + dR f^T) of one block, and their slopes.

    One row per adversary, with dcos and dR its direction-cosine and range
    offsets from the receiver.  The block `phase` solves for sits on its
    uniform profile and the other block is `held`.  The slopes are the
    phases' derivatives in the solved block: (2 pi / c) f0 dcos or (2 pi / c) dR.
    """
    c = scenario.speed_of_light
    d_cos = scenario.eve_cosines - math.cos(scenario.bob.angle_rad)
    d_range = scenario.bob.range_m - scenario.eve_ranges
    idx = centered_indices(len(held))
    if phase == "positions":
        terms = ((f0 * params.uniform_spacing) * np.outer(d_cos, idx)
                 + 1.0 * np.outer(d_range, held))
        slopes = (2.0 * np.pi * f0 / c) * d_cos
    else:
        terms = f0 * np.outer(d_cos, held) + params.uniform_freq_step * np.outer(d_range, idx)
        slopes = (2.0 * np.pi / c) * d_range
    return (2.0 * np.pi / c) * terms, slopes


def _nulling_system(scenario: Scenario, phases: np.ndarray,
                    slopes: np.ndarray) -> NullingSystem:
    "Rows slope_k sin(phase_km), targets sum_m cos(phase_km), weights w_k / M."
    return NullingSystem(
        a=slopes[:, None] * np.sin(phases),
        b=np.cos(phases).sum(axis=1),
        q_diag=scenario.eve_weights / phases.shape[1],
    )


def build_position_system(scenario: Scenario, params: BaselineParams,
                          freq_shifts: np.ndarray, f0: float) -> NullingSystem:
    "Linear system whose solution perturbs element positions toward nulls."
    return _nulling_system(scenario, *_block(scenario, params, "positions", freq_shifts, f0))


def build_frequency_system(scenario: Scenario, params: BaselineParams,
                           positions: np.ndarray, f0: float) -> NullingSystem:
    "Linear system whose solution perturbs frequency shifts toward nulls."
    return _nulling_system(scenario, *_block(scenario, params, "shifts", positions, f0))


def default_ridge(system: NullingSystem) -> float:
    "Ridge weight 1e-3 * trace(A^T Q A) / M, floored to stay positive."
    num_cols = system.a.shape[1]
    trace = float(np.einsum("km,k,km->", system.a, system.q_diag, system.a))
    return 1e-3 * trace / num_cols if trace > 0.0 else 1.0


def solve_ridge(system: NullingSystem, ridge: float) -> np.ndarray:
    """Ridge-regularized weighted least-squares solution of the nulling system.

    Solves (A^T Q A + ridge I) delta = A^T Q b through a symmetric
    positive-definite factorization.  With ridge zero the normal matrix has
    rank at most K < M and the solve fails with SingularSystemError.
    """
    # Imported here, not at module level: only closed-form runs pay for scipy.linalg.
    from scipy.linalg import cho_factor, cho_solve

    if ridge < 0.0:
        raise ValueError("ridge must be non-negative")
    a, q = system.a, system.q_diag
    normal = (a.T * q) @ a + ridge * np.eye(a.shape[1])
    rhs = a.T @ (q * system.b)
    try:
        return cho_solve(cho_factor(normal), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("normal matrix is singular; use a positive ridge") from exc


def apply_position_perturbation(design: ArrayDesign, delta_x: np.ndarray,
                                params: BaselineParams) -> tuple[ArrayDesign, int]:
    """Add a position perturbation to the given baseline design.

    Constraint violations are clipped rather than rejected, and the number
    of adjustments is returned so that non-minor perturbations stay
    visible.  Spacings that fail `meets_min_spacing` are pushed back up to
    the minimum; if the span then fails `fits_aperture`, the spacing
    excesses are shrunk affinely and the array is recentred as the annealer
    recentres it; a span that merely sits off-centre past an aperture edge
    is translated back inside.
    """
    raw = design.positions + np.asarray(delta_x, dtype=float)
    adjusted = raw.copy()
    clipped = 0
    for m in range(1, raw.size):
        if not meets_min_spacing(raw[m] - adjusted[m - 1], params.min_spacing):
            adjusted[m] = adjusted[m - 1] + params.min_spacing
            clipped += 1
    half_width = params.aperture_half_width
    if not fits_aperture(adjusted[-1] - adjusted[0], half_width):
        excess = np.maximum(np.diff(adjusted) - params.min_spacing, 0.0)
        slack = 2.0 * half_width - (excess.size * params.min_spacing)
        scale = slack / excess.sum() if excess.sum() > 0 else 0.0
        clipped += int(np.count_nonzero(excess > 0))
        adjusted = reconstruct_positions(params.min_spacing + scale * excess, half_width)
    elif adjusted[-1] > half_width:
        adjusted -= adjusted[-1] - half_width
        clipped += 1
    elif adjusted[0] < -half_width:
        adjusted += -half_width - adjusted[0]
        clipped += 1
    return ArrayDesign(adjusted, design.f0, design.freq_shifts), clipped


def apply_frequency_perturbation(design: ArrayDesign, delta_f: np.ndarray,
                                 params: BaselineParams) -> tuple[ArrayDesign, int]:
    "Add a frequency perturbation to the given design, clipped to the shift box."
    shifts, clipped = params.clip_shifts(design.freq_shifts + np.asarray(delta_f, dtype=float))
    return ArrayDesign(design.positions, design.f0, shifts), clipped


def first_order_beampattern(scenario: Scenario, params: BaselineParams,
                            freq_shifts: np.ndarray, delta_x: np.ndarray,
                            k: int, f0: float) -> complex:
    """First-order beampattern at adversary k for a small position perturbation.

    The exact pattern is approximated by Taylor-expanding the perturbation
    phase to first order around the uniform grid; the small cross phase
    between frequency shifts and position offsets is dropped.  The overall
    range phase is restored so the value is directly comparable with the
    exact beampattern.
    """
    delta_x = np.asarray(delta_x, dtype=float)
    phases, slopes = _block(scenario, params, "positions", freq_shifts, f0)
    terms = np.exp(-1j * phases[k])
    approx = terms.sum() - 1j * slopes[k] * (delta_x @ terms)
    d_range = scenario.bob.range_m - scenario.eve_ranges[k]
    carrier = math.tau * f0 * d_range / scenario.speed_of_light
    return complex(np.exp(-1j * carrier) * approx)


def alternate_perturb(scenario: Scenario, baseline: ArrayDesign,
                      params: BaselineParams, cfg: PerturbConfig,
                      trace: list | None = None,
                      phases: tuple[str, ...] = ("positions", "shifts")) -> ArrayDesign:
    """Alternate closed-form position and shift perturbations of a baseline.

    Each round rebuilds one block's system from the other block's current
    state, solves it, and re-applies the resulting perturbation to the
    baseline profile.  Stops when the relative cost change over a full
    round drops below the tolerance; returns the best design visited
    (never worse than the baseline).
    """
    f0 = baseline.f0

    def step(round_idx: int, phase: str, design: ArrayDesign) -> tuple[ArrayDesign, float]:
        # The solved block perturbs its baseline profile; the other block
        # keeps its current state.
        if phase == "positions":
            system = build_position_system(scenario, params, design.freq_shifts, f0)
            ridge, apply = cfg.ridge_position, apply_position_perturbation
            start = ArrayDesign(baseline.positions, f0, design.freq_shifts)
        else:
            system = build_frequency_system(scenario, params, design.positions, f0)
            ridge, apply = cfg.ridge_frequency, apply_frequency_perturbation
            start = ArrayDesign(design.positions, f0, baseline.freq_shifts)
        delta = solve_ridge(system, default_ridge(system) if ridge is None else ridge)
        design, clipped = apply(start, delta, params)
        current = cost(scenario, design)
        if trace is not None:
            trace.append(RoundRecord(round_idx, phase, current, clipped))
        return design, current

    # With no adversary there is nothing to null: validate, then return the baseline.
    rounds = cfg.max_rounds if scenario.num_eves else 0
    return alternate(scenario, baseline, phases, rounds, cfg.relative_tolerance, step)
