"""Scenario construction: link budgets, baseline arrays, adversary placement.

Canonical adversaries for an M-element array with baseline spacing dD and
baseline frequency step dF:

  E1 -- same direction as the intended receiver, displaced in range to the
        strongest range sidelobe of the linear frequency ramp,
        R = R_B + 3c / (2 M dF).
  E2 -- same range, displaced in angle to the strongest angular sidelobe of
        the uniformly spaced array, theta = arccos(cos(theta_B - 3 lam / (2 M dD))).
  E3 -- E2's angle combined with E1's range, which for the default negative
        frequency step lands inside the main beam of the linear ramp.

The target region is the range/angle neighborhood of the intended receiver
bounded by the first beampattern nulls; random adversaries are rejection
sampled outside it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .model import Placement, ArrayDesign, wavelength

_MAX_REJECTIONS = 100_000

SPAN_SLACK = 1e-9
"Relative tolerance of the box rules, so that rounding alone never rejects a design."


class SamplingExhaustedError(RuntimeError):
    "Rejection sampling failed to find a point outside the target region."


@dataclass(frozen=True)
class LinkBudgetConfig:
    """dB-domain link budget, converted to linear exactly once on use.

    Path loss in dB at range R is ref_path_loss_db
    + path_loss_exponent_coeff * log10(R).
    """

    tx_power_dbm: float = 5.0
    noise_power_dbm: float = -80.0
    ref_path_loss_db: float = 30.0
    path_loss_exponent_coeff: float = 25.0

    def __post_init__(self):
        if not (math.isfinite(self.tx_power_dbm) and math.isfinite(self.noise_power_dbm)):
            raise ValueError("powers must be finite")
        if self.ref_path_loss_db < 0.0:
            raise ValueError("ref_path_loss_db must be non-negative")


@dataclass(frozen=True)
class BaselineParams:
    """Uniform-grid baseline and optimizer box constraints (meters / Hz)."""

    uniform_spacing: float
    uniform_freq_step: float
    aperture_half_width: float
    min_spacing: float
    freq_shift_bounds: tuple[float, float]

    def __post_init__(self):
        if not self.min_spacing > 0.0:
            raise ValueError("min_spacing must be positive")
        if not meets_min_spacing(self.uniform_spacing, self.min_spacing):
            raise ValueError("uniform_spacing must be at least min_spacing")
        lo, hi = self.freq_shift_bounds
        if lo > hi:
            raise ValueError("freq_shift_bounds must be ordered")

    def clip_shifts(self, shifts: np.ndarray) -> tuple[np.ndarray, int]:
        "Frequency shifts saturated to the shift box, and how many lay outside it."
        lo, hi = self.freq_shift_bounds
        return np.clip(shifts, lo, hi), int(np.count_nonzero((shifts < lo) | (shifts > hi)))


def fits_aperture(span, half_width: float):
    "Whether a total span (or each of an array of them) fits the aperture 2 x half_width."
    return span <= 2.0 * half_width * (1.0 + SPAN_SLACK)


def meets_min_spacing(spacing, min_spacing: float):
    "Whether a spacing (or each of an array of them) is at least min_spacing."
    return spacing >= min_spacing * (1.0 - SPAN_SLACK)


@dataclass(frozen=True)
class GridSpec:
    "Cartesian raster domain; samples at x_min + i*resolution inclusive."

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid bounds must be ordered")
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")

    def x_points(self) -> np.ndarray:
        n = int(math.floor((self.x_max - self.x_min) / self.resolution + 1e-9)) + 1
        return self.x_min + self.resolution * np.arange(n)

    def y_points(self) -> np.ndarray:
        n = int(math.floor((self.y_max - self.y_min) / self.resolution + 1e-9)) + 1
        return self.y_min + self.resolution * np.arange(n)


@dataclass(frozen=True)
class PolarDomain:
    "Polar sampling box for random adversaries."

    r_min: float
    r_max: float
    theta_min: float
    theta_max: float

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError("ranges must satisfy 0 < r_min < r_max")
        if not 0.0 < self.theta_min < self.theta_max < math.pi:
            raise ValueError("angles must satisfy 0 < theta_min < theta_max < pi")


DEFAULT_EVE_DOMAIN = PolarDomain(20.0, 200.0, math.radians(10.0), math.radians(170.0))


def dbm_to_milliwatts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def path_loss_linear(range_m: float, cfg: LinkBudgetConfig) -> float:
    "Linear power gain at the given range; strictly decreasing in range."
    if not range_m > 0.0:
        raise ValueError("range must be positive")
    loss_db = cfg.ref_path_loss_db + cfg.path_loss_exponent_coeff * math.log10(range_m)
    return 10.0 ** (-loss_db / 10.0)


def make_placement(range_m: float, angle_rad: float, cfg: LinkBudgetConfig) -> Placement:
    "Placement with path loss and noise power filled in from the link budget."
    return Placement(
        range_m=range_m,
        angle_rad=angle_rad,
        path_loss_linear=path_loss_linear(range_m, cfg),
        noise_power_linear=dbm_to_milliwatts(cfg.noise_power_dbm),
    )


def default_baseline_params(num_antennas: int, f0: float, c: float) -> BaselineParams:
    """Baseline grid in terms of the carrier wavelength.

    Spacing 1.5x the half-wavelength minimum, frequency step -1 MHz,
    aperture half-width of num_antennas wavelengths, shift box +/-10 MHz.
    """
    lam = wavelength(f0, c)
    return BaselineParams(
        uniform_spacing=0.75 * lam,
        uniform_freq_step=-1e6,
        aperture_half_width=num_antennas * lam,
        min_spacing=0.5 * lam,
        freq_shift_bounds=(-10e6, 10e6),
    )


def centered_indices(num_antennas: int) -> np.ndarray:
    "Element indices recentred on the array middle: m - (M+1)/2 for m = 1..M."
    return np.arange(1, num_antennas + 1) - (num_antennas + 1) / 2.0


def _uniform_grid(num_antennas: int, params: BaselineParams) -> np.ndarray:
    "Centred element indices of the uniform baseline grid, which must fit the aperture."
    if num_antennas < 1:
        raise ValueError("need at least one antenna")
    span = (num_antennas - 1) * params.uniform_spacing
    if not fits_aperture(span, params.aperture_half_width):
        raise ValueError(f"baseline grid of M = {num_antennas} elements spans {span:.6g} m, "
                         f"wider than the aperture 2 x {params.aperture_half_width:.6g} m")
    return centered_indices(num_antennas)


def make_cpa(num_antennas: int, params: BaselineParams, f0: float) -> ArrayDesign:
    "Uniformly spaced array at a single carrier (all frequency shifts zero)."
    positions = _uniform_grid(num_antennas, params) * params.uniform_spacing
    return ArrayDesign(positions, f0, np.zeros(num_antennas))


def make_linear_fda(num_antennas: int, params: BaselineParams, f0: float) -> ArrayDesign:
    "Uniformly spaced array with a linear frequency ramp across elements."
    idx = _uniform_grid(num_antennas, params)
    return ArrayDesign(idx * params.uniform_spacing, f0, idx * params.uniform_freq_step)


def place_canonical_eves(num_antennas: int, bob: Placement, params: BaselineParams,
                         cfg: LinkBudgetConfig, f0: float, c: float) -> list[Placement]:
    "The three canonical adversaries (see module docstring)."
    if num_antennas < 2:
        raise ValueError("canonical adversaries need at least two antennas")
    d_f = params.uniform_freq_step
    d_d = params.uniform_spacing
    if d_f == 0.0 or d_d == 0.0:
        raise ValueError("canonical adversaries require nonzero spacing and frequency step")
    lam = wavelength(f0, c)
    r_e1 = bob.range_m + 3.0 * c / (2.0 * num_antennas * d_f)
    if r_e1 <= 0.0:
        raise ValueError("range sidelobe offset places E1 behind the array")
    offset = 3.0 * lam / (2.0 * num_antennas * d_d)
    theta_e2 = math.acos(math.cos(bob.angle_rad - offset))
    e1 = make_placement(r_e1, bob.angle_rad, cfg)
    e2 = make_placement(bob.range_m, theta_e2, cfg)
    e3 = make_placement(r_e1, theta_e2, cfg)
    return [e1, e2, e3]


def in_target_region(place: Placement, bob: Placement, num_antennas: int,
                     params: BaselineParams, f0: float, c: float) -> bool:
    """Whether a point lies in the first-null neighborhood of the receiver.

    Range band: |R - R_B| <= c / (M |dF|).  Angle band:
    |cos(theta) - cos(theta_B)| <= lam / (M dD).  The region is closed, so
    boundary points are inside.
    """
    d_f = params.uniform_freq_step
    d_d = params.uniform_spacing
    if d_f == 0.0 or d_d == 0.0:
        raise ValueError("target region requires nonzero spacing and frequency step")
    lam = wavelength(f0, c)
    range_halfwidth = c / (num_antennas * abs(d_f))
    if abs(place.range_m - bob.range_m) > range_halfwidth:
        return False
    cos_halfwidth = lam / (num_antennas * d_d)
    return abs(math.cos(place.angle_rad) - math.cos(bob.angle_rad)) <= cos_halfwidth


def derive_seed(master_seed: int, label: str) -> int:
    "Stable 64-bit sub-stream seed for a named experiment or trial."
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return (int(master_seed) ^ int.from_bytes(digest[:8], "little")) & 0xFFFFFFFFFFFFFFFF


def sample_eves_outside_target(num_eves: int, bob: Placement, num_antennas: int,
                               params: BaselineParams, cfg: LinkBudgetConfig,
                               f0: float, c: float,
                               domain: PolarDomain = DEFAULT_EVE_DOMAIN,
                               rng_seed: int = 0) -> list[Placement]:
    """Adversaries drawn uniformly over the polar domain, outside the target region.

    Deterministic for a fixed seed (PCG64).  Raises SamplingExhaustedError
    if any single placement needs more than 10^5 rejections.
    """
    rng = np.random.default_rng(rng_seed)
    eves = []
    for _ in range(num_eves):
        for _ in range(_MAX_REJECTIONS):
            r = rng.uniform(domain.r_min, domain.r_max)
            theta = rng.uniform(domain.theta_min, domain.theta_max)
            candidate = make_placement(r, theta, cfg)
            if not in_target_region(candidate, bob, num_antennas, params, f0, c):
                eves.append(candidate)
                break
        else:
            raise SamplingExhaustedError(
                f"no point outside the target region after {_MAX_REJECTIONS} draws"
            )
    return eves
