"""Forward model of a frequency-diverse movable-antenna transmitter.

Geometry: a linear array along the X axis with its phase reference at the
origin.  A receiver sits at polar position (R, theta), theta measured from
the positive X axis, so the far-field path from element m has length
R - x_m cos(theta).  Element m radiates at its own frequency
f_m = f0 + shift_m, which makes the beampattern range-dependent on top of
the usual angle dependence.

All power quantities are linear milliwatts; dB/dBm conversions happen at
the configuration boundary only.  Every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"Speed of light in vacuum, m/s."

MAX_RELATIVE_SHIFT = 1e-3
"Narrowband limit: per-element |shift| must stay below this fraction of f0."


def wavelength(f0: float, c: float = SPEED_OF_LIGHT) -> float:
    "Carrier wavelength in meters."
    if f0 <= 0.0:
        raise ValueError("f0 must be positive")
    return c / f0


def _frozen(values) -> np.ndarray:
    "Read-only float copy of an array-like."
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class ArrayDesign:
    """Transmit-array state: element positions plus the frequency plan.

    positions   -- strictly increasing element coordinates in meters
    f0          -- reference carrier frequency in Hz
    freq_shifts -- per-element frequency offsets in Hz
    """

    positions: np.ndarray
    f0: float
    freq_shifts: np.ndarray

    def __post_init__(self):
        positions = _frozen(self.positions)
        shifts = _frozen(self.freq_shifts)
        if positions.ndim != 1 or positions.size < 1:
            raise ValueError("positions must be a non-empty 1-D sequence")
        if shifts.shape != positions.shape:
            raise ValueError("freq_shifts must match positions in length")
        if not (np.isfinite(positions).all() and np.isfinite(shifts).all()):
            raise ValueError("positions and freq_shifts must be finite")
        if positions.size > 1 and not np.all(np.diff(positions) > 0.0):
            raise ValueError("positions must be strictly increasing")
        if not 0.0 < self.f0 < math.inf:
            raise ValueError("f0 must be positive and finite")
        if shifts.size and np.max(np.abs(shifts)) >= MAX_RELATIVE_SHIFT * self.f0:
            raise ValueError(
                f"frequency shifts must satisfy |shift| < {MAX_RELATIVE_SHIFT:g} * f0"
            )
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "freq_shifts", shifts)

    @property
    def num_antennas(self) -> int:
        return self.positions.size

    @property
    def frequencies(self) -> np.ndarray:
        "Per-element operating frequencies f0 + shift, Hz."
        return self.f0 + self.freq_shifts


@dataclass(frozen=True)
class Placement:
    """Receiver location and link budget.

    range_m            -- distance from the array center, meters (> 0)
    angle_rad          -- angle of arrival in (0, pi), radians
    path_loss_linear   -- linear power gain in (0, 1]
    noise_power_linear -- receiver noise power, milliwatts (> 0)
    """

    range_m: float
    angle_rad: float
    path_loss_linear: float
    noise_power_linear: float

    def __post_init__(self):
        if not self.range_m > 0.0:
            raise ValueError("range_m must be positive")
        if not 0.0 < self.angle_rad < math.pi:
            raise ValueError("angle_rad must lie in (0, pi)")
        if not 0.0 < self.path_loss_linear <= 1.0:
            raise ValueError("path_loss_linear must lie in (0, 1]")
        if not self.noise_power_linear > 0.0:
            raise ValueError("noise_power_linear must be positive")


@dataclass(frozen=True)
class Scenario:
    """One legitimate receiver plus colluding eavesdroppers."""

    bob: Placement
    eves: tuple[Placement, ...]
    tx_power_linear: float
    speed_of_light: float = SPEED_OF_LIGHT

    def __post_init__(self):
        object.__setattr__(self, "eves", tuple(self.eves))
        if not self.tx_power_linear > 0.0:
            raise ValueError("tx_power_linear must be positive")
        if not self.speed_of_light > 0.0:
            raise ValueError("speed_of_light must be positive")

    @property
    def num_eves(self) -> int:
        return len(self.eves)

    # Adversary geometry as read-only arrays, built once per scenario and
    # shared by every gain evaluation; empty when there are no adversaries.

    @cached_property
    def eve_ranges(self) -> np.ndarray:
        return _frozen([e.range_m for e in self.eves])

    @cached_property
    def eve_cosines(self) -> np.ndarray:
        return _frozen([math.cos(e.angle_rad) for e in self.eves])

    @cached_property
    def eve_weights(self) -> np.ndarray:
        "SNR prefactors P L_k / sigma_k^2 under unit-gain beamforming."
        return _frozen(self.tx_power_linear * np.array(
            [e.path_loss_linear / e.noise_power_linear for e in self.eves], dtype=float))


def steering_vector(design: ArrayDesign, place: Placement,
                    c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Per-element unit-modulus phases seen at a receiver location.

    Element m contributes exp(-j 2 pi (f_m / c) (R - x_m cos(theta))).
    """
    path = place.range_m - design.positions * math.cos(place.angle_rad)
    return np.exp(-2j * np.pi * (design.frequencies / c) * path)


def channel(design: ArrayDesign, place: Placement,
            c: float = SPEED_OF_LIGHT) -> np.ndarray:
    "LOS channel: sqrt(path loss) times the steering vector."
    return math.sqrt(place.path_loss_linear) * steering_vector(design, place, c)


def mrt_beamformer(design: ArrayDesign, bob: Placement,
                   c: float = SPEED_OF_LIGHT) -> np.ndarray:
    "Matched (maximum-ratio) transmit weights for the intended receiver; unit norm."
    return steering_vector(design, bob, c) / math.sqrt(design.num_antennas)


def beampattern(design: ArrayDesign, probe: Placement, bob: Placement,
                c: float = SPEED_OF_LIGHT) -> complex:
    """Inner product between the probe and intended-receiver steering vectors.

    Magnitude is at most M, with equality when the probe coincides with the
    intended receiver.
    """
    return complex(np.vdot(steering_vector(design, probe, c),
                           steering_vector(design, bob, c)))


def _probe_phasors(paths: np.ndarray, f_over_c: np.ndarray) -> np.ndarray:
    "Conjugate probe entries exp(+2 pi j path f / c), elementwise."
    return np.exp(2j * np.pi * (paths * f_over_c))


def _bob_rates(f_over_c: np.ndarray) -> np.ndarray:
    "Receiver phase per metre of path, -2 pi j f / c, as _bob_phasors takes it."
    return -2j * np.pi * f_over_c


def _bob_phasors(rates: np.ndarray, bob_paths: np.ndarray) -> np.ndarray:
    "Receiver entries exp(-2 pi j f path / c) from _bob_rates, elementwise."
    return np.exp(rates * bob_paths)


def _eta(positions: np.ndarray, f_over_c: np.ndarray, ranges: np.ndarray,
         cosines: np.ndarray, bob: Placement) -> np.ndarray:
    """Beampattern at probes (ranges, cosines) of elements at positions radiating f/c.

    positions and f_over_c hold the element axis last and may carry leading
    batch axes, which broadcast; the result holds those axes, then the probe
    axis.  The conjugate probe entries meet the receiver entries in one
    stacked matrix-vector product, which gives each batch row the bits of
    its own unbatched call.  Each entry depends on one element's path and
    frequency only, so a caller may rebuild one column of the probe matrix
    through the same helpers and keep the bits.
    """
    paths = ranges[:, None] - cosines[:, None] * positions[..., None, :]
    probes = _probe_phasors(paths, f_over_c[..., None, :])
    receiver = _bob_phasors(_bob_rates(f_over_c),
                            bob.range_m - positions * math.cos(bob.angle_rad))
    return np.matmul(probes, receiver[..., None])[..., 0]


def beampattern_batch(design: ArrayDesign, ranges_m: np.ndarray,
                      cos_angles: np.ndarray, bob: Placement,
                      c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Vectorized beampattern over many probe points.

    ranges_m and cos_angles are parallel arrays describing probe locations
    as (range, cos(angle)); probes need not satisfy Placement invariants,
    which makes this suitable for rastering arbitrary grids.
    """
    ranges, cosines = np.asarray(ranges_m, dtype=float), np.asarray(cos_angles, dtype=float)
    # Near-equal row blocks below OpenBLAS's 4,096-entry threading size stay on this thread.
    blocks = max(1, -(-ranges.size // max(1, 4095 // design.num_antennas)))
    bounds = [ranges.size * b // blocks for b in range(blocks + 1)]
    return np.concatenate([_eta(design.positions, design.frequencies / c, ranges[i:j],
                                cosines[i:j], bob) for i, j in zip(bounds, bounds[1:])])


def eve_gains(scenario: Scenario, positions: np.ndarray, shifts: np.ndarray,
              f0: float) -> np.ndarray:
    """Beampattern power |eta_k|^2 at each eavesdropper, from raw design arrays.

    positions and shifts may be stacks of designs (leading axes broadcast);
    the eavesdropper axis comes last.
    """
    f_over_c = (f0 + shifts) / scenario.speed_of_light
    return np.abs(_eta(positions, f_over_c, scenario.eve_ranges, scenario.eve_cosines,
                       scenario.bob)) ** 2


def snr_bob(scenario: Scenario, design: ArrayDesign) -> float:
    """Linear SNR at the intended receiver under matched transmit weights.

    Closed form P * L_B * M / sigma_B^2; independent of element positions
    and frequency shifts.
    """
    bob = scenario.bob
    return (scenario.tx_power_linear * bob.path_loss_linear * design.num_antennas
            / bob.noise_power_linear)


def eve_snrs(scenario: Scenario, design: ArrayDesign) -> np.ndarray:
    "Linear SNR at each eavesdropper under matched transmit weights."
    gains = eve_gains(scenario, design.positions, design.freq_shifts, design.f0)
    return scenario.eve_weights * gains / design.num_antennas


def snr_eve(scenario: Scenario, design: ArrayDesign, k: int) -> float:
    "Linear SNR at eavesdropper k (0-based index into scenario.eves)."
    if not 0 <= k < scenario.num_eves:
        raise IndexError(f"eavesdropper index {k} out of range")
    return float(eve_snrs(scenario, design)[k])


def worst_case_secrecy_rate(scenario: Scenario, design: ArrayDesign) -> float:
    """Secrecy rate against colluding eavesdroppers, bits/s/Hz, clamped at 0.

    rate = [log2(1 + snr_bob) - log2(1 + sum_k snr_eve_k)]+
    """
    gamma_b = snr_bob(scenario, design)
    gamma_e_total = float(np.sum(eve_snrs(scenario, design)))
    return max(0.0, math.log2(1.0 + gamma_b) - math.log2(1.0 + gamma_e_total))
