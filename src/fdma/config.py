"""Flat key/value run configuration.

Config files hold one `key = value` pair per line; `#` starts a comment.
`f0_hz` is the only required key, everything else defaults to the standard
scenario (see README for the full key table).  The intended receiver may be
given either in Cartesian form (bob_x_m / bob_y_m) or in polar form
(bob_range_m / bob_angle_deg), with both keys of the form, but not both forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .annealing import AnnealerConfig, _check_optimizable
from .model import MAX_RELATIVE_SHIFT, Placement, Scenario, SPEED_OF_LIGHT, wavelength
from .perturbation import PerturbConfig
from .scenario import BaselineParams, GridSpec, LinkBudgetConfig, PolarDomain, \
    dbm_to_milliwatts, make_cpa, make_placement, meets_min_spacing, place_canonical_eves


class ConfigError(ValueError):
    "Configuration problem, annotated with the offending key and line."

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        super().__init__(message + (f" (key: {key})" if key is not None else "")
                         + (f" (line {line})" if line is not None else ""))
        self.key = key
        self.line = line


def _checked(keys: str, build, *args):
    "build(*args), with a ValueError it raises re-raised as a ConfigError naming keys."
    try:
        build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), key=keys) from exc


# Every object a run builds from its config, with the keys that feed it.  Parsing
# builds them all, and RunConfig is frozen, so a value one of them rejects fails
# the parse with a ConfigError naming its keys.
_DERIVED_KEYS = (
    ("link_budget", "tx_power_dbm, noise_power_dbm, ref_path_loss_db, "
                    "path_loss_exponent_coeff"),
    ("bob", "bob_x_m, bob_y_m, bob_range_m, bob_angle_deg"),
    ("baseline_params", "delta_d_over_lambda, min_spacing_over_lambda, aperture_over_lambda, "
                        "delta_f_hz, delta_f_min_hz, delta_f_max_hz, speed_of_light"),
    ("grid", "grid_x_min_m, grid_x_max_m, grid_y_min_m, grid_y_max_m, grid_resolution_m"),
    ("eve_domain", "eve_r_min_m, eve_r_max_m, eve_theta_min_deg, eve_theta_max_deg"),
    ("annealer", "sa_initial_temperature, sa_cooling, sa_iterations, sa_rounds, sa_round_tol"),
    ("perturber", "ridge_position, ridge_frequency, perturb_rounds, perturb_tol"),
)


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the batch tool, with scenario defaults filled in."""

    # physics / link budget
    f0_hz: float = 0.0  # required; 0 sentinel trips the validation below
    speed_of_light: float = SPEED_OF_LIGHT
    tx_power_dbm: float = 5.0
    noise_power_dbm: float = -80.0
    ref_path_loss_db: float = 30.0
    path_loss_exponent_coeff: float = 25.0

    # geometry
    bob_x_m: float | None = None
    bob_y_m: float | None = None
    bob_range_m: float | None = None
    bob_angle_deg: float | None = None
    m: int = 21
    k: int = 3

    # baseline grid (spacings in wavelengths so they track f0)
    delta_f_hz: float = -1e6
    delta_d_over_lambda: float = 0.75
    min_spacing_over_lambda: float = 0.5
    aperture_over_lambda: float | None = None  # None -> m wavelengths
    delta_f_min_hz: float = -10e6
    delta_f_max_hz: float = 10e6

    # rng
    seed: int = 20240803

    # raster grid
    grid_x_min_m: float = -150.0
    grid_x_max_m: float = 150.0
    grid_y_min_m: float = 1.0
    grid_y_max_m: float = 300.0
    grid_resolution_m: float = 1.0

    # sweeps
    m_values: tuple[int, ...] = (11, 15, 21, 27, 31)
    k_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    sweep_k_m_values: tuple[int, ...] = (21, 31)
    trials: int = 20

    # adversary sampling domain
    eve_r_min_m: float = 20.0
    eve_r_max_m: float = 200.0
    eve_theta_min_deg: float = 10.0
    eve_theta_max_deg: float = 170.0

    # optimizer knobs
    sa_initial_temperature: float | None = None
    sa_cooling: float = 0.95
    sa_iterations: int = 5000
    sa_rounds: int = 4
    sa_round_tol: float = 1e-3
    ridge_position: float | None = None
    ridge_frequency: float | None = None
    perturb_rounds: int = 20
    perturb_tol: float = 1e-6

    def __post_init__(self):
        if not self.f0_hz > 0.0:
            raise ConfigError("missing or non-positive required key", key="f0_hz")
        cartesian = self.bob_x_m is not None or self.bob_y_m is not None
        polar = self.bob_range_m is not None or self.bob_angle_deg is not None
        if cartesian and polar:
            raise ConfigError("give the receiver either in Cartesian or polar form, not both",
                              key="bob_x_m")
        if not cartesian and not polar:
            object.__setattr__(self, "bob_x_m", 30.0)
            object.__setattr__(self, "bob_y_m", 90.0)
        pair = ("bob_range_m", "bob_angle_deg") if polar else ("bob_x_m", "bob_y_m")
        for key in pair:
            if getattr(self, key) is None:
                raise ConfigError(f"give the receiver by both {pair[0]} and {pair[1]}",
                                  key=key)
        if self.k < 0:
            raise ConfigError("adversary count must be non-negative", key="k")
        if self.trials < 1:
            raise ConfigError("need at least one trial", key="trials")
        if self.seed < 0:
            raise ConfigError("master seed must be non-negative", key="seed")
        if not meets_min_spacing(self.delta_d_over_lambda, self.min_spacing_over_lambda):
            raise ConfigError(
                f"baseline spacing {self.delta_d_over_lambda:g} wavelengths is below the "
                f"minimum spacing min_spacing_over_lambda = {self.min_spacing_over_lambda:g}",
                key="delta_d_over_lambda")
        for build, keys in _DERIVED_KEYS:
            _checked(keys, getattr(self, build))
        # Every array size the run may build, with the key that sets it.
        sizes = [("m", self.m)] + [(key, m) for key in ("m_values", "sweep_k_m_values")
                                   for m in getattr(self, key)]
        # ArrayDesign's narrowband limit, for the linear ramp at the largest size and the box.
        reach = {"delta_f_hz": (max(m for _, m in sizes) - 1) / 2 * abs(self.delta_f_hz),
                 "delta_f_min_hz": abs(self.delta_f_min_hz),
                 "delta_f_max_hz": abs(self.delta_f_max_hz)}
        broken = [key for key, hz in reach.items() if hz >= MAX_RELATIVE_SHIFT * self.f0_hz]
        if broken:
            raise ConfigError(f"frequency shifts must satisfy |shift| < {MAX_RELATIVE_SHIFT:g}"
                              " * f0", key=", ".join(["f0_hz"] + broken))
        # The baseline factory's aperture rule: a sweep with one size too wide fails here.
        for key, m in sizes:
            _checked(key, make_cpa, m, self.baseline_params(m), self.f0_hz)
        # The sweeps' array sizes and adversary counts are ones their commands can run.
        if not self.k_values or min(self.k_values) < 0:
            raise ConfigError("need at least one adversary count, none negative",
                              key="k_values")
        if not self.m_values or any(m < 4 for m in self.m_values):
            raise ConfigError("array-size sweep needs at least one size, each of at "
                              "least four antennas", key="m_values")
        if not self.sweep_k_m_values:
            raise ConfigError("adversary-count sweep needs at least one array size",
                              key="sweep_k_m_values")
        k_max = max(self.k_values)
        if any(k_max >= m for m in self.sweep_k_m_values):
            raise ConfigError(f"largest adversary count {k_max} must be below every "
                              "sweep_k_m_values entry", key="k_values")
        # The canonical adversaries wherever a command places them: beampattern
        # and optimize at m when k = 3, sweep-m at every m_values entry.
        placed = [("m", self.m)] * (self.k == 3) + [("m_values", m) for m in self.m_values]
        for key, m in placed:
            _checked(f"{key}, delta_f_hz", self._canonical_eves, m)
        # The optimizers' K < M rule, on the scenario beampattern and optimize build.
        if self.k == 3:
            _checked("m, k", _check_optimizable, self.scenario(),
                     make_cpa(self.m, self.baseline_params(), self.f0_hz))

    # -- derived objects -------------------------------------------------

    def link_budget(self) -> LinkBudgetConfig:
        return LinkBudgetConfig(self.tx_power_dbm, self.noise_power_dbm,
                                self.ref_path_loss_db, self.path_loss_exponent_coeff)

    def bob_polar(self) -> tuple[float, float]:
        if self.bob_range_m is not None:
            return float(self.bob_range_m), math.radians(float(self.bob_angle_deg))
        x, y = float(self.bob_x_m), float(self.bob_y_m)
        return math.hypot(x, y), math.atan2(y, x)

    def bob(self) -> Placement:
        r, theta = self.bob_polar()
        return make_placement(r, theta, self.link_budget())

    def baseline_params(self, num_antennas: int | None = None) -> BaselineParams:
        m = self.m if num_antennas is None else num_antennas
        lam = wavelength(self.f0_hz, self.speed_of_light)
        aperture = self.aperture_over_lambda if self.aperture_over_lambda is not None else m
        return BaselineParams(
            uniform_spacing=self.delta_d_over_lambda * lam,
            uniform_freq_step=self.delta_f_hz,
            aperture_half_width=aperture * lam,
            min_spacing=self.min_spacing_over_lambda * lam,
            freq_shift_bounds=(self.delta_f_min_hz, self.delta_f_max_hz),
        )

    def base_scenario(self) -> Scenario:
        "Scenario shell with no adversaries; sweeps attach their own."
        return Scenario(self.bob(), (), dbm_to_milliwatts(self.tx_power_dbm),
                        self.speed_of_light)

    def _canonical_eves(self, m: int) -> list[Placement]:
        return place_canonical_eves(m, self.bob(), self.baseline_params(m), self.link_budget(),
                                    self.f0_hz, self.speed_of_light)

    def scenario(self) -> Scenario:
        "The scenario of beampattern and optimize: the three canonical adversaries, or none."
        if self.k not in (0, 3):
            raise ConfigError("canonical adversary placement defines exactly three "
                              "eavesdroppers; set k = 3 or 0", key="k")
        eves = self._canonical_eves(self.m) if self.k else ()
        return replace(self.base_scenario(), eves=eves)

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_x_min_m, self.grid_x_max_m,
                        self.grid_y_min_m, self.grid_y_max_m, self.grid_resolution_m)

    def eve_domain(self) -> PolarDomain:
        return PolarDomain(self.eve_r_min_m, self.eve_r_max_m,
                           math.radians(self.eve_theta_min_deg),
                           math.radians(self.eve_theta_max_deg))

    def annealer(self) -> AnnealerConfig:
        return AnnealerConfig(self.sa_initial_temperature, self.sa_cooling,
                              self.sa_iterations, self.seed, self.sa_rounds,
                              self.sa_round_tol)

    def perturber(self) -> PerturbConfig:
        return PerturbConfig(self.ridge_position, self.ridge_frequency,
                             self.perturb_rounds, self.perturb_tol)

    def snapshot(self) -> dict:
        "Fully resolved key/value view for the run manifest."
        return {f.name: getattr(self, f.name) for f in fields(self)}


_KEY_TYPES = get_type_hints(RunConfig)
_KEY_ALIASES = {"M": "m", "K": "k"}


def _parse_value(key: str, raw: str, line_no: int):
    "The value of a key as its RunConfig field is annotated: int, tuple of ints, else float."
    try:
        if _KEY_TYPES[key] == tuple[int, ...]:
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        if _KEY_TYPES[key] is int:
            return int(raw)
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r}", key=key, line=line_no) from exc
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value {raw!r}", key=key, line=line_no)
    return value


def parse_config_text(text: str) -> RunConfig:
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=line_no)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = _KEY_ALIASES.get(key, key)
        if key not in _KEY_TYPES:
            raise ConfigError("unknown configuration key", key=key, line=line_no)
        if key in values:
            raise ConfigError("duplicate configuration key", key=key, line=line_no)
        values[key] = _parse_value(key, raw, line_no)
    return RunConfig(**values)


def parse_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
