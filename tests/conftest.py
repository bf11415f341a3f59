import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import fdma
from fdma.model import ArrayDesign, Placement, Scenario, SPEED_OF_LIGHT, wavelength
from fdma.scenario import LinkBudgetConfig, default_baseline_params, make_placement, \
    place_canonical_eves

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

F0 = 30e9


def default_grid(m: int):
    "The library's default baseline grid for an M-element array, as the sweeps take it."
    return default_baseline_params(m, F0, SPEED_OF_LIGHT)


def cli_env() -> dict:
    """Environment for a `python -m fdma` child process.

    The directory holding the `fdma` this process imported goes first on the
    child's PYTHONPATH, as an absolute path, so the child runs the same code
    whatever its working directory; the existing entries are kept after it.
    """
    env = dict(os.environ)
    path = str(Path(fdma.__file__).resolve().parent.parent)
    if env.get("PYTHONPATH"):
        path += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = path
    return env


@pytest.fixture(scope="session")
def link_cfg() -> LinkBudgetConfig:
    return LinkBudgetConfig()


@pytest.fixture(scope="session")
def bob(link_cfg) -> Placement:
    r = math.hypot(30.0, 90.0)
    return make_placement(r, math.atan2(90.0, 30.0), link_cfg)


@pytest.fixture(scope="session")
def default_scenario(link_cfg, bob) -> Scenario:
    "The stock 21-element scenario with the three canonical adversaries."
    params = default_baseline_params(21, F0, SPEED_OF_LIGHT)
    eves = place_canonical_eves(21, bob, params, link_cfg, F0, SPEED_OF_LIGHT)
    return Scenario(bob, tuple(eves), tx_power_linear=10.0 ** 0.5)


@pytest.fixture(scope="session")
def default_params():
    return default_baseline_params(21, F0, SPEED_OF_LIGHT)


def random_design(rng: np.random.Generator, m: int, f0: float = F0) -> ArrayDesign:
    "Feasible random design: spacings above half a wavelength, shifts in a 10 MHz box."
    lam = wavelength(f0)
    spacings = rng.uniform(0.5 * lam, 2.0 * lam, size=max(m - 1, 0))
    start = rng.uniform(-1.0, 1.0) * lam
    positions = start + np.concatenate(([0.0], np.cumsum(spacings)))
    positions -= positions.mean()
    shifts = rng.uniform(-10e6, 10e6, size=m)
    return ArrayDesign(positions, f0, shifts)


def random_placement(rng: np.random.Generator, cfg: LinkBudgetConfig) -> Placement:
    return make_placement(rng.uniform(5.0, 300.0),
                          rng.uniform(0.05, math.pi - 0.05), cfg)
