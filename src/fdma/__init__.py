"""Secrecy-oriented design of frequency-diverse movable-antenna arrays.

A simulator and optimizer for transmit arrays whose element positions and
per-element frequency shifts are both adjustable: forward beampattern and
SNR models, worst-case secrecy rates against colluding eavesdroppers,
simulated-annealing and closed-form perturbation optimizers, and a batch
experiment harness with a CLI front-end.
"""

__version__ = "0.1.0"

from .model import (
    SPEED_OF_LIGHT,
    ArrayDesign,
    Placement,
    Scenario,
    beampattern,
    beampattern_batch,
    channel,
    mrt_beamformer,
    snr_bob,
    snr_eve,
    steering_vector,
    wavelength,
    worst_case_secrecy_rate,
)
from .scenario import (
    BaselineParams,
    GridSpec,
    LinkBudgetConfig,
    PolarDomain,
    default_baseline_params,
    make_cpa,
    make_linear_fda,
    make_placement,
    path_loss_linear,
    place_canonical_eves,
    sample_eves_outside_target,
)
from .annealing import AnnealerConfig, alternate_sa, cost
from .perturbation import PerturbConfig, alternate_perturb
from .experiments import ConfigurationKind

__all__ = [
    "__version__",
    "SPEED_OF_LIGHT",
    "ArrayDesign",
    "Placement",
    "Scenario",
    "beampattern",
    "beampattern_batch",
    "channel",
    "mrt_beamformer",
    "snr_bob",
    "snr_eve",
    "steering_vector",
    "wavelength",
    "worst_case_secrecy_rate",
    "BaselineParams",
    "GridSpec",
    "LinkBudgetConfig",
    "PolarDomain",
    "default_baseline_params",
    "make_cpa",
    "make_linear_fda",
    "make_placement",
    "path_loss_linear",
    "place_canonical_eves",
    "sample_eves_outside_target",
    "AnnealerConfig",
    "alternate_sa",
    "cost",
    "PerturbConfig",
    "alternate_perturb",
    "ConfigurationKind",
]
