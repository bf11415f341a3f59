"""The block alternation shared by the annealer (OPT1) and the closed-form solver (OPT2)."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from fdma.annealing import AnnealerConfig, alternate_sa
from fdma.model import Scenario
from fdma.perturbation import PerturbConfig, alternate_perturb
from fdma.scenario import default_baseline_params, make_linear_fda

from conftest import F0, random_design, random_placement

PHASE_SUBSETS = [("positions",), ("shifts",), ("positions", "shifts")]
ROUNDS_AND_TOLERANCES = [(0, 1e-3), (3, 1e-6), (3, 1e-1)]

# One sha256 over the designs and traces of both optimizers on the grid below,
# taken before the two alternation loops were merged into one.
ALTERNATION_DIGEST = "18f7ca2ef6b3059ca9920c902bf752f7d0630c532d8711e471c883f6d9c1bc6a"


def _scenario(link_cfg, bob, m, k):
    rng = np.random.default_rng(1000 * m + k)
    eves = tuple(random_placement(rng, link_cfg) for _ in range(k))
    return Scenario(bob, eves, tx_power_linear=10.0 ** 0.5)


def _field_bytes(value) -> bytes:
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    return repr(value).encode()


def _digest_update(digest, label, design, init, trace) -> None:
    digest.update(label.encode())
    digest.update(b"same" if design is init else b"new")
    digest.update(design.positions.tobytes())
    digest.update(design.freq_shifts.tobytes())
    digest.update(float(design.f0).hex().encode())
    for record in trace:
        digest.update(b"|".join(_field_bytes(field) for field in record) + b"\n")


def test_alternation_bytes_pinned(link_cfg, bob):
    digest = hashlib.sha256()
    grid = itertools.product((6, 11), (0, 1, 3), ROUNDS_AND_TOLERANCES, PHASE_SUBSETS)
    for m, k, (rounds, tol), phases in grid:
        scenario = _scenario(link_cfg, bob, m, k)
        params = default_baseline_params(m, F0, scenario.speed_of_light)
        label = f"{m}/{k}/{rounds}/{tol!r}/{'+'.join(phases)}"

        init = random_design(np.random.default_rng(m + 10 * k), m)
        trace: list = []
        design = alternate_sa(scenario, init, params,
                              AnnealerConfig(max_iterations=40, seed=m * k + rounds,
                                             max_rounds=rounds, relative_tolerance=tol),
                              trace, phases)
        _digest_update(digest, "sa/" + label, design, init, trace)

        baseline = make_linear_fda(m, params, F0)
        trace = []
        design = alternate_perturb(scenario, baseline, params,
                                   PerturbConfig(max_rounds=rounds, relative_tolerance=tol),
                                   trace, phases)
        _digest_update(digest, "perturb/" + label, design, baseline, trace)
    assert digest.hexdigest() == ALTERNATION_DIGEST


# One sha256 over alternate_sa designs and traces at the annealer's schedule
# edges: a cooling that underflows T to 0, a degenerate shift box where every
# candidate is accepted, no adversaries, two elements, a single iteration.
# Taken before the annealer evaluated its candidates in windows.
EDGE_SCHEDULE_DIGEST = "6a759dca7408aeae1911df43dc974c60ec60da14f8e640ff12a7613e76862428"
EDGE_SCHEDULES = [
    # (label, M, K, shift box or None for the default, AnnealerConfig keywords)
    ("underflow", 6, 2, (-3e6, -1e6),
     dict(cooling_factor=0.5, max_iterations=1500, max_rounds=2, relative_tolerance=1e-12)),
    ("zero-box", 5, 1, (0.0, 0.0), dict(max_iterations=70, max_rounds=2)),
    ("no-eves", 6, 0, None, dict(max_iterations=100, max_rounds=2)),
    ("two-elements", 2, 1, None,
     dict(initial_temperature=1e-3, max_iterations=90, max_rounds=2,
          relative_tolerance=1e-12)),
    ("one-iteration", 7, 3, None, dict(max_iterations=1, max_rounds=3,
                                       relative_tolerance=1e-12)),
]


def test_edge_schedule_bytes_pinned(link_cfg, bob):
    digest = hashlib.sha256()
    for label, m, k, box, keywords in EDGE_SCHEDULES:
        scenario = _scenario(link_cfg, bob, m, k)
        params = default_baseline_params(m, F0, scenario.speed_of_light)
        if box is not None:
            params = dataclasses.replace(params, freq_shift_bounds=box)
        init = random_design(np.random.default_rng(m + 10 * k), m)
        trace: list = []
        design = alternate_sa(scenario, init, params,
                              AnnealerConfig(seed=m * 100 + k, **keywords), trace)
        _digest_update(digest, label, design, init, trace)
    assert digest.hexdigest() == EDGE_SCHEDULE_DIGEST


def _run_sa(scenario, init, params, rounds, phases):
    return alternate_sa(scenario, init, params,
                        AnnealerConfig(max_iterations=5, seed=0, max_rounds=rounds), None, phases)


def _run_perturb(scenario, init, params, rounds, phases):
    return alternate_perturb(scenario, init, params, PerturbConfig(max_rounds=rounds),
                             None, phases)


@pytest.mark.parametrize("run", [_run_sa, _run_perturb], ids=["sa", "perturb"])
class TestValidationOrder:
    """Arguments are checked before any early exit, whatever the adversary count or rounds."""

    @pytest.mark.parametrize("phases", [None, (), ("bogus",), ("positions", "frequencies")])
    @pytest.mark.parametrize("k,rounds", [(0, 0), (0, 3), (1, 0)])
    def test_bad_phases_rejected(self, run, link_cfg, bob, phases, k, rounds):
        scenario = _scenario(link_cfg, bob, 6, k)
        params = default_baseline_params(6, F0, scenario.speed_of_light)
        with pytest.raises(ValueError, match="phases"):
            run(scenario, make_linear_fda(6, params, F0), params, rounds, phases)

    @pytest.mark.parametrize("m,k", [(2, 2), (3, 4)])
    @pytest.mark.parametrize("rounds", [0, 3])
    def test_too_many_eavesdroppers_rejected(self, run, link_cfg, bob, m, k, rounds):
        scenario = _scenario(link_cfg, bob, m, k)
        params = default_baseline_params(m, F0, scenario.speed_of_light)
        with pytest.raises(ValueError, match="fewer eavesdroppers"):
            run(scenario, make_linear_fda(m, params, F0), params, rounds,
                ("positions", "shifts"))
