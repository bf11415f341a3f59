"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the achieved values.  Budgets and tolerances are fixed here; the
master seed for the randomized criteria is pinned so every run is
reproducible.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from fdma.annealing import AnnealerConfig, anneal_positions, cost, metropolis_accept
from fdma.experiments import ALL_KINDS, ConfigurationKind as Kind, mean_rates, \
    sweep_vs_num_antennas, sweep_vs_num_eves
from fdma.model import ArrayDesign, Scenario, SPEED_OF_LIGHT, beampattern_batch, \
    channel, mrt_beamformer, snr_bob, wavelength
from fdma.perturbation import PerturbConfig, alternate_perturb, build_frequency_system, \
    build_position_system, first_order_beampattern
from fdma.scenario import BaselineParams, LinkBudgetConfig, default_baseline_params, \
    make_cpa, make_linear_fda, make_placement, place_canonical_eves

from conftest import F0, cli_env, default_grid, random_design, random_placement

MASTER_SEED = 20240803
LAM = wavelength(F0)
LINK = LinkBudgetConfig()
BOB = make_placement(math.hypot(30.0, 90.0), math.atan2(90.0, 30.0), LINK)
TX_POWER = 10.0 ** 0.5


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def canonical_scenario(m: int) -> tuple[Scenario, BaselineParams]:
    params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
    eves = place_canonical_eves(m, BOB, params, LINK, F0, SPEED_OF_LIGHT)
    return Scenario(BOB, tuple(eves), TX_POWER), params


def test_criterion_01_closed_form_snr_matches_direct_product():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        design = random_design(rng, m)
        scenario = Scenario(random_placement(rng, LINK), (), TX_POWER)
        h = channel(design, scenario.bob)
        w = mrt_beamformer(design, scenario.bob)
        direct = (scenario.tx_power_linear * abs(np.vdot(h, w)) ** 2
                  / scenario.bob.noise_power_linear)
        closed = snr_bob(scenario, design)
        worst = max(worst, abs(closed - direct) / closed)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, "closed-form receiver SNR", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_02_self_beam_identity_and_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst_self = 0.0
    for m in range(1, 65):
        design = random_design(rng, m)
        place = random_placement(rng, LINK)
        eta = beampattern_batch(design, np.array([place.range_m]),
                                np.array([math.cos(place.angle_rad)]), place)[0]
        worst_self = max(worst_self, abs(eta - m))
    design = random_design(rng, 21)
    ranges = rng.uniform(1.0, 500.0, size=100_000)
    cosines = np.cos(rng.uniform(0.01, math.pi - 0.01, size=100_000))
    etas = beampattern_batch(design, ranges, cosines, BOB)
    overshoot = float(np.max(np.abs(etas)) - 21.0)
    elapsed = time.perf_counter() - start
    ok = worst_self < 1e-9 and overshoot <= 1e-9 and elapsed < 30.0
    report(2, "self-beam identity and bound", ok,
           f"self-beam err {worst_self:.2e}, bound overshoot {overshoot:.2e}, {elapsed:.1f}s")
    assert worst_self < 1e-9
    assert overshoot <= 1e-9
    assert elapsed < 30.0


def test_criterion_03_equal_range_arc_matches_dirichlet_kernel():
    start = time.perf_counter()
    m = 21
    params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
    design = make_cpa(m, params, F0)
    thetas = np.linspace(0.15, math.pi - 0.15, 1000)
    direct = np.abs(beampattern_batch(design, np.full(thetas.size, BOB.range_m),
                                      np.cos(thetas), BOB))
    u = (math.pi * F0 * params.uniform_spacing / SPEED_OF_LIGHT
         * (np.cos(thetas) - math.cos(BOB.angle_rad)))
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = np.abs(np.where(np.abs(np.sin(u)) < 1e-300, float(m),
                                 np.sin(m * u) / np.sin(u)))
    err = np.abs(direct - kernel) / np.maximum(kernel, 1e-12)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(err < 1e-8)) and elapsed < 5.0
    report(3, "Dirichlet-kernel oracle on the equal-range arc", ok,
           f"max rel err {float(err.max()):.2e} at 1000 angles, {elapsed:.1f}s")
    assert np.all(err < 1e-8)
    assert elapsed < 5.0


def test_criterion_04_annealer_reaches_discretized_optimum():
    start = time.perf_counter()
    m = 4
    params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
    eve = make_placement(BOB.range_m, BOB.angle_rad - 0.35, LINK)
    scenario = Scenario(BOB, (eve,), TX_POWER)
    init = make_linear_fda(m, params, F0)

    # oracle first: exhaustive search over the spacing grid at lam/20 steps
    step = LAM / 20.0
    lo = params.min_spacing
    span_cap = 2.0 * params.aperture_half_width
    n_steps = int(math.floor((span_cap - 2.0 * lo - lo) / step)) + 1
    values = lo + step * np.arange(n_steps)
    g1, g2, g3 = np.meshgrid(values, values, values, indexing="ij")
    d = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
    d = d[d.sum(axis=1) <= span_cap]
    spans = d.sum(axis=1)
    positions = np.concatenate([(-spans / 2.0)[:, None],
                                (-spans / 2.0)[:, None] + np.cumsum(d, axis=1)], axis=1)
    dcos = math.cos(eve.angle_rad) - math.cos(BOB.angle_rad)
    f_over_c = (F0 + init.freq_shifts) / SPEED_OF_LIGHT
    # equal ranges: only the angle difference enters the pattern
    etas = np.exp(-2j * np.pi * f_over_c[None, :] * positions * dcos).sum(axis=1)
    weight = TX_POWER * eve.path_loss_linear / (m * eve.noise_power_linear)
    oracle_cost = float(weight * np.min(np.abs(etas) ** 2))

    sa_design = anneal_positions(scenario, init, params,
                                 AnnealerConfig(max_iterations=30_000,
                                                seed=MASTER_SEED + 4))
    sa_cost = cost(scenario, sa_design)
    elapsed = time.perf_counter() - start
    ok = sa_cost <= 1.1 * oracle_cost + 1e-15 and elapsed < 120.0
    report(4, "annealer vs exhaustive spacing grid (M=4, K=1)", ok,
           f"oracle {oracle_cost:.3e}, annealer {sa_cost:.3e} "
           f"({d.shape[0]} grid points), {elapsed:.1f}s")
    assert sa_cost <= 1.1 * oracle_cost + 1e-15
    assert elapsed < 120.0


def test_criterion_05_uphill_acceptance_statistics():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 5)
    trials = 10_000
    threshold = chi2.ppf(0.99, df=1)
    stats = []
    for temperature in (0.5, 1.0, 2.0):
        delta = 1.0
        accepted = sum(metropolis_accept(delta, temperature, rng)
                       for _ in range(trials))
        p = math.exp(-delta / temperature)
        expected = trials * p
        statistic = ((accepted - expected) ** 2 / expected
                     + ((trials - accepted) - trials * (1 - p)) ** 2
                     / (trials * (1 - p)))
        stats.append(statistic)
    elapsed = time.perf_counter() - start
    ok = max(stats) < threshold and elapsed < 30.0
    report(5, "uphill acceptance follows exp(-dJ/T)", ok,
           f"chi-square {['%.2f' % s for s in stats]} vs {threshold:.2f}, {elapsed:.1f}s")
    assert max(stats) < threshold
    assert elapsed < 30.0


def test_criterion_06_perturbation_nulling_depth():
    start = time.perf_counter()
    scenario, params = canonical_scenario(21)
    baseline = make_linear_fda(21, params, F0)
    optimized = alternate_perturb(scenario, baseline, params, PerturbConfig())
    before = cost(scenario, baseline)
    after = cost(scenario, optimized)
    reduction_db = 10.0 * math.log10(before / after)
    elapsed = time.perf_counter() - start
    ok = reduction_db >= 20.0 and elapsed < 30.0
    report(6, "closed-form nulling depth vs linear-ramp baseline", ok,
           f"achieved {reduction_db:.2f} dB (floor 20 dB), {elapsed:.1f}s")
    assert elapsed < 30.0
    assert reduction_db >= 20.0, (
        f"achieved {reduction_db:.2f} dB < 20 dB. The canonical main-beam "
        "adversary has near-zero first-order sensitivity, so the linearized "
        "solve demands non-minor perturbations that feasibility clipping "
        "must reject; see the sidelobe Taylor floor analysis in the design "
        "notes.")


def test_criterion_07_degenerate_rows_exactly_zero():
    start = time.perf_counter()
    scenario, params = canonical_scenario(21)
    shifts = make_linear_fda(21, params, F0).freq_shifts
    positions = make_cpa(21, params, F0).positions
    position_row = build_position_system(scenario, params, shifts, F0).a[0]
    frequency_row = build_frequency_system(scenario, params, positions, F0).a[1]
    worst = max(float(np.max(np.abs(position_row))),
                float(np.max(np.abs(frequency_row))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-15 and elapsed < 1.0
    report(7, "degenerate nulling rows are exactly zero", ok,
           f"max |entry| {worst:.1e}, {elapsed:.2f}s")
    assert worst < 1e-15
    assert elapsed < 1.0


def test_criterion_08_linearization_is_first_order():
    start = time.perf_counter()
    # zero frequency step isolates the Taylor step in the position block
    params = BaselineParams(0.75 * LAM, 0.0, 21 * LAM, 0.5 * LAM, (-10e6, 10e6))
    eve = make_placement(BOB.range_m, BOB.angle_rad - 0.12, LINK)
    scenario = Scenario(BOB, (eve,), TX_POWER)
    rng = np.random.default_rng(MASTER_SEED + 8)
    direction = rng.uniform(-1.0, 1.0, size=21)
    direction /= np.max(np.abs(direction))
    shifts = np.zeros(21)
    base_positions = make_cpa(21, params, F0).positions
    errors = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        delta = eps * params.uniform_spacing * direction
        design = ArrayDesign(base_positions + delta, F0, shifts)
        exact = beampattern_batch(design, np.array([eve.range_m]),
                                  np.array([math.cos(eve.angle_rad)]), BOB)[0]
        approx = first_order_beampattern(scenario, params, shifts, delta, 0, F0)
        errors.append(abs(exact - approx))
    ratios = [big / small for big, small in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - start
    ok = all(3.0 <= r <= 5.0 for r in ratios) and elapsed < 5.0
    report(8, "linearization error halves quadratically", ok,
           f"ratios {['%.2f' % r for r in ratios]}, {elapsed:.1f}s")
    assert all(3.0 <= r <= 5.0 for r in ratios)
    assert elapsed < 5.0


@pytest.mark.slow
def test_criterion_09_rate_trends_versus_array_size():
    start = time.perf_counter()
    base = Scenario(BOB, (), TX_POWER)
    m_values = [11, 21, 31]
    records = sweep_vs_num_antennas(
        base, m_values, ALL_KINDS, LINK, F0,
        AnnealerConfig(max_iterations=5000, seed=0), PerturbConfig(),
        master_seed=MASTER_SEED, baseline_params=default_grid)
    rates = {(r.sweep_value, r.configuration): r.secrecy_rate_bps_hz for r in records}

    ubs = [rates[(m, Kind.UPPER_BOUND)] for m in m_values]
    ub_increasing = ubs[0] < ubs[1] < ubs[2]

    identity_residual = max(
        max(abs(rates[(m, Kind.CPA)] - rates[(m, Kind.MA_OPT1)]),
            abs(rates[(m, Kind.CPA)] - rates[(m, Kind.MA_OPT2)]))
        for m in m_values)
    cpa_rates = [rates[(m, Kind.CPA)] for m in m_values]
    cpa_non_increasing = cpa_rates[0] >= cpa_rates[1] >= cpa_rates[2]

    ordering = all(
        rates[(m, Kind.FDMA_OPT1)] >= rates[(m, Kind.FDA_OPT1)] >= rates[(m, Kind.CPA)]
        for m in m_values)

    gaps = [rates[(m, Kind.UPPER_BOUND)] - rates[(m, Kind.FDMA_OPT1)]
            for m in m_values]
    gaps_non_increasing = gaps[0] >= gaps[1] >= gaps[2]
    close_to_bound = gaps[1] <= 0.5  # annealed rate hugs the bound at M = 21

    elapsed = time.perf_counter() - start
    ok = (ub_increasing and identity_residual < 1e-9 and cpa_non_increasing
          and ordering and gaps_non_increasing and close_to_bound and elapsed < 600.0)
    report(9, "rate trends versus array size", ok,
           f"UB {['%.3f' % u for u in ubs]}, identity residual {identity_residual:.1e}, "
           f"FDMA_OPT1 gaps {['%.2e' % g for g in gaps]}, {elapsed:.0f}s")
    assert ub_increasing, f"upper bound not strictly increasing: {ubs}"
    assert identity_residual < 1e-9, \
        f"CPA / MA_OPT1 / MA_OPT2 rates differ by {identity_residual:.3e}"
    assert cpa_non_increasing, f"CPA rates increase with M: {cpa_rates}"
    assert ordering, "FDMA_OPT1 >= FDA_OPT1 >= CPA violated"
    assert gaps_non_increasing, f"FDMA_OPT1 gap to the bound grew with M: {gaps}"
    assert close_to_bound, f"gap to the bound at M=21 is {gaps[1]:.3f} bits/s/Hz"
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_10_rate_trends_versus_adversary_count():
    start = time.perf_counter()
    base = Scenario(BOB, (), TX_POWER)
    kinds = (Kind.FDMA_OPT1, Kind.FDMA_OPT2)
    records = sweep_vs_num_eves(
        base, [1, 3, 6], [21], kinds, LINK, F0,
        AnnealerConfig(max_iterations=5000, seed=0), PerturbConfig(),
        master_seed=MASTER_SEED, trials=20, baseline_params=default_grid)
    means = mean_rates(records)
    seq1 = [means[(k, Kind.FDMA_OPT1)] for k in (1, 3, 6)]
    seq2 = [means[(k, Kind.FDMA_OPT2)] for k in (1, 3, 6)]
    monotone = (seq1[0] >= seq1[1] >= seq1[2]) and (seq2[0] >= seq2[1] >= seq2[2])
    sa_wins_at_k6 = means[(6, Kind.FDMA_OPT1)] >= means[(6, Kind.FDMA_OPT2)]
    elapsed = time.perf_counter() - start
    ok = monotone and sa_wins_at_k6 and elapsed < 900.0
    report(10, "rate trends versus adversary count", ok,
           f"FDMA_OPT1 {['%.3f' % v for v in seq1]}, "
           f"FDMA_OPT2 {['%.3f' % v for v in seq2]}, {elapsed:.0f}s")
    assert monotone, f"means increased with K: {seq1} / {seq2}"
    assert sa_wins_at_k6, f"annealed mean at K=6 below perturbed: {seq1[2]} < {seq2[2]}"
    assert elapsed < 900.0


CLI_CONFIG = """\
f0_hz = 30e9
m = 9
k = 3
seed = 77
grid_x_min_m = 10
grid_x_max_m = 40
grid_y_min_m = 70
grid_y_max_m = 100
grid_resolution_m = 2
m_values = 5, 7
k_values = 0, 2
sweep_k_m_values = 9
trials = 2
sa_iterations = 300
sa_rounds = 2
"""


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "run.cfg"
    config.write_text(CLI_CONFIG)
    jobs = [
        ("beampattern", ["--kind", "LINEAR_FDA", "beampattern"], ["raster.csv",
                                                                  "design.json"]),
        ("optimize", ["optimize", "--method", "sa"], ["design.json", "trace.csv"]),
        ("sweep", ["sweep-m"], ["sweep.csv"]),
    ]
    identical = True
    for name, args, files in jobs:
        digests = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{name}-{attempt}"
            result = subprocess.run(
                [sys.executable, "-m", "fdma", "--config", str(config),
                 "--out", str(out), *args],
                env=cli_env(), capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            digests.append([Path(out / f).read_bytes() for f in files])
        identical = identical and digests[0] == digests[1]
    elapsed = time.perf_counter() - start
    report(11, "re-runs produce byte-identical data files", identical,
           f"beampattern + optimize + sweep checked, {elapsed:.0f}s")
    assert identical
