import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdma.experiments
from fdma.annealing import AnnealerConfig, cost
from fdma.experiments import ALL_KINDS, ConfigurationKind, _Job, _run_job, _run_jobs, \
    baseline_design, compare_designs, configuration_rate, mean_rates, \
    optimize_configuration, raster_columns, sweep_vs_num_antennas, sweep_vs_num_eves
from fdma.model import SPEED_OF_LIGHT, Scenario, beampattern_batch, snr_bob, wavelength
from fdma.perturbation import PerturbConfig
from fdma.scenario import BaselineParams, GridSpec, LinkBudgetConfig, \
    default_baseline_params, make_cpa, make_linear_fda, place_canonical_eves

from conftest import F0, cli_env, default_grid, random_design, random_placement

LAM = wavelength(F0)

FAST_SA = AnnealerConfig(max_iterations=600, seed=0, max_rounds=2, relative_tolerance=1e-3)


@pytest.fixture(scope="module")
def base_scenario(bob_mod):
    return Scenario(bob_mod, (), tx_power_linear=10.0 ** 0.5)


@pytest.fixture(scope="module")
def bob_mod(link_mod):
    from fdma.scenario import make_placement

    return make_placement(math.hypot(30.0, 90.0), math.atan2(90.0, 30.0), link_mod)


@pytest.fixture(scope="module")
def link_mod():
    from fdma.scenario import LinkBudgetConfig

    return LinkBudgetConfig()


def whole_grid_raster(scenario, design, grid):
    "Reference: every grid cell in one beampattern_batch call, row-major over (x, y)."
    mesh_x, mesh_y = np.meshgrid(grid.x_points(), grid.y_points(), indexing="ij")
    flat_x = mesh_x.ravel()
    flat_y = mesh_y.ravel()
    ranges = np.hypot(flat_x, flat_y)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosines = np.where(ranges > 0.0, flat_x / np.where(ranges > 0, ranges, 1.0), 0.0)
    etas = beampattern_batch(design, ranges, cosines, scenario.bob, scenario.speed_of_light)
    power = np.abs(etas) ** 2 / design.num_antennas ** 2
    return flat_x, flat_y, 10.0 * np.log10(np.maximum(power, 1e-300))


def flat_raster(columns):
    "The columns of `raster_columns` concatenated: flat (x, y, power_db), row-major."
    columns = list(columns)
    return (np.concatenate([np.full(ys.size, x) for x, ys, _ in columns]),
            np.concatenate([ys for _, ys, _ in columns]),
            np.concatenate([db for _, _, db in columns]))


@st.composite
def raster_grids(draw):
    "Small grids; the first form puts a sample on the origin (range 0)."
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        res = draw(st.sampled_from([0.25, 0.5, 1.0, 3.7]))
        x_min = -res * draw(st.integers(0, nx))
        y_min = -res * draw(st.integers(0, ny))
    else:
        res = draw(st.floats(0.05, 20.0))
        x_min = draw(st.floats(-200.0, 200.0))
        y_min = draw(st.floats(-200.0, 200.0))
    return GridSpec(x_min, x_min + nx * res, y_min, y_min + ny * res, res)


class TestRaster:
    @given(grid=raster_grids(), m=st.integers(1, 32),
           kind=st.sampled_from(["CPA", "LINEAR_FDA", "random"]),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_equal_whole_grid_evaluation(self, grid, m, kind, seed):
        rng = np.random.default_rng(seed)
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        if kind == "CPA":
            design = make_cpa(m, params, F0)
        elif kind == "LINEAR_FDA":
            design = make_linear_fda(m, params, F0)
        else:
            design = random_design(rng, m)
        scenario = Scenario(random_placement(rng, LinkBudgetConfig()), (), 1.0)
        # No division by zero or invalid value, even where a sample sits on
        # the origin: the range-0 guard is in the arithmetic, not in errstate.
        with np.errstate(divide="raise", invalid="raise"):
            columns = list(raster_columns(scenario, design, grid))
        assert [x for x, _, _ in columns] == grid.x_points().tolist()
        expected = whole_grid_raster(scenario, design, grid)
        assert all(np.array_equal(u, v) for u, v in zip(flat_raster(columns), expected))

    @given(grid=raster_grids(), cuts=st.lists(st.integers(0, 8), max_size=4))
    def test_column_blocks_concatenate_to_one_pass(self, base_scenario, grid, cuts):
        # The CLI renders contiguous blocks of columns in separate processes
        # and joins their text, so the blocks must be one pass split up.
        design = make_linear_fda(11, default_baseline_params(11, F0, SPEED_OF_LIGHT), F0)
        whole = list(raster_columns(base_scenario, design, grid))
        edges = sorted({0, len(whole), *(min(cut, len(whole)) for cut in cuts)})
        joined = [column for start, stop in zip(edges, edges[1:])
                  for column in raster_columns(base_scenario, design, grid,
                                               slice(start, stop))]
        assert [x for x, _, _ in joined] == grid.x_points().tolist()
        assert len(joined) == len(whole)
        for (x, ys, db), (x_ref, ys_ref, db_ref) in zip(joined, whole):
            assert x == x_ref
            assert ys.tobytes() == ys_ref.tobytes() and db.tobytes() == db_ref.tobytes()
        assert list(raster_columns(base_scenario, design, grid, slice(1, 1))) == []

    def test_grid_aligned_receiver_cell_is_zero_db(self, bob_mod, link_mod):
        params = default_baseline_params(21, F0, SPEED_OF_LIGHT)
        eves = place_canonical_eves(21, bob_mod, params, link_mod, F0, SPEED_OF_LIGHT)
        scenario = Scenario(bob_mod, tuple(eves), 10.0 ** 0.5)
        design = make_cpa(21, params, F0)
        grid = GridSpec(20.0, 40.0, 80.0, 100.0, 1.0)  # (30, 90) lands on-grid
        x, y, power_db = flat_raster(raster_columns(scenario, design, grid))
        assert x.shape == y.shape == power_db.shape == (21 * 21,)
        (receiver,) = np.flatnonzero((x == 30.0) & (y == 90.0))
        assert power_db[receiver] > -1e-9
        assert power_db.max() <= 1e-6

    def test_deterministic(self, base_scenario):
        params = default_baseline_params(11, F0, SPEED_OF_LIGHT)
        design = make_linear_fda(11, params, F0)
        grid = GridSpec(-20.0, 20.0, 10.0, 40.0, 2.0)
        a = flat_raster(raster_columns(base_scenario, design, grid))
        b = flat_raster(raster_columns(base_scenario, design, grid))
        assert len(a) == len(b) == 3
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_first_sidelobe_level_on_equal_range_arc(self, bob_mod, base_scenario):
        # For a single-carrier uniform array the strongest sidelobe sits
        # around 13.3 dB under the peak; scan the equal-range arc directly.
        m = 21
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        design = make_cpa(m, params, F0)
        from fdma.model import beampattern_batch

        thetas = np.linspace(bob_mod.angle_rad + 0.03, bob_mod.angle_rad + 0.3, 4000)
        etas = beampattern_batch(design, np.full(thetas.size, bob_mod.range_m),
                                 np.cos(thetas), bob_mod)
        power_db = 20.0 * np.log10(np.abs(etas) / m)
        # restrict to past the first null so the peak found is a sidelobe
        u = (math.pi * F0 * params.uniform_spacing / SPEED_OF_LIGHT
             * np.abs(np.cos(thetas) - math.cos(bob_mod.angle_rad)))
        sidelobe = power_db[(u > math.pi / m) & (u < 2 * math.pi / m)]
        assert abs(sidelobe.max() - (-13.3)) < 0.5


@pytest.fixture(scope="module")
def records(base_scenario, link_mod):
    return sweep_vs_num_antennas(
        base_scenario, [5, 7], ALL_KINDS, link_mod, F0, FAST_SA,
        PerturbConfig(), master_seed=11, baseline_params=default_grid)


class TestSweepVsNumAntennas:
    def test_every_pair_present(self, records):
        pairs = {(r.sweep_value, r.configuration) for r in records}
        assert pairs == {(m, k) for m in (5, 7) for k in ALL_KINDS}

    def test_upper_bound_strictly_increasing(self, records):
        ubs = {r.sweep_value: r.secrecy_rate_bps_hz for r in records
               if r.configuration is ConfigurationKind.UPPER_BOUND}
        assert ubs[5] < ubs[7]

    def test_rates_clamped_to_upper_bound(self, records):
        ubs = {r.sweep_value: r.secrecy_rate_bps_hz for r in records
               if r.configuration is ConfigurationKind.UPPER_BOUND}
        for rec in records:
            assert 0.0 <= rec.secrecy_rate_bps_hz <= ubs[rec.sweep_value] + 1e-12

    def test_optimized_cost_never_above_baseline(self, base_scenario, link_mod):
        m = 7
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        eves = place_canonical_eves(m, base_scenario.bob, params, link_mod, F0,
                                    SPEED_OF_LIGHT)
        scenario = Scenario(base_scenario.bob, tuple(eves), 10.0 ** 0.5)
        for kind in (ConfigurationKind.MA_OPT1, ConfigurationKind.FDA_OPT1,
                     ConfigurationKind.FDMA_OPT1, ConfigurationKind.MA_OPT2,
                     ConfigurationKind.FDA_OPT2, ConfigurationKind.FDMA_OPT2):
            baseline = baseline_design(kind, m, params, F0)
            optimized = optimize_configuration(kind, scenario, m, params, F0,
                                               FAST_SA, PerturbConfig(),
                                               seed=5)
            assert cost(scenario, optimized) <= cost(scenario, baseline) + 1e-12

    def test_deterministic(self, base_scenario, link_mod, records):
        again = sweep_vs_num_antennas(
            base_scenario, [5, 7], ALL_KINDS, link_mod, F0, FAST_SA,
            PerturbConfig(), master_seed=11, baseline_params=default_grid)
        assert again == records

    def test_rows_depend_only_on_own_label(self, base_scenario, link_mod, records):
        alone = sweep_vs_num_antennas(
            base_scenario, [5, 7], (ConfigurationKind.FDMA_OPT1,), link_mod, F0, FAST_SA,
            PerturbConfig(), master_seed=11, baseline_params=default_grid)
        assert len(alone) == 2
        assert [r for r in records if r.configuration is ConfigurationKind.FDMA_OPT1] \
            == alone

    def test_rejects_tiny_arrays(self, base_scenario, link_mod):
        with pytest.raises(ValueError):
            sweep_vs_num_antennas(base_scenario, [3], ALL_KINDS, link_mod, F0,
                                  FAST_SA, PerturbConfig(), master_seed=0,
                                  baseline_params=default_grid)


class TestSweepVsNumEves:
    def test_zero_eves_reports_upper_bound(self, base_scenario, link_mod):
        records = sweep_vs_num_eves(
            base_scenario, [0], [9], (ConfigurationKind.FDMA_OPT1,
                                      ConfigurationKind.FDMA_OPT2),
            link_mod, F0, FAST_SA, PerturbConfig(), master_seed=3, trials=2,
            baseline_params=default_grid)
        params = default_baseline_params(9, F0, SPEED_OF_LIGHT)
        ub = math.log2(1.0 + snr_bob(base_scenario, make_cpa(9, params, F0)))
        for rec in records:
            assert abs(rec.secrecy_rate_bps_hz - ub) < 1e-12

    def test_rows_depend_only_on_own_label(self, base_scenario, link_mod):
        kwargs = dict(k_values=[1, 2], m_values=[9], link_cfg=link_mod, f0=F0,
                      sa_cfg=FAST_SA, perturb_cfg=PerturbConfig(),
                      master_seed=17, trials=3, baseline_params=default_grid)
        both = sweep_vs_num_eves(base_scenario, kinds=(ConfigurationKind.FDMA_OPT1,
                                                       ConfigurationKind.FDMA_OPT2),
                                 **kwargs)
        alone = sweep_vs_num_eves(base_scenario, kinds=(ConfigurationKind.FDMA_OPT2,),
                                  **kwargs)
        assert len(alone) == 6
        assert [r for r in both if r.configuration is ConfigurationKind.FDMA_OPT2] == alone

    @pytest.mark.parametrize("k_values", [[], [-1, 3], [2, -1]])
    def test_rejects_empty_or_negative_counts(self, base_scenario, link_mod, k_values):
        with pytest.raises(ValueError, match="k_values"):
            sweep_vs_num_eves(base_scenario, k_values, [9], (ConfigurationKind.CPA,),
                              link_mod, F0, FAST_SA, PerturbConfig(), master_seed=0,
                              trials=1, baseline_params=default_grid)

    def test_mean_rates_aggregation(self):
        recs = [
            # sweep_value, configuration, rate, seed, trial
            __import__("fdma.experiments", fromlist=["SweepRecord"]).SweepRecord(
                1, ConfigurationKind.CPA, rate, 0, t)
            for t, rate in enumerate((1.0, 3.0))
        ]
        assert mean_rates(recs)[(1, ConfigurationKind.CPA)] == 2.0


# One sha256 over the records of both sweeps below, rates as float.hex, taken
# before the two sweeps shared one job loop.  Two trials pin the labels of a
# trial > 0, which the one-trial CLI digests never reach.
SWEEP_DIGEST = "34b0c44c2e239427016446a835dbf9bedd90d0f6025f8b0ed4941a159b2c77b0"


def test_sweep_bytes_pinned(base_scenario, link_mod):
    kinds = (ConfigurationKind.CPA, ConfigurationKind.FDMA_OPT1,
             ConfigurationKind.FDMA_OPT2, ConfigurationKind.UPPER_BOUND)
    sa_cfg = AnnealerConfig(max_iterations=150, seed=0, max_rounds=2)
    by_m = sweep_vs_num_antennas(base_scenario, [7, 9], kinds, link_mod, F0, sa_cfg,
                                 PerturbConfig(), master_seed=5,
                                 baseline_params=default_grid)
    by_k = sweep_vs_num_eves(base_scenario, [0, 1, 2], [7, 9], kinds, link_mod, F0, sa_cfg,
                             PerturbConfig(), master_seed=5, trials=2,
                             baseline_params=default_grid)
    assert (len(by_m), len(by_k)) == (8, 48)
    digest = hashlib.sha256()
    for name, records in (("sweep-m", by_m), ("sweep-k", by_k)):
        for r in records:
            digest.update(f"{name}|{r.sweep_value}|{r.configuration.value}|"
                          f"{r.secrecy_rate_bps_hz.hex()}|{r.seed}|{r.trial}\n".encode())
    assert digest.hexdigest() == SWEEP_DIGEST


@pytest.fixture(scope="module")
def mixed_jobs(base_scenario, link_mod):
    "Annealed, closed-form and baseline jobs at two array sizes and two adversary counts."
    kinds = (ConfigurationKind.FDMA_OPT1, ConfigurationKind.MA_OPT1,
             ConfigurationKind.FDMA_OPT2, ConfigurationKind.CPA)
    jobs = []
    for m in (5, 7):
        params = default_grid(m)
        eves = place_canonical_eves(m, base_scenario.bob, params, link_mod, F0,
                                    SPEED_OF_LIGHT)
        for k in (1, 3):
            scenario = replace(base_scenario, eves=tuple(eves[:k]))
            jobs += [_Job(k, 0, f"pool/M={m}/K={k}/kind={kind.value}", scenario, m, params,
                          kind) for kind in kinds]
    return jobs


JOB_ARGS = (F0, AnnealerConfig(max_iterations=150, seed=0, max_rounds=1), PerturbConfig(), 23)


@pytest.fixture(scope="module")
def serial_records(mixed_jobs):
    "Each job's record from `_run_job` in this process, by label."
    return {job.label: _run_job(job, *JOB_ARGS) for job in mixed_jobs}


@pytest.mark.parametrize("one_cpu", [True, False], ids=["one-cpu", "all-cpus"])
@settings(max_examples=3)
@given(data=st.data())
def test_pool_records_equal_serial_records(mixed_jobs, serial_records, one_cpu, data):
    # Each example forks a pool of one worker per CPU when one_cpu is False.
    jobs = data.draw(st.permutations(mixed_jobs))
    with pytest.MonkeyPatch.context() as patch:
        if one_cpu:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        records = _run_jobs(jobs, *JOB_ARGS)
    assert records == [serial_records[job.label] for job in jobs]
    assert all(record.seconds > 0.0 for record in records)
    assert multiprocessing.active_children() == []


# A pooled sweep with a closed-form job, in a fresh interpreter: whether
# scipy.linalg is loaded before the sweep and after it.
POOLED_OPT2_SWEEP = """
import sys
from fdma.config import RunConfig
from fdma.experiments import ConfigurationKind, sweep_vs_num_antennas
cfg = RunConfig(f0_hz=30e9)
before = 'scipy.linalg' in sys.modules
sweep_vs_num_antennas(cfg.base_scenario(), [5], (ConfigurationKind.CPA,
                      ConfigurationKind.FDMA_OPT2), cfg.link_budget(), cfg.f0_hz,
                      cfg.annealer(), cfg.perturber(), 1, baseline_params=cfg.baseline_params)
print(before, 'scipy.linalg' in sys.modules)
"""


@pytest.mark.skipif(fdma.experiments.available_cpus() < 2, reason="needs a pool of two")
def test_pool_parent_imports_the_closed_form_solver():
    # Imported once before the fork, the solver's module is inherited by every
    # worker instead of being imported by each of them.
    child = subprocess.run([sys.executable, "-c", POOLED_OPT2_SWEEP], env=cli_env(),
                           capture_output=True, text=True, check=True)
    assert child.stdout.split() == ["False", "True"]


def test_baseline_only_sweep_runs_in_process(base_scenario, link_mod, monkeypatch):
    # Baseline jobs cost less than a pool takes to fork, so no pool is made for them;
    # one optimized job, closed-form included, brings the pool back.
    kinds = (ConfigurationKind.CPA, ConfigurationKind.LINEAR_FDA,
             ConfigurationKind.UPPER_BOUND)

    def sweep():
        return sweep_vs_num_antennas(base_scenario, [5, 7, 9, 11], kinds, link_mod, F0,
                                     FAST_SA, PerturbConfig(), master_seed=3,
                                     baseline_params=default_grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fdma.experiments, "available_cpus", lambda: 1)
        one_cpu = sweep()

    def no_pool(*args, **kwargs):
        raise AssertionError("an all-baseline sweep made a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert sweep() == one_cpu
    assert fdma.experiments.job_workers(kinds) == 1
    with_opt2 = kinds + (ConfigurationKind.FDA_OPT2,)
    assert fdma.experiments.job_workers(with_opt2) == min(fdma.experiments.available_cpus(), 4)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
def test_every_kind_rejects_a_grid_wider_than_the_aperture(bob_mod, link_mod, kind):
    # 21 elements 0.75 wavelengths apart span 15 wavelengths, more than 2 x 5.
    params = BaselineParams(0.75 * LAM, -1e6, 5 * LAM, 0.5 * LAM, (-10e6, 10e6))
    eves = place_canonical_eves(21, bob_mod, params, link_mod, F0, SPEED_OF_LIGHT)
    scenario = Scenario(bob_mod, tuple(eves), 10.0 ** 0.5)
    with pytest.raises(ValueError, match="M = 21 elements spans"):
        optimize_configuration(kind, scenario, 21, params, F0, FAST_SA, PerturbConfig(),
                               seed=1)


class TestCompareDesigns:
    def test_identical_designs_have_zero_diff(self):
        params = default_baseline_params(5, F0, SPEED_OF_LIGHT)
        design = make_linear_fda(5, params, F0)
        for rec in compare_designs(design, design):
            assert rec.position_a_wavelengths == rec.position_b_wavelengths
            assert rec.shift_a_mhz == rec.shift_b_mhz

    def test_linear_ramp_versus_single_carrier(self):
        params = default_baseline_params(6, F0, SPEED_OF_LIGHT)
        cpa = make_cpa(6, params, F0)
        fda = make_linear_fda(6, params, F0)
        records = compare_designs(fda, cpa)
        for i, rec in enumerate(records):
            assert rec.position_a_wavelengths == rec.position_b_wavelengths
            expected = (i + 1 - 3.5) * params.uniform_freq_step / 1e6
            assert abs(rec.shift_a_mhz - rec.shift_b_mhz - expected) < 1e-12

    def test_dimension_mismatch(self):
        params = default_baseline_params(4, F0, SPEED_OF_LIGHT)
        with pytest.raises(ValueError):
            compare_designs(make_cpa(4, params, F0), make_cpa(5, params, F0))

    @pytest.mark.slow
    def test_perturbed_positions_deviate_less_than_annealed(self, bob_mod, link_mod):
        # The closed-form perturbation stays near the uniform grid while the
        # annealer roams the whole aperture.
        m = 21
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        eves = place_canonical_eves(m, bob_mod, params, link_mod, F0, SPEED_OF_LIGHT)
        scenario = Scenario(bob_mod, tuple(eves), 10.0 ** 0.5)
        cpa = make_cpa(m, params, F0)
        sa_cfg = AnnealerConfig(max_iterations=4000, seed=42)
        opt1 = optimize_configuration(ConfigurationKind.FDMA_OPT1, scenario, m, params,
                                      F0, sa_cfg, PerturbConfig(),
                                      seed=42)
        opt2 = optimize_configuration(ConfigurationKind.FDMA_OPT2, scenario, m, params,
                                      F0, sa_cfg, PerturbConfig())
        dev1 = np.max(np.abs(opt1.positions - cpa.positions)) / LAM
        dev2 = np.max(np.abs(opt2.positions - cpa.positions)) / LAM
        assert dev2 < dev1


class TestConfigurationSemantics:
    def test_frozen_blocks(self, bob_mod, link_mod):
        m = 7
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        eves = place_canonical_eves(m, bob_mod, params, link_mod, F0, SPEED_OF_LIGHT)
        scenario = Scenario(bob_mod, tuple(eves), 10.0 ** 0.5)
        cpa = make_cpa(m, params, F0)
        fda = make_linear_fda(m, params, F0)
        ma = optimize_configuration(ConfigurationKind.MA_OPT1, scenario, m, params, F0,
                                    FAST_SA, PerturbConfig(), seed=1)
        assert np.all(ma.freq_shifts == 0.0)
        fda_opt = optimize_configuration(ConfigurationKind.FDA_OPT1, scenario, m, params,
                                         F0, FAST_SA, PerturbConfig(), seed=1)
        np.testing.assert_array_equal(fda_opt.positions, fda.positions)
        ma2 = optimize_configuration(ConfigurationKind.MA_OPT2, scenario, m, params, F0,
                                     FAST_SA, PerturbConfig())
        assert np.all(ma2.freq_shifts == 0.0)
        fda2 = optimize_configuration(ConfigurationKind.FDA_OPT2, scenario, m, params,
                                      F0, FAST_SA, PerturbConfig())
        np.testing.assert_array_equal(fda2.positions, fda.positions)
        assert np.array_equal(
            optimize_configuration(ConfigurationKind.CPA, scenario, m, params, F0,
                                   FAST_SA, PerturbConfig()).positions,
            cpa.positions)

    def test_upper_bound_rate_ignores_adversaries(self, bob_mod, link_mod):
        m = 9
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        eves = place_canonical_eves(m, bob_mod, params, link_mod, F0, SPEED_OF_LIGHT)
        scenario = Scenario(bob_mod, tuple(eves), 10.0 ** 0.5)
        design = make_cpa(m, params, F0)
        assert configuration_rate(ConfigurationKind.UPPER_BOUND, scenario, design) \
            == math.log2(1.0 + snr_bob(scenario, design))
