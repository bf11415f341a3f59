import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdma.annealing import AlternationConfig, AnnealerConfig, cost
from fdma.experiments import ALL_KINDS, ConfigurationKind, baseline_design, \
    compare_designs, configuration_rate, mean_rates, optimize_configuration, \
    raster_beampattern, raster_columns, sweep_vs_num_antennas, sweep_vs_num_eves
from fdma.model import SPEED_OF_LIGHT, Scenario, beampattern_batch, snr_bob, wavelength
from fdma.perturbation import PerturbConfig
from fdma.scenario import GridSpec, LinkBudgetConfig, default_baseline_params, make_cpa, \
    make_linear_fda, place_canonical_eves

from conftest import F0, random_design, random_placement

LAM = wavelength(F0)

FAST_SA = AnnealerConfig(max_iterations=600, seed=0)
FAST_ALT = AlternationConfig(max_rounds=2, relative_tolerance=1e-3)


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
        columns = list(raster_columns(scenario, design, grid))
        assert [x for x, _, _ in columns] == grid.x_points().tolist()
        blocks = (np.repeat([x for x, _, _ in columns], grid.y_points().size),
                  np.concatenate([ys for _, ys, _ in columns]),
                  np.concatenate([db for _, _, db in columns]))
        expected = whole_grid_raster(scenario, design, grid)
        assert all(np.array_equal(u, v) for u, v in zip(blocks, expected))
        assert all(np.array_equal(u, v)
                   for u, v in zip(raster_beampattern(scenario, design, grid), expected))

    def test_grid_aligned_receiver_cell_is_zero_db(self, bob_mod, link_mod):
        params = default_baseline_params(21, F0, SPEED_OF_LIGHT)
        eves = place_canonical_eves(21, bob_mod, params, link_mod, F0, SPEED_OF_LIGHT)
        scenario = Scenario(bob_mod, tuple(eves), 10.0 ** 0.5)
        design = make_cpa(21, params, F0)
        grid = GridSpec(20.0, 40.0, 80.0, 100.0, 1.0)  # (30, 90) lands on-grid
        x, y, power_db = raster_beampattern(scenario, design, grid)
        assert x.shape == y.shape == power_db.shape == (21 * 21,)
        (receiver,) = np.flatnonzero((x == 30.0) & (y == 90.0))
        assert power_db[receiver] > -1e-9
        assert power_db.max() <= 1e-6

    def test_deterministic(self, base_scenario):
        params = default_baseline_params(11, F0, SPEED_OF_LIGHT)
        design = make_linear_fda(11, params, F0)
        grid = GridSpec(-20.0, 20.0, 10.0, 40.0, 2.0)
        a = raster_beampattern(base_scenario, design, grid)
        b = raster_beampattern(base_scenario, design, grid)
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
        base_scenario, [5, 7], ALL_KINDS, link_mod, F0, FAST_SA, FAST_ALT,
        PerturbConfig(), master_seed=11)


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
                                               FAST_SA, FAST_ALT, PerturbConfig(),
                                               seed=5)
            assert cost(scenario, optimized) <= cost(scenario, baseline) + 1e-12

    def test_deterministic(self, base_scenario, link_mod, records):
        again = sweep_vs_num_antennas(
            base_scenario, [5, 7], ALL_KINDS, link_mod, F0, FAST_SA, FAST_ALT,
            PerturbConfig(), master_seed=11)
        assert again == records

    def test_rejects_tiny_arrays(self, base_scenario, link_mod):
        with pytest.raises(ValueError):
            sweep_vs_num_antennas(base_scenario, [3], ALL_KINDS, link_mod, F0,
                                  FAST_SA, FAST_ALT, PerturbConfig(), master_seed=0)


class TestSweepVsNumEves:
    def test_zero_eves_reports_upper_bound(self, base_scenario, link_mod):
        records = sweep_vs_num_eves(
            base_scenario, [0], [9], (ConfigurationKind.FDMA_OPT1,
                                      ConfigurationKind.FDMA_OPT2),
            link_mod, F0, FAST_SA, FAST_ALT, PerturbConfig(), master_seed=3, trials=2)
        params = default_baseline_params(9, F0, SPEED_OF_LIGHT)
        ub = math.log2(1.0 + snr_bob(base_scenario, make_cpa(9, params, F0)))
        for rec in records:
            assert abs(rec.secrecy_rate_bps_hz - ub) < 1e-12

    def test_rows_depend_only_on_own_label(self, base_scenario, link_mod):
        kwargs = dict(k_values=[1, 2], m_values=[9], link_cfg=link_mod, f0=F0,
                      sa_cfg=FAST_SA, alt_cfg=FAST_ALT, perturb_cfg=PerturbConfig(),
                      master_seed=17, trials=3)
        both = sweep_vs_num_eves(base_scenario, kinds=(ConfigurationKind.FDMA_OPT1,
                                                       ConfigurationKind.FDMA_OPT2),
                                 **kwargs)
        alone = sweep_vs_num_eves(base_scenario, kinds=(ConfigurationKind.FDMA_OPT2,),
                                  **kwargs)
        assert len(alone) == 6
        assert [r for r in both if r.configuration is ConfigurationKind.FDMA_OPT2] == alone

    def test_mean_rates_aggregation(self):
        recs = [
            # sweep_value, configuration, rate, seed, trial
            __import__("fdma.experiments", fromlist=["SweepRecord"]).SweepRecord(
                1, ConfigurationKind.CPA, rate, 0, t)
            for t, rate in enumerate((1.0, 3.0))
        ]
        assert mean_rates(recs)[(1, ConfigurationKind.CPA)] == 2.0


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
                                      F0, sa_cfg, AlternationConfig(), PerturbConfig(),
                                      seed=42)
        opt2 = optimize_configuration(ConfigurationKind.FDMA_OPT2, scenario, m, params,
                                      F0, sa_cfg, AlternationConfig(), PerturbConfig())
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
                                    FAST_SA, FAST_ALT, PerturbConfig(), seed=1)
        assert np.all(ma.freq_shifts == 0.0)
        fda_opt = optimize_configuration(ConfigurationKind.FDA_OPT1, scenario, m, params,
                                         F0, FAST_SA, FAST_ALT, PerturbConfig(), seed=1)
        np.testing.assert_array_equal(fda_opt.positions, fda.positions)
        ma2 = optimize_configuration(ConfigurationKind.MA_OPT2, scenario, m, params, F0,
                                     FAST_SA, FAST_ALT, PerturbConfig())
        assert np.all(ma2.freq_shifts == 0.0)
        fda2 = optimize_configuration(ConfigurationKind.FDA_OPT2, scenario, m, params,
                                      F0, FAST_SA, FAST_ALT, PerturbConfig())
        np.testing.assert_array_equal(fda2.positions, fda.positions)
        assert np.array_equal(
            optimize_configuration(ConfigurationKind.CPA, scenario, m, params, F0,
                                   FAST_SA, FAST_ALT, PerturbConfig()).positions,
            cpa.positions)

    def test_upper_bound_rate_ignores_adversaries(self, bob_mod, link_mod):
        m = 9
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        eves = place_canonical_eves(m, bob_mod, params, link_mod, F0, SPEED_OF_LIGHT)
        scenario = Scenario(bob_mod, tuple(eves), 10.0 ** 0.5)
        design = make_cpa(m, params, F0)
        assert configuration_rate(ConfigurationKind.UPPER_BOUND, scenario, design) \
            == math.log2(1.0 + snr_bob(scenario, design))
