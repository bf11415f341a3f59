import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdma.model import SPEED_OF_LIGHT, wavelength
from fdma.scenario import BaselineParams, DEFAULT_EVE_DOMAIN, GridSpec, LinkBudgetConfig, \
    PolarDomain, SamplingExhaustedError, default_baseline_params, derive_seed, \
    in_target_region, make_cpa, make_linear_fda, make_placement, path_loss_linear, \
    place_canonical_eves, sample_eves_outside_target

from conftest import F0

LAM = wavelength(F0)


class TestPathLoss:
    def test_reference_range(self):
        assert abs(path_loss_linear(1.0, LinkBudgetConfig()) - 1e-3) < 1e-18

    def test_ten_meters(self):
        # 30 dB reference + 25 dB slope decade = 55 dB total.
        assert abs(path_loss_linear(10.0, LinkBudgetConfig()) - 10.0 ** -5.5) < 1e-20

    def test_hundred_meters(self):
        # 30 + 50 dB.
        assert abs(path_loss_linear(100.0, LinkBudgetConfig()) - 1e-8) < 1e-22

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            path_loss_linear(0.0, LinkBudgetConfig())

    @given(st.floats(0.1, 1000.0), st.floats(1.001, 5.0))
    def test_strictly_decreasing(self, r, factor):
        cfg = LinkBudgetConfig()
        assert path_loss_linear(r * factor, cfg) < path_loss_linear(r, cfg)


class TestBaselines:
    def test_cpa_symmetric_three_elements(self):
        params = default_baseline_params(3, F0, SPEED_OF_LIGHT)
        design = make_cpa(3, params, F0)
        d = params.uniform_spacing
        np.testing.assert_allclose(design.positions, [-d, 0.0, d], atol=1e-15)
        assert np.all(design.freq_shifts == 0.0)

    def test_linear_ramp_two_elements(self):
        params = default_baseline_params(2, F0, SPEED_OF_LIGHT)
        design = make_linear_fda(2, params, F0)
        # (m - 1.5) * (-1 MHz) for m = 1, 2.
        np.testing.assert_allclose(design.freq_shifts, [0.5e6, -0.5e6])

    def test_edge_positions_at_21_elements(self):
        params = default_baseline_params(21, F0, SPEED_OF_LIGHT)
        design = make_cpa(21, params, F0)
        assert abs(design.positions[0] - (-7.5 * LAM)) < 1e-12
        assert abs(design.positions[-1] - 7.5 * LAM) < 1e-12

    @given(st.integers(1, 40))
    def test_zero_perturbation_designs_are_odd_symmetric(self, m):
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        cpa = make_cpa(m, params, F0)
        fda = make_linear_fda(m, params, F0)
        np.testing.assert_allclose(cpa.positions, -cpa.positions[::-1], atol=1e-12)
        np.testing.assert_allclose(fda.freq_shifts, -fda.freq_shifts[::-1], atol=1e-12)
        np.testing.assert_array_equal(cpa.positions, fda.positions)
        assert abs(cpa.positions.sum()) < 1e-12


class TestCanonicalEves:
    def test_range_offset_with_rounded_light_speed(self, bob, link_cfg):
        # With c = 3e8 and a +1 MHz step the offset is 3c / (2 * 21 * 1e6).
        params = BaselineParams(0.75 * LAM, 1e6, 21 * LAM, 0.5 * LAM, (-10e6, 10e6))
        eves = place_canonical_eves(21, bob, params, link_cfg, F0, 3e8)
        assert abs(eves[0].range_m - (bob.range_m + 450.0 / 21.0)) < 1e-9

    def test_angle_offset_is_wavelength_free(self, bob, link_cfg, default_params):
        eves = place_canonical_eves(21, bob, default_params, link_cfg, F0, SPEED_OF_LIGHT)
        # 3 lam / (2 M dD) with dD = 0.75 lam: the wavelength cancels to 2/M.
        expected = math.acos(math.cos(bob.angle_rad - 2.0 / 21.0))
        assert abs(eves[1].angle_rad - expected) < 1e-12

    def test_shared_coordinates_exact(self, bob, link_cfg, default_params):
        e1, e2, e3 = place_canonical_eves(21, bob, default_params, link_cfg, F0,
                                          SPEED_OF_LIGHT)
        assert e1.angle_rad == bob.angle_rad
        assert e2.range_m == bob.range_m
        assert e3.angle_rad == e2.angle_rad and e3.range_m == e1.range_m

    def test_each_carries_its_own_path_loss(self, bob, link_cfg, default_params):
        for eve in place_canonical_eves(21, bob, default_params, link_cfg, F0,
                                        SPEED_OF_LIGHT):
            assert eve.path_loss_linear == path_loss_linear(eve.range_m, link_cfg)

    def test_rejects_degenerate_steps(self, bob, link_cfg):
        bad = BaselineParams(0.75 * LAM, 0.0, 21 * LAM, 0.5 * LAM, (-10e6, 10e6))
        with pytest.raises(ValueError):
            place_canonical_eves(21, bob, bad, link_cfg, F0, SPEED_OF_LIGHT)

    def test_range_offset_magnitude_shrinks_with_more_antennas(self, bob, link_cfg):
        offsets = []
        for m in (11, 21, 31):
            params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
            eves = place_canonical_eves(m, bob, params, link_cfg, F0, SPEED_OF_LIGHT)
            offsets.append(abs(eves[0].range_m - bob.range_m))
        assert offsets[0] > offsets[1] > offsets[2]


class TestTargetRegion:
    def test_bob_inside(self, bob, default_params):
        assert in_target_region(bob, bob, 21, default_params, F0, SPEED_OF_LIGHT)

    def test_far_range_outside(self, bob, default_params, link_cfg):
        halfwidth = SPEED_OF_LIGHT / (21 * abs(default_params.uniform_freq_step))
        place = make_placement(bob.range_m + 10 * halfwidth, bob.angle_rad, link_cfg)
        assert not in_target_region(place, bob, 21, default_params, F0, SPEED_OF_LIGHT)

    def test_range_boundary_is_inside(self, bob, default_params, link_cfg):
        halfwidth = SPEED_OF_LIGHT / (21 * abs(default_params.uniform_freq_step))
        place = make_placement(bob.range_m + halfwidth, bob.angle_rad, link_cfg)
        assert in_target_region(place, bob, 21, default_params, F0, SPEED_OF_LIGHT)


class TestSampling:
    def test_deterministic_for_fixed_seed(self, bob, default_params, link_cfg):
        kwargs = dict(num_eves=4, bob=bob, num_antennas=21, params=default_params,
                      cfg=link_cfg, f0=F0, c=SPEED_OF_LIGHT, rng_seed=99)
        first = sample_eves_outside_target(**kwargs)
        second = sample_eves_outside_target(**kwargs)
        for a, b in zip(first, second):
            assert a == b

    def test_all_outside_target_region(self, bob, default_params, link_cfg):
        eves = sample_eves_outside_target(8, bob, 21, default_params, link_cfg,
                                          F0, SPEED_OF_LIGHT, rng_seed=5)
        for eve in eves:
            assert not in_target_region(eve, bob, 21, default_params, F0, SPEED_OF_LIGHT)

    def test_default_domain_contract(self, bob, default_params, link_cfg):
        eves = sample_eves_outside_target(5, bob, 21, default_params, link_cfg,
                                          F0, SPEED_OF_LIGHT, rng_seed=7)
        assert len(eves) == 5
        assert len({(e.range_m, e.angle_rad) for e in eves}) == 5
        for eve in eves:
            assert DEFAULT_EVE_DOMAIN.r_min <= eve.range_m <= DEFAULT_EVE_DOMAIN.r_max
            assert eve.path_loss_linear > 0.0

    def test_exhaustion_raises(self, bob, link_cfg):
        # A domain buried inside the target region can never produce a point.
        params = default_baseline_params(21, F0, SPEED_OF_LIGHT)
        domain = PolarDomain(bob.range_m - 0.1, bob.range_m + 0.1,
                             bob.angle_rad - 1e-4, bob.angle_rad + 1e-4)
        with pytest.raises(SamplingExhaustedError):
            sample_eves_outside_target(1, bob, 21, params, link_cfg, F0,
                                       SPEED_OF_LIGHT, domain=domain, rng_seed=1)


class TestSeedDerivation:
    def test_stable_and_label_sensitive(self):
        a = derive_seed(123, "trial-0")
        assert a == derive_seed(123, "trial-0")
        assert a != derive_seed(123, "trial-1")
        assert a != derive_seed(124, "trial-0")
        assert 0 <= a < 2 ** 64


class TestGridSpec:
    def test_points_inclusive(self):
        grid = GridSpec(-2.0, 2.0, 1.0, 4.0, 1.0)
        np.testing.assert_allclose(grid.x_points(), [-2, -1, 0, 1, 2])
        np.testing.assert_allclose(grid.y_points(), [1, 2, 3, 4])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 0.0, 1.0, 0.5)
