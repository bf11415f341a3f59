import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdma.model import ArrayDesign, Placement, Scenario, SPEED_OF_LIGHT, beampattern, \
    beampattern_batch, channel, cost, eve_snrs, mrt_beamformer, snr_bob, snr_eve, \
    steering_vector, wavelength, worst_case_secrecy_rate, _costs, _eta, _paths, _phasors
from fdma.scenario import LinkBudgetConfig, default_baseline_params, make_cpa

from conftest import F0, random_design, random_placement

LAM = wavelength(F0)


def unit_placement(r, theta):
    return Placement(r, theta, path_loss_linear=1.0, noise_power_linear=1.0)


class TestArrayDesign:
    def test_rejects_unordered_positions(self):
        with pytest.raises(ValueError):
            ArrayDesign([0.0, -0.01], F0, [0.0, 0.0])

    def test_rejects_oversized_shift(self):
        with pytest.raises(ValueError):
            ArrayDesign([0.0], F0, [2e-3 * F0])

    @pytest.mark.parametrize("positions,f0,shifts", [
        ([0.0, math.inf], F0, [0.0, 0.0]),
        ([0.0, 0.01], F0, [0.0, math.nan]),
        ([0.0, 0.01], math.inf, [0.0, 0.0]),
    ], ids=["inf-position", "nan-shift", "inf-f0"])
    def test_rejects_non_finite_values(self, positions, f0, shifts):
        with pytest.raises(ValueError, match="finite"):
            ArrayDesign(positions, f0, shifts)

    def test_frequencies(self):
        design = ArrayDesign([-0.01, 0.01], F0, [-1e6, 1e6])
        assert np.allclose(design.frequencies, [F0 - 1e6, F0 + 1e6])


class TestPlacement:
    @pytest.mark.parametrize("kwargs", [
        dict(range_m=0.0, angle_rad=1.0, path_loss_linear=0.5, noise_power_linear=1.0),
        dict(range_m=1.0, angle_rad=0.0, path_loss_linear=0.5, noise_power_linear=1.0),
        dict(range_m=1.0, angle_rad=1.0, path_loss_linear=0.0, noise_power_linear=1.0),
        dict(range_m=1.0, angle_rad=1.0, path_loss_linear=0.5, noise_power_linear=0.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Placement(**kwargs)


class TestSteeringVector:
    def test_single_element_phase(self):
        design = ArrayDesign([0.0], F0, [0.0])
        place = unit_placement(42.0, 1.0)
        expected = cmath.exp(-2j * math.pi * F0 * 42.0 / SPEED_OF_LIGHT)
        assert abs(steering_vector(design, place)[0] - expected) < 1e-12

    def test_half_wavelength_pair_is_antiphase_broadside(self):
        # Elements at -lam/4 and +lam/4 seen end-fire: the path difference is
        # lam/2, i.e. a phase difference of pi, so the entries are opposite.
        design = ArrayDesign([-LAM / 4, LAM / 4], F0, [0.0, 0.0])
        place = unit_placement(100.0, 1e-9)  # effectively theta = 0
        a = steering_vector(design, place)
        assert abs(a[1] / a[0] - (-1.0)) < 1e-9

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_unit_modulus(self, m, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng, m)
        place = random_placement(rng, LinkBudgetConfig())
        assert np.max(np.abs(np.abs(steering_vector(design, place)) - 1.0)) < 1e-12


class TestChannel:
    def test_unit_loss_equals_steering(self):
        rng = np.random.default_rng(7)
        design = random_design(rng, 5)
        place = unit_placement(80.0, 0.7)
        assert np.allclose(channel(design, place), steering_vector(design, place))

    def test_norm_identity(self):
        design = ArrayDesign([-0.015, -0.005, 0.005, 0.015], F0, [0.0] * 4)
        place = Placement(50.0, 1.2, path_loss_linear=0.25, noise_power_linear=1.0)
        assert abs(np.linalg.norm(channel(design, place)) ** 2 - 1.0) < 1e-12

    def test_default_bob_norm(self, bob, link_cfg):
        # ||h||^2 must equal the path loss at Bob's range times M, with the
        # loss recomputed here from the dB-domain budget.
        rng = np.random.default_rng(3)
        m = 21
        design = random_design(rng, m)
        loss_db = link_cfg.ref_path_loss_db + 25.0 * math.log10(bob.range_m)
        expected = 10.0 ** (-loss_db / 10.0) * m
        assert abs(np.linalg.norm(channel(design, bob)) ** 2 - expected) < 1e-9 * expected


class TestMrtBeamformer:
    def test_single_element(self):
        design = ArrayDesign([0.0], F0, [0.0])
        place = unit_placement(10.0, 1.0)
        w = mrt_beamformer(design, place)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        assert abs(w[0] - steering_vector(design, place)[0]) < 1e-12

    @given(st.integers(1, 32), st.integers(0, 2**32 - 1))
    def test_unit_norm_and_matched_gain(self, m, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng, m)
        place = random_placement(rng, LinkBudgetConfig())
        w = mrt_beamformer(design, place)
        assert abs(np.linalg.norm(w) ** 2 - 1.0) < 1e-12
        h = channel(design, place)
        expected = place.path_loss_linear * m
        assert abs(abs(np.vdot(h, w)) ** 2 - expected) < 1e-9 * expected

    @given(st.integers(2, 16), st.integers(0, 2**32 - 1))
    def test_matched_weights_are_optimal(self, m, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng, m)
        place = random_placement(rng, LinkBudgetConfig())
        h = channel(design, place)
        best = place.path_loss_linear * m
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w /= np.linalg.norm(w)
        assert abs(np.vdot(h, w)) ** 2 <= best + 1e-9


class TestBeampattern:
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_self_beam_identity(self, m, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng, m)
        place = random_placement(rng, LinkBudgetConfig())
        assert abs(beampattern(design, place, place) - m) < 1e-9

    def test_bound_over_random_probes(self, default_scenario):
        rng = np.random.default_rng(11)
        design = random_design(rng, 21)
        ranges = rng.uniform(1.0, 400.0, size=1000)
        cosines = np.cos(rng.uniform(0.01, math.pi - 0.01, size=1000))
        etas = beampattern_batch(design, ranges, cosines, default_scenario.bob)
        assert np.max(np.abs(etas)) <= 21 + 1e-9

    def test_batch_matches_scalar(self, bob):
        rng = np.random.default_rng(13)
        design = random_design(rng, 9)
        probe = random_placement(rng, LinkBudgetConfig())
        scalar = beampattern(design, probe, bob)
        batch = beampattern_batch(design, np.array([probe.range_m]),
                                  np.array([math.cos(probe.angle_rad)]), bob)[0]
        assert abs(scalar - batch) < 1e-9

    @pytest.mark.parametrize("m,probes", [(21, 300), (21, 391), (21, 1000), (64, 1000)])
    def test_blocks_match_one_call(self, bob, m, probes):
        # Probes go through the kernel in row blocks; the result keeps the bits
        # of one product over all of them.  At M = 21, 391 probes in blocks of
        # 195 would leave one lone row, whose one-row product takes numpy's dot
        # path and differs in the last bits, so the blocks are near-equal.
        rng = np.random.default_rng(19)
        design = random_design(rng, m)
        ranges = rng.uniform(1.0, 400.0, size=probes)
        cosines = np.cos(rng.uniform(0.01, math.pi - 0.01, size=probes))
        whole = _eta(*_phasors(*_paths(design.positions, ranges, cosines, bob),
                               design.frequencies / SPEED_OF_LIGHT))
        np.testing.assert_array_equal(beampattern_batch(design, ranges, cosines, bob), whole)
        assert beampattern_batch(design, np.array([]), np.array([]), bob).shape == (0,)

    def test_cpa_equal_range_arc_matches_dirichlet_kernel(self, bob):
        # Single-carrier uniform array probed along the equal-range arc: the
        # direct summation must reproduce |sin(M u)/sin(u)| with
        # u = pi f0 dD (cos theta - cos theta_B) / c.
        m = 21
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        design = make_cpa(m, params, F0)
        thetas = np.linspace(0.2, math.pi - 0.2, 257)
        direct = np.abs(beampattern_batch(design, np.full(thetas.size, bob.range_m),
                                          np.cos(thetas), bob))
        u = (math.pi * F0 * params.uniform_spacing / SPEED_OF_LIGHT
             * (np.cos(thetas) - math.cos(bob.angle_rad)))
        with np.errstate(invalid="ignore", divide="ignore"):
            kernel = np.abs(np.where(np.abs(np.sin(u)) < 1e-300, m,
                                     np.sin(m * u) / np.sin(u)))
        np.testing.assert_allclose(direct, kernel, rtol=1e-8, atol=1e-10)


class TestPhasors:
    @given(st.integers(1, 6), st.integers(2, 32), st.integers(0, 2**32 - 1))
    def test_columns_keep_their_bits(self, k, m, seed):
        # The shift move's cache rebuilds single columns of the probe matrix
        # and entries of the receiver vector, repeated indices included.
        rng = np.random.default_rng(seed)
        paths = rng.uniform(-300.0, 300.0, size=(k, m))
        bob_paths = rng.uniform(-300.0, 300.0, size=m)
        f_over_c = F0 * (1.0 + rng.uniform(-1e-3, 1e-3, size=m)) / SPEED_OF_LIGHT
        idx = rng.integers(0, m, size=int(rng.integers(1, 2 * m + 1)))
        idx = np.concatenate([idx, idx[:1]])
        probes, receiver = _phasors(paths, bob_paths, f_over_c)
        columns, entries = _phasors(paths[:, idx], bob_paths[idx], f_over_c[idx])
        assert np.array_equal(columns, probes[:, idx])
        assert np.array_equal(entries, receiver[idx])


class TestBatchedCostMatchesCost:
    # The annealer's moves cost a window of candidates in one stacked _costs
    # call; every row must cost exactly what cost() gives that row's design.
    @settings(derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), num_eves=st.integers(0, 6),
           num_antennas=st.integers(2, 32), rows=st.integers(1, 40),
           stacked=st.sampled_from(["positions", "shifts", "both"]))
    def test_every_row_equals_cost(self, link_cfg, bob, seed, num_eves, num_antennas,
                                   rows, stacked):
        rng = np.random.default_rng(seed)
        eves = tuple(random_placement(rng, link_cfg) for _ in range(num_eves))
        scenario = Scenario(bob, eves, tx_power_linear=10.0 ** 0.5)
        designs = [random_design(rng, num_antennas) for _ in range(rows)]
        positions = np.array([d.positions for d in designs])
        shifts = np.array([d.freq_shifts for d in designs])
        if stacked == "positions":
            shifts = shifts[0]
        elif stacked == "shifts":
            positions = positions[0]
        paths = _paths(positions, scenario.eve_ranges, scenario.eve_cosines, bob)
        costs = _costs(*_phasors(*paths, (F0 + shifts) / SPEED_OF_LIGHT), scenario.eve_weights)
        assert costs.shape == (rows,)
        for i, row_cost in enumerate(costs.tolist()):
            design = ArrayDesign(positions if positions.ndim == 1 else positions[i], F0,
                                 shifts if shifts.ndim == 1 else shifts[i])
            assert row_cost.hex() == cost(scenario, design).hex(), i


class TestCost:
    def test_no_eves_is_zero(self, bob):
        scenario = Scenario(bob, (), tx_power_linear=1.0)
        design = make_cpa(4, default_baseline_params(4, F0, SPEED_OF_LIGHT), F0)
        assert cost(scenario, design) == 0.0

    def test_colocated_eve_unit_budget(self):
        bob = Placement(10.0, 1.0, path_loss_linear=1.0, noise_power_linear=1.0)
        scenario = Scenario(bob, (bob,), tx_power_linear=2.0)
        design = make_cpa(6, default_baseline_params(6, F0, SPEED_OF_LIGHT), F0)
        assert abs(cost(scenario, design) - 2.0 * 6) < 1e-9

    def test_matches_per_eve_snr_sum(self, default_scenario):
        rng = np.random.default_rng(23)
        design = random_design(rng, 21)
        total = sum(snr_eve(default_scenario, design, k) for k in range(3))
        assert abs(cost(default_scenario, design) - total) < 1e-12 * max(total, 1.0)


class TestSnr:
    def test_bob_closed_form_small(self):
        bob = Placement(10.0, 1.0, path_loss_linear=1.0, noise_power_linear=1.0)
        scenario = Scenario(bob, (), tx_power_linear=1.0)
        design = ArrayDesign(np.linspace(-0.03, 0.03, 7), F0, np.zeros(7))
        assert snr_bob(scenario, design) == 7.0

    def test_bob_snr_ignores_geometry(self, default_scenario):
        rng = np.random.default_rng(5)
        a = random_design(rng, 21)
        b = random_design(rng, 21)
        assert snr_bob(default_scenario, a) == snr_bob(default_scenario, b)

    @given(st.integers(0, 2**32 - 1))
    def test_bob_closed_form_matches_direct_product(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 65))
        design = random_design(rng, m)
        cfg = LinkBudgetConfig()
        scenario = Scenario(random_placement(rng, cfg), (), tx_power_linear=10.0 ** 0.5)
        h = channel(design, scenario.bob, scenario.speed_of_light)
        w = mrt_beamformer(design, scenario.bob, scenario.speed_of_light)
        direct = (scenario.tx_power_linear * abs(np.vdot(h, w)) ** 2
                  / scenario.bob.noise_power_linear)
        closed = snr_bob(scenario, design)
        assert abs(closed - direct) < 1e-9 * closed

    def test_eve_colocated_with_bob(self, bob):
        scenario = Scenario(bob, (bob,), tx_power_linear=2.0)
        design = ArrayDesign(np.linspace(-0.04, 0.04, 9), F0, np.zeros(9))
        assert abs(snr_eve(scenario, design, 0) - snr_bob(scenario, design)) < 1e-9

    # Same deep-null conditioning as the weighted-gain property below: about
    # 1.6% of random runs would draw an adversary past 1e-9 relative.  A fixed
    # example set keeps the tolerance and a stable gate.
    @settings(derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_eve_matches_direct_product(self, seed):
        rng = np.random.default_rng(seed)
        cfg = LinkBudgetConfig()
        eves = tuple(random_placement(rng, cfg) for _ in range(3))
        scenario = Scenario(random_placement(rng, cfg), eves, tx_power_linear=10.0 ** 0.5)
        design = random_design(rng, int(rng.integers(4, 33)))
        k = int(rng.integers(0, 3))
        h = channel(design, eves[k], scenario.speed_of_light)
        w = mrt_beamformer(design, scenario.bob, scenario.speed_of_light)
        direct = (scenario.tx_power_linear * abs(np.vdot(h, w)) ** 2
                  / eves[k].noise_power_linear)
        assert abs(snr_eve(scenario, design, k) - direct) < 1e-9 * max(direct, 1e-30)

    # |eta|^2 is ill-conditioned in deep nulls: both paths round phases near
    # 1e5 rad, and about 3 in 10^4 random adversaries then differ by more than
    # 1e-9 relative.  A fixed example set keeps the tolerance and a stable gate.
    @settings(derandomize=True)
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_weighted_eve_snrs_match_scalar_beampattern(self, num_eves, seed):
        rng = np.random.default_rng(seed)
        cfg = LinkBudgetConfig()
        eves = tuple(random_placement(rng, cfg) for _ in range(num_eves))
        scenario = Scenario(random_placement(rng, cfg), eves, tx_power_linear=10.0 ** 0.5)
        design = random_design(rng, int(rng.integers(num_eves + 1, 33)))
        weighted = eve_snrs(scenario, design) * design.num_antennas
        assert weighted.shape == (num_eves,)
        for k, eve in enumerate(eves):
            eta = beampattern(design, eve, scenario.bob, scenario.speed_of_light)
            reference = (scenario.tx_power_linear * eve.path_loss_linear * abs(eta) ** 2
                         / eve.noise_power_linear)
            assert abs(weighted[k] - reference) < 1e-9 * max(reference, 1e-30)
        if num_eves == 0:
            assert cost(scenario, design) == 0.0

    def test_eve_index_out_of_range(self, default_scenario):
        design = make_cpa(21, default_baseline_params(21, F0, SPEED_OF_LIGHT), F0)
        with pytest.raises(IndexError):
            snr_eve(default_scenario, design, 3)

    def test_eve_snrs_vector_matches_scalars(self, default_scenario):
        rng = np.random.default_rng(17)
        design = random_design(rng, 21)
        vector = eve_snrs(default_scenario, design)
        scalars = [snr_eve(default_scenario, design, k) for k in range(3)]
        np.testing.assert_allclose(vector, scalars, rtol=1e-12)


class TestWorstCaseSecrecyRate:
    def test_no_eves_is_the_upper_bound(self, bob):
        scenario = Scenario(bob, (), tx_power_linear=10.0 ** 0.5)
        design = make_cpa(21, default_baseline_params(21, F0, SPEED_OF_LIGHT), F0)
        # Independent chain: 5 dBm power, -80 dBm noise, 30 dB reference loss
        # with a 25 log10(R) slope at R = sqrt(30^2 + 90^2).
        p_mw = 10.0 ** (5.0 / 10.0)
        noise_mw = 10.0 ** (-80.0 / 10.0)
        loss = 10.0 ** (-(30.0 + 25.0 * math.log10(math.hypot(30.0, 90.0))) / 10.0)
        expected = math.log2(1.0 + p_mw * loss * 21 / noise_mw)
        assert abs(worst_case_secrecy_rate(scenario, design) - expected) < 1e-12

    def test_colocated_eve_clamps_to_zero(self, bob):
        scenario = Scenario(bob, (bob,), tx_power_linear=10.0 ** 0.5)
        design = make_cpa(21, default_baseline_params(21, F0, SPEED_OF_LIGHT), F0)
        assert worst_case_secrecy_rate(scenario, design) == 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_clamped_between_zero_and_upper_bound(self, seed):
        rng = np.random.default_rng(seed)
        cfg = LinkBudgetConfig()
        eves = tuple(random_placement(rng, cfg) for _ in range(int(rng.integers(0, 4))))
        scenario = Scenario(random_placement(rng, cfg), eves, tx_power_linear=10.0 ** 0.5)
        design = random_design(rng, int(rng.integers(1, 33)))
        rate = worst_case_secrecy_rate(scenario, design)
        assert 0.0 <= rate <= math.log2(1.0 + snr_bob(scenario, design)) + 1e-12
