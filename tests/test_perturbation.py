import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdma.annealing import reconstruct_positions
from fdma.model import ArrayDesign, Scenario, SPEED_OF_LIGHT, beampattern, cost, \
    wavelength
from fdma.perturbation import NullingSystem, PerturbConfig, SingularSystemError, \
    alternate_perturb, apply_frequency_perturbation, apply_position_perturbation, \
    build_frequency_system, build_position_system, default_ridge, \
    first_order_beampattern, solve_ridge, _block
from fdma.scenario import SPAN_SLACK, centered_indices, default_baseline_params, \
    fits_aperture, make_cpa, make_linear_fda, make_placement, meets_min_spacing, \
    place_canonical_eves

from conftest import F0

LAM = wavelength(F0)


def scenario_with(bob, eves):
    return Scenario(bob, tuple(eves), tx_power_linear=10.0 ** 0.5)


@pytest.fixture(scope="module")
def canonical(bob_module, link_cfg_module, params_module):
    eves = place_canonical_eves(21, bob_module, params_module, link_cfg_module, F0,
                                SPEED_OF_LIGHT)
    return scenario_with(bob_module, eves)


# module-scoped clones of the session fixtures (keeps hypothesis happy)
@pytest.fixture(scope="module")
def link_cfg_module():
    from fdma.scenario import LinkBudgetConfig

    return LinkBudgetConfig()


@pytest.fixture(scope="module")
def bob_module(link_cfg_module):
    return make_placement(math.hypot(30.0, 90.0), math.atan2(90.0, 30.0),
                          link_cfg_module)


@pytest.fixture(scope="module")
def params_module():
    return default_baseline_params(21, F0, SPEED_OF_LIGHT)


def position_phases(scenario, params, freq_shifts):
    "The position system's K x M phase matrix."
    return _block(scenario, params, "positions", freq_shifts, F0)[0]


def frequency_phases(scenario, params, positions):
    "The frequency system's K x M phase matrix."
    return _block(scenario, params, "shifts", positions, F0)[0]


class TestPhaseTerms:
    def test_colocated_eve_has_zero_phase(self, bob_module, params_module):
        scenario = scenario_with(bob_module, [bob_module])
        shifts = make_linear_fda(21, params_module, F0).freq_shifts
        positions = make_cpa(21, params_module, F0).positions
        assert np.all(position_phases(scenario, params_module, shifts) == 0.0)
        assert np.all(frequency_phases(scenario, params_module, positions) == 0.0)

    def test_odd_symmetry_at_baseline(self, canonical, params_module):
        shifts = make_linear_fda(21, params_module, F0).freq_shifts
        positions = make_cpa(21, params_module, F0).positions
        phis = position_phases(canonical, params_module, shifts)
        vars_ = frequency_phases(canonical, params_module, positions)
        for phi, var in zip(phis, vars_):
            np.testing.assert_allclose(phi, -phi[::-1], atol=1e-9)
            np.testing.assert_allclose(var, -var[::-1], atol=1e-9)
            # the carrier's sine sum then cancels exactly at the baseline
            assert abs(np.sin(phi).sum()) < 1e-9
            assert abs(np.sin(var).sum()) < 1e-9

    def test_same_bearing_eve_keeps_only_range_term(self, bob_module, link_cfg_module,
                                                    params_module):
        eve = make_placement(bob_module.range_m + 25.0, bob_module.angle_rad,
                             link_cfg_module)
        scenario = scenario_with(bob_module, [eve])
        shifts = np.array([3e6, -1e6, 2e6])
        small = default_baseline_params(3, F0, SPEED_OF_LIGHT)
        for m, got in enumerate(position_phases(scenario, small, shifts)[0]):
            expected = (2.0 * math.pi / SPEED_OF_LIGHT) * shifts[m] * (-25.0)
            assert abs(got - expected) < 1e-12 * abs(expected)

    def test_equal_range_eve_keeps_only_angle_term(self, bob_module, link_cfg_module,
                                                   params_module):
        eve = make_placement(bob_module.range_m, bob_module.angle_rad - 0.2,
                             link_cfg_module)
        scenario = scenario_with(bob_module, [eve])
        positions = np.array([-0.01, 0.002, 0.011])
        small = default_baseline_params(3, F0, SPEED_OF_LIGHT)
        dcos = math.cos(eve.angle_rad) - math.cos(bob_module.angle_rad)
        for m, got in enumerate(frequency_phases(scenario, small, positions)[0]):
            expected = (2.0 * math.pi / SPEED_OF_LIGHT) * F0 * positions[m] * dcos
            assert abs(got - expected) < 1e-12 * abs(expected)


class TestBuildSystems:
    def test_colocated_eve_row(self, bob_module, params_module):
        scenario = scenario_with(bob_module, [bob_module])
        shifts = make_linear_fda(21, params_module, F0).freq_shifts
        system = build_position_system(scenario, params_module, shifts, F0)
        assert np.all(system.a[0] == 0.0)
        assert abs(system.b[0] - 21.0) < 1e-12

    def test_degenerate_rows_for_canonical_eves(self, canonical, params_module):
        shifts = make_linear_fda(21, params_module, F0).freq_shifts
        positions = make_cpa(21, params_module, F0).positions
        pos_sys = build_position_system(canonical, params_module, shifts, F0)
        freq_sys = build_frequency_system(canonical, params_module, positions, F0)
        # same-bearing adversary: the position block cannot reach it
        assert np.max(np.abs(pos_sys.a[0])) < 1e-15
        # equal-range adversary: the frequency block cannot reach it
        assert np.max(np.abs(freq_sys.a[1])) < 1e-15

    def test_unreachable_blocks_leave_snr_untouched(self, canonical, params_module):
        # Positions alone cannot change the same-bearing adversary's SNR
        # (exactly); shifts alone leave the equal-range adversary's SNR
        # unchanged up to the tiny shift-times-position cross phase that the
        # exact pattern retains.
        from fdma.model import snr_eve

        baseline = make_linear_fda(21, params_module, F0)
        pos_only = alternate_perturb(canonical, baseline, params_module,
                                     PerturbConfig(), phases=("positions",))
        assert abs(snr_eve(canonical, pos_only, 0)
                   - snr_eve(canonical, baseline, 0)) < 1e-9
        shift_only = alternate_perturb(canonical, baseline, params_module,
                                       PerturbConfig(), phases=("shifts",))
        reference = snr_eve(canonical, baseline, 1)
        assert abs(snr_eve(canonical, shift_only, 1) - reference) < 1e-4 * reference

    def test_weights_are_snr_prefactors(self, canonical, params_module):
        shifts = make_linear_fda(21, params_module, F0).freq_shifts
        system = build_position_system(canonical, params_module, shifts, F0)
        for k, eve in enumerate(canonical.eves):
            expected = (canonical.tx_power_linear * eve.path_loss_linear
                        / (21 * eve.noise_power_linear))
            assert abs(system.q_diag[k] - expected) < 1e-15 * expected

    def test_entries_match_high_precision_recomputation(self, bob_module,
                                                        link_cfg_module):
        # Independent oracle: rebuild a 1x3 system entrywise with 50-digit
        # arithmetic straight from the defining formulas.
        eve = make_placement(70.0, 0.9, link_cfg_module)
        scenario = scenario_with(bob_module, [eve])
        params = default_baseline_params(3, F0, SPEED_OF_LIGHT)
        shifts = np.array([2.5e6, -0.5e6, 4e6])
        system = build_position_system(scenario, params, shifts, F0)

        mpmath.mp.dps = 50
        c = mpmath.mpf(SPEED_OF_LIGHT)
        f0 = mpmath.mpf(F0)
        dcos = mpmath.cos(mpmath.mpf(eve.angle_rad)) - mpmath.cos(
            mpmath.mpf(bob_module.angle_rad))
        d_r = mpmath.mpf(bob_module.range_m) - mpmath.mpf(eve.range_m)
        b_expected = mpmath.mpf(0)
        for m, idx in enumerate(centered_indices(3)):
            phi = (2 * mpmath.pi / c) * (
                f0 * mpmath.mpf(idx) * mpmath.mpf(params.uniform_spacing) * dcos
                + mpmath.mpf(float(shifts[m])) * d_r)
            a_expected = (2 * mpmath.pi * f0 / c) * dcos * mpmath.sin(phi)
            assert abs(system.a[0, m] - float(a_expected)) < 1e-12 * abs(float(a_expected))
            b_expected += mpmath.cos(phi)
        assert abs(system.b[0] - float(b_expected)) < 1e-12 * abs(float(b_expected))


class TestSolveRidge:
    @staticmethod
    def random_system(rng, k=2, m=5):
        return NullingSystem(a=rng.standard_normal((k, m)),
                             b=rng.standard_normal(k),
                             q_diag=rng.uniform(0.5, 2.0, size=k))

    def test_zero_target_gives_zero_solution(self):
        rng = np.random.default_rng(0)
        system = NullingSystem(a=rng.standard_normal((2, 5)), b=np.zeros(2),
                               q_diag=np.ones(2))
        assert np.all(solve_ridge(system, 1e-3) == 0.0)

    def test_huge_ridge_shrinks_to_nothing(self):
        rng = np.random.default_rng(1)
        system = self.random_system(rng)
        normal_scale = np.linalg.norm((system.a.T * system.q_diag) @ system.a)
        small = solve_ridge(system, 1e-6 * normal_scale)
        crushed = solve_ridge(system, 1e12 * normal_scale)
        assert np.linalg.norm(crushed) < 1e-9 * np.linalg.norm(small)

    @given(st.integers(0, 2**32 - 1))
    def test_matches_independent_factorization(self, seed):
        rng = np.random.default_rng(seed)
        system = self.random_system(rng)
        ridge = rng.uniform(1e-4, 1.0)
        fast = solve_ridge(system, ridge)
        # generic LU-based oracle on the same normal equations
        normal = (system.a.T * system.q_diag) @ system.a + ridge * np.eye(5)
        oracle = np.linalg.solve(normal, system.a.T @ (system.q_diag * system.b))
        np.testing.assert_allclose(fast, oracle, rtol=1e-8, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_solution_norm_shrinks_with_ridge(self, seed):
        rng = np.random.default_rng(seed)
        system = self.random_system(rng)
        r1 = rng.uniform(1e-4, 1.0)
        r2 = r1 * rng.uniform(1.0, 100.0)
        assert (np.linalg.norm(solve_ridge(system, r2))
                <= np.linalg.norm(solve_ridge(system, r1)) + 1e-12)

    def test_rank_deficient_without_ridge_raises(self):
        rng = np.random.default_rng(3)
        system = self.random_system(rng, k=2, m=5)  # rank <= 2 < 5
        with pytest.raises(SingularSystemError):
            solve_ridge(system, 0.0)

    def test_default_ridge_positive_even_for_zero_system(self):
        system = NullingSystem(a=np.zeros((1, 4)), b=np.array([4.0]),
                               q_diag=np.array([1.0]))
        assert default_ridge(system) > 0.0
        assert np.all(solve_ridge(system, default_ridge(system)) == 0.0)


class TestApplyPerturbations:
    def test_zero_delta_is_identity(self, params_module):
        baseline = make_linear_fda(21, params_module, F0)
        design, clipped = apply_position_perturbation(baseline, np.zeros(21),
                                                      params_module)
        assert clipped == 0
        np.testing.assert_array_equal(design.positions, baseline.positions)
        design, clipped = apply_frequency_perturbation(baseline, np.zeros(21),
                                                       params_module)
        assert clipped == 0
        np.testing.assert_array_equal(design.freq_shifts, baseline.freq_shifts)

    def test_uniform_translation_keeps_spacings(self, params_module):
        baseline = make_linear_fda(21, params_module, F0)
        design, clipped = apply_position_perturbation(
            baseline, np.full(21, 0.3 * LAM), params_module)
        assert clipped == 0
        np.testing.assert_allclose(np.diff(design.positions),
                                   np.diff(baseline.positions), atol=1e-12)

    def test_single_pair_clip_counted(self, params_module):
        baseline = make_linear_fda(21, params_module, F0)
        delta = np.zeros(21)
        delta[5] = -0.4 * LAM  # spacing to the left collapses below the minimum
        design, clipped = apply_position_perturbation(baseline, delta, params_module)
        assert clipped == 1
        d = np.diff(design.positions)
        assert np.all(d >= params_module.min_spacing - 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(2, 32))
    def test_clipped_design_meets_the_box_rules(self, data, m):
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        delta = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=m,
                                            max_size=m))) * LAM
        design, clipped = apply_position_perturbation(make_linear_fda(m, params, F0), delta,
                                                      params)
        positions, half_width = design.positions, params.aperture_half_width
        assert np.all(meets_min_spacing(np.diff(positions), params.min_spacing))
        assert fits_aperture(positions[-1] - positions[0], half_width)
        # A span within the aperture's slack is translated, not shrunk, so its far
        # end may overhang the edge by that slack, 2 x half_width x SPAN_SLACK.
        assert np.all(np.abs(positions) <= half_width * (1.0 + 2.0 * SPAN_SLACK))
        assert clipped <= 2 * (m - 1)

    def test_overflowing_span_shrunk_and_centred(self, params_module):
        baseline = make_linear_fda(21, params_module, F0)
        # Stretch every spacing from 0.75 to 2.75 wavelengths: a 55-wavelength
        # span against the 42-wavelength aperture.
        delta = centered_indices(21) * 2.0 * LAM
        design, clipped = apply_position_perturbation(baseline, delta, params_module)
        half_width = params_module.aperture_half_width
        assert clipped == 20
        np.testing.assert_allclose(
            design.positions, reconstruct_positions(np.diff(design.positions), half_width),
            rtol=0.0, atol=1e-12 * half_width)
        assert design.positions[-1] - design.positions[0] == pytest.approx(2.0 * half_width)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["right", "left"])
    def test_span_past_an_edge_translated(self, params_module, sign):
        baseline = make_linear_fda(21, params_module, F0)
        # The 15-wavelength span moved 15 wavelengths off centre crosses the
        # edge at 21 wavelengths by 1.5.
        design, clipped = apply_position_perturbation(
            baseline, np.full(21, sign * 15.0 * LAM), params_module)
        assert clipped == 1
        np.testing.assert_allclose(np.diff(design.positions), np.diff(baseline.positions),
                                   rtol=1e-12)
        edge = design.positions[-1] if sign > 0 else -design.positions[0]
        assert edge == pytest.approx(params_module.aperture_half_width, rel=1e-15)

    def test_span_within_the_slack_translated_not_shrunk(self):
        params = default_baseline_params(3, F0, SPEED_OF_LIGHT)
        half_width = params.aperture_half_width
        span = 2.0 * half_width * (1.0 + 0.8 * SPAN_SLACK)
        target = np.array([half_width + 0.1 * LAM - span, 0.0, half_width + 0.1 * LAM])
        baseline = make_linear_fda(3, params, F0)
        design, clipped = apply_position_perturbation(baseline, target - baseline.positions,
                                                      params)
        assert clipped == 1
        assert design.positions[-1] == pytest.approx(half_width, rel=1e-15)
        assert -design.positions[0] > half_width * (1.0 + SPAN_SLACK)

    def test_frequency_clip_counted(self, params_module):
        baseline = make_linear_fda(21, params_module, F0)
        delta = np.zeros(21)
        delta[0] = 50e6
        design, clipped = apply_frequency_perturbation(baseline, delta, params_module)
        assert clipped == 1
        assert design.freq_shifts[0] == params_module.freq_shift_bounds[1]


class TestFirstOrderBeampattern:
    def test_zero_perturbation_exact_for_same_bearing_eve(self, canonical,
                                                          params_module):
        # On the intended receiver's bearing the dropped cross phase is zero,
        # so the approximation collapses to the exact pattern at zero delta.
        baseline = make_linear_fda(21, params_module, F0)
        exact = beampattern(baseline, canonical.eves[0], canonical.bob)
        approx = first_order_beampattern(canonical, params_module,
                                         baseline.freq_shifts, np.zeros(21), 0, F0)
        assert abs(exact - approx) < 1e-9 * 21

    def test_zero_perturbation_exact_without_frequency_ramp(self, bob_module,
                                                            link_cfg_module):
        from fdma.scenario import BaselineParams

        params = BaselineParams(0.75 * LAM, 0.0, 21 * LAM, 0.5 * LAM, (-10e6, 10e6))
        eve = make_placement(55.0, bob_module.angle_rad - 0.3, link_cfg_module)
        scenario = scenario_with(bob_module, [eve])
        design = make_cpa(21, params, F0)
        exact = beampattern(design, eve, bob_module)
        approx = first_order_beampattern(scenario, params, design.freq_shifts,
                                         np.zeros(21), 0, F0)
        assert abs(exact - approx) < 1e-9 * 21

    def test_error_scales_quadratically(self, bob_module, link_cfg_module):
        # Zero frequency step isolates the position Taylor step: halving the
        # perturbation scale must cut the error by about four.
        from fdma.scenario import BaselineParams

        params = BaselineParams(0.75 * LAM, 0.0, 21 * LAM, 0.5 * LAM, (-10e6, 10e6))
        eve = make_placement(bob_module.range_m, bob_module.angle_rad - 0.12,
                             link_cfg_module)
        scenario = scenario_with(bob_module, [eve])
        rng = np.random.default_rng(8)
        direction = rng.uniform(-1.0, 1.0, size=21)
        direction /= np.max(np.abs(direction))
        shifts = np.zeros(21)
        errors = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            delta = eps * params.uniform_spacing * direction
            positions = make_cpa(21, params, F0).positions + delta
            exact = beampattern(ArrayDesign(positions, F0, shifts), eve, bob_module)
            approx = first_order_beampattern(scenario, params, shifts, delta, 0, F0)
            errors.append(abs(exact - approx))
        for big, small in zip(errors, errors[1:]):
            assert 3.0 <= big / small <= 5.0


def _first_system(scenario, params, baseline, phase):
    "The system the first round of a one-phase alternation solves."
    if phase == "positions":
        return build_position_system(scenario, params, baseline.freq_shifts, F0)
    return build_frequency_system(scenario, params, baseline.positions, F0)


def _ridge_config(phase, ridge):
    "One round with the ridge of the solved block configured."
    key = "ridge_position" if phase == "positions" else "ridge_frequency"
    return PerturbConfig(max_rounds=1, **{key: ridge})


class TestAlternatePerturb:
    def test_no_eves_returns_baseline(self, bob_module, params_module):
        scenario = scenario_with(bob_module, [])
        baseline = make_linear_fda(21, params_module, F0)
        assert alternate_perturb(scenario, baseline, params_module,
                                 PerturbConfig()) is baseline

    def test_colocated_eve_leaves_baseline_cost(self, bob_module, params_module):
        scenario = scenario_with(bob_module, [bob_module])
        baseline = make_linear_fda(21, params_module, F0)
        result = alternate_perturb(scenario, baseline, params_module, PerturbConfig())
        assert abs(cost(scenario, result) - cost(scenario, baseline)) \
            <= 1e-6 * cost(scenario, baseline)

    def test_canonical_eves_cost_reduced_with_trace(self, canonical, params_module):
        baseline = make_linear_fda(21, params_module, F0)
        trace = []
        result = alternate_perturb(canonical, baseline, params_module, PerturbConfig(),
                                   trace=trace)
        assert cost(canonical, result) < cost(canonical, baseline)
        assert trace
        assert {rec.subproblem for rec in trace} == {"positions", "shifts"}
        assert all(rec.clip_count >= 0 for rec in trace)

    def test_deterministic_and_feasible(self, canonical, params_module):
        baseline = make_linear_fda(21, params_module, F0)
        a = alternate_perturb(canonical, baseline, params_module, PerturbConfig())
        b = alternate_perturb(canonical, baseline, params_module, PerturbConfig())
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.freq_shifts, b.freq_shifts)
        assert np.all(np.diff(a.positions) >= params_module.min_spacing - 1e-12)
        lo, hi = params_module.freq_shift_bounds
        assert np.all((a.freq_shifts >= lo) & (a.freq_shifts <= hi))

    @pytest.mark.parametrize("phase", ["positions", "shifts"])
    def test_configured_ridge_equal_to_default_reproduces_auto_design(
            self, canonical, params_module, phase):
        baseline = make_linear_fda(21, params_module, F0)
        ridge = default_ridge(_first_system(canonical, params_module, baseline, phase))
        auto = alternate_perturb(canonical, baseline, params_module,
                                 PerturbConfig(max_rounds=1), phases=(phase,))
        configured = alternate_perturb(canonical, baseline, params_module,
                                       _ridge_config(phase, ridge), phases=(phase,))
        assert cost(canonical, auto) < cost(canonical, baseline)
        for a, b in ((auto.positions, configured.positions),
                     (auto.freq_shifts, configured.freq_shifts)):
            assert [float(v).hex() for v in a] == [float(v).hex() for v in b]

    @pytest.mark.parametrize("phase", ["positions", "shifts"])
    def test_huge_configured_ridge_keeps_baseline(self, canonical, params_module, phase):
        # (A^T Q A + ridge I)^{-1} shrinks A^T Q b by at least the ridge, so a
        # ridge 1e12 times the default moves no coordinate further than
        # |A^T Q b| / ridge, under 1e-6 of a baseline step here; clipping to
        # the box only moves shifts back toward the baseline.
        baseline = make_linear_fda(21, params_module, F0)
        system = _first_system(canonical, params_module, baseline, phase)
        ridge = 1e12 * default_ridge(system)
        bound = np.linalg.norm(system.a.T @ (system.q_diag * system.b)) / ridge
        result = alternate_perturb(canonical, baseline, params_module,
                                   _ridge_config(phase, ridge), phases=(phase,))
        if phase == "positions":
            moved, step = result.positions - baseline.positions, params_module.uniform_spacing
            np.testing.assert_array_equal(result.freq_shifts, baseline.freq_shifts)
        else:
            moved, step = result.freq_shifts - baseline.freq_shifts, \
                abs(params_module.uniform_freq_step)
            np.testing.assert_array_equal(result.positions, baseline.positions)
        assert np.max(np.abs(moved)) <= bound * (1.0 + 1e-9)
        assert bound < 1e-6 * step

    def test_rejects_too_many_eves(self, bob_module, link_cfg_module):
        eves = [make_placement(40.0 + i, 1.0 + 0.1 * i, link_cfg_module)
                for i in range(3)]
        scenario = scenario_with(bob_module, eves)
        params = default_baseline_params(3, F0, SPEED_OF_LIGHT)
        baseline = make_linear_fda(3, params, F0)
        with pytest.raises(ValueError):
            alternate_perturb(scenario, baseline, params, PerturbConfig())
