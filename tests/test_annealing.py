import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdma.annealing as annealing
from fdma.annealing import AnnealerConfig, InfeasibleInitializationError, \
    InfeasibleSpacingError, adaptive_max_spacing, alternate_sa, anneal_freq_shifts, \
    anneal_positions, cost, metropolis_accept, reconstruct_positions, schedule_summary, \
    spacings
from fdma.model import ArrayDesign, Placement, Scenario, SPEED_OF_LIGHT, snr_eve, \
    wavelength
from fdma.scenario import default_baseline_params, make_cpa, make_linear_fda, \
    make_placement

from conftest import F0, random_design, random_placement

LAM = wavelength(F0)


def small_scenario(link_cfg, bob, num_eves=1):
    eves = tuple(
        make_placement(bob.range_m + 5.0 * (i + 1), bob.angle_rad - 0.25 * (i + 1),
                       link_cfg)
        for i in range(num_eves))
    return Scenario(bob, eves, tx_power_linear=10.0 ** 0.5)


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


class TestAnnealerAgreesWithCost:
    @pytest.mark.parametrize("anneal", [anneal_freq_shifts, anneal_positions])
    def test_best_cost_is_cost_of_returned_design(self, anneal, default_scenario,
                                                  default_params):
        init = make_linear_fda(21, default_params, F0)
        for seed in range(20):
            trace = []
            design = anneal(default_scenario, init, default_params,
                            AnnealerConfig(max_iterations=300, seed=seed), trace=trace)
            assert trace[-1].best_cost == cost(default_scenario, design), f"seed {seed}"


SHIFT_BOXES = [(-10e6, 10e6), (0.0, 0.0), (-3e6, -1e6), (2e6, 2e6)]


class TestBatchedCostMatchesCost:
    # The annealer costs a window of candidates in one stacked kernel call;
    # every row must cost exactly what cost() gives that row's design.
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
        costs = annealing._raw_cost(scenario, positions, shifts, F0)
        assert costs.shape == (rows,)
        for i, row_cost in enumerate(costs.tolist()):
            design = ArrayDesign(positions if positions.ndim == 1 else positions[i], F0,
                                 shifts if shifts.ndim == 1 else shifts[i])
            assert row_cost.hex() == cost(scenario, design).hex(), i

    @settings(derandomize=True, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), num_antennas=st.integers(2, 32),
           rows=st.integers(1, 40))
    def test_stacked_reconstruction_equals_rows(self, seed, num_antennas, rows):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.5, 2.0, size=(rows, num_antennas - 1))
        positions = reconstruct_positions(stack, float(num_antennas))
        for row, d in zip(positions, stack):
            np.testing.assert_array_equal(row, reconstruct_positions(d, float(num_antennas)))

    def test_stacked_reconstruction_checks_every_row(self):
        with pytest.raises(InfeasibleSpacingError):
            reconstruct_positions([[1.0, 1.0], [1.0, 1.0 + 1e-6]], 1.0)


class TestShiftMoveCache:
    # The shift move rebuilds one probe column and one receiver entry per row
    # from the phasors it keeps for the current state, and takes over the
    # accepted row's.  Every row must still cost what cost() gives its
    # design, bit for bit, after any run of acceptances.
    @staticmethod
    def assert_rows_equal_cost(scenario, design, params, steps, rng, narrow=False):
        move = annealing._ShiftMove(scenario, design, params)
        lo, hi = params.freq_shift_bounds
        state, m = move.state, design.num_antennas
        for width, accepted in steps:
            # Narrow index vectors repeat an index in almost every window.
            indices = rng.integers(min(m, 2) if narrow else m, size=width)
            stack = np.repeat(state[None], width, axis=0)
            stack[np.arange(width), indices] = rng.uniform(lo, hi, size=width)
            costs = move.costs(stack, indices)
            assert move.probes.shape == (1, scenario.num_eves, m)
            for j, row_cost in enumerate(costs.tolist()):
                expected = cost(scenario, ArrayDesign(design.positions, F0, stack[j]))
                assert row_cost.hex() == expected.hex(), (j, indices)
            move.accept(accepted % width)
            state = stack[accepted % width]

    @settings(derandomize=True, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), num_eves=st.integers(1, 6),
           num_antennas=st.integers(2, 32), narrow=st.booleans(),
           steps=st.lists(st.tuples(st.integers(1, 32), st.integers(0, 31)), min_size=1,
                          max_size=12))
    def test_every_cached_row_equals_cost(self, link_cfg, bob, seed, num_eves, num_antennas,
                                          narrow, steps):
        rng = np.random.default_rng(seed)
        eves = tuple(random_placement(rng, link_cfg) for _ in range(num_eves))
        scenario = Scenario(bob, eves, tx_power_linear=10.0 ** 0.5)
        params = default_baseline_params(num_antennas, F0, SPEED_OF_LIGHT)
        self.assert_rows_equal_cost(scenario, random_design(rng, num_antennas), params,
                                    steps, rng, narrow)

    @pytest.mark.parametrize("num_antennas", [2, 9, 32])
    def test_no_eves_keeps_an_empty_probe_matrix(self, bob, num_antennas):
        # K = 0: the probe matrix is (0, M) and every row costs 0.
        rng = np.random.default_rng(num_antennas)
        scenario = Scenario(bob, (), tx_power_linear=1.0)
        params = default_baseline_params(num_antennas, F0, SPEED_OF_LIGHT)
        self.assert_rows_equal_cost(scenario, random_design(rng, num_antennas), params,
                                    [(1, 0), (32, 31), (5, 2)], rng)

    def test_accepting_the_last_row_of_a_full_window(self, default_scenario, default_params):
        rng = np.random.default_rng(21)
        self.assert_rows_equal_cost(default_scenario, random_design(rng, 21), default_params,
                                    [(32, 31), (32, 31), (1, 0), (32, 0)], rng)


def generator_at(state):
    "A numpy Generator whose PCG64 bit generator is in state."
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def state_emitting(state, word, ahead):
    """state with its 128-bit LCG moved so that its (ahead + 1)-th raw word is word.

    PCG64 steps s -> s * multiplier + inc (mod 2**128), then emits
    rotr64(high ^ low, s >> 122) of the new s.  So a stepped state with any
    high half and low half high ^ rotl64(word, rotation) emits word; stepping
    that back ahead + 1 times gives the state to start from.
    """
    inc = state["state"]["inc"]
    high = state["state"]["state"] >> 64
    rotation = high >> 58
    low = high ^ (((word << rotation) | (word >> (64 - rotation))) & (2**64 - 1))
    lcg = (high << 64) | low
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(ahead + 1):
        lcg = (lcg - inc) * inverse % 2**128
    crafted = {**state, "state": {"state": lcg, "inc": inc}}
    assert int(generator_at(crafted).bit_generator.random_raw(ahead + 1)[-1]) == word
    return crafted


def rejecting_state(ahead, zero_words):
    """A generator state whose raw words from `ahead` on are rejected as n = 20 indices.

    zero_words 1: one word with a zero low half, whose high half 7 is kept.
    zero_words 2: the word 0, both of whose halves are rejected, and then a
    word with a zero low half: an index that starts on the first takes its
    32 bits from the fourth half, two fresh words later.  The high half of
    the LCG state that emits that pair was found by a search over states
    of the form high * (2**64 + 1), which emit 0.
    """
    state = np.random.default_rng(7).bit_generator.state
    if zero_words == 1:
        return state_emitting(state, 7 << 32, ahead)
    paired = {**state, "state": {**state["state"], "state": 0x36F3838E99F5ACA6 << 64}}
    crafted = state_emitting(paired, 0, ahead)
    words = generator_at(crafted).bit_generator.random_raw(ahead + 2)[-2:]
    assert words.tolist() == [0, 0x840C5EFB00000000]
    return crafted


def serial_anneal(scenario, design, params, cfg, phase, rng_state=None):
    """Reference annealer: one candidate at a time, each costed by cost() on its design.

    The loop the windowed annealer must reproduce bit for bit; returns the
    best state, its cost, the trace and the generator's final state.  The
    generator starts from default_rng(cfg.seed), or from rng_state when given.
    """
    rng = np.random.default_rng(cfg.seed) if rng_state is None else generator_at(rng_state)
    half_width = params.aperture_half_width
    if phase == "positions":
        state, lo = spacings(design.positions), params.min_spacing

        def upper(d, m):
            return adaptive_max_spacing(d, m, half_width)

        def design_of(d):
            return ArrayDesign(reconstruct_positions(d, half_width), F0, design.freq_shifts)
    else:
        lo, hi = params.freq_shift_bounds
        state = np.clip(design.freq_shifts, lo, hi)

        def upper(_, __):
            return hi

        def design_of(shifts):
            return ArrayDesign(design.positions, F0, shifts)
    current = cost(scenario, design_of(state))
    best, best_cost = state, current
    t0 = cfg.initial_temperature
    if t0 is None:
        t0 = max(current, 1e-12)
    trace = []
    for t in range(1, cfg.max_iterations + 1):
        temperature = t0 * cfg.cooling_factor ** t
        m = int(rng.integers(state.size))
        candidate = state.copy()
        candidate[m] = lo + (upper(state, m) - lo) * rng.random()
        candidate_cost = cost(scenario, design_of(candidate))
        accepted = metropolis_accept(candidate_cost - current, temperature, rng)
        if accepted:
            state, current = candidate, candidate_cost
            if current < best_cost:
                best, best_cost = state, current
        trace.append(annealing.IterationRecord(t, temperature, candidate_cost, accepted,
                                               best_cost))
    return best, best_cost, trace, rng.bit_generator.state


class TestWindowedLoopMatchesSerial:
    # Speculative windows must not change a single draw or bit: same best
    # state and cost, same trace, same generator state as the serial loop.
    @settings(derandomize=True, max_examples=80)
    @given(seed=st.integers(0, 2**64 - 1), num_eves=st.integers(0, 6),
           num_antennas=st.integers(2, 32), phase=st.sampled_from(["positions", "shifts"]),
           box=st.sampled_from(SHIFT_BOXES),
           initial_temperature=st.sampled_from([None, 1e-9, 1e-3, 10.0]),
           schedule=st.sampled_from([(0.95, 97), (0.5, 1500), (0.9, 1), (0.99, 33),
                                     (0.8, 64), (0.95, 250)]))
    def test_same_chain_as_serial_loop(self, link_cfg, bob, seed, num_eves, num_antennas,
                                       phase, box, initial_temperature, schedule):
        rng = np.random.default_rng(seed)
        eves = tuple(random_placement(rng, link_cfg) for _ in range(num_eves))
        scenario = Scenario(bob, eves, tx_power_linear=10.0 ** 0.5)
        design = random_design(rng, num_antennas)
        params = replace(default_baseline_params(num_antennas, F0, SPEED_OF_LIGHT),
                         freq_shift_bounds=box)
        cooling, iterations = schedule
        cfg = AnnealerConfig(initial_temperature=initial_temperature,
                             cooling_factor=cooling, max_iterations=iterations,
                             seed=seed % 2**63)
        best, best_cost, trace, final_state = serial_anneal(scenario, design, params,
                                                            cfg, phase)
        make_move = annealing._position_move if phase == "positions" else \
            annealing._shift_move
        windowed_rng = np.random.default_rng(cfg.seed)
        windowed_trace = []
        got, got_cost = annealing._anneal_loop(make_move(scenario, design, params), cfg,
                                               windowed_rng, windowed_trace)
        assert got.tobytes() == best.tobytes()
        assert got_cost.hex() == best_cost.hex()
        assert windowed_trace == trace
        assert windowed_rng.bit_generator.state == final_state

    def test_frozen_schedule_is_reached(self, link_cfg, bob):
        # The (0.5, 1500) schedule above drives T to exactly 0, where no
        # Metropolis draw is taken.
        scenario = small_scenario(link_cfg, bob, num_eves=2)
        params = default_baseline_params(6, F0, SPEED_OF_LIGHT)
        trace = []
        anneal_freq_shifts(scenario, make_linear_fda(6, params, F0), params,
                           AnnealerConfig(cooling_factor=0.5, max_iterations=1500, seed=1),
                           trace)
        assert trace[-1].temperature == 0.0 and trace[0].temperature > 0.0


class TestWindowedLoopEdgesOfTheDrawStream:
    # The windowed loop against the serial loop from chosen generator states,
    # at the edges of how integers(n) takes its bits: same best state and
    # cost, same trace, same final generator state.
    def assert_same_chain(self, link_cfg, bob, num_antennas, phase, state, iterations=300,
                          cooling=0.95):
        scenario = small_scenario(link_cfg, bob, num_eves=2)
        params = default_baseline_params(num_antennas, F0, SPEED_OF_LIGHT)
        design = make_linear_fda(num_antennas, params, F0)
        cfg = AnnealerConfig(cooling_factor=cooling, max_iterations=iterations)
        best, best_cost, trace, final_state = serial_anneal(scenario, design, params, cfg,
                                                            phase, state)
        make_move = annealing._position_move if phase == "positions" else \
            annealing._shift_move
        rng = generator_at(state)
        windowed_trace = []
        got, got_cost = annealing._anneal_loop(make_move(scenario, design, params), cfg, rng,
                                               windowed_trace)
        assert got.tobytes() == best.tobytes()
        assert got_cost.hex() == best_cost.hex()
        assert windowed_trace == trace
        assert rng.bit_generator.state == final_state
        return final_state

    @staticmethod
    def buffered(seed, uinteger):
        state = np.random.default_rng(seed).bit_generator.state
        return {**state, "has_uint32": 1, "uinteger": uinteger}

    # n = 20 coordinates: the shifts of M = 20 elements, the spacings of M = 21.
    @pytest.mark.parametrize("num_antennas, phase", [(20, "shifts"), (21, "positions")])
    def test_buffered_zero_half_is_rejected(self, link_cfg, bob, num_antennas, phase):
        # x = 0 leaves 0 * 20 = 0 below the threshold (2**32 - 20) % 20 = 16,
        # so the chain's first index takes 32 more bits.
        self.assert_same_chain(link_cfg, bob, num_antennas, phase, self.buffered(5, 0))

    @pytest.mark.parametrize("num_antennas, phase", [(20, "shifts"), (21, "positions")])
    def test_near_miss_is_not_rejected(self, link_cfg, bob, num_antennas, phase):
        # x * 20 leaves exactly the threshold 16, which numpy accepts.
        assert (3006477108 * 20) % 2**32 == (2**32 - 20) % 20
        self.assert_same_chain(link_cfg, bob, num_antennas, phase,
                               self.buffered(6, 3006477108))

    @pytest.mark.parametrize("ahead", range(12))
    def test_fresh_zero_half_is_rejected(self, link_cfg, bob, ahead):
        # A fresh word with a zero low half, early in the chain, where it ends
        # up as an index word inside some window.
        state = state_emitting(np.random.default_rng(7).bit_generator.state, 0x9E3779B9 << 32,
                               ahead)
        self.assert_same_chain(link_cfg, bob, 20, "shifts", state)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_antennas, phase", [(2, "shifts"), (7, "positions"),
                                                     (16, "shifts")])
    def test_start_with_a_buffered_half(self, link_cfg, bob, seed, num_antennas, phase):
        uinteger = int(np.random.default_rng(seed).integers(2**32))
        self.assert_same_chain(link_cfg, bob, num_antennas, phase,
                               self.buffered(seed, uinteger))

    def test_single_spacing_takes_no_index_bits(self, link_cfg, bob):
        # M = 2 has one spacing: integers(1) takes no bits, so the buffered
        # half the chain starts with is still there at its end.
        final = self.assert_same_chain(link_cfg, bob, 2, "positions",
                                       self.buffered(8, 123456789))
        assert (final["has_uint32"], final["uinteger"]) == (1, 123456789)

    def test_chain_ending_on_a_buffered_index(self, link_cfg, bob):
        # Two candidates from an empty buffer: the second index uses the half
        # the first one buffered, which leaves has_uint32 = 0 and a stale
        # uinteger in the final state.
        state = np.random.default_rng(9).bit_generator.state
        first_word = int(generator_at(state).bit_generator.random_raw())
        final = self.assert_same_chain(link_cfg, bob, 6, "shifts", state, iterations=2)
        assert (final["has_uint32"], final["uinteger"]) == (0, first_word >> 32)

    def test_chain_longer_than_a_chunk_of_words(self, link_cfg, bob):
        # Every candidate takes at least two words.
        self.assert_same_chain(link_cfg, bob, 4, "shifts",
                               np.random.default_rng(10).bit_generator.state,
                               iterations=annealing._CHUNK_WORDS, cooling=0.999)

    @pytest.mark.parametrize("ahead", range(16))
    @pytest.mark.parametrize("zero_words", [1, 2])
    @pytest.mark.parametrize("num_antennas, phase", [(20, "shifts"), (21, "positions")])
    def test_rejections_across_chunk_refills(self, monkeypatch, link_cfg, bob, ahead,
                                             zero_words, num_antennas, phase):
        # Three words per chunk put a chunk boundary every few words, and
        # a window's first refill holds no more than its candidates can
        # read without a rejection, so a rejected index near a window's
        # start must draw the words of its retry itself.
        monkeypatch.setattr(annealing, "_CHUNK_WORDS", 3)
        state = rejecting_state(ahead, zero_words)
        assert_windows_match_numpy(state, 20, [True] * 60, {})
        self.assert_same_chain(link_cfg, bob, num_antennas, phase, state, iterations=60)


def assert_windows_match_numpy(state, n, hot, accepted):
    """Decode the draws of len(hot) candidates window by window, as the loop does.

    hot[c] says whether candidate c takes a Metropolis draw when not accepted
    downhill; accepted maps the accepted candidates to whether they were
    downhill.  Every decoded value must equal numpy's own interleaved
    integers(n) / random() calls, and the synced generator numpy's final
    state.  Returns the length of each window.
    """
    reference, fast = generator_at(state), generator_at(state)
    draws = annealing._RawDraws(fast, n)
    done, width, lengths = 0, 1, []
    while done < len(hot):
        window = tuple(hot[done:done + width])
        indices, fractions, uniforms = draws.window(window)
        assert indices.size == len(window)
        for j in range(indices.size):
            assert int(reference.integers(n)) == int(indices[j])
            assert reference.random().hex() == float(fractions[j]).hex()
            downhill = accepted.get(done + j)
            if window[j] and not downhill:
                assert reference.random().hex() == float(uniforms[j]).hex()
            if downhill is not None:
                break
        draws.use(j, not downhill)
        lengths.append(indices.size)
        done += j + 1
        width = 1 if downhill is not None else min(2 * width, annealing._MAX_WINDOW)
    draws.sync()
    assert fast.bit_generator.state == reference.bit_generator.state
    return lengths


class TestDrawStream:
    # The annealer decodes its draws from the generator's raw words.  The
    # decoded values and the generator's final state must be those of
    # numpy's own calls, so a numpy release that changes PCG64's half-word
    # buffer or the bounded-integer method fails here rather than silently
    # changing every annealing chain.
    @settings(derandomize=True, max_examples=300)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40),
           hot=st.lists(st.booleans(), min_size=1, max_size=100),
           buffer=st.tuples(st.sampled_from([0, 1]),
                            st.sampled_from([0, 3006477108]) | st.integers(0, 2**32 - 1)),
           accepted=st.dictionaries(st.integers(0, 99), st.booleans(), max_size=8),
           zero_low_half_at=st.none() | st.integers(0, 30))
    def test_windows_reproduce_numpy_draws(self, seed, n, hot, buffer, accepted,
                                           zero_low_half_at):
        state = np.random.default_rng(seed).bit_generator.state
        state["has_uint32"], state["uinteger"] = buffer
        if zero_low_half_at is not None:
            # A fresh index word with a zero low half is rejected whenever
            # (2**32 - n) % n > 0.
            state = state_emitting(state, (seed % 2**32) << 32, zero_low_half_at)
        assert_windows_match_numpy(state, n, hot, accepted)

    def test_rejected_index_inside_a_window(self):
        # From an empty buffer, with every candidate hot, candidate 0 takes
        # words 0-2 and candidate 1 its buffered half and words 3-4, so
        # candidate 2's index is the low half of word 5.  Zero there is
        # rejected at n = 20: the second window, of two candidates, decodes
        # it with 32 more bits and still holds all its candidates.
        state = state_emitting(np.random.default_rng(11).bit_generator.state, 7 << 32, 5)
        lengths = assert_windows_match_numpy(state, 20, [True] * 40, {})
        assert lengths[:4] == [1, 2, 4, 8]

    def test_near_miss_inside_a_window(self):
        # As above, with x = 3006477108 in place of 0: x * 20 leaves exactly
        # the threshold 16 in its low 32 bits, which is not a rejection, so
        # the second window keeps both its candidates.
        state = state_emitting(np.random.default_rng(13).bit_generator.state,
                               (7 << 32) | 3006477108, 5)
        assert assert_windows_match_numpy(state, 20, [True] * 10, {}) == [1, 2, 4, 3]

    def test_rejected_buffered_half_at_a_window_start(self):
        state = {**np.random.default_rng(12).bit_generator.state, "has_uint32": 1,
                 "uinteger": 0}
        lengths = assert_windows_match_numpy(state, 20, [True] * 10, {})
        assert lengths[0] == 1
        draws = annealing._RawDraws(generator_at(state), 20)
        assert draws.window((True,) * 4)[0].size == 4


class TestScheduleSummary:
    def test_freeze_iteration_at_stock_cooling(self):
        assert schedule_summary([], 0.95)["freeze_iteration"] == 449
        assert 0.95 ** 448 >= 1e-10 > 0.95 ** 449

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.95, 0.999])
    def test_decades_partition_the_trace(self, alpha, link_cfg, bob):
        scenario = small_scenario(link_cfg, bob)
        params = default_baseline_params(5, F0, SPEED_OF_LIGHT)
        init = make_linear_fda(5, params, F0)
        trace = []
        for fn in (anneal_positions, anneal_freq_shifts):
            fn(scenario, init, params,
               AnnealerConfig(cooling_factor=alpha, max_iterations=600, seed=3), trace=trace)
        summary = schedule_summary(trace, alpha)
        freeze = summary["freeze_iteration"]
        assert alpha ** (freeze - 1) >= 1e-10 > alpha ** freeze
        decades = summary["decades"]
        assert len(decades) == 11 and decades[-1]["t_over_t0"] == "below 1e-10"
        for j, row in enumerate(decades):
            inside = [r for r in trace
                      if (j == 10 or alpha ** r.iteration >= float(f"1e-{j + 1}"))
                      and (j == 0 or alpha ** r.iteration < float(f"1e-{j}"))]
            assert row["iterations"] == len(inside), j
            assert row["accepted"] == sum(r.accepted for r in inside), j
        assert sum(row["iterations"] for row in decades) == len(trace)


class TestSpacingAlgebra:
    def test_reconstruct_symmetric(self):
        np.testing.assert_allclose(reconstruct_positions([1.0, 1.0], 5.0), [-1, 0, 1])

    def test_reconstruct_two_elements(self):
        np.testing.assert_allclose(reconstruct_positions([2.0], 1.0), [-1, 1])

    def test_reconstruct_rejects_oversized_span(self):
        with pytest.raises(InfeasibleSpacingError):
            reconstruct_positions([1.0, 1.0 + 1e-6], 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.5, 1.5, size=7)
        np.testing.assert_allclose(spacings(reconstruct_positions(d, 10.0)), d,
                                   atol=1e-12)

    def test_adaptive_max_single_spacing(self):
        assert adaptive_max_spacing([0.7], 0, 3.0) == 6.0

    def test_adaptive_max_excludes_own_entry(self):
        assert abs(adaptive_max_spacing([0.4, 1.1], 0, 2.0) - (4.0 - 1.1)) < 1e-12

    def test_adaptive_max_saturates_the_aperture(self):
        d = np.array([0.6, 0.8, 0.5])
        half_width = 1.5
        d[1] = adaptive_max_spacing(d, 1, half_width)
        positions = reconstruct_positions(d, half_width)
        assert abs(positions[-1] - half_width) < 1e-12


class TestMetropolisRule:
    def test_downhill_always_accepted(self):
        rng = np.random.default_rng(0)
        assert all(metropolis_accept(-1e-12, 1e-9, rng) for _ in range(100))

    def test_uphill_frequency_tracks_boltzmann_factor(self):
        rng = np.random.default_rng(42)
        delta, temperature = 1.0, 1.5
        n = 20000
        accepted = sum(metropolis_accept(delta, temperature, rng) for _ in range(n))
        expected = math.exp(-delta / temperature)
        assert abs(accepted / n - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


class TestAnnealPositions:
    def test_no_eves_returns_feasible_design(self, link_cfg, bob, default_params):
        scenario = Scenario(bob, (), tx_power_linear=1.0)
        init = make_linear_fda(21, default_params, F0)
        cfg = AnnealerConfig(max_iterations=50, seed=1)
        result = anneal_positions(scenario, init, default_params, cfg)
        d = spacings(result.positions)
        assert np.all(d >= default_params.min_spacing - 1e-12)
        assert d.sum() <= 2 * default_params.aperture_half_width + 1e-9

    def test_never_worse_than_start(self, link_cfg, bob):
        scenario = small_scenario(link_cfg, bob)
        params = default_baseline_params(4, F0, SPEED_OF_LIGHT)
        init = make_linear_fda(4, params, F0)
        cfg = AnnealerConfig(max_iterations=400, seed=9)
        result = anneal_positions(scenario, init, params, cfg)
        assert cost(scenario, result) <= cost(scenario, init)

    def test_infeasible_initialization_rejected(self, link_cfg, bob, default_params):
        scenario = small_scenario(link_cfg, bob)
        tight = ArrayDesign(np.array([0.0, 0.3 * LAM, LAM]), F0, np.zeros(3))
        with pytest.raises(InfeasibleInitializationError):
            anneal_positions(scenario, tight, default_params,
                             AnnealerConfig(max_iterations=10, seed=0))

    def test_temperature_schedule_and_monotone_best(self, link_cfg, bob):
        scenario = small_scenario(link_cfg, bob)
        params = default_baseline_params(5, F0, SPEED_OF_LIGHT)
        init = make_linear_fda(5, params, F0)
        cfg = AnnealerConfig(initial_temperature=2.5, cooling_factor=0.9,
                             max_iterations=120, seed=4)
        trace = []
        anneal_positions(scenario, init, params, cfg, trace=trace)
        assert len(trace) == 120
        for rec in trace:
            assert rec.temperature == 2.5 * 0.9 ** rec.iteration
        best = [rec.best_cost for rec in trace]
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))

    def test_every_candidate_feasible_and_single_coordinate(self, link_cfg, bob,
                                                            monkeypatch):
        scenario = small_scenario(link_cfg, bob)
        params = default_baseline_params(6, F0, SPEED_OF_LIGHT)
        init = make_linear_fda(6, params, F0)
        evaluations = []
        real_costs = annealing._PositionMove.costs

        def spy(move, stack, indices):
            evaluations.append(np.array(stack))
            return real_costs(move, stack, indices)

        monkeypatch.setattr(annealing._PositionMove, "costs", spy)
        trace = []
        anneal_positions(scenario, init, params,
                         AnnealerConfig(max_iterations=250, seed=12), trace=trace)
        # evaluations[0] holds the initial spacings; each later call costs one
        # window of candidates drawn from one state.  The loop scans a window's
        # rows in order up to its first acceptance; the rows after it are
        # speculative and discarded, but were drawn from the same state.
        assert len(evaluations[0]) == 1
        state = evaluations[0][0]
        records = iter(trace)
        scanned = discarded = 0
        for window in evaluations[1:]:
            assert window.ndim == 2
            next_state, live = state, True
            for candidate in window:
                assert np.all(candidate >= params.min_spacing - 1e-12)
                assert candidate.sum() <= 2 * params.aperture_half_width + 1e-9
                changed = np.abs(candidate - state) > 1e-15
                assert changed.sum() == 1
                if not live:
                    discarded += 1
                    continue
                scanned += 1
                if next(records).accepted:
                    next_state, live = candidate, False
            state = next_state
        assert scanned == 250 and next(records, None) is None
        assert discarded > 0

    def test_deterministic(self, link_cfg, bob):
        scenario = small_scenario(link_cfg, bob)
        params = default_baseline_params(5, F0, SPEED_OF_LIGHT)
        init = make_linear_fda(5, params, F0)
        cfg = AnnealerConfig(max_iterations=300, seed=77)
        a = anneal_positions(scenario, init, params, cfg)
        b = anneal_positions(scenario, init, params, cfg)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.freq_shifts, b.freq_shifts)


class TestAnnealFreqShifts:
    def test_degenerate_box_keeps_zero_shifts(self, link_cfg, bob):
        scenario = small_scenario(link_cfg, bob)
        lam = LAM
        from fdma.scenario import BaselineParams

        params = BaselineParams(0.75 * lam, -1e6, 5 * lam, 0.5 * lam, (0.0, 0.0))
        init = make_cpa(5, params, F0)
        result = anneal_freq_shifts(scenario, init, params,
                                    AnnealerConfig(max_iterations=100, seed=2))
        assert np.all(result.freq_shifts == 0.0)
        assert cost(scenario, result) == cost(scenario, init)

    def test_accepting_chain_costs_each_candidate_once(self, link_cfg, bob, monkeypatch):
        # In a (0, 0) box every candidate repeats the state, so dJ = 0 and every
        # candidate is accepted: each window holds one candidate and no costed
        # candidate is dropped.
        scenario = small_scenario(link_cfg, bob, num_eves=2)
        params = replace(default_baseline_params(6, F0, SPEED_OF_LIGHT),
                         freq_shift_bounds=(0.0, 0.0))
        rows = []
        real_costs = annealing._ShiftMove.costs

        def spy(move, stack, indices):
            rows.append(len(stack))
            return real_costs(move, stack, indices)

        monkeypatch.setattr(annealing._ShiftMove, "costs", spy)
        trace = []
        anneal_freq_shifts(scenario, make_linear_fda(6, params, F0), params,
                           AnnealerConfig(max_iterations=200, seed=3), trace)
        assert len(trace) == 200 and all(rec.accepted for rec in trace)
        # The initial state's cost, then 200 windows of one row each.
        assert rows == [1] + [1] * 200

    def test_shifts_cut_cost_for_range_displaced_eve(self, link_cfg, bob):
        # One adversary on Bob's bearing but at a different range: positions
        # cannot touch it, frequency shifts can.
        eve = make_placement(bob.range_m + 30.0, bob.angle_rad, link_cfg)
        scenario = Scenario(bob, (eve,), tx_power_linear=10.0 ** 0.5)
        params = default_baseline_params(4, F0, SPEED_OF_LIGHT)
        init = make_cpa(4, params, F0)
        result = anneal_freq_shifts(scenario, init, params,
                                    AnnealerConfig(max_iterations=2000, seed=6))
        assert cost(scenario, result) < cost(scenario, init)
        lo, hi = params.freq_shift_bounds
        assert np.all((result.freq_shifts >= lo) & (result.freq_shifts <= hi))


class TestAlternateSa:
    def test_zero_rounds_returns_init(self, link_cfg, bob, default_params):
        scenario = small_scenario(link_cfg, bob)
        init = make_linear_fda(21, default_params, F0)
        out = alternate_sa(scenario, init, default_params,
                           AnnealerConfig(max_iterations=10, seed=0, max_rounds=0))
        assert out is init

    def test_deterministic(self, link_cfg, bob):
        scenario = small_scenario(link_cfg, bob, num_eves=2)
        params = default_baseline_params(6, F0, SPEED_OF_LIGHT)
        init = make_linear_fda(6, params, F0)
        sa_cfg = AnnealerConfig(max_iterations=200, seed=31, max_rounds=2,
                                relative_tolerance=1e-6)
        a = alternate_sa(scenario, init, params, sa_cfg)
        b = alternate_sa(scenario, init, params, sa_cfg)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.freq_shifts, b.freq_shifts)

    def test_rejects_too_many_eves(self, link_cfg, bob):
        scenario = small_scenario(link_cfg, bob, num_eves=3)
        params = default_baseline_params(3, F0, SPEED_OF_LIGHT)
        init = make_linear_fda(3, params, F0)
        with pytest.raises(ValueError):
            alternate_sa(scenario, init, params, AnnealerConfig(seed=0))

    @pytest.mark.slow
    def test_canonical_eves_suppressed_twenty_db_per_point(self, default_scenario,
                                                           default_params):
        # Optimized pattern power at each canonical adversary must sit at
        # least 20 dB under the linear-ramp baseline at the same point.
        from fdma.model import beampattern

        init = make_linear_fda(21, default_params, F0)
        sa_cfg = AnnealerConfig(max_iterations=12000, seed=2024, max_rounds=4,
                                relative_tolerance=1e-4)
        optimized = alternate_sa(default_scenario, init, default_params, sa_cfg)
        assert cost(default_scenario, optimized) <= cost(default_scenario, init)
        suppressions = []
        for eve in default_scenario.eves:
            base = abs(beampattern(init, eve, default_scenario.bob))
            opt = abs(beampattern(optimized, eve, default_scenario.bob))
            suppressions.append(20.0 * math.log10(base / max(opt, 1e-300)))
        assert min(suppressions) >= 20.0, f"per-eve suppression {suppressions} dB"
