import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverdyn import (
    ProductState,
    QuantumState,
    apply_local_unitaries,
    build_state,
    grid_search_oracle,
    inner_product,
    optimize_product,
    product_overlap,
)
from groverdyn import groverian
from groverdyn.groverian import _ascend
from helpers import (
    local_unitary_invariance_check,
    random_state,
    reference_ascend,
    reference_grid_search_oracle,
    reference_optimize_product,
    reference_screened_value,
    traced_peak,
)


def random_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def permute_qubits(state, perm):
    t = state.amplitudes.reshape((2,) * state.n)
    return QuantumState(state.n, np.transpose(t, perm).reshape(-1))


def test_product_state_validation():
    with pytest.raises(ValueError, match="unit norm"):
        ProductState(np.array([[1.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError):
        ProductState(np.ones((2, 3), dtype=complex))
    # NaN fails every comparison: unchecked, product_overlap returns nan.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="unit norm"):
            ProductState(np.array([[bad, 0.0]], dtype=complex))
    # to_state would expand 25 factors to 2^25 amplitudes, 512 MiB; the
    # row count is refused at construction instead.
    with pytest.raises(ValueError, match=r"n must be in \[1, 24\], got 25"):
        ProductState(np.tile([1.0, 0.0], (25, 1)))
    with pytest.raises(ValueError, match=r"n must be in \[1, 24\], got 0"):
        ProductState(np.empty((0, 2)))


@pytest.mark.filterwarnings("error")
def test_product_state_with_an_entry_too_large_to_square_is_refused_without_a_warning():
    # 1e200 squares to inf: the norm check refuses it, and numpy warns of nothing.
    with pytest.raises(ValueError, match="unit norm"):
        ProductState(np.array([[1e200, 0]]))


def test_product_state_expansion_msb_first():
    # qubit 0 in |0>, qubit 1 in |1> expands to basis index 0b01 = 1
    prod = ProductState(np.array([[1, 0], [0, 1]], dtype=complex))
    amps = prod.to_state().amplitudes
    assert np.argmax(np.abs(amps)) == 1


def test_overlap_with_all_zeros():
    state = build_state("basis", 4, k=0)
    prod = ProductState(np.tile([1.0 + 0j, 0.0], (4, 1)))
    assert abs(product_overlap(state, prod) - 1.0) < 1e-14


def test_overlap_ghz_with_zero_branch():
    ghz = build_state("ghz", 3)
    prod = ProductState(np.tile([1.0 + 0j, 0.0], (3, 1)))
    assert abs(product_overlap(ghz, prod) - 0.5) < 1e-14


def test_overlap_w_symmetric_optimum():
    # the symmetric product (sqrt(2/3), 1/sqrt(3)) per qubit gives 4/9,
    # the best product overlap for the 3-qubit single-excitation state
    # (cross-checked against the grid oracle below)
    w = build_state("w", 3)
    factor = [math.sqrt(2 / 3), 1 / math.sqrt(3)]
    prod = ProductState(np.tile(factor, (3, 1)).astype(complex))
    assert abs(product_overlap(w, prod) - 4 / 9) < 1e-14
    assert grid_search_oracle(w, 64) <= 4 / 9 + 1e-12


def test_overlap_matches_full_expansion():
    rng = np.random.default_rng(51)
    for n in (1, 2, 4):
        state = random_state(n, rng)
        factors = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        factors /= np.linalg.norm(factors, axis=1, keepdims=True)
        prod = ProductState(factors)
        direct = abs(inner_product(prod.to_state(), state)) ** 2
        assert abs(product_overlap(state, prod) - direct) < 1e-13


def test_overlap_dimension_mismatch():
    prod = ProductState(np.tile([1.0 + 0j, 0.0], (2, 1)))
    with pytest.raises(ValueError):
        product_overlap(build_state("eta", 3), prod)


def test_optimizer_on_product_state():
    rng = np.random.default_rng(52)
    factors = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    state = ProductState(factors).to_state()
    result = optimize_product(state, restarts=8, seed=0)
    assert result.g < 1e-8
    assert result.converged


def test_optimizer_ghz3():
    result = optimize_product(build_state("ghz", 3), restarts=16, seed=0)
    assert abs(result.p_max - 0.5) < 1e-6
    assert abs(result.g - math.sqrt(0.5)) < 1e-6


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: optimize_product(s, restarts=2.5), "restarts must be an integer"),
        (lambda s: grid_search_oracle(s, 20.5), "resolution must be an integer"),
    ],
    ids=["restarts=2.5", "resolution=20.5"],
)
def test_groverian_rejects_bad_counts(call, message):
    with pytest.raises(ValueError, match=message):
        call(build_state("ghz", 3))


def test_restarts_over_the_limit_are_refused_before_any_ascent():
    state = build_state("ghz", 3)
    with mock.patch.object(groverian, "MAX_RESTARTS", 4):
        assert optimize_product(state, restarts=4).restarts_used == 5
        with mock.patch.object(groverian, "_ascend", side_effect=AssertionError("ascended")):
            with pytest.raises(ValueError, match=r"restarts must be in \[1, 4\], got 5"):
                optimize_product(state, restarts=5)


def test_optimizer_w3_matches_oracle():
    result = optimize_product(build_state("w", 3), restarts=16, seed=0)
    assert abs(result.p_max - 4 / 9) < 1e-6
    assert result.p_max >= grid_search_oracle(build_state("w", 3), 100) - 1e-4


def test_result_invariants():
    rng = np.random.default_rng(53)
    for _ in range(5):
        state = random_state(4, rng)
        result = optimize_product(state, restarts=8, seed=3)
        assert abs(result.g - math.sqrt(max(0.0, 1 - result.p_max))) < 1e-12
        assert result.p_max >= float(np.max(np.abs(state.amplitudes) ** 2)) - 1e-12
        assert result.p_max <= 1 + 1e-12
        assert result.restarts_used == 9  # 8 random + deterministic warm start
        assert len(result.best_per_restart) == 9
        assert max(result.best_per_restart) == result.p_max
        assert abs(product_overlap(state, result.argmax) - result.p_max) < 1e-12


def test_single_qubit_updates_are_monotone():
    rng = np.random.default_rng(54)
    state = random_state(5, rng)
    psi_t = state.amplitudes.reshape((2,) * 5)
    factors = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    history = reference_ascend(psi_t, factors)[3]
    for earlier, later in zip(history, history[1:]):
        assert later >= earlier - 1e-14


def _full_ascend(psi_t, starts):
    # _ascend with the screen off, on a copy of the starts: every lane
    # ascends to SWEEP_TOL or MAX_SWEEPS, as one start ascends alone.
    with mock.patch.object(groverian, "SCREEN_MARGIN", math.inf):
        return _ascend(psi_t, np.array(starts, dtype=complex))[:3]


def _values_by_sweep(psi_t, starts, sweeps):
    # Each lane's value after sweeps 1, 2, ..., sweeps, as a (sweeps, L)
    # array.  A sweep reads nothing but the factors, so ascending one sweep
    # at a time from the factors the last one reached makes the bits of one
    # ascent that runs on past where SWEEP_TOL would stop it.
    values = []
    with mock.patch.object(groverian, "MAX_SWEEPS", 1):
        for _ in range(sweeps):
            value, starts, _ = _full_ascend(psi_t, starts)
            values.append(value)
    return np.array(values)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_ascent_properties_on_haar_states(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    result = optimize_product(state, restarts=4, seed=seed)
    assert abs(product_overlap(state, result.argmax) - result.p_max) < 1e-12

    factors = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    psi_t = state.amplitudes.reshape((2,) * n)
    history = _values_by_sweep(psi_t, factors[None], 20)[:, 0]
    for earlier, later in zip(history, history[1:]):
        assert later >= earlier - 1e-14

    if n == 2:
        assert result.p_max <= grid_search_oracle(state, 16) + 1e-12


def test_optimizer_consistent_with_oracle_small_n():
    rng = np.random.default_rng(55)
    for n in (1, 2, 3):
        for _ in range(3):
            state = random_state(n, rng)
            p_opt = optimize_product(state, restarts=12, seed=1).p_max
            assert p_opt >= grid_search_oracle(state, 48) - 1e-3
            assert p_opt <= 1 + 1e-12


def _ascent_case(kind, n, lanes, rng):
    # A state and an (L, n, 2) stack of starts.  For "basis" some lanes
    # start on the basis state with every bit flipped, orthogonal to the
    # state on every qubit, so their environments are zero from n = 2 on.
    starts = groverian._random_factors(n, rng, lanes)
    if kind == "haar":
        return random_state(n, rng), starts
    if kind in ("ghz", "w"):
        return build_state(kind, n), starts
    if kind == "product":
        return ProductState(groverian._random_factors(n, rng)).to_state(), starts
    k = int(rng.integers(1 << n))
    flipped = groverian._basis_factors(n, k ^ ((1 << n) - 1))
    starts[rng.random(lanes) < 0.5] = flipped
    return build_state("basis", n, k=k), starts


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["haar", "ghz", "w", "product", "basis"]),
    n=st.integers(1, 8),
    lanes=st.integers(1, 12),
    sweeps=st.sampled_from([1, 2, 3, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_lane_matches_the_sequential_ascent_bit_for_bit(kind, n, lanes, sweeps, seed):
    # After 1, 2 or 3 sweeps and at convergence (sweeps=None), every lane
    # holds the value, factors and flag of the ascent from its start alone.
    rng = np.random.default_rng(seed)
    state, starts = _ascent_case(kind, n, lanes, rng)
    psi_t = state.amplitudes.reshape((2,) * n)
    with mock.patch.object(groverian, "MAX_SWEEPS", sweeps or groverian.MAX_SWEEPS):
        values, factors, converged = _full_ascend(psi_t, starts)
        refs = [reference_ascend(psi_t, start) for start in starts]
    assert values.shape == converged.shape == (lanes,) and factors.shape == starts.shape
    for j, (value, out, ref_converged, _) in enumerate(refs):
        assert values[j] == value
        assert factors[j].tobytes() == out.tobytes()
        assert converged[j] == ref_converged


def test_a_lane_whose_environment_is_zero_keeps_its_factor():
    # Basis |11> against the start |00>: every environment is zero, so the
    # lane keeps its start and its value 0, beside a lane that moves.
    psi_t = build_state("basis", 2, k=3).amplitudes.reshape(2, 2)
    starts = np.array([[[1, 0], [1, 0]], [[0.6, 0.8], [1, 0]]], dtype=complex)
    values, factors, converged = _full_ascend(psi_t, starts)
    assert values.tolist() == [0.0, 1.0] and converged.all()
    assert np.array_equal(factors[0], starts[0])
    for j in range(2):
        value, out, _, _ = reference_ascend(psi_t, starts[j])
        assert values[j] == value and factors[j].tobytes() == out.tobytes()


def _assert_same_result(result, ref):
    assert result.p_max == ref.p_max and type(result.p_max) is float
    assert result.g == ref.g
    assert result.argmax.qubit_states.tobytes() == ref.argmax.qubit_states.tobytes()
    assert result.converged == ref.converged and type(result.converged) is bool
    assert result.restarts_used == ref.restarts_used
    assert result.best_per_restart == ref.best_per_restart


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    restarts=st.integers(1, 40),
    group=st.sampled_from([1, 2, 3, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimizer_is_unchanged_across_group_boundaries(n, restarts, group, seed):
    # _ASCENT_CELLS >> n lanes a group: 1, 2 or 3 lanes, or every start in one.
    cells = (restarts + 1 if group is None else group) << n
    state = random_state(n, np.random.default_rng(seed))
    with mock.patch.object(groverian, "_ASCENT_CELLS", cells):
        result = optimize_product(state, restarts=restarts, seed=seed)
    _assert_same_result(result, reference_optimize_product(state, restarts=restarts, seed=seed))


def _screen_case(kind, n, rng):
    if kind == "haar":
        return random_state(n, rng)
    if kind == "product":
        return ProductState(groverian._random_factors(n, rng)).to_state()
    state = build_state(kind.removesuffix("-rotated"), n)
    if kind.endswith("-rotated"):
        state = apply_local_unitaries(state, [random_unitary(rng) for _ in range(n)])
    return state


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["haar", "ghz", "w", "product", "ghz-rotated", "w-rotated"]),
    n=st.integers(1, 8),
    restarts=st.integers(1, 24),
    group=st.sampled_from([1, 2, 3, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_selected_start_matches_the_sequential_ascent_bit_for_bit(
        kind, n, restarts, group, seed):
    # Every start's screened value is the one its whole ascent passes
    # through, and every start within SCREEN_MARGIN of the best screened
    # value ends with the value, factors and flag of its whole ascent,
    # whichever group it ascends in.
    state = _screen_case(kind, n, np.random.default_rng(seed))
    psi_t = state.amplitudes.reshape((2,) * n)
    calls = []

    def recording(psi_t, starts):
        # _ascend overwrites the starts with the factors they end on.
        calls.append((starts.copy(), *_ascend(psi_t, starts)))
        return calls[-1][1:]

    cells = (restarts + 1 if group is None else group) << n
    with mock.patch.object(groverian, "_ASCENT_CELLS", cells):
        with mock.patch.object(groverian, "_ascend", recording):
            optimize_product(state, restarts=restarts, seed=seed)
    # One call ascends every start, whatever the grouping.
    [(starts, values, factors, converged, screened)] = calls
    assert len(screened) == restarts + 1
    selected = screened >= screened.max() - groverian.SCREEN_MARGIN
    for j, start in enumerate(starts):
        value, out, ref_converged, history = reference_ascend(psi_t, start)
        assert screened[j] == reference_screened_value(history, n)
        if selected[j]:
            assert values[j] == value
            assert factors[j].tobytes() == out.tobytes()
            assert converged[j] == ref_converged


def _lane_sweeps(call):
    # call() and the sweeps it made, one a lane.
    sweeps = []
    sweeper = groverian._sweeper

    def counting(psi_t, factors):
        sweep = sweeper(psi_t, factors)

        def counted():
            sweeps.append(factors.shape[1])
            return sweep()

        return counted

    with mock.patch.object(groverian, "_sweeper", counting):
        result = call()
    return result, sum(sweeps)


# Haar states (n, build_state seed, optimizer seed) where a random start
# stalls on a plateau far below the best start, then climbs and wins.  At
# n = 12 start 5 first gains less than 1e-7 1.8e-3 below the best, never
# less than 6.7e-8 there, and wins by 2.2e-14: a SCREEN_TOL of 1e-7 would
# stop it.  At n = 10 start 7 gains 3.8e-9 a sweep at its slowest, 4e-3
# below the best, and wins by 2.4e-13; in the second n = 12 state start 8
# gains 1.7e-9 at its slowest, 1.4e-3 below, and wins by 1e-4.  At n = 11
# start 6 gains 3.4e-10 a sweep for about 100 sweeps, 3e-3 below, and
# ends 4.7e-13 above start 4, which reaches the same optimum.  With the
# CLI's 32 restarts, in the second n = 11 state starts 3 and 11 gain
# 4.1e-10 at their slowest, 2.9e-3 below, and win by 9.9e-4.  So any
# SCREEN_TOL above 3.4e-10 fails one of them.
_PLATEAUS = [
    (12, 515, 15, 8),
    (10, 1083, 83, 8),
    (12, 105316, 8316, 8),
    (11, 74447, 54447, 8),
    (11, 76711, 56711, 32),
]


@pytest.mark.parametrize("n, state_seed, seed, restarts", _PLATEAUS)
def test_a_start_that_stalls_on_a_plateau_and_then_wins_is_kept(n, state_seed, seed, restarts):
    # The screen still stops the starts that end far below.
    state = build_state("haar", n, seed=state_seed)
    result, sweeps = _lane_sweeps(lambda: optimize_product(state, restarts=restarts, seed=seed))
    with mock.patch.object(groverian, "SCREEN_MARGIN", math.inf):
        full, full_sweeps = _lane_sweeps(lambda: optimize_product(state, restarts=restarts, seed=seed))
        ref = reference_optimize_product(state, restarts=restarts, seed=seed)
    _assert_same_result(full, ref)
    assert result.p_max == ref.p_max and result.g == ref.g
    assert result.argmax.qubit_states.tobytes() == ref.argmax.qubit_states.tobytes()
    assert result.converged == ref.converged
    assert sweeps < full_sweeps, (sweeps, full_sweeps)


def test_the_best_screened_value_carries_across_groups():
    # One start a group: a start stops below the best only if the best
    # screened value of the groups before it counts, and the starts that
    # win still ascend to their ends.
    n, state_seed, seed, restarts = _PLATEAUS[1]
    state = build_state("haar", n, seed=state_seed)
    with mock.patch.object(groverian, "_ASCENT_CELLS", 1 << n):
        result, sweeps = _lane_sweeps(lambda: optimize_product(state, restarts=restarts, seed=seed))
        with mock.patch.object(groverian, "SCREEN_MARGIN", math.inf):
            _, full_sweeps = _lane_sweeps(lambda: optimize_product(state, restarts=restarts, seed=seed))
    _assert_same_result(result, reference_optimize_product(state, restarts=restarts, seed=seed))
    assert sweeps < full_sweeps, (sweeps, full_sweeps)


def test_ties_keep_the_earliest_start_across_groups():
    # On |000>, starts of +-1 and 0 are contracted exactly: every start
    # reaches 1.0 exactly, with factors of its own signs.  Groups of two
    # put ties on both sides of each boundary; the warm start, first,
    # must win.
    def signed_starts(n, rng, *lanes):
        starts = np.zeros((*lanes, n, 2), dtype=complex)
        starts[..., 0] = np.where(rng.standard_normal((*lanes, n)) < 0, -1.0, 1.0)
        return starts

    n = 3
    state = build_state("basis", n, k=0)
    with mock.patch.object(groverian, "_random_factors", signed_starts):
        starts = signed_starts(n, np.random.default_rng(3), 5)
        _, reached, _ = _full_ascend(state.amplitudes.reshape(2, 2, 2), starts)
        # Every random start ties with the warm start at other factors.
        assert all(not np.array_equal(f, groverian._basis_factors(n, 0)) for f in reached)
        with mock.patch.object(groverian, "_ASCENT_CELLS", 2 << n):
            result = optimize_product(state, restarts=5, seed=3)
    assert result.best_per_restart == (1.0,) * 6
    assert result.argmax.qubit_states.tobytes() == groverian._basis_factors(n, 0).tobytes()


def _stacks_built(call):
    # call() and the lockstep stacks it built.
    builds = []
    sweeper = groverian._sweeper

    def counting(psi_t, factors):
        builds.append(factors.shape[1])
        return sweeper(psi_t, factors)

    with mock.patch.object(groverian, "_sweeper", counting):
        result = call()
    return result, len(builds)


@pytest.mark.parametrize("kind", ["ghz-rotated", "w-rotated", "haar"])
def test_stopped_lanes_ride_along_in_a_small_stack(kind):
    # At n = 3 stopped lanes stay in the stack, so fewer stacks are built
    # than when every stop drops them, and every start ends as it does then.
    state = _screen_case(kind, 3, np.random.default_rng(71))
    result, builds = _stacks_built(lambda: optimize_product(state, restarts=32, seed=5))
    with mock.patch.object(groverian, "_IDLE_CELLS", 0):
        ref, ref_builds = _stacks_built(lambda: optimize_product(state, restarts=32, seed=5))
    _assert_same_result(result, ref)
    assert builds < ref_builds, (builds, ref_builds)


def test_ascent_memory_is_bounded_by_the_group_cap():
    # Products and two contractions hold 1.75 x 16 bytes a lane and an
    # amplitude; a group holds _ASCENT_CELLS amplitudes.
    state = random_state(14, np.random.default_rng(62))
    optimize_product(random_state(2, np.random.default_rng(0)), restarts=1)
    peak, _ = traced_peak(lambda: optimize_product(state, restarts=32, seed=1))
    assert peak <= 2 * 16 * groverian._ASCENT_CELLS + (1 << 20), peak


def test_optimizer_memory_does_not_grow_with_its_sweeps():
    # With no tolerance and no screen every start runs MAX_SWEEPS sweeps.
    # The optimizer holds its group buffer, the starts and their results,
    # and nothing that grows with the sweeps.
    state = build_state("w", 3)
    optimize_product(state, restarts=1)
    peaks = []
    with mock.patch.object(groverian, "SWEEP_TOL", -math.inf), \
            mock.patch.object(groverian, "SCREEN_TOL", -math.inf):
        for sweeps in (50, 500):
            with mock.patch.object(groverian, "MAX_SWEEPS", sweeps):
                peak, _ = traced_peak(lambda: optimize_product(state, restarts=1000, seed=1))
            peaks.append(peak)
    assert peaks[1] <= peaks[0] + (64 << 10), peaks


def test_one_lane_groups_hold_what_the_sequential_optimizer_holds():
    state = random_state(12, np.random.default_rng(63))
    optimize_product(random_state(2, np.random.default_rng(0)), restarts=1)
    with mock.patch.object(groverian, "_ASCENT_CELLS", 1 << 12):
        peak, result = traced_peak(lambda: optimize_product(state, restarts=3, seed=2))
    ref_peak, ref = traced_peak(lambda: reference_optimize_product(state, restarts=3, seed=2))
    _assert_same_result(result, ref)
    assert peak <= 1.1 * ref_peak, (peak, ref_peak)


def _degenerate_state(kind, n, rng):
    # Remainders whose 2x2 singular values are equal or one of whose rows is zero.
    if kind == "bell":
        pair = np.array([1, 0, 0, 1]) / math.sqrt(2)
        if n == 2:
            return QuantumState(2, pair.astype(complex))
        return QuantumState(3, np.kron(np.array([1, 1]) / math.sqrt(2), pair).astype(complex))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    # Every amplitude with the second-to-last bit set is zero.
    amps.reshape(-1, 2, 2)[:, 1, :] = 0
    return QuantumState.renormalized(n, amps)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["haar", "product", "ghz", "w", "bell", "zero-row"]),
    n=st.integers(1, 3),
    resolution=st.integers(16, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_matches_the_svd_reference(kind, n, resolution, seed):
    rng = np.random.default_rng(seed)
    if kind == "haar":
        state = random_state(n, rng)
    elif kind == "product":
        state = ProductState(groverian._random_factors(n, rng)).to_state()
    elif kind in ("ghz", "w"):
        state = build_state(kind, n)
    else:
        n = max(n, 2)
        state = _degenerate_state(kind, n, rng)
    closed = grid_search_oracle(state, resolution)
    assert abs(closed - reference_grid_search_oracle(state, resolution)) <= 1e-14


def test_oracle_memory_stays_within_96_bytes_a_grid_point():
    # The SVD finish held 96 bytes a grid point; the blocked closed form
    # holds about 34 at this size, and an unblocked one held about 160.
    state = random_state(3, np.random.default_rng(60))
    # A first call, so that numpy's one-time allocations are not counted.
    grid_search_oracle(state, 16)
    peak, _ = traced_peak(lambda: grid_search_oracle(state, 400))
    assert peak <= 96 * 400**2 + 64 * 1024, peak


def test_oracle_near_one_for_product_states():
    rng = np.random.default_rng(56)
    factors = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    state = ProductState(factors).to_state()
    assert grid_search_oracle(state, 16) >= 1 - 10 / 16


def test_oracle_ghz2_bracket():
    val = grid_search_oracle(build_state("ghz", 2), 200)
    assert 0.499 <= val <= 0.5 + 1e-12


def test_oracle_two_qubits_is_exact():
    # P_max of a two-qubit state is the largest eigenvalue of M M^dagger,
    # M the 2x2 amplitude matrix, at any resolution.
    state = random_state(2, np.random.default_rng(59))
    m = state.amplitudes.reshape(2, 2)
    exact = np.linalg.eigvalsh(m @ np.conj(m.T))[-1]
    assert abs(grid_search_oracle(state, 16) - exact) < 1e-12


def test_oracle_single_qubit_is_exact():
    assert abs(grid_search_oracle(build_state("basis", 1, k=0), 32) - 1.0) < 1e-12


def test_oracle_rejects_large_n_and_small_resolution():
    with pytest.raises(ValueError, match="n <= 3"):
        grid_search_oracle(build_state("eta", 4), 100)
    with pytest.raises(ValueError, match="resolution"):
        grid_search_oracle(build_state("eta", 2), 8)


def test_oracle_resolution_over_the_limit_is_refused_before_the_grid():
    # At n = 3 the grid holds 32 bytes a point: 3.2 GB at 10,000.
    state = build_state("w", 3)
    with mock.patch.object(groverian, "_angle_grid", side_effect=AssertionError("gridded")):
        with pytest.raises(ValueError, match=r"resolution must be in \[16, 1000\], got 1001"):
            grid_search_oracle(state, 1001)
        with mock.patch.object(groverian, "MAX_RESOLUTION", 20):
            with pytest.raises(ValueError, match=r"resolution must be in \[16, 20\], got 21"):
                grid_search_oracle(state, 21)
    with mock.patch.object(groverian, "MAX_RESOLUTION", 20):
        assert grid_search_oracle(state, 20) <= 4 / 9 + 1e-12


def test_local_unitary_identity_gives_zero():
    state = build_state("ghz", 3)
    eye = [np.eye(2)] * 3
    assert local_unitary_invariance_check(state, eye, restarts=8) < 1e-10


def test_local_unitary_invariance_ghz3():
    rng = np.random.default_rng(57)
    unitaries = [random_unitary(rng) for _ in range(3)]
    diff = local_unitary_invariance_check(
        build_state("ghz", 3), unitaries, restarts=16, seed=2
    )
    assert diff < 1e-4


def test_local_unitary_bit_flip_on_product_state():
    state = build_state("basis", 3, k=0)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    mats = [flip, np.eye(2), np.eye(2)]
    assert local_unitary_invariance_check(state, mats, restarts=8) < 1e-8


def test_local_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        apply_local_unitaries(
            build_state("eta", 2), [np.eye(2), np.array([[1, 0], [0, 2.0]])]
        )
    # One NaN or inf entry makes U^dagger U - I NaN, which fails every
    # comparison: unchecked, the result is an all-NaN state.
    # U^dagger U is formed with numpy's warnings off, so it warns of nothing.
    for bad in (math.nan, math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                apply_local_unitaries(
                    build_state("eta", 2), [np.eye(2), np.array([[1, 0], [0, bad]])]
                )


def test_measure_invariant_under_qubit_relabeling():
    rng = np.random.default_rng(58)
    state = random_state(3, rng)
    g_original = optimize_product(state, restarts=16, seed=4).g
    for perm in ((1, 2, 0), (2, 1, 0)):
        g_permuted = optimize_product(
            permute_qubits(state, perm), restarts=16, seed=4
        ).g
        assert abs(g_original - g_permuted) < 1e-6
