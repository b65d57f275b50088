import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverdyn import (
    MarkedSet,
    QuantumState,
    StateKind,
    build_fixed_point,
    build_state,
    classify,
    detect_cycle,
    evolve,
    grover_iterate,
    inner_product,
    moments,
)
from groverdyn import _kernels
from groverdyn.dynamics import _rational_pq
from groverdyn.simulator import MAX_TRAJECTORY_STEPS
from helpers import (
    constant_p_state,
    marked_split_cases,
    random_marked_set,
    random_state,
    traced_peak,
    two_cycle_state,
)


def fidelity_after(state, marked, k):
    traj = evolve(state, marked, k, record_full_states=True)
    return abs(inner_product(traj.steps[0].state, traj.steps[k].state)) ** 2


def test_classify_marked_pair_fixed_point():
    marked = MarkedSet(16, (2, 9))
    state = build_fixed_point(marked, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.FIXED_POINT_A
    assert verdict.period == 1
    assert fidelity_after(state, marked, 1) >= 1 - 1e-11


def test_classify_class_b_fixed_point():
    # marked amplitude zero, unmarked mean zero, two unmarked nonzero
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1 / math.sqrt(2)
    amps[2] = -1 / math.sqrt(2)
    state = QuantumState(2, amps)
    marked = MarkedSet(4, (0,))
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.FIXED_POINT_B
    assert verdict.period == 2
    assert fidelity_after(state, marked, 1) >= 1 - 1e-11


def test_classify_two_cycle():
    marked = MarkedSet(16, (0, 5))
    state = two_cycle_state(marked)
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.TWO_CYCLE
    assert verdict.period == 2
    assert fidelity_after(state, marked, 2) >= 1 - 1e-11


def test_classify_constant_p():
    state, marked = constant_p_state(5)
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.CONSTANT_P
    assert verdict.period is None
    traj = evolve(state, marked, 100)
    p = traj.p_marked()
    assert float(np.max(np.abs(p - p[0]))) < 1e-8  # 10 * default tol


@pytest.mark.parametrize("n, period", [(1, 4), (2, 6)])
def test_classify_constant_p_carries_the_period_at_rational_omega(n, period):
    # r/N = 1/2 and 1/4: omega = pi/2 and pi/3, so the state returns.
    state, marked = constant_p_state(n)
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.CONSTANT_P
    assert verdict.period == period
    assert detect_cycle(state, marked, MAX_TRAJECTORY_STEPS) == period


def test_rational_pq_matches_the_continued_fraction_search():
    # The search it replaced: omega/pi rounded to q <= 64 within 1e-12.
    for n in range(1, 13):
        num_states = 1 << n
        for r in range(1, num_states):
            x = 2.0 * math.asin(math.sqrt(r / num_states)) / math.pi
            frac = Fraction(x).limit_denominator(64)
            rational = abs(x - float(frac)) < 1e-12 and 0 < frac < 1
            expected = (frac.numerator, frac.denominator) if rational else None
            assert _rational_pq(num_states, r) == expected, (n, r)


def test_classify_periodic_cycle_quarter_filling():
    state = build_state("eta", 4)
    marked = MarkedSet(16, (0, 1, 2, 3))
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.PERIODIC_CYCLE
    assert verdict.period == 6


def test_classify_periodic_cycle_with_deviations():
    rng = np.random.default_rng(41)
    state = random_state(4, rng)
    marked = random_marked_set(4, 4, rng)  # N/r = 4 again
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.PERIODIC_CYCLE
    assert verdict.period == 6
    assert detect_cycle(state, marked, 12) == 6


def test_classify_periodic_cycle_odd_period():
    # r/N = 3/4 rotates by 2*pi/3; no unmarked deviations, so period 3
    state = build_state("eta", 2)
    marked = MarkedSet(4, (0, 1, 2))
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.PERIODIC_CYCLE
    assert verdict.period == 3
    assert detect_cycle(state, marked, 12) == 3


def test_classify_generic():
    state = build_state("eta", 10)
    marked = MarkedSet(1024, (1, 2, 3))
    verdict = classify(state, marked)
    assert verdict.kind is StateKind.GENERIC
    assert verdict.period is None


def test_classify_evidence_holds_the_initial_means():
    rng = np.random.default_rng(43)
    state = random_state(5, rng)
    marked = random_marked_set(5, 3, rng)
    evidence = classify(state, marked).evidence
    mom = moments(state, marked)
    assert evidence["abar_m"] == mom.a_bar_m
    assert evidence["abar_u"] == mom.a_bar_u
    assert evidence["sigma_u"] == mom.sigma_u


def _zero_mean(rng, size):
    """Seeded complex deviations with zero mean and unit norm."""
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v -= np.mean(v)
    return v / np.linalg.norm(v)


def _periodic_input(family, n, seed):
    """A state with a known cycle, plus seeded deviations that keep it.

    The ``haar`` and ``zero_mean`` families have none built in: they draw
    r from N/4, N/2, 3N/4 and one uniform count, so most of them cycle.
    """
    rng = np.random.default_rng(seed)
    num_states = 1 << n
    # 4r/N = 1, 2, 3: the only r where omega/pi is rational.
    rational_r = [num_states // 4, num_states // 2, 3 * num_states // 4]
    if family in ("haar", "zero_mean"):
        r = int(rng.choice(rational_r + [int(rng.integers(1, num_states))]))
        marked = random_marked_set(n, r, rng)
        if family == "haar":
            return random_state(n, rng), marked
        return build_state("zero_mean", n, seed=int(rng.integers(2**32))), marked
    if family == "quarter_filling":
        # N/r = 4: omega = pi/3, so the means return after 6 steps.
        r = num_states // 4
    elif family == "constant_p":
        r = int(rng.choice(rational_r))
    elif family == "fixed_point_a":
        r = int(rng.integers(2, num_states))
    elif family == "fixed_point_b":
        r = int(rng.integers(1, num_states - 1))
    else:
        r = int(rng.integers(2, num_states - 1))
    marked = random_marked_set(n, r, rng)
    m_idx, u_idx = marked.indices_array, np.flatnonzero(~marked.mask)
    amps = np.zeros(num_states, dtype=complex)
    if family == "quarter_filling":
        amps[:] = 1.0 / math.sqrt(num_states)
        amps += rng.uniform(0.0, 0.5) * _zero_mean(rng, num_states)
    elif family == "fixed_point_a":
        amps[m_idx] = _zero_mean(rng, r)
    elif family == "fixed_point_b":
        amps[u_idx] = _zero_mean(rng, num_states - r)
    elif family == "constant_p":
        # abar_m = +-i sqrt((N-r)/r) abar_u: one rotating coordinate is zero.
        amps[m_idx] = rng.choice([-1.0, 1.0]) * 1j * math.sqrt((num_states - r) / r)
        amps[u_idx] = 1.0
        for group in (m_idx, u_idx):
            if group.size > 1:  # a lone amplitude has no deviation
                deviation = math.sqrt(group.size) * _zero_mean(rng, group.size)
                amps[group] += rng.uniform(0.0, 0.5) * deviation
    else:
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        amps[m_idx] = math.cos(theta) * _zero_mean(rng, r)
        amps[u_idx] = math.sin(theta) * _zero_mean(rng, num_states - r)
    return QuantumState.renormalized(n, amps), marked


@pytest.mark.parametrize("family", [
    "fixed_point_a",
    "fixed_point_b",
    "two_cycle",
    "quarter_filling",
    "constant_p",
    "haar",
    "zero_mean",
])
@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_classified_period_is_detected(family, n, seed):
    # Both ways: the search allowed every step a trajectory may take finds
    # the classified period, and finds none where classify reports none.
    state, marked = _periodic_input(family, n, seed)
    verdict = classify(state, marked)
    if family not in ("haar", "zero_mean"):
        assert verdict.period is not None
    assert detect_cycle(state, marked, MAX_TRAJECTORY_STEPS) == verdict.period


@pytest.mark.filterwarnings("error")
def test_classify_rejects_bad_tol():
    with pytest.raises(ValueError):
        classify(build_state("eta", 3), MarkedSet(8, (1,)), tol=0.0)
    # NaN fails every comparison: unchecked, it turns this fixed point
    # into a PeriodicCycle.
    marked = MarkedSet(8, (0, 1))
    fixed_point = build_fixed_point(marked, np.array([1.0, -1.0]) / math.sqrt(2))
    for tol in (math.nan, math.inf, None, "x", 1e-9j):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            classify(fixed_point, marked, tol=tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf, None, "x"])
def test_detect_cycle_rejects_bad_tol(tol):
    # eta at n = 4 with 4 marked states has period 6.  Unchecked, a NaN or
    # negative tol reports no cycle and an infinite one reports period 1.
    marked = MarkedSet(16, (0, 1, 2, 3))
    eta = build_state("eta", 4)
    assert detect_cycle(eta, marked, 12) == 6
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        detect_cycle(eta, marked, 12, tol=tol)


def test_detect_cycle_rejects_non_integer_max_period():
    with pytest.raises(ValueError, match="max_period must be an integer"):
        detect_cycle(build_state("eta", 3), MarkedSet(8, (1,)), 2.5)


def test_detect_cycle_rejects_max_period_below_one():
    with pytest.raises(ValueError, match=r"max_period must be in \[1, 100000\], got 0"):
        detect_cycle(build_state("eta", 3), MarkedSet(8, (1,)), 0)


def test_detect_cycle_bounds_max_period_before_stepping():
    # max_period keeps the trajectory limit as its range, and nothing is
    # iterated before the range is checked.
    state, marked = build_state("eta", 3), MarkedSet(8, (1,))
    with mock.patch.object(_kernels, "run_grover", side_effect=AssertionError("iterated")):
        with pytest.raises(ValueError, match=rf"max_period must be in \[1, {MAX_TRAJECTORY_STEPS}\]"):
            detect_cycle(state, marked, MAX_TRAJECTORY_STEPS + 1)
    fixed_point = build_fixed_point(MarkedSet(8, (0, 1)), np.array([1.0, -1.0]) / math.sqrt(2))
    assert detect_cycle(fixed_point, MarkedSet(8, (0, 1)), MAX_TRAJECTORY_STEPS) == 1


def test_detect_cycle_stops_at_first_recurrence():
    # One kernel step per k tried, none past the period found.
    state = build_state("eta", 4)
    marked = MarkedSet(16, (0, 1, 2, 3))
    with mock.patch.object(_kernels, "run_grover", wraps=_kernels.run_grover) as kernel:
        assert detect_cycle(state, marked, 12) == 6
    assert kernel.call_count == 6
    assert all(call.args[2] == 1 for call in kernel.call_args_list)


def test_detect_cycle_steps_at_most_six_times():
    # No cycle is longer than 6 steps, so a search of any length stops there.
    rng = np.random.default_rng(44)
    state, marked = random_state(10, rng), random_marked_set(10, 3, rng)
    with mock.patch.object(_kernels, "run_grover", wraps=_kernels.run_grover) as kernel:
        assert detect_cycle(state, marked, MAX_TRAJECTORY_STEPS) is None
    assert kernel.call_count <= 6


def test_detect_cycle_ignores_near_returns():
    # The overlap check is absolute, and the part of these states that
    # rotates weighs little, so the angle's near-returns pass it: a search
    # of 100 steps found k = 82 for the first and 1000 steps k = 548 for
    # the second.  Neither state returns: omega/pi is irrational.
    marked = MarkedSet(512, (65, 400, 436))
    zero_mean = build_state("zero_mean", 9, seed=3)
    assert classify(zero_mean, marked).period is None
    assert detect_cycle(zero_mean, marked, 100) is None

    marked = MarkedSet(64, (0, 5))
    amps = two_cycle_state(marked).amplitudes + 1e-3 * build_state("eta", 6).amplitudes
    nudged = QuantumState.renormalized(6, amps)
    assert classify(nudged, marked).kind is StateKind.GENERIC
    assert detect_cycle(nudged, marked, 1000) is None


def test_detect_cycle_period_six():
    state = build_state("eta", 4)
    marked = MarkedSet(16, (4, 5, 6, 7))
    assert detect_cycle(state, marked, 6, tol=1e-10) == 6


def test_detect_cycle_multiples_recur():
    state = build_state("eta", 4)
    marked = MarkedSet(16, (4, 5, 6, 7))
    for k in (6, 12, 18):
        assert fidelity_after(state, marked, k) >= 1 - 1e-10


def test_detect_cycle_sign_flip_is_not_a_return():
    # after three iterations the state is the global sign flip of the input;
    # recurrence is exact, phase included, so the period is 6
    state = build_state("eta", 4)
    marked = MarkedSet(16, (0, 1, 2, 3))
    assert detect_cycle(state, marked, 12) == 6


def test_detect_cycle_two_cycle_and_fixed_point():
    marked = MarkedSet(16, (0, 5))
    assert detect_cycle(two_cycle_state(marked), marked, 8) == 2

    fp = build_fixed_point(marked, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    assert detect_cycle(fp, marked, 8) == 1


def test_detect_cycle_absent_for_generic_state():
    rng = np.random.default_rng(42)
    state = random_state(6, rng)
    marked = random_marked_set(6, 2, rng)
    assert detect_cycle(state, marked, 50, tol=1e-10) is None


def test_finite_cycles_are_classified():
    # states with a finite exact cycle (away from rational rotation
    # angles) are exactly the fixed points and two-cycles
    marked = MarkedSet(32, (1, 11, 30))
    weights = np.array([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    weights /= np.linalg.norm(weights)
    cases = [
        build_fixed_point(marked, weights),
        two_cycle_state(marked),
    ]
    for state in cases:
        period = detect_cycle(state, marked, 20, tol=1e-10)
        assert period in (1, 2)
        kind = classify(state, marked).kind
        assert kind in (
            StateKind.FIXED_POINT_A,
            StateKind.FIXED_POINT_B,
            StateKind.TWO_CYCLE,
        )


def test_build_fixed_point_examples():
    marked = MarkedSet(16, (2, 9))
    state = build_fixed_point(marked, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    out = grover_iterate(state, marked)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    marked3 = MarkedSet(8, (1, 4, 6))
    roots = np.array([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    state3 = build_fixed_point(marked3, roots / np.linalg.norm(roots))
    assert classify(state3, marked3).kind is StateKind.FIXED_POINT_A
    out3 = grover_iterate(state3, marked3)
    assert np.allclose(out3.amplitudes, state3.amplitudes, atol=1e-14)


def test_build_fixed_point_checks_n_before_allocating():
    # 2^30 amplitudes are 16 GiB; the marked set refuses n before any
    # register is sized by it.
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError, match=r"n must be in \[1, 24\], got 30"):
            marked = MarkedSet(1 << 30, (0, 1))
            build_fixed_point(marked, np.array([1.0, -1.0]) / math.sqrt(2))


@pytest.mark.filterwarnings("error")
def test_build_fixed_point_rejects_bad_weights():
    marked = MarkedSet(16, (2, 9))
    with pytest.raises(ValueError, match="zero mean"):
        build_fixed_point(marked, [1.0, 0.0])
    with pytest.raises(ValueError, match="unit norm"):
        build_fixed_point(marked, [1.0, -1.0])
    with pytest.raises(ValueError, match="weights"):
        build_fixed_point(marked, [1.0, -1.0, 0.0])
    # Unchecked, a NaN passes both bounds and fails later in QuantumState,
    # and an inf makes numpy warn before the refusal.
    for bad in ([math.nan, math.nan], [math.inf, -math.inf], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="weights must be finite"):
            build_fixed_point(marked, bad)
    single = MarkedSet(16, (3,))
    with pytest.raises(ValueError):
        build_fixed_point(single, [1.0])


@pytest.mark.parametrize("case", list(marked_split_cases()))
def test_classify_max_magnitudes_equal_gathered_reference(case):
    # classify zeroes the marked magnitudes in place of gathering the
    # unmarked ones; the maxima must equal those of each group gathered.
    state, marked = marked_split_cases()[case]
    amps = state.amplitudes
    unmarked = np.flatnonzero(~marked.mask)
    evidence = classify(state, marked).evidence
    assert evidence["max_marked_abs"] == float(np.max(np.abs(amps[marked.indices_array])))
    assert evidence["max_unmarked_abs"] == float(np.max(np.abs(amps[unmarked])))
    if case == "fixed-point-a":
        assert evidence["max_unmarked_abs"] == 0.0


def test_classify_memory_stays_near_the_state_size():
    # One work buffer for the moments, then one float64 magnitude array;
    # no gathered copy of the unmarked amplitudes and no index list.
    state = build_state("haar", 16, seed=1)
    marked = MarkedSet(state.dim, (3, 77, 40000))
    peak, _ = traced_peak(lambda: classify(state, marked))
    assert peak <= 1.25 * state.amplitudes.nbytes, peak / state.amplitudes.nbytes
