import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverdyn import (
    MarkedSet,
    analytic_amplitude_means,
    analytic_amplitudes,
    analytic_success,
    averaged_success,
    build_state,
    compute_params,
    evolve,
    inner_product,
    moments,
    optimal_iterations,
    success_probability,
)
from helpers import (
    best_integer_time,
    constant_p_state,
    marked_split_cases,
    random_marked_set,
    random_real_state,
    random_state,
    traced_peak,
    two_cycle_state,
)


def test_optimal_iterations_examples():
    assert optimal_iterations(10, 1) == 25
    assert optimal_iterations(2, 1) == 1
    assert optimal_iterations(10, 4) == 12


def test_optimal_iterations_rejects_bad_n():
    # n = 10**8 used to build a 13 MB integer, then raise OverflowError.
    for n in (0, 25, 10**8):
        with pytest.raises(ValueError, match=r"n must be in \[1, 24\]"):
            optimal_iterations(n, 1)


def test_optimal_iterations_rejects_bad_r():
    with pytest.raises(ValueError):
        optimal_iterations(3, 0)
    with pytest.raises(ValueError):
        optimal_iterations(3, 8)


def test_params_for_equal_superposition():
    params = compute_params(build_state("eta", 10), MarkedSet(1024, (7,)))
    assert params.tau == 25
    assert params.k_const == 0.0
    assert abs(params.p0 - 1.0) < 1e-12
    # the floor in the optimal-time formula lands one short of the true
    # integer argmax here; the windowed search reports the argmax
    assert params.tau_m == 24
    assert best_integer_time(params) == 25
    assert params.delta_defined


def test_real_states_have_zero_k():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        state = random_real_state(n, rng)
        marked = random_marked_set(n, int(rng.integers(1, 1 << n)), rng)
        params = compute_params(state, marked)
        assert params.k_const < 1e-12


def test_vanishing_sinusoid_state_is_flagged():
    state, marked = constant_p_state(3)
    params = compute_params(state, marked)
    assert params.delta_p < 1e-12
    assert not params.delta_defined
    assert params.constp_residual < 1e-15


def test_constp_residual_is_distance_from_constant_p_line():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(1, 1 << n))
        state = random_state(n, rng)
        marked = random_marked_set(n, r, rng)
        params = compute_params(state, marked)
        mom = moments(state, marked)
        ratio = math.sqrt(((1 << n) - r) / r)
        direct = min(
            abs(mom.a_bar_m - 1j * ratio * mom.a_bar_u),
            abs(mom.a_bar_m + 1j * ratio * mom.a_bar_u),
        )
        assert abs(params.constp_residual - direct) <= 1e-14 * max(direct, 1.0)


def test_k_const_bounds_random_complex_states():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, 1 << n))
        state = random_state(n, rng)
        marked = random_marked_set(n, r, rng)
        params = compute_params(state, marked)
        mom = moments(state, marked)
        num_states = 1 << n
        bound = min(
            2 * r * abs(mom.a_bar_m) ** 2,
            2 * (num_states - r) * abs(mom.a_bar_u) ** 2,
        )
        assert 0.0 <= params.k_const <= bound + 1e-12
        assert 0.0 <= params.p0 <= 1.0 + 1e-12
        assert params.delta_p >= 0.0
        assert params.p0 - params.delta_p >= -1e-12
        assert abs(math.cos(params.omega) - (1 - 2 * r / num_states)) < 1e-12


def test_means_reproduce_initial_moments_at_t_zero():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        state = random_state(n, rng)
        marked = random_marked_set(n, int(rng.integers(1, 1 << n)), rng)
        params = compute_params(state, marked)
        a_bar_m, a_bar_u = analytic_amplitude_means(params, 0)
        mom = moments(state, marked)
        assert abs(a_bar_m - mom.a_bar_m) < 1e-12
        assert abs(a_bar_u - mom.a_bar_u) < 1e-12


def test_means_one_step_completion_at_n2():
    params = compute_params(build_state("eta", 2), MarkedSet(4, (0,)))
    a_bar_m, a_bar_u = analytic_amplitude_means(params, 1)
    assert abs(a_bar_m - 1.0) < 1e-12
    assert abs(a_bar_u) < 1e-12


def test_means_vanish_for_two_cycle_state():
    marked = MarkedSet(16, (0, 5))
    params = compute_params(two_cycle_state(marked), marked)
    for t in range(8):
        a_bar_m, a_bar_u = analytic_amplitude_means(params, t)
        assert abs(a_bar_m) < 1e-14
        assert abs(a_bar_u) < 1e-14


def test_amplitudes_reproduce_input_at_t_zero():
    rng = np.random.default_rng(34)
    state = random_state(5, rng)
    marked = random_marked_set(5, 3, rng)
    out = analytic_amplitudes(state, marked, 0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-14


def test_amplitudes_match_simulator_componentwise():
    rng = np.random.default_rng(35)
    for _ in range(6):
        n = int(rng.integers(3, 10))
        r = int(rng.integers(1, 7))
        state = random_state(n, rng)
        marked = random_marked_set(n, r, rng)
        tau = optimal_iterations(n, r)
        traj = evolve(state, marked, 4 * tau, record_full_states=True)
        for t in (1, tau, 2 * tau + 1, 4 * tau):
            closed = analytic_amplitudes(state, marked, t)
            assert (
                np.max(np.abs(closed.amplitudes - traj.steps[t].state.amplitudes))
                < 1e-10
            )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    name=st.sampled_from(["haar", "zero_mean", "ghz", "w"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_simulation_matches_closed_form_amplitudes(n, name, seed, data):
    r = data.draw(st.integers(1, (1 << n) - 1), label="r")
    state = build_state(name, n, seed=seed)
    marked = random_marked_set(n, r, np.random.default_rng(seed))
    traj = evolve(state, marked, 4 * optimal_iterations(n, r), record_full_states=True)
    for step in traj.steps:
        closed = analytic_amplitudes(state, marked, step.t)
        assert np.max(np.abs(closed.amplitudes - step.state.amplitudes)) < 1e-10


def test_amplitudes_match_simulator_for_degenerate_state():
    state, marked = constant_p_state(4)
    traj = evolve(state, marked, 40, record_full_states=True)
    for t in (1, 7, 40):
        closed = analytic_amplitudes(state, marked, t)
        assert np.max(np.abs(closed.amplitudes - traj.steps[t].state.amplitudes)) < 1e-12


def test_eta_has_no_deviations():
    state = build_state("eta", 5)
    marked = MarkedSet(32, (3, 17))
    params = compute_params(state, marked)
    for t in range(10):
        closed = analytic_amplitudes(state, marked, t)
        a_bar_m, a_bar_u = analytic_amplitude_means(params, t)
        assert np.max(np.abs(closed.amplitudes[marked.mask] - a_bar_m)) < 1e-14
        assert np.max(np.abs(closed.amplitudes[~marked.mask] - a_bar_u)) < 1e-14


def test_success_at_reported_optima():
    rng = np.random.default_rng(36)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        r = int(rng.integers(1, 6))
        state = random_state(n, rng)
        marked = random_marked_set(n, r, rng)
        params = compute_params(state, marked)
        # the windowed argmax reaches p0 up to the half-step sampling error;
        # the floored estimate may sit a full step away
        half_step = params.delta_p * (params.omega / 2) ** 2
        best = best_integer_time(params)
        assert analytic_success(params, best) >= params.p0 - half_step * (1 + 1e-9)
        assert analytic_success(params, params.tau_m) >= params.p0 - 4 * half_step * (1 + 1e-9)


def test_success_constant_when_sinusoid_vanishes():
    state, marked = constant_p_state(5)
    params = compute_params(state, marked)
    p0 = success_probability(state, marked)
    traj = evolve(state, marked, 100)
    for step in traj.steps:
        assert abs(analytic_success(params, step.t) - p0) < 1e-12
        assert abs(step.p_marked - p0) < 1e-12


def test_success_probability_of_original_algorithm():
    state = build_state("eta", 10)
    marked = MarkedSet(1024, (7,))
    params = compute_params(state, marked)
    p_sim = evolve(state, marked, 25).steps[-1].p_marked
    assert analytic_success(params, 25) >= 0.999
    assert abs(analytic_success(params, 25) - p_sim) < 1e-12


def test_sinusoid_matches_simulation_everywhere():
    rng = np.random.default_rng(37)
    for _ in range(8):
        n = int(rng.integers(3, 11))
        r = int(rng.integers(1, 6))
        state = random_state(n, rng)
        marked = random_marked_set(n, r, rng)
        params = compute_params(state, marked)
        traj = evolve(state, marked, 4 * params.tau)
        worst = max(
            abs(analytic_success(params, step.t) - step.p_marked)
            for step in traj.steps
        )
        assert worst < 1e-10


def test_sinusoid_initial_value_identity():
    rng = np.random.default_rng(38)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        state = random_state(n, rng)
        marked = random_marked_set(n, int(rng.integers(1, 1 << n)), rng)
        params = compute_params(state, marked)
        assert abs(analytic_success(params, 0) - success_probability(state, marked)) < 1e-12


def test_measurement_time_ordering():
    rng = np.random.default_rng(39)
    seen_negative = seen_positive = False
    for _ in range(40):
        n = int(rng.integers(3, 9))
        state = random_state(n, rng)
        marked = random_marked_set(n, int(rng.integers(1, 5)), rng)
        params = compute_params(state, marked)
        if not params.delta_defined:
            continue
        if params.delta.real >= 0:
            seen_positive = True
            assert params.tau_m <= params.tau
        else:
            seen_negative = True
            assert params.tau_m >= params.tau
    assert seen_positive and seen_negative


def test_averaged_success_named_states():
    assert abs(averaged_success(build_state("eta", 8)) - 1.0) < 1e-12
    for n in (3, 6, 10):
        num_states = 1 << n
        assert abs(averaged_success(build_state("ghz", n)) - 2 / num_states) < 1e-12
        assert abs(averaged_success(build_state("w", n)) - n / num_states) < 1e-12
        k = min(5, num_states)
        assert abs(
            averaged_success(build_state("k_uniform", n, k=k)) - k / num_states
        ) < 1e-12


def test_averaged_success_equals_eta_overlap():
    rng = np.random.default_rng(40)
    eta = build_state("eta", 7)
    for _ in range(5):
        state = random_state(7, rng)
        assert abs(
            averaged_success(state) - abs(inner_product(eta, state)) ** 2
        ) < 1e-12


def gathered_closed_form(state, marked, t):
    """The closed-form register at ``t`` built group by group, each group gathered."""
    params = compute_params(state, marked)
    a_bar_m_t, a_bar_u_t = analytic_amplitude_means(params, t)
    amps0 = state.amplitudes
    m_idx, u_idx = marked.indices_array, np.flatnonzero(~marked.mask)
    out = np.empty_like(amps0)
    out[m_idx] = a_bar_m_t + (amps0[m_idx] - params.a_bar_m0)
    sign = 1.0 if t % 2 == 0 else -1.0
    out[u_idx] = a_bar_u_t + sign * (amps0[u_idx] - params.a_bar_u0)
    return out


@pytest.mark.parametrize("t", [0, 1, 2, 7])
@pytest.mark.parametrize("case", list(marked_split_cases()))
def test_amplitudes_equal_gathered_formula_bit_for_bit(case, t):
    # The bit patterns must match, so a signed zero counts as a difference.
    state, marked = marked_split_cases()[case]
    got = analytic_amplitudes(state, marked, t).amplitudes
    want = gathered_closed_form(state, marked, t)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_amplitudes_memory_stays_near_the_state_size():
    # The output register and, before it, the moments' work buffer; no
    # gathered copies of the unmarked amplitudes and no index list.
    state = build_state("haar", 16, seed=1)
    marked = MarkedSet(state.dim, (3, 77, 40000))
    peak, _ = traced_peak(lambda: analytic_amplitudes(state, marked, 7))
    assert peak <= 1.25 * state.amplitudes.nbytes, peak / state.amplitudes.nbytes
