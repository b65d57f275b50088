import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverdyn import (
    MarkedSet,
    QuantumState,
    build_state,
    evolve,
    grover_iterate,
    inner_product,
    moments,
    success_probability,
)
from groverdyn import _kernels, analytic_success, compute_params, optimal_iterations
from groverdyn.simulator import MAX_SNAPSHOT_AMPLITUDES, MAX_TRAJECTORY_STEPS, _registers
from helpers import (
    apply_diffusion,
    apply_oracle,
    random_marked_set,
    random_state,
    two_cycle_state,
)


def test_oracle_flips_marked_signs():
    state = build_state("eta", 2)
    out = apply_oracle(state, MarkedSet(4, (3,)))
    assert np.allclose(out.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_oracle_leaves_zero_amplitude_unchanged():
    amps = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
    state = QuantumState(2, amps)
    out = apply_oracle(state, MarkedSet(4, (3,)))
    assert np.array_equal(out.amplitudes, amps)


def test_oracle_is_involution():
    rng = np.random.default_rng(21)
    state = random_state(5, rng)
    marked = random_marked_set(5, 7, rng)
    twice = apply_oracle(apply_oracle(state, marked), marked)
    assert np.array_equal(twice.amplitudes, state.amplitudes)


def test_diffusion_fixes_equal_superposition():
    eta = build_state("eta", 4)
    out = apply_diffusion(eta)
    assert np.allclose(out.amplitudes, eta.amplitudes, atol=1e-15)


def test_diffusion_single_qubit_example():
    # mean is 1/2, so (1, 0) -> (0, 1)
    state = build_state("basis", 1, k=0)
    out = apply_diffusion(state)
    assert np.allclose(out.amplitudes, [0.0, 1.0], atol=1e-15)


def test_diffusion_flips_zero_mean_state():
    amps = np.array([0.5, -0.5, 0.5, -0.5], dtype=complex)
    state = QuantumState(2, amps)
    out = apply_diffusion(state)
    assert np.allclose(out.amplitudes, -amps, atol=1e-15)


def test_diffusion_is_involution():
    rng = np.random.default_rng(22)
    state = random_state(6, rng)
    twice = apply_diffusion(apply_diffusion(state))
    assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-14)


def test_iterate_reaches_marked_state_in_one_step_at_n2():
    # N=4, r=1: a single iteration concentrates all amplitude
    out = grover_iterate(build_state("eta", 2), MarkedSet(4, (0,)))
    assert np.allclose(out.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_iterate_equals_diffusion_after_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        state = random_state(n, rng)
        marked = random_marked_set(n, int(rng.integers(1, 1 << n)), rng)
        via_kernel = grover_iterate(state, marked)
        composed = apply_diffusion(apply_oracle(state, marked))
        assert np.allclose(via_kernel.amplitudes, composed.amplitudes, atol=1e-14)


def test_iterate_fixes_zero_mean_marked_pair():
    marked = MarkedSet(16, (3, 9))
    amps = np.zeros(16, dtype=complex)
    amps[3] = 1 / math.sqrt(2)
    amps[9] = -1 / math.sqrt(2)
    state = QuantumState(4, amps)
    out = grover_iterate(state, marked)
    assert np.allclose(out.amplitudes, amps, atol=1e-15)


def test_two_cycle_state_returns_after_two_iterations():
    marked = MarkedSet(16, (0, 5))
    state = two_cycle_state(marked)
    once = grover_iterate(state, marked)
    twice = grover_iterate(once, marked)
    assert not np.allclose(once.amplitudes, state.amplitudes)
    assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-14)


def test_success_probability_examples():
    eta = build_state("eta", 4)
    assert abs(success_probability(eta, MarkedSet(16, (1, 7, 9))) - 3 / 16) < 1e-14

    basis = build_state("basis", 3, k=5)
    assert success_probability(basis, MarkedSet(8, (5,))) == 1.0

    ghz = build_state("ghz", 3)
    assert abs(success_probability(ghz, MarkedSet(8, (0,))) - 0.5) < 1e-14


def test_evolve_zero_steps_returns_initial_record():
    state = build_state("eta", 3)
    marked = MarkedSet(8, (2,))
    traj = evolve(state, marked, 0, record_full_states=True)
    assert len(traj.steps) == 1
    assert traj.steps[0].t == 0
    assert np.array_equal(traj.steps[0].state.amplitudes, state.amplitudes)


def test_evolve_rejects_negative_t_max():
    with pytest.raises(ValueError):
        evolve(build_state("eta", 3), MarkedSet(8, (2,)), -1)


def test_evolve_bounds_full_snapshot_memory():
    state = build_state("eta", 12)
    marked = MarkedSet(1 << 12, (5,))
    t_max = MAX_SNAPSHOT_AMPLITUDES >> 12  # one step more than fits
    with pytest.raises(ValueError, match="snapshots"):
        evolve(state, marked, t_max, record_full_states=True)
    traj = evolve(state, marked, t_max)
    assert traj.t_max == t_max
    assert traj.steps[-1].state is None


def test_evolve_bounds_trajectory_length():
    # compare's default 4 * tau at the largest register fits the limit.
    assert 4 * optimal_iterations(24, 1) <= MAX_TRAJECTORY_STEPS
    state = build_state("eta", 1)
    marked = MarkedSet(2, (0,))
    with mock.patch.object(_kernels, "run_grover", side_effect=AssertionError("iterated")):
        with pytest.raises(ValueError, match=rf"t_max must be in \[0, {MAX_TRAJECTORY_STEPS}\]"):
            evolve(state, marked, MAX_TRAJECTORY_STEPS + 1)
        with pytest.raises(ValueError, match="t_max"):
            evolve(state, marked, 10**9)


def test_evolve_matches_textbook_closed_form_from_eta():
    # from the equal superposition, P(t) = sin^2((2t+1)*theta) with
    # theta = arcsin(sqrt(r/N)); independent of the solver under test
    n, r = 10, 1
    state = build_state("eta", n)
    marked = MarkedSet(1 << n, (7,))
    traj = evolve(state, marked, 25)
    theta = math.asin(math.sqrt(r / (1 << n)))
    for step in traj.steps:
        expected = math.sin((2 * step.t + 1) * theta) ** 2
        assert abs(step.p_marked - expected) < 1e-12
    assert traj.steps[25].p_marked >= 0.999


def test_evolve_period_six_cycle():
    # N/r = 4 makes the rotation angle pi/3: the amplitudes repeat after 6
    state = build_state("eta", 4)
    marked = MarkedSet(16, (0, 1, 2, 3))
    traj = evolve(state, marked, 6, record_full_states=True)
    fid = abs(inner_product(traj.steps[0].state, traj.steps[6].state)) ** 2
    assert fid >= 1 - 1e-10


def test_unitarity_over_ten_thousand_iterations():
    rng = np.random.default_rng(24)
    state = random_state(6, rng)
    marked = random_marked_set(6, 3, rng)
    amps = state.amplitudes.copy()
    from groverdyn._kernels import run_grover

    k = 10_000
    run_grover(amps, marked.indices_array, k)
    drift = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    assert drift < k * 1e-14


@pytest.mark.parametrize("name", ["eta", "haar"])
def test_gap_to_closed_form_at_trajectory_limit(name):
    # The kernel carries the register sum instead of reducing it each step;
    # its rounding must not build up over the longest trajectory allowed.
    state = build_state(name, 10, seed=31)
    marked = MarkedSet(1 << 10, (3, 77, 500))
    for t, amps in enumerate(_registers(state, marked, MAX_TRAJECTORY_STEPS)):
        pass
    assert t == MAX_TRAJECTORY_STEPS
    p_sim = float(np.sum(np.abs(amps[marked.indices_array]) ** 2))
    p_closed = analytic_success(compute_params(state, marked), t)
    assert abs(p_sim - p_closed) <= 1e-10


@pytest.mark.parametrize("n, r, t_max", [(3, 1, 40), (8, 5, 60), (10, 17, 30)])
def test_registers_round_as_one_kernel_call(n, r, t_max):
    # Each 1-step call takes the sum the last one returned, so the register
    # after t steps is bit-identical to one t-step call.
    rng = np.random.default_rng(32 + n)
    state = random_state(n, rng)
    marked = random_marked_set(n, r, rng)
    for t, amps in enumerate(_registers(state, marked, t_max)):
        reference = state.amplitudes.copy()
        _kernels.run_grover(reference, marked.indices_array, t)
        assert np.array_equal(amps, reference), t


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_grover_iterate_preserves_inner_products(n, seed, data):
    r = data.draw(st.integers(1, (1 << n) - 1), label="r")
    rng = np.random.default_rng(seed)
    phi, psi = random_state(n, rng), random_state(n, rng)
    marked = random_marked_set(n, r, rng)
    before = inner_product(phi, psi)
    after = inner_product(grover_iterate(phi, marked), grover_iterate(psi, marked))
    assert abs(after - before) < 1e-13


def test_standard_deviations_are_constants_of_motion():
    rng = np.random.default_rng(25)
    for _ in range(5):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(1, 6))
        state = random_state(n, rng)
        marked = random_marked_set(n, r, rng)
        tau = math.floor(math.pi / 4 * math.sqrt((1 << n) / r))
        traj = evolve(state, marked, 4 * tau)
        sig_m0 = traj.steps[0].moments.sigma_m
        sig_u0 = traj.steps[0].moments.sigma_u
        for step in traj.steps:
            assert abs(step.moments.sigma_m - sig_m0) < 1e-11
            assert abs(step.moments.sigma_u - sig_u0) < 1e-11
    # eta keeps its unmarked amplitudes bit-equal, so sigma_u is 0 at every
    # step.  A spread taken as E|a|^2 - |mean|^2 reads up to 5e-10.
    for n in (12, 14):
        marked = random_marked_set(n, 3, rng)
        traj = evolve(build_state("eta", n), marked, 4 * optimal_iterations(n, 3))
        assert max(step.moments.sigma_u for step in traj.steps) <= 1e-15


def test_single_step_recursion_componentwise():
    # marked a(t+1) = C + a(t), unmarked a(t+1) = C - a(t), with
    # C = (2/N)[(N-r)*abar_u - r*abar_m]
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        r = int(rng.integers(1, 1 << n))
        state = random_state(n, rng)
        marked = random_marked_set(n, r, rng)
        mom = moments(state, marked)
        num_states = 1 << n
        c = (2 / num_states) * ((num_states - r) * mom.a_bar_u - r * mom.a_bar_m)
        out = grover_iterate(state, marked)
        expected = np.where(
            marked.mask, c + state.amplitudes, c - state.amplitudes
        )
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_deviations_freeze_and_alternate():
    rng = np.random.default_rng(27)
    n, r = 6, 4
    state = random_state(n, rng)
    marked = random_marked_set(n, r, rng)
    traj = evolve(state, marked, 9, record_full_states=True)
    dev0_m = state.amplitudes[marked.indices_array] - traj.steps[0].moments.a_bar_m
    dev0_u = state.amplitudes[marked.unmarked_indices] - traj.steps[0].moments.a_bar_u
    for step in traj.steps:
        amps = step.state.amplitudes
        dev_m = amps[marked.indices_array] - step.moments.a_bar_m
        dev_u = amps[marked.unmarked_indices] - step.moments.a_bar_u
        assert np.max(np.abs(dev_m - dev0_m)) < 1e-12
        sign = 1.0 if step.t % 2 == 0 else -1.0
        assert np.max(np.abs(dev_u - sign * dev0_u)) < 1e-12


def test_p_marked_stays_in_unit_interval():
    rng = np.random.default_rng(28)
    state = random_state(8, rng)
    marked = random_marked_set(8, 5, rng)
    traj = evolve(state, marked, 100)
    p = traj.p_marked()
    assert np.all(p >= 0.0) and np.all(p <= 1 + 1e-12)


def test_trajectory_csv_format(tmp_path):
    rng = np.random.default_rng(29)
    state = random_state(4, rng)
    marked = random_marked_set(4, 2, rng)
    traj = evolve(state, marked, 5)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t", "p_marked", "abar_m_re", "abar_m_im",
        "abar_u_re", "abar_u_im", "sigma_m", "sigma_u",
    ]
    assert len(rows) == 7  # header + t = 0..5
    # 17 significant digits mean the parse round-trips exactly
    for row, step in zip(rows[1:], traj.steps):
        assert int(row[0]) == step.t
        assert float(row[1]) == step.p_marked
        assert float(row[6]) == step.moments.sigma_m
