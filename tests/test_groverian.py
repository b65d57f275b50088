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
from helpers import local_unitary_invariance_check, random_state


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
            with pytest.raises(ValueError, match="restarts must be at most MAX_RESTARTS = 4"):
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
    _, _, _, history = _ascend(psi_t, factors)
    for earlier, later in zip(history, history[1:]):
        assert later >= earlier - 1e-14


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
    _, _, _, history = _ascend(psi_t, factors)
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
    # At n = 3 the grid holds about 96 bytes a point: 9.6 GB at 10,000.
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
    # They are refused before U^dagger U is formed, so numpy warns of nothing.
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
