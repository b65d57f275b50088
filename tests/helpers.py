"""Shared constructions for the test suite, and the references it checks against.

``apply_oracle`` and ``apply_diffusion`` are the suite's independent Grover
step: they allocate a new state per half-step and take the mean with
``np.mean``, where the package's kernels update in place and carry the
register sum.
"""

import numpy as np

from groverdyn import (
    AnalyticParams,
    MarkedSet,
    QuantumState,
    analytic_success,
    apply_local_unitaries,
    optimize_product,
)
from groverdyn.core import _check_compatible


def random_state(n: int, rng: np.random.Generator) -> QuantumState:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return QuantumState.renormalized(n, amps)


def random_real_state(n: int, rng: np.random.Generator) -> QuantumState:
    amps = rng.standard_normal(1 << n).astype(complex)
    return QuantumState.renormalized(n, amps)


def random_marked_set(n: int, r: int, rng: np.random.Generator) -> MarkedSet:
    num_states = 1 << n
    indices = rng.choice(num_states, size=r, replace=False)
    return MarkedSet(num_states, tuple(int(i) for i in indices))


def two_cycle_state(marked: MarkedSet) -> QuantumState:
    """State with zero marked and unmarked means (hence a two-cycle).

    Supported on two marked and two unmarked indices with opposite
    amplitudes inside each group.
    """
    if marked.r < 2 or marked.num_states - marked.r < 2:
        raise ValueError("need at least two marked and two unmarked indices")
    amps = np.zeros(marked.num_states, dtype=complex)
    m_idx = marked.indices_array
    u_idx = marked.unmarked_indices
    amps[m_idx[0]] = 0.5
    amps[m_idx[1]] = -0.5
    amps[u_idx[0]] = 0.5
    amps[u_idx[1]] = -0.5
    n_qubits = marked.num_states.bit_length() - 1
    return QuantumState(n_qubits, amps)


def constant_p_state(n: int) -> tuple[QuantumState, MarkedSet]:
    """Single-marked state satisfying abar_m = i*sqrt((N-1)/1)*abar_u.

    The sinusoid amplitude vanishes, so the success probability is
    constant although both means are nonzero.
    """
    num_states = 1 << n
    u = 1.0 / np.sqrt(2 * (num_states - 1))
    amps = np.full(num_states, u, dtype=complex)
    amps[0] = 1j * np.sqrt(num_states - 1) * u
    return QuantumState(n, amps), MarkedSet(num_states, (0,))


def apply_oracle(state: QuantumState, marked: MarkedSet) -> QuantumState:
    """Flip the sign of every marked amplitude (phase rotation by pi)."""
    _check_compatible(state, marked)
    amps = state.amplitudes.copy()
    amps[marked.indices_array] = -amps[marked.indices_array]
    return QuantumState._wrap(state.n, amps)


def apply_diffusion(state: QuantumState) -> QuantumState:
    """Reflect every amplitude about the mean: a_i -> 2*mean - a_i."""
    amps = 2.0 * np.mean(state.amplitudes) - state.amplitudes
    return QuantumState._wrap(state.n, amps)


def best_integer_time(params: AnalyticParams) -> int:
    """True integer argmax of P(t) among {tau_m - 1, tau_m, tau_m + 1}.

    The floor in ``tau_m`` can land one step short of the best integer
    near a half-period boundary.
    """
    candidates = [t for t in (params.tau_m - 1, params.tau_m, params.tau_m + 1) if t >= 0]
    return max(candidates, key=lambda t: (analytic_success(params, t), -t))


def local_unitary_invariance_check(
    state: QuantumState,
    unitaries,
    restarts: int = 32,
    seed: int = 0,
) -> float:
    """|G(U_1 x ... x U_n phi) - G(phi)| using the optimizer on both sides."""
    rotated = apply_local_unitaries(state, unitaries)
    g_original = optimize_product(state, restarts=restarts, seed=seed).g
    g_rotated = optimize_product(rotated, restarts=restarts, seed=seed).g
    return abs(g_original - g_rotated)
