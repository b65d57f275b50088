"""Groverian entanglement: G = sqrt(1 - P_max) with P_max the best
squared overlap between a state and any n-qubit product state.

The maximization over local unitaries reduces to a maximization over
product states, which is what is implemented: an alternating optimizer
whose single-qubit update is an exact argmax (the normalized
contraction of the state against the other factors), plus an
independent oracle for n <= 3 that grids at most one qubit and finishes
the last two with a 2x2 singular value decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import QuantumState, _as_index, _as_seed

_UNITARY_ATOL = 1e-10

# Sweeps per ascent, and the smallest gain in overlap over one sweep that
# keeps an ascent going.
MAX_SWEEPS = 1000
SWEEP_TOL = 1e-12

# Most random starts one optimization takes: 40 times the 256 that serve
# as a reference for the best overlap.  200,000 starts at n = 2 ran for
# over a minute.
MAX_RESTARTS = 10_000

# Largest grid_search_oracle resolution: about 96 bytes a grid point at n = 3.
MAX_RESOLUTION = 1000


@dataclass(frozen=True, eq=False)
class ProductState:
    """Tensor product of n single-qubit states.

    ``qubit_states`` is an (n, 2) complex array; row k holds the
    amplitudes (c0, c1) of qubit k, most-significant qubit first, each
    row unit norm.
    """

    qubit_states: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(self.qubit_states, dtype=np.complex128)
        if q.ndim != 2 or q.shape[1] != 2 or q.shape[0] < 1:
            raise ValueError(f"expected an (n, 2) array of qubit factors, got {q.shape}")
        norms = np.sum(np.abs(q) ** 2, axis=1)
        # Written so that a NaN norm fails too.
        if not np.max(np.abs(norms - 1.0)) <= 1e-12:
            raise ValueError("every qubit factor must be unit norm")
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "qubit_states", q)

    @property
    def n(self) -> int:
        return self.qubit_states.shape[0]

    def to_state(self) -> QuantumState:
        """Expand to the full 2^n-amplitude register state."""
        amps = reduce(np.kron, self.qubit_states)
        return QuantumState._wrap(self.n, amps)


@dataclass(frozen=True)
class GroverianResult:
    """Outcome of the product-state overlap maximization."""

    p_max: float
    g: float
    argmax: ProductState
    restarts_used: int
    converged: bool
    best_per_restart: tuple[float, ...]


def _overlap_amplitude(amps: np.ndarray, factors: np.ndarray) -> complex:
    # <s_1...s_n|phi> contracted one qubit factor at a time: the working
    # vector halves at every step, so the total cost is O(N).
    t = amps
    for c in factors:
        t = t.reshape(2, -1)
        t = np.conj(c[0]) * t[0] + np.conj(c[1]) * t[1]
    return complex(t[0])


def product_overlap(state: QuantumState, product: ProductState) -> float:
    """Squared overlap |<s_1...s_n|phi>|^2."""
    if product.n != state.n:
        raise ValueError(f"qubit counts differ: state {state.n}, product {product.n}")
    return abs(_overlap_amplitude(state.amplitudes, product.qubit_states)) ** 2


def _random_factors(n: int, rng: np.random.Generator) -> np.ndarray:
    f = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def _basis_factors(n: int, index: int) -> np.ndarray:
    f = np.zeros((n, 2), dtype=np.complex128)
    for k in range(n):
        bit = (index >> (n - 1 - k)) & 1
        f[k, bit] = 1.0
    return f


def _ascend(
    psi_t: np.ndarray, factors: np.ndarray
) -> tuple[float, np.ndarray, bool, list[float]]:
    # Alternating exact single-qubit updates in Gauss-Seidel order; returns
    # the update-by-update overlap history, which is nondecreasing up to
    # rounding.  Each sweep carries phi contracted from the left with the
    # factors already updated, and builds the products of the factors not
    # yet updated once, from the last qubit backwards: rights[j] spans the
    # last j qubits.  Qubit k's environment v, with <s|phi> = <c_k|v>, is
    # then one (2, 2^(n-1-k)) matvec, so a sweep costs O(N).
    n = psi_t.ndim
    factors = factors.copy()
    history: list[float] = []
    value = 0.0
    converged = False
    for _ in range(MAX_SWEEPS):
        previous = value
        rights = [np.ones(1, dtype=np.complex128)]
        for c in np.conj(factors[:0:-1]):
            rights.append(np.outer(c, rights[-1]).ravel())
        left = psi_t
        for k in range(n):
            left = left.reshape(2, -1)
            env = left @ rights[n - 1 - k]
            nrm = float(np.linalg.norm(env))
            if nrm > 0.0:
                factors[k] = env / nrm
            value = nrm * nrm
            history.append(value)
            left = np.conj(factors[k]) @ left
        if value - previous < SWEEP_TOL:
            converged = True
            break
    return value, factors, converged, history


def _optimizer_arguments(restarts, seed) -> tuple[int, int]:
    """``optimize_product``'s checks: ``(restarts, seed)``, with 1 <= restarts <= MAX_RESTARTS."""
    restarts = _as_index(restarts, "restarts")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts!r}")
    if restarts > MAX_RESTARTS:
        raise ValueError(
            f"restarts must be at most MAX_RESTARTS = {MAX_RESTARTS}, got {restarts!r}"
        )
    return restarts, _as_seed(seed)


def optimize_product(
    state: QuantumState,
    restarts: int = 32,
    seed: int = 0,
) -> GroverianResult:
    """Maximize the product-state overlap by alternating exact updates.

    Runs one deterministic ascent from the largest-|amplitude| basis
    state (so the result can never fall below the best computational
    basis overlap) followed by ``restarts`` seeded random starts.  The
    best value over all starts is reported; ties keep the earliest start.
    An ascent stops after ``MAX_SWEEPS`` sweeps or at the first sweep that
    gains less than ``SWEEP_TOL``; ``converged`` tells which, for the best.
    """
    restarts, seed = _optimizer_arguments(restarts, seed)
    n = state.n
    psi_t = state.amplitudes.reshape((2,) * n)
    rng = np.random.default_rng(seed)

    warm = _basis_factors(n, int(np.argmax(np.abs(state.amplitudes))))

    best_value = -1.0
    best_factors = warm
    best_converged = False
    per_restart: list[float] = []
    for i in range(restarts + 1):
        # Draw each start when its ascent begins, so one start is held at a time.
        factors = warm if i == 0 else _random_factors(n, rng)
        value, out_factors, converged, _ = _ascend(psi_t, factors)
        per_restart.append(value)
        if value > best_value:
            best_value = value
            best_factors = out_factors
            best_converged = converged

    p_max = best_value
    return GroverianResult(
        p_max=p_max,
        g=math.sqrt(max(0.0, 1.0 - p_max)),
        argmax=ProductState(best_factors),
        restarts_used=restarts + 1,
        converged=best_converged,
        best_per_restart=tuple(per_restart),
    )


def _angle_grid(resolution: int) -> np.ndarray:
    # Single-qubit factors on a Bloch-sphere grid, polar angle in [0, pi]
    # inclusive and azimuth in [0, 2pi), with the global phase of each
    # factor fixed by making c0 real >= 0.
    theta = np.linspace(0.0, math.pi, resolution)
    phi = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    grid = np.empty((resolution * resolution, 2), dtype=np.complex128)
    grid[:, 0] = np.cos(tt / 2.0).ravel()
    grid[:, 1] = (np.sin(tt / 2.0) * np.exp(1j * pp)).ravel()
    return grid


def _oracle_arguments(n: int, resolution) -> int:
    """``grid_search_oracle``'s checks: n <= 3 and a resolution in [16, MAX_RESOLUTION]."""
    if n > 3:
        raise ValueError(f"grid_search_oracle supports n <= 3, got n={n}")
    resolution = _as_index(resolution, "resolution")
    if not 16 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [16, {MAX_RESOLUTION}], got {resolution!r}")
    return resolution


def grid_search_oracle(state: QuantumState, resolution: int) -> float:
    """Independent lower bound on P_max for n <= 3 by exhaustive search.

    The last two qubits are finished exactly: for a fixed first factor
    the best overlap over the remaining two is the largest singular value
    squared of the 2x2 remainder (LAPACK SVD, no alternating updates).
    So the value is exact for n <= 2.  For n = 3 the first qubit runs
    over a resolution x resolution polar/azimuthal grid, and the bound
    approaches P_max as the resolution grows.
    """
    resolution = _oracle_arguments(state.n, resolution)

    amps = state.amplitudes
    if state.n == 1:
        return float(np.sum(np.abs(amps) ** 2))

    remainder = amps.reshape(2, -1)
    if state.n == 3:
        remainder = np.conj(_angle_grid(resolution)) @ remainder  # (G, 4)
    singular = np.linalg.svd(remainder.reshape(-1, 2, 2), compute_uv=False)
    return float(np.max(singular[:, 0])) ** 2


def apply_local_unitaries(state: QuantumState, unitaries) -> QuantumState:
    """Apply one 2x2 unitary per qubit, U_1 x ... x U_n, to the state."""
    mats = [np.asarray(u, dtype=np.complex128) for u in unitaries]
    if len(mats) != state.n:
        raise ValueError(f"expected {state.n} unitaries, got {len(mats)}")
    eye = np.eye(2)
    for k, u in enumerate(mats):
        if u.shape != (2, 2):
            raise ValueError(f"unitary {k} has shape {u.shape}, expected (2, 2)")
        # A NaN or inf entry is refused before the product, which would warn.
        if not (np.isfinite(u).all() and np.max(np.abs(np.conj(u.T) @ u - eye)) <= _UNITARY_ATOL):
            raise ValueError(f"matrix {k} is not unitary within {_UNITARY_ATOL}")
    t = state.amplitudes.reshape((2,) * state.n)
    for k, u in enumerate(mats):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    return QuantumState._wrap(state.n, t.reshape(-1))
