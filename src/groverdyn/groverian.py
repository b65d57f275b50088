"""Groverian entanglement: G = sqrt(1 - P_max) with P_max the best
squared overlap between a state and any n-qubit product state.

The maximization over local unitaries reduces to a maximization over
product states, which is what is implemented: an alternating optimizer
whose single-qubit update is an exact argmax (the normalized
contraction of the state against the other factors), run from many
starts in lockstep with the bits each start reaches on its own, plus an
independent oracle for n <= 3 that grids at most one qubit and finishes
the last two exactly, with the closed-form largest eigenvalue of a 2x2
M M^dagger.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import QuantumState, _as_int_in, _as_qubit_count, _as_seed

_UNITARY_ATOL = 1e-10

# Sweeps per ascent, and the smallest gain in overlap over one sweep that
# keeps an ascent going.
MAX_SWEEPS = 1000
SWEEP_TOL = 1e-12

# Most random starts one optimization takes: 40 times the 256 that serve
# as a reference for the best overlap.  200,000 starts at n = 2 ran for
# over a minute.
MAX_RESTARTS = 10_000

# Largest grid_search_oracle resolution: about 32 bytes a grid point at n = 3.
MAX_RESOLUTION = 1000

# Amplitudes one lockstep ascent holds: optimize_product ascends
# _ASCENT_CELLS >> n starts at a time (at least one), in one buffer of
# 16 bytes x _ASCENT_CELLS = 4 MiB.  A larger cap bought no time at
# n = 14-18 and held more; a smaller one split n = 14-16 into groups of
# one or two lanes, which lost to the stacked calls' own overhead.
_ASCENT_CELLS = 1 << 18

# Grid points grid_search_oracle finishes at a time.
_ORACLE_BLOCK = 1 << 11


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
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array of qubit factors, got {q.shape}")
        # to_state expands to 2^n amplitudes.
        _as_qubit_count(q.shape[0])
        # An entry above about 1e154 squares to inf, which the check refuses.
        with np.errstate(over="ignore"):
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


def _random_factors(n: int, rng: np.random.Generator, *lanes: int) -> np.ndarray:
    # An (*lanes, n, 2) stack of random unit factors.  Each start draws its
    # real parts, then its imaginary parts, so a stack of L starts takes
    # the same numbers from rng as L draws of one start.
    draws = rng.standard_normal((*lanes, 2, n, 2))
    f = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    return f / np.linalg.norm(f, axis=-1, keepdims=True)


def _basis_factors(n: int, index: int) -> np.ndarray:
    f = np.zeros((n, 2), dtype=np.complex128)
    for k in range(n):
        bit = (index >> (n - 1 - k)) & 1
        f[k, bit] = 1.0
    return f


def _sweeper(psi_t: np.ndarray, factors: np.ndarray) -> Callable[[], np.ndarray]:
    # One Gauss-Seidel sweep over an (n, lanes, 2) stack of factors, as a
    # function of no arguments that updates the factors in place and returns
    # each lane's value, the squared norm of its last update.  It reuses one
    # buffer of lanes x 2^n amplitudes from sweep to sweep, cut into
    # regions: region j, of lanes x 2^j, holds for every lane the product of
    # the conjugated factors of the last j qubits, built at the start of
    # each sweep.  Qubit k reads region n-1-k for its environment and then
    # writes its left contraction there, so no other buffer is needed.  The
    # regions do not interleave, so no output overlaps an input.
    n, lanes, _ = factors.shape
    conj = np.empty_like(factors)
    buffer = np.empty(lanes << n, dtype=np.complex128)
    regions = [buffer[lanes << j : lanes << (j + 1)].reshape(lanes, 1 << j) for j in range(n)]
    regions[0][:] = 1.0
    # Region j is conj(c_(n-j)) times region j - 1, one broadcast product a j.
    products = [
        (conj[n - j, :, :, None], regions[j - 1][:, None, :], regions[j].reshape(lanes, 2, -1))
        for j in range(1, n)
    ]
    # Qubit k's (left, region n-1-k as a column, factor as a column and as
    # a row, contracted left); left is phi itself for k = 0, and the last
    # qubit's contraction is not needed.
    qubits = []
    left = psi_t.reshape(1, 2, -1)
    for k in range(n):
        region = regions[n - 1 - k]
        contracted = region[:, None, :] if k < n - 1 else None
        qubits.append((left, region[:, :, None], factors[k, :, :, None], factors[k, :, None, :], contracted))
        if k < n - 1:
            left = region.reshape(lanes, 2, -1)
    env = np.empty((lanes, 2, 1), dtype=np.complex128)
    # The real and the imaginary parts of env, as columns and as rows.
    parts = env.view(np.float64).reshape(lanes, 2, 2).transpose(2, 0, 1)[..., None]
    parts_t = parts.transpose(0, 1, 3, 2)
    dots = np.empty((2, lanes, 1, 1))
    nrm = np.empty((lanes, 1, 1))
    moved = np.empty((lanes, 1, 1), dtype=bool)
    row = np.empty((lanes, 1, 2), dtype=np.complex128)

    def sweep() -> np.ndarray:
        np.conjugate(factors, out=conj)
        for c, right, out in products:
            np.multiply(c, right, out=out)
        for left, right, factor, factor_row, contracted in qubits:
            np.matmul(left, right, out=env)
            # np.linalg.norm's own sum: a stacked (1, 2) @ (2, 1) float
            # matmul makes the BLAS dot that re.dot(re) makes on one start,
            # for the real and the imaginary part of every lane.
            np.matmul(parts_t, parts, out=dots)
            np.add(dots[0], dots[1], out=nrm)
            np.sqrt(nrm, out=nrm)
            # Complex by float, as env / nrm divides for one start; a lane
            # whose environment is zero keeps its factor.
            np.greater(nrm, 0.0, out=moved)
            np.divide(env, nrm, out=factor, where=moved)
            if contracted is not None:
                np.conjugate(factor_row, out=row)
                np.matmul(row, left, out=contracted)
        return (nrm * nrm).ravel()

    return sweep


def _ascend(psi_t: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Alternating exact single-qubit updates in Gauss-Seidel order, run in
    # lockstep from an (L, n, 2) stack of starts; returns each lane's value,
    # factors and converged flag.  The value after each update is
    # nondecreasing up to rounding.  Each sweep carries phi contracted from
    # the left with the factors already updated, and builds the products of
    # the factors not yet updated once, from the last qubit backwards.
    # Qubit k's environment v, with <s|phi> = <c_k|v>, is then one
    # (2, 2^(n-1-k)) matvec a lane, so a sweep costs O(L N).  Every stacked
    # matmul makes one BLAS gemv or dot a lane, the call a single start
    # makes, so each lane keeps the bits of an ascent on its own.  A lane
    # leaves the stack at the first sweep that gains less than SWEEP_TOL,
    # or after MAX_SWEEPS.
    lanes = len(starts)
    values = np.zeros(lanes)
    factors_out = np.array(starts, dtype=np.complex128)
    converged = np.zeros(lanes, dtype=bool)
    # The active lanes' original indices, their factors qubit by qubit and
    # their value after the last sweep.
    active = np.arange(lanes)
    factors = factors_out.transpose(1, 0, 2).copy()
    previous = np.zeros(lanes)
    sweep_once = None
    for sweep in range(1, MAX_SWEEPS + 1):
        if sweep_once is None:
            sweep_once = _sweeper(psi_t, factors)
        value = sweep_once()
        done = value - previous < SWEEP_TOL
        stop = done | (sweep == MAX_SWEEPS)
        if np.count_nonzero(stop):
            gone = active[stop]
            values[gone] = value[stop]
            factors_out[gone] = factors[:, stop].transpose(1, 0, 2)
            converged[gone] = done[stop]
            keep = ~stop
            active, factors, value = active[keep], factors[:, keep], value[keep]
            # Its buffers go before the next stack's are made.
            sweep_once = None
            if not len(active):
                break
        previous = value
    return values, factors_out, converged


def _optimizer_arguments(restarts, seed) -> tuple[int, int]:
    """``optimize_product``'s checks: ``(restarts, seed)``, with 1 <= restarts <= MAX_RESTARTS."""
    return _as_int_in(restarts, "restarts", 1, MAX_RESTARTS), _as_seed(seed)


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
    The starts ascend in lockstep, in groups of ``_ASCENT_CELLS >> n``
    (at least one), so a group holds about 16 bytes x ``_ASCENT_CELLS`` of
    products at once; each start ends with the bits it would reach alone.
    """
    restarts, seed = _optimizer_arguments(restarts, seed)
    n = state.n
    psi_t = state.amplitudes.reshape((2,) * n)
    rng = np.random.default_rng(seed)

    warm = _basis_factors(n, int(np.argmax(np.abs(state.amplitudes))))
    group = max(1, _ASCENT_CELLS >> n)

    best_value = -1.0
    best_factors = warm
    best_converged = False
    per_restart: list[float] = []
    for first in range(0, restarts + 1, group):
        # Draw each group's starts when its ascent begins, in the order of
        # the starts, so one group is held at a time.
        end = min(first + group, restarts + 1)
        starts = _random_factors(n, rng, end - max(first, 1))
        if first == 0:
            starts = np.concatenate([warm[None], starts])
        values, out_factors, converged = _ascend(psi_t, starts)
        per_restart.extend(values.tolist())
        # argmax takes the first of equal values, so ties keep the earliest start.
        lane = int(np.argmax(values))
        if values[lane] > best_value:
            best_value = float(values[lane])
            best_factors = out_factors[lane]
            best_converged = bool(converged[lane])

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
    # factor fixed by making c0 real >= 0.  Row i * resolution + j holds
    # (theta_i, phi_j).  Built by broadcasting into the result, so it
    # holds the grid and O(resolution) besides.
    theta = np.linspace(0.0, math.pi, resolution)
    phi = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    grid = np.empty((resolution, resolution, 2), dtype=np.complex128)
    grid[:, :, 0] = np.cos(theta / 2.0)[:, None]
    np.multiply(np.sin(theta / 2.0)[:, None], np.exp(1j * phi), out=grid[:, :, 1])
    return grid.reshape(-1, 2)


def _oracle_arguments(n: int, resolution) -> int:
    """``grid_search_oracle``'s checks: n <= 3 and a resolution in [16, MAX_RESOLUTION]."""
    if n > 3:
        raise ValueError(f"grid_search_oracle supports n <= 3, got n={n}")
    return _as_int_in(resolution, "resolution", 16, MAX_RESOLUTION)


def _largest_eigenvalue(rows: np.ndarray) -> float:
    # Each row [a, b, c, d] is a remainder M = [[a, b], [c, d]]; returns the
    # largest eigenvalue of M M^dagger = [[p, x], [conj(x), q]] over all
    # rows, in closed form.  Both terms are >= 0, so nothing cancels.
    sq = rows.real**2 + rows.imag**2
    p = sq[:, 0] + sq[:, 1]
    q = sq[:, 2] + sq[:, 3]
    x = rows[:, 0] * np.conj(rows[:, 2]) + rows[:, 1] * np.conj(rows[:, 3])
    half_gap = (p - q) / 2.0
    lam = (p + q) / 2.0 + np.sqrt(half_gap * half_gap + (x.real**2 + x.imag**2))
    return float(np.max(lam))


def grid_search_oracle(state: QuantumState, resolution: int) -> float:
    """Independent lower bound on P_max for n <= 3 by exhaustive search.

    The last two qubits are finished exactly: for a fixed first factor
    the best overlap over the remaining two is the largest eigenvalue of
    M M^dagger, M the 2x2 remainder [[a, b], [c, d]], in closed form (no
    alternating updates).  With p = |a|^2 + |b|^2, q = |c|^2 + |d|^2 and
    x = a conj(c) + b conj(d) it is (p + q)/2 + sqrt(((p - q)/2)^2 + |x|^2),
    a sum of two non-negative terms, so it does not cancel.  So the value
    is exact for n <= 2.  For n = 3 the first qubit runs over a
    resolution x resolution polar/azimuthal grid, finished a block of
    grid points at a time, and the bound approaches P_max as the
    resolution grows.
    """
    resolution = _oracle_arguments(state.n, resolution)

    amps = state.amplitudes
    if state.n == 1:
        return float(np.sum(np.abs(amps) ** 2))

    remainder = amps.reshape(2, -1)
    if state.n == 2:
        return _largest_eigenvalue(remainder.reshape(1, 4))
    grid = _angle_grid(resolution)
    np.conjugate(grid, out=grid)
    return max(
        _largest_eigenvalue(grid[start : start + _ORACLE_BLOCK] @ remainder)
        for start in range(0, len(grid), _ORACLE_BLOCK)
    )


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
