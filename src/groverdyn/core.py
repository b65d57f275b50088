"""Value types for register states, marked sets and amplitude moments.

Everything here is an immutable value: amplitude arrays are stored
read-only and every operation returns a new object, so states can be
shared freely between threads or recorded in trajectories without
defensive copies.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _as_index(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _as_seed(value) -> int:
    """Validate a random-generator seed from outside input: an integer >= 0."""
    seed = _as_index(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


# Largest register the package builds or loads: 2^24 complex128
# amplitudes are 256 MiB.
MAX_QUBITS = 24


def _as_qubit_count(value) -> int:
    """Validate a register size from outside input before anything is sized by it."""
    n = _as_index(value, "n")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    return n


# Tolerance on sum |a_i|^2 - 1 accepted by the constructor.  There is no
# silent renormalization; use QuantumState.renormalized for that.
NORM_ATOL = 1e-12

# Looser tolerance applied by the state-file loader before it
# renormalizes explicitly.
STATE_FILE_NORM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Pure state of an n-qubit register as 2^n complex amplitudes.

    Attributes
    ----------
    n : qubit count, in [1, MAX_QUBITS]
    amplitudes : read-only complex128 array of length 2^n with unit norm
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _as_qubit_count(self.n)
        object.__setattr__(self, "n", n)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != 1 << self.n:
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        # Written so that a NaN norm fails too.
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise ValueError(
                f"state norm^2 = {norm_sq!r} deviates from 1 by more than {NORM_ATOL}; "
                "use QuantumState.renormalized to normalize explicitly"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def renormalized(cls, n: int, amplitudes) -> "QuantumState":
        """Build a state from unnormalized amplitudes, scaling to unit norm."""
        amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if not math.isfinite(norm):
            raise ValueError(f"cannot normalize amplitudes with norm {norm!r}")
        return cls(n, amps / norm)

    @classmethod
    def _wrap(cls, n: int, amps: np.ndarray) -> "QuantumState":
        # Internal fast path: takes ownership of a complex128 array that is
        # already unit norm by construction (e.g. output of a unitary map).
        state = object.__new__(cls)
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        amps.flags.writeable = False
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @property
    def dim(self) -> int:
        """Search-space size N = 2^n."""
        return 1 << self.n

    def norm_sq(self) -> float:
        """Sum of |a_i|^2 (1 up to floating-point drift)."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def __repr__(self) -> str:
        return f"QuantumState(n={self.n}, dim={self.dim})"


@dataclass(frozen=True)
class MarkedSet:
    """Set M of marked basis-state indices inside a space of ``num_states``.

    Encodes the search oracle: f(i) = 1 exactly for i in M.  At least one
    state must be marked and at least one unmarked.
    """

    num_states: int
    indices: tuple[int, ...]

    def __post_init__(self):
        num_states = _as_index(self.num_states, "num_states")
        if num_states < 2:
            raise ValueError("num_states must be >= 2")
        object.__setattr__(self, "num_states", num_states)
        idx = tuple(sorted(_as_index(i, "marked index") for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("marked indices must be distinct")
        if not idx:
            raise ValueError("at least one state must be marked")
        if len(idx) >= self.num_states:
            raise ValueError("at least one state must remain unmarked")
        if idx[0] < 0 or idx[-1] >= self.num_states:
            raise ValueError(
                f"marked indices must lie in [0, {self.num_states}), got {idx}"
            )
        object.__setattr__(self, "indices", idx)

    @property
    def r(self) -> int:
        """Number of marked states."""
        return len(self.indices)

    @cached_property
    def indices_array(self) -> np.ndarray:
        arr = np.asarray(self.indices, dtype=np.intp)
        arr.flags.writeable = False
        return arr

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean mask of length ``num_states``, True on marked indices.

        Nothing in the package reads it; the benchmark's state builders do.
        """
        m = np.zeros(self.num_states, dtype=bool)
        m[self.indices_array] = True
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class MomentSummary:
    """Means and spreads of the marked and unmarked amplitudes.

    ``a_bar_m``/``a_bar_u`` are the means over the marked/unmarked subsets
    and ``sigma_m``/``sigma_u`` the standard deviations about them.  Under
    the Grover iteration the means rotate and the sigmas stay fixed.
    """

    a_bar_m: complex
    a_bar_u: complex
    sigma_m: float
    sigma_u: float


def _check_compatible(state: QuantumState, marked: MarkedSet) -> None:
    if marked.num_states != state.dim:
        raise ValueError(
            f"marked set is defined over {marked.num_states} states but the "
            f"register has {state.dim}"
        )


def _moments_from_array(
    amps: np.ndarray, marked: MarkedSet, work: np.ndarray | None = None
) -> MomentSummary:
    """Moments of ``amps`` about ``marked``, reading ``amps`` only.

    The unmarked amplitudes are never gathered.  Their mean is first
    estimated as the total less the marked sum; ``work`` (complex128, the
    length of ``amps``, allocated when None) then receives the deviations
    from that estimate with the marked entries zeroed.  The residual mean
    of the deviations corrects the estimate, which loses up to about
    eps * |total| / (N - r) when almost every state is marked, and sigma_u
    is the two-pass spread about the corrected mean.  A spread taken as
    E|a|^2 - |mean|^2 instead would cancel to about sqrt(eps) * |mean|.
    """
    idx = marked.indices_array
    num_unmarked = amps.size - marked.r
    marked_amps = amps[idx]
    a_bar_m = complex(np.mean(marked_amps))
    sigma_m = math.sqrt(float(np.mean(np.abs(marked_amps - a_bar_m) ** 2)))
    a_bar_u = complex(np.add.reduce(amps) - np.add.reduce(marked_amps)) / num_unmarked
    if work is None:
        work = np.empty_like(amps)
    np.subtract(amps, a_bar_u, out=work)
    work[idx] = 0.0
    residual = complex(np.add.reduce(work)) / num_unmarked
    # sum |w - residual|^2 = sum |w|^2 - (N - r) |residual|^2.
    spread_sq = np.vdot(work, work).real / num_unmarked - abs(residual) ** 2
    sigma_u = math.sqrt(max(spread_sq, 0.0))
    return MomentSummary(a_bar_m, a_bar_u + residual, sigma_m, sigma_u)


def moments(state: QuantumState, marked: MarkedSet) -> MomentSummary:
    """Amplitude-distribution moments of ``state`` relative to ``marked``."""
    _check_compatible(state, marked)
    return _moments_from_array(state.amplitudes, marked)


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    """Hermitian inner product <a|b> (conjugate-linear in ``a``)."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _amplitude_pairs(amps: np.ndarray) -> list[list[float]]:
    """The JSON encoding of an amplitude array: [[re, im], ...]."""
    return amps.view(np.float64).reshape(-1, 2).tolist()


# Amplitudes per json.dumps call in save_state: big enough to keep the
# per-call overhead small, small enough that one chunk's Python floats
# and text stay well under the size of the state itself.
_SAVE_CHUNK = 1 << 14


def _write_pairs(fh, amps: np.ndarray) -> None:
    """Write ``amps`` as ``json.dumps`` writes its [[re, im], ...] list.

    This is the one layout of an amplitude list, in state files and in
    the ``simulate --full-snapshots`` side file alike.  Each chunk of
    ``_SAVE_CHUNK`` amplitudes is encoded by ``json.dumps``, which runs
    the C encoder (``json.dump`` never does), and the chunks are joined
    as one list.
    """
    fh.write("[")
    for start in range(0, amps.size, _SAVE_CHUNK):
        fh.write(", " if start else "")
        fh.write(json.dumps(_amplitude_pairs(amps[start:start + _SAVE_CHUNK]))[1:-1])
    fh.write("]")


def save_state(state: QuantumState, path) -> None:
    """Write a state to JSON as {"n": n, "amplitudes": [[re, im], ...]}.

    The bytes are those of ``json.dumps({"n": ..., "amplitudes": ...})``
    plus a newline; ``_write_pairs`` writes the amplitude list.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n": {json.dumps(state.n)}, "amplitudes": ')
        _write_pairs(fh, state.amplitudes)
        fh.write("}\n")


def _amplitudes_from_pairs(pairs) -> np.ndarray:
    """Parse the JSON encoding [[re, im], ...] of an amplitude array."""
    for re, im in pairs:
        # Exact types: JSON true/false load as bool, a subclass of int.
        if (re.__class__ is not float and re.__class__ is not int) or (
            im.__class__ is not float and im.__class__ is not int
        ):
            raise ValueError(f"amplitudes must be [re, im] pairs of numbers, got {[re, im]!r}")
    flat = np.fromiter(itertools.chain.from_iterable(pairs), np.float64, 2 * len(pairs))
    return flat.view(np.complex128)


def load_state(path) -> QuantumState:
    """Read a state file, reject norm deviations > 1e-9, then renormalize.

    The cyclic garbage collector is paused while the JSON is decoded: the
    2^n [re, im] lists it builds hold no reference cycles, yet their
    allocation would set off collections that reclaim nothing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            payload = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"malformed state file {path}: nested too deeply") from exc
        finally:
            if gc_was_enabled:
                gc.enable()
    try:
        # JSON true/false load as bool, which operator.index takes as 1 or 0.
        if payload["n"].__class__ is bool:
            raise ValueError(f"n must be an integer, got {payload['n']!r}")
        n = _as_qubit_count(payload["n"])
        amps = _amplitudes_from_pairs(payload["amplitudes"])
    # OverflowError: a JSON integer too large for a float.
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    if amps.size != 1 << n:
        raise ValueError(
            f"state file {path}: expected {1 << n} amplitudes for n={n}, found {amps.size}"
        )
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm_sq - 1.0) <= STATE_FILE_NORM_ATOL:
        raise ValueError(
            f"state file {path}: norm^2 = {norm_sq!r} deviates from 1 by more "
            f"than {STATE_FILE_NORM_ATOL}"
        )
    return QuantumState.renormalized(n, amps)
