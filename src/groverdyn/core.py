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
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _as_index(value, what: str) -> int:
    try:
        if isinstance(value, bool):  # which operator.index takes as 0 or 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _as_int_in(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` from outside input as an integer in [low, high], or >= low without ``high``.

    This is the one place that words the refusal of an integer out of range.
    """
    v = _as_index(value, what)
    if high is None:
        if v < low:
            raise ValueError(f"{what} must be >= {low}, got {v}")
    elif not low <= v <= high:
        raise ValueError(f"{what} must be in [{low}, {high}], got {v}")
    return v


def _as_seed(value) -> int:
    """Validate a random-generator seed from outside input: an integer >= 0."""
    return _as_int_in(value, "seed", 0)


# Largest register the package builds or loads: 2^24 complex128
# amplitudes are 256 MiB.
MAX_QUBITS = 24


def _as_qubit_count(value) -> int:
    """Validate a register size from outside input before anything is sized by it."""
    return _as_int_in(value, "n", 1, MAX_QUBITS)


# Tolerance on sum |a_i|^2 - 1 accepted by the constructor.  There is no
# silent renormalization; use QuantumState.renormalized for that.
NORM_ATOL = 1e-12

# Looser tolerance applied by the state-file loader, which then
# renormalizes what lies outside NORM_ATOL.
STATE_FILE_NORM_ATOL = 1e-9


def _norm_sq(amps: np.ndarray) -> float:
    """sum |a_i|^2, which every norm check compares; an entry above ~1e154 makes it inf."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(amps) ** 2))


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
        norm_sq = _norm_sq(amps)
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
        """Build a state from amplitudes, scaled to unit norm unless they have it.

        Amplitudes the constructor accepts come back unscaled, so a state
        renormalizes to itself bit for bit; others are divided by their norm.
        """
        amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if abs(_norm_sq(amps) - 1.0) <= NORM_ATOL:
            return cls(n, amps)
        # Finite entries whose squares overflow give the norm inf, and
        # nonzero ones whose squares all underflow give it 0.
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        if 0.0 < norm * norm < np.finfo(float).tiny:
            # A subnormal sum of squares has lost digits; the amplitudes
            # scaled by the largest magnitude keep them.
            amps = amps / np.abs(amps).max()
            norm = float(np.linalg.norm(amps))
        if 0.0 < norm < math.inf:
            return cls(n, amps / norm)
        if not np.isfinite(amps).all():
            raise ValueError(f"cannot normalize amplitudes with norm {norm!r}")
        if not amps.any():
            raise ValueError("cannot normalize the zero vector")
        flow = "underflows to 0" if norm == 0.0 else "overflows to inf"
        raise ValueError(f"cannot normalize amplitudes: the sum of their squares {flow}")

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
        return _norm_sq(self.amplitudes)

    def __repr__(self) -> str:
        return f"QuantumState(n={self.n}, dim={self.dim})"


@dataclass(frozen=True)
class MarkedSet:
    """Set M of marked basis-state indices inside a space of ``num_states``.

    Encodes the search oracle: f(i) = 1 exactly for i in M.  At least one
    state must be marked and at least one unmarked.  ``num_states`` is the
    register size, refused unless it is 2^n with n in [1, MAX_QUBITS].
    """

    num_states: int
    indices: tuple[int, ...]

    def __post_init__(self):
        num_states = _as_index(self.num_states, "num_states")
        if num_states < 1 or num_states & (num_states - 1):
            raise ValueError(f"num_states must be a power of two, got {num_states}")
        _as_qubit_count(num_states.bit_length() - 1)
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

        Nothing in the package reads it; the benchmark's state builders
        and the tests (``two_cycle_state``, ``_periodic_input`` and
        others) do.
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


# Amplitudes per format call in save_state: big enough to keep the
# per-call overhead small, small enough that one chunk's floats, format
# string and text stay well under the size of the state itself.
_SAVE_CHUNK = 1 << 14


def _write_pairs(fh, amps: np.ndarray) -> None:
    """Write ``amps`` as ``json.dumps`` writes its [[re, im], ...] list.

    This is the one layout of an amplitude list, in state files and in
    the ``simulate --full-snapshots`` side file alike.  Each chunk of
    ``_SAVE_CHUNK`` amplitudes is written by one ``%`` format over its
    flat re, im floats, so no list is built per pair; the chunks are
    joined as one list.  ``%r`` is ``float.__repr__``, which ``json``
    writes for every finite float.  For nan and inf it writes ``nan`` and
    ``inf`` where ``json`` writes ``NaN`` and ``Infinity``: the entries
    are finite because ``QuantumState`` refuses a norm that is not, and
    the simulator's unitary steps keep them so.
    """
    fh.write("[")
    for start in range(0, amps.size, _SAVE_CHUNK):
        chunk = amps[start:start + _SAVE_CHUNK]
        fh.write(", " if start else "")
        fh.write(", ".join(["[%r, %r]"] * chunk.size) % tuple(chunk.view(np.float64).tolist()))
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


# JSON whitespace, and the two places an amplitude list is cut: the gap
# ']' ws ',' ws '[' between two pairs, and its end, the first ']' ws ']'.
# Pairs hold only numbers, so neither pattern matches inside a valid list.
_WS = re.compile(r"[ \t\n\r]*")
_LIST_END = re.compile(r"\][ \t\n\r]*\]")
_PAIR_GAP = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")
_DECODER = json.JSONDecoder()

# Characters of amplitude-list text per json.loads call in load_state.  The
# lists and floats of one chunk take about three times its size.  From
# 64 KiB to 1 MiB the load takes the same time; at n = 18 a process that
# loads a state twice peaked lowest in RSS at 128 KiB.
_LOAD_CHUNK = 1 << 17


def _pairs_array(pairs) -> np.ndarray:
    """The float64 re, im, re, im, ... of a decoded [[re, im], ...] list.

    Raises ValueError, TypeError or OverflowError unless every pair is two
    JSON numbers that fit a float.  The types are checked exactly: JSON
    true/false load as bool, a subclass of int.  This loop checks a pair
    in about 50 ns on Python 3.11, faster than C-level set(map(type, ...))
    passes over the same list.
    """
    for real, imag in pairs:
        if (real.__class__ is not float and real.__class__ is not int) or (
            imag.__class__ is not float and imag.__class__ is not int
        ):
            raise ValueError(f"amplitudes must be [re, im] pairs of numbers, got {[real, imag]!r}")
    return np.fromiter(itertools.chain.from_iterable(pairs), np.float64, 2 * len(pairs))


def _decode_value(text: str, pos: int) -> tuple:
    """Decode the member value at text[pos]; return it and the index after it.

    ``json.decoder.JSONObject`` calls this for each top-level member.  A
    list of number pairs longer than ``_LOAD_CHUNK`` characters comes back
    as its complex128 array.  It is cut only at pair gaps, into chunks of
    about that size, each decoded by ``json.loads`` and turned into an
    array before the next is read; the last chunk ends at the first ']' ws
    ']'.  A chunk that ran past the end of the list would close its
    brackets early and be no JSON, so it never passes for pairs.  Any other
    value, a list that fits one chunk included, comes back from ``json``'s
    scanner, whose StopIteration ``JSONObject`` reports as "Expecting
    value", for ``load_state`` to convert or refuse once the text is gone.
    A repeated key keeps its last value, so an "amplitudes" member that a
    later one replaces is never refused.
    """
    if not text.startswith("[", pos):
        return _DECODER.scan_once(text, pos)
    start = _WS.match(text, pos + 1).end()
    pieces = []
    while True:
        gap = _PAIR_GAP.search(text, start + _LOAD_CHUNK)
        last = _LIST_END.search(text, start) if gap is None and pieces else None
        if gap is None and last is None:
            break  # the list fits one chunk, or it never ends
        try:
            pieces.append(_pairs_array(json.loads(f"[{text[start:(gap or last).start() + 1]}]")))
        except (TypeError, ValueError, OverflowError):  # refused once decoded whole, below
            break
        if last is not None:
            return np.concatenate(pieces).view(np.complex128), last.end()
        start = gap.end() - 1
    return _DECODER.scan_once(text, pos)


def _decode_document(text: str) -> dict:
    """The members of the JSON object ``text``, as ``json.loads`` reads them.

    ``json.decoder.JSONObject`` walks the top-level object and hands each
    member value to ``_decode_value``; this adds the checks ``json.loads``
    makes around it: no BOM, an object first, nothing after it.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    pos = _WS.match(text).end()
    if not text.startswith("{", pos):
        raise json.JSONDecodeError("Expecting '{'", text, pos)
    members, pos = json.decoder.JSONObject((text, pos + 1), True, _decode_value, None, None)
    pos = _WS.match(text, pos).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return members


def load_state(path) -> QuantumState:
    """Read a state file, reject norm deviations > 1e-9, renormalize unless within NORM_ATOL.

    The amplitude list is decoded a chunk at a time (``_decode_value``),
    so the peak stays near the text plus a few registers.  The cyclic
    garbage collector is paused meanwhile: the [re, im] lists of a chunk
    hold no reference cycles, yet their allocation would set off
    collections that reclaim nothing.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            members = _decode_document(fh.read())
        n = _as_qubit_count(members["n"])
        amps = members.pop("amplitudes")
        if amps.__class__ is not np.ndarray:
            amps = _pairs_array(amps).view(np.complex128)
    except RecursionError as exc:
        raise ValueError(f"malformed state file {path}: nested too deeply") from exc
    # UnicodeDecodeError and json.JSONDecodeError are ValueErrors too;
    # OverflowError: a JSON integer too large for a float.
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    if amps.size != 1 << n:
        raise ValueError(
            f"state file {path}: expected {1 << n} amplitudes for n={n}, found {amps.size}"
        )
    norm_sq = _norm_sq(amps)
    if not abs(norm_sq - 1.0) <= STATE_FILE_NORM_ATOL:
        raise ValueError(
            f"state file {path}: norm^2 = {norm_sq!r} deviates from 1 by more "
            f"than {STATE_FILE_NORM_ATOL}"
        )
    return QuantumState.renormalized(n, amps)
