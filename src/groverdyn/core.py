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
import os
import re
import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _pairtext


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


def _norm_sq(amps: np.ndarray, axis: int | None = None):
    """sum |a_i|^2, which every norm check compares; an entry above ~1e154 makes it inf.

    Without ``axis`` it sums every entry and returns a float; with one, the
    array of sums along that axis.
    """
    with np.errstate(over="ignore"):
        sums = np.sum(np.abs(amps) ** 2, axis=axis)
    return float(sums) if axis is None else sums


def _check_amplitudes(n: int, amps: np.ndarray, norm_sq: float) -> None:
    """The constructor's refusals of ``amps`` for n qubits, whose ``_norm_sq`` is ``norm_sq``."""
    if amps.ndim != 1 or amps.size != 1 << n:
        raise ValueError(f"expected {1 << n} amplitudes for n={n}, got shape {amps.shape}")
    # Written so that a NaN norm fails too.
    if not abs(norm_sq - 1.0) <= NORM_ATOL:
        raise ValueError(
            f"state norm^2 = {norm_sq!r} deviates from 1 by more than {NORM_ATOL}; "
            "use QuantumState.renormalized to normalize explicitly"
        )


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
        _check_amplitudes(n, amps, _norm_sq(amps))
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def renormalized(cls, n: int, amplitudes) -> "QuantumState":
        """Build a state from amplitudes, scaled to unit norm unless they have it.

        Amplitudes the constructor accepts come back unscaled, so a state
        renormalizes to itself bit for bit; others are divided by their norm.
        """
        amps = np.array(amplitudes, dtype=np.complex128, order="C", ndmin=1)
        return cls._renormalized(n, amps, _norm_sq(amps))

    @classmethod
    def _renormalized(cls, n: int, amps: np.ndarray, norm_sq: float) -> "QuantumState":
        # ``renormalized`` for a C-contiguous complex128 array that no one
        # else holds, with ``norm_sq`` its _norm_sq: the state keeps the
        # array, scaled in place unless the constructor accepts it as it is.
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            # Finite entries whose squares overflow give the norm inf, and
            # nonzero ones whose squares all underflow give it 0.
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(amps))
            if 0.0 < norm * norm < np.finfo(float).tiny:
                # A subnormal sum of squares has lost digits; the amplitudes
                # scaled by the largest magnitude keep them.
                amps /= np.abs(amps).max()
                norm = float(np.linalg.norm(amps))
            if not 0.0 < norm < math.inf:
                if not np.isfinite(amps).all():
                    raise ValueError(f"cannot normalize amplitudes with norm {norm!r}")
                if not amps.any():
                    raise ValueError("cannot normalize the zero vector")
                flow = "underflows to 0" if norm == 0.0 else "overflows to inf"
                raise ValueError(
                    f"cannot normalize amplitudes: the sum of their squares {flow}"
                )
            amps /= norm
            norm_sq = _norm_sq(amps)
        n = _as_qubit_count(n)
        _check_amplitudes(n, amps, norm_sq)
        return cls._wrap(n, amps)

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

# Fewest amplitudes in one part of a split amplitude list.  At n = 18,
# 2^17 amplitudes take about 90 ms of float.__repr__ and a helper
# interpreter about 10-16 ms to start, so only registers of n >= 18 split.
_PART_AMPLITUDES = 1 << 17

# Bytes of a helper's text read per write into the file.
_COPY_PIECE = 1 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _write_pairs(fh, amps: np.ndarray) -> None:
    """Write ``amps`` into the binary file ``fh`` as ``json.dumps`` writes its [[re, im], ...] list.

    This is the one layout of an amplitude list, in state files and in
    the ``simulate --full-snapshots`` side file alike.  ``_pairtext``
    formats it to ASCII bytes, ``_SAVE_CHUNK`` amplitudes per bytes ``%``
    over their flat re, im floats, so no list is built per pair.  ``%a``
    writes a float's ``repr``, which ``json`` writes for every finite
    float.  For nan and inf it writes ``nan`` and ``inf`` where ``json``
    writes ``NaN`` and ``Infinity``: the entries are finite because
    ``QuantumState`` refuses a norm that is not, and the simulator's
    unitary steps keep them so.

    The list is cut into as many contiguous parts as there are usable
    CPUs, each part at least ``_PART_AMPLITUDES`` long, so a shorter list
    is one part.  This process formats the first part.  Each other part
    goes, as raw float64 bytes on stdin, to a helper interpreter
    (``sys.executable -I -S``) that runs ``_pairtext`` as a script; every
    helper starts before any is fed, so all parts are formatted at once.
    Then each helper's bytes are copied into ``fh`` in order,
    ``_COPY_PIECE`` at a time.  A helper's text is ``_pairtext.pair_text``'s,
    the function that formats every part here, so the bytes are those of
    one serial pass.  Where a helper cannot start, fails or stops short,
    the text it wrote is a prefix of its part's, and this process formats
    the rest.  Every helper is killed, if it still runs, and waited for
    before this returns or raises.
    """
    floats = memoryview(np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64))
    parts = max(1, min(_usable_cpus(), amps.size // _PART_AMPLITUDES)) if sys.executable else 1
    pairs = len(floats) // 2
    bounds = [2 * (pairs * k // parts) for k in range(parts + 1)]
    views = [floats[a:b] for a, b in zip(bounds, bounds[1:])]
    fh.write(b"[")
    helpers = []
    try:
        for _ in views[1:]:
            helpers.append(_start_helper())
        for proc, view in zip(helpers, views[1:]):
            if proc is not None:
                try:
                    proc.stdin.write(view)
                    proc.stdin.close()
                except BrokenPipeError:  # the helper has exited; its text is short
                    pass
        _format_part(fh, views[0])
        for proc, view in zip(helpers, views[1:]):
            fh.write(b", ")
            _copy_part(fh, proc, view)
    finally:
        for proc in helpers:
            if proc is not None:
                proc.kill()  # a no-op once _copy_part has waited for it
                proc.stdout.close()
                try:
                    proc.stdin.close()
                except BrokenPipeError:  # the write the helper refused is still buffered
                    pass
                proc.wait()
    fh.write(b"]")


def _format_part(fh, floats: memoryview, skip: int = 0) -> None:
    """Write the text of the pairs of ``floats`` in this process, less its first ``skip`` bytes."""
    for piece in _pairtext.pair_text(floats, _SAVE_CHUNK):
        fh.write(piece[skip:])
        skip = max(skip - len(piece), 0)


def _start_helper():
    """Start a helper interpreter that formats one part, or return None if it cannot start."""
    import subprocess  # only a split list pays for the import

    try:
        return subprocess.Popen(
            [sys.executable, "-I", "-S", _pairtext.__file__, str(_SAVE_CHUNK)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:  # this process formats the part
        return None


def _copy_part(fh, proc, floats: memoryview) -> None:
    """Copy the text helper ``proc`` (None if it never started) made of ``floats``, or make it here."""
    copied = 0
    if proc is not None:
        header = proc.stdout.readline(24)
        length = int(header) if header[-1:] == b"\n" and header[:-1].isdigit() else -1
        while copied < length:
            piece = proc.stdout.read(min(_COPY_PIECE, length - copied))
            if not piece:
                break
            fh.write(piece)
            copied += len(piece)
        proc.stdout.close()
        if proc.wait() == 0 and copied == length:
            return
    _format_part(fh, floats, copied)


def save_state(state: QuantumState, path) -> None:
    """Write a state to JSON as {"n": n, "amplitudes": [[re, im], ...]}.

    The bytes are those of ``json.dumps({"n": ..., "amplitudes": ...})``
    plus a newline; ``_write_pairs`` writes the amplitude list.
    """
    with open(path, "wb") as fh:
        fh.write(b'{"n": %d, "amplitudes": ' % state.n)
        _write_pairs(fh, state.amplitudes)
        fh.write(b"}\n")


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

    Raises ValueError unless every pair is two JSON numbers, naming the
    first item that is not, and OverflowError unless each fits a float.
    The types are checked exactly: JSON true/false load as bool, a
    subclass of int.  This loop checks a pair in about 50 ns on Python
    3.11, faster than C-level set(map(type, ...)) passes over the same
    list; the offending item is looked for only once it has failed, and
    ``reprlib`` cuts a long one short.
    """
    try:
        for real, imag in pairs:
            if (real.__class__ is not float and real.__class__ is not int) or (
                imag.__class__ is not float and imag.__class__ is not int
            ):
                raise ValueError
    except (TypeError, ValueError):
        raise ValueError(
            "amplitudes must be [re, im] pairs of numbers, got "
            + reprlib.repr(_first_non_pair(pairs))
        ) from None
    return np.fromiter(itertools.chain.from_iterable(pairs), np.float64, 2 * len(pairs))


def _first_non_pair(pairs):
    """The first item of the list ``pairs`` that is not a list of two numbers; a non-list itself."""
    if pairs.__class__ is not list:
        return pairs
    for item in pairs:
        if item.__class__ is not list or len(item) != 2 or any(
            x.__class__ is not float and x.__class__ is not int for x in item
        ):
            return item
    return pairs


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
    # The decoder's array is the loader's own, so the state keeps it.
    return QuantumState._renormalized(n, amps, norm_sq)
