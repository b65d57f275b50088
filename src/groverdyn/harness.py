"""State builders, marked-set sweeps and simulator-vs-closed-form runs.

``sweep_marked_sets`` and ``compare_run`` take a built state (see
``resolve_state``) and the values they use, and check those values.  A
sweep is sized once, by ``_sweep_plan`` from its arguments alone (the
CLI runs it before any state loads), then ``_marked_sets`` builds it.

Everything here is deterministic given its arguments: random states
and sampled marked sets come from a seeded numpy PCG64 generator
(``numpy.random.default_rng``), so published seeds reproduce exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import chain, combinations

import numpy as np

from .analytic import (
    analytic_success,
    averaged_success,
    compute_params,
    optimal_iterations,
)
from .core import (
    MarkedSet,
    QuantumState,
    _as_index,
    _as_int_in,
    _as_qubit_count,
    _as_seed,
    _check_compatible,
    load_state,
)
from .simulator import _as_step_count
from . import _kernels

# Enumerate all C(N, r) marked sets up to this count; sample beyond it.
# No sweep, enumerated or sampled, takes more sets than this.
EXHAUSTIVE_LIMIT = 100_000
DEFAULT_SAMPLES = 2000

# Marked sets are counted only up to this many (see _count_marked_sets).
_COUNT_CAP = 2 * EXHAUSTIVE_LIMIT

# Most marked indices, sets x r, one sweep holds: 128 MiB of intp, in the
# one (sets, r) array the sweep builds.  n = 12, r = 4095 fits.
MAX_SWEEP_INDICES = 1 << 24

# A sweep steps the marked amplitudes of its sets in blocks of this many
# (512 KiB of complex128), _BLOCK_CELLS // r sets a block, so that its
# working memory does not grow with the number of sets.  Budgets from
# 2^12 to 2^18 timed within noise of each other on sweeps at n = 6-14,
# r = 1-2047.
_BLOCK_CELLS = 1 << 15

# Sampled sets of up to this many indices are drawn by one rng.integers
# call a block (see _draw_sorted_sets).  Above it one rng.choice call a
# set is cheaper than its 2r - 1 draws broadcast over a block.  The blocked
# draws are choice's own only while choice runs Floyd's algorithm, which
# it does unless N > 10000 and r > N // 50 (then it tail-shuffles
# arange(N)); so the cap must stay below 10000 // 50 = 200.
_BLOCKED_DRAW_MAX_R = 64

# A block of sampled sets makes about this many draws (512 KiB of int64).
_DRAW_BLOCK = 1 << 16

STATE_BUILDERS = ("eta", "basis", "ghz", "w", "zero_mean", "haar", "k_uniform")
# Builders usable directly as a --state name (no extra parameters).
PARAMETER_FREE_BUILDERS = ("eta", "ghz", "w")
# Builders that draw from a seeded generator, and refuse to build without one.
SEEDED_BUILDERS = ("haar", "zero_mean")


class ConfigurationError(Exception):
    """A run larger than the package's sweep limits allow."""


def build_state(name: str, n: int, k: int | None = None, seed: int | None = None) -> QuantumState:
    """Construct a named initial state on ``n`` qubits.

    eta        equal superposition of all basis states
    basis      the computational basis state |k>
    ghz        (|0...0> + |1...1>)/sqrt(2)
    w          equal superposition of the n single-excitation states
    zero_mean  random paired state with a_{2j+1} = -a_{2j} (zero mean), seeded
    haar       normalized vector of 2^n complex standard Gaussians, seeded
    k_uniform  first k amplitudes equal to 1/sqrt(k)
    """
    n = _as_qubit_count(n)
    if k is not None:
        k = _as_index(k, "k")
    if seed is not None:
        seed = _as_seed(seed)
    elif name in SEEDED_BUILDERS:
        raise ValueError(f"{name} state needs a seed")
    num_states = 1 << n

    if name == "eta":
        amps = np.full(num_states, 1.0 / math.sqrt(num_states), dtype=np.complex128)
    elif name == "basis":
        k = _as_int_in(k, "basis index k", 0, num_states - 1)
        amps = np.zeros(num_states, dtype=np.complex128)
        amps[k] = 1.0
    elif name == "ghz":
        amps = np.zeros(num_states, dtype=np.complex128)
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    elif name == "w":
        amps = np.zeros(num_states, dtype=np.complex128)
        amps[[1 << j for j in range(n)]] = 1.0 / math.sqrt(n)
    elif name == "zero_mean":
        rng = np.random.default_rng(seed)
        half = rng.standard_normal(num_states // 2) + 1j * rng.standard_normal(num_states // 2)
        amps = np.empty(num_states, dtype=np.complex128)
        amps[0::2] = half
        amps[1::2] = -half
        return QuantumState.renormalized(n, amps)
    elif name == "haar":
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(num_states) + 1j * rng.standard_normal(num_states)
        return QuantumState.renormalized(n, amps)
    elif name == "k_uniform":
        k = _as_int_in(k, "k_uniform count k", 1, num_states)
        amps = np.zeros(num_states, dtype=np.complex128)
        amps[:k] = 1.0 / math.sqrt(k)
    else:
        raise ValueError(f"unknown state builder {name!r}; known: {STATE_BUILDERS}")
    return QuantumState(n, amps)


def resolve_state(spec: str, n: int, seed: int | None = None) -> QuantumState:
    """Turn a state spec (builder name or JSON file path) into a state."""
    if spec in PARAMETER_FREE_BUILDERS:
        return build_state(spec, n)
    if spec in SEEDED_BUILDERS:
        return build_state(spec, n, seed=seed)
    if spec in STATE_BUILDERS:
        raise ValueError(
            f"builder {spec!r} needs parameters; create it with 'state make' "
            "and pass the file instead"
        )
    state = load_state(spec)
    if state.n != n:
        raise ValueError(f"state file {spec} has n={state.n}, expected n={n}")
    return state


@dataclass(frozen=True)
class SweepSummary:
    """Success statistics of P(tau) over a collection of marked sets."""

    n: int
    r: int
    tau: int
    num_sets: int
    exhaustive: bool
    seed: int
    mean_p: float
    std_error: float
    analytic_prediction: float
    p_values: tuple[float, ...]

    def to_json_dict(self) -> dict:
        """The ``avg-success`` JSON: every field but ``p_values``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "p_values"}


def _count_marked_sets(num_states: int, r: int) -> int:
    """C(num_states, r) if it is at most ``_COUNT_CAP``, else a number above it.

    The count stops once it passes the cap: every decision on a sweep's
    size compares against the cap or less, and the exact C(2^22, 2^21)
    alone takes minutes.  C(N, k) grows with k up to N/2, so the first
    partial count above the cap is a lower bound of C(N, r).
    """
    count = 1
    for k in range(min(r, num_states - r)):
        count = count * (num_states - k) // (k + 1)
        if count > _COUNT_CAP:
            break
    return count


def _all_marked_sets(num_states: int, r: int, total: int) -> np.ndarray:
    """Every r-subset of range(num_states) in lexicographic order, one row each.

    ``total`` is C(num_states, r).  The indices go straight into one
    ``(total, r)`` intp array; no set is held as a tuple.
    """
    flat = np.fromiter(
        chain.from_iterable(combinations(range(num_states), r)), np.intp, total * r
    )
    return flat.reshape(total, r)


def _sweep_plan(n: int, r, samples, seed) -> tuple[int, int, int, int, int]:
    """``(r, tau, total, count, seed)`` of a sweep on ``n`` qubits, checked.

    ``total`` is ``_count_marked_sets(2^n, r)`` and ``count`` the number of
    sets to take, all of them when equal.  Over either limit it raises
    ``ConfigurationError``.  It needs no state, so runs before one loads.
    """
    r = _as_index(r, "r")
    tau = optimal_iterations(n, r)
    if samples is not None:
        samples = _as_int_in(samples, "samples", 1)
    seed = _as_seed(seed)
    num_states = 1 << n
    total = _count_marked_sets(num_states, r)
    if samples is None and total <= EXHAUSTIVE_LIMIT:
        count = total
    else:
        count = min(DEFAULT_SAMPLES if samples is None else samples, total)
    if count > EXHAUSTIVE_LIMIT:
        # Both numbers are exact up to the cap.
        asked = count if count <= _COUNT_CAP else f"more than {_COUNT_CAP}"
        size = f"= {total}" if total <= _COUNT_CAP else f"> {_COUNT_CAP}"
        raise ConfigurationError(
            f"sweeping {asked} of the C({num_states}, {r}) {size} marked "
            f"sets exceeds the limit of {EXHAUSTIVE_LIMIT}; request at most that many"
        )
    if count * r > MAX_SWEEP_INDICES:
        raise ConfigurationError(
            f"sweeping {count} marked sets of r = {r} holds {count * r} "
            f"indices, over the limit of MAX_SWEEP_INDICES = {MAX_SWEEP_INDICES}; "
            "request fewer sets or a smaller r"
        )
    return r, tau, total, count, seed


def _draw_sorted_sets(block: np.ndarray, num_states: int, rng: np.random.Generator) -> None:
    """Fill each row of ``block`` with one ``rng.choice(N, r, replace=False)`` draw, sorted.

    Up to ``_BLOCKED_DRAW_MAX_R``, one ``rng.integers`` call makes the draws
    of every row, the same numbers in the same order as ``choice``.
    ``choice`` runs Floyd's algorithm, r draws in [0, j] for
    j = N - r, ..., N - 1, then shuffles, r - 1 draws in [0, i] for
    i = r - 1, ..., 1.  Floyd keeps draw k unless an earlier one took it,
    and then takes j; the shuffle does not change the sorted set, but its
    draws are made all the same.
    """
    rows, r = block.shape
    if r > _BLOCKED_DRAW_MAX_R:
        for row in block:
            row[...] = rng.choice(num_states, size=r, replace=False)
    else:
        highs = np.concatenate(
            (np.arange(num_states - r + 1, num_states + 1), np.arange(r, 1, -1))
        )
        block[...] = rng.integers(0, highs, size=(rows, len(highs)))[:, :r]
        for k in range(1, r):
            column = block[:, k]
            column[(block[:, :k] == column[:, None]).any(axis=1)] = num_states - r + k
    block.sort(axis=1)


def _marked_sets(num_states: int, r: int, total: int, count: int, seed: int) -> np.ndarray:
    """A planned sweep's marked sets, one a row of a ``(count, r)`` intp array.

    ``count == total`` (see ``_sweep_plan``) takes every set in order.  Above
    half of C(N, r), where set-by-set draws turn into a coupon collector,
    the sets are enumerated and one seeded draw picks ``count`` rows.
    Below, each set is one ``rng.choice`` draw, sorted and redrawn until
    new, keyed on the bytes of its indices as uint32 (N <= 2^MAX_QUBITS),
    half those of its intp row.  The draws are made
    ``_DRAW_BLOCK // (2r - 1)`` sets at a time into the rows still to fill
    (see ``_draw_sorted_sets``), never more sets than are missing, and
    each block is compacted over the repeats it held.
    """
    if count == total:
        return _all_marked_sets(num_states, r, total)
    rng = np.random.default_rng(seed)
    if 2 * count > total:
        return _all_marked_sets(num_states, r, total)[rng.choice(total, count, replace=False)]
    rows = max(1, _DRAW_BLOCK // (2 * r - 1))
    sets = np.empty((count, r), dtype=np.intp)
    seen: set[bytes] = set()
    filled = 0
    while filled < count:
        block = sets[filled:filled + min(rows, count - filled)]
        _draw_sorted_sets(block, num_states, rng)
        for row, indices in zip(block, block.astype(np.uint32)):
            key = indices.tobytes()
            if key not in seen:
                seen.add(key)
                sets[filled] = row
                filled += 1
    return sets


def sweep_marked_sets(
    state: QuantumState, r: int, samples: int | None = None, seed: int = 0
) -> SweepSummary:
    """Simulate tau iterations from ``state`` for each of many r-element marked sets.

    The sweep takes all C(N, r) marked sets when ``samples`` is at least
    C(N, r), or when ``samples`` is None and C(N, r) is at most
    ``EXHAUSTIVE_LIMIT``; else ``samples`` (default ``DEFAULT_SAMPLES``)
    distinct sets drawn from a PCG64 generator seeded with ``seed``.
    Sweeping more than ``EXHAUSTIVE_LIMIT`` sets, or more than
    ``MAX_SWEEP_INDICES`` marked indices (sets x r), is a
    ``ConfigurationError`` that ``_sweep_plan`` raises before any set is built.

    Each set's P(tau) is read from the last item of ``marked_cells``, which
    steps only its r marked amplitudes and the register sum,
    ``_BLOCK_CELLS // r`` sets at a time; it equals that of a lone
    ``run_grover`` run on the set, bit for bit.  Reports the sample mean,
    its standard error, and N * |mean amplitude|^2, the closed form's
    leading term for r << N of the marked-set average (see
    ``averaged_success``; it is not exact).
    """
    r, tau, total, count, seed = _sweep_plan(state.n, r, samples, seed)
    marked = _marked_sets(state.dim, r, total, count, seed)

    rows = max(1, _BLOCK_CELLS // r)
    p_values = np.empty(len(marked))
    for start in range(0, len(marked), rows):
        for cells in _kernels.marked_cells(state.amplitudes, marked[start:start + rows], tau):
            pass
        p_values[start:start + rows] = _kernels.success(cells)

    mean_p = float(np.mean(p_values))
    std_error = (
        float(np.std(p_values, ddof=1) / math.sqrt(len(p_values)))
        if len(p_values) > 1
        else 0.0
    )
    return SweepSummary(
        n=state.n,
        r=r,
        tau=tau,
        num_sets=len(marked),
        exhaustive=count == total,
        seed=seed,
        mean_p=mean_p,
        std_error=std_error,
        analytic_prediction=averaged_success(state),
        p_values=tuple(p_values.tolist()),
    )


@dataclass(frozen=True)
class ComparisonRow:
    t: int
    p_sim: float
    p_analytic: float
    abs_err: float


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side simulated and closed-form success probabilities."""

    n: int
    r: int
    marked: tuple[int, ...]
    tau: int
    tau_m: int
    p0: float
    delta_p: float
    k_const: float
    omega: float
    rows: tuple[ComparisonRow, ...]
    max_abs_err: float

    def to_json_dict(self) -> dict:
        """The ``compare`` JSON: every field, with ``rows`` as ``per_t``."""
        payload = asdict(self)
        payload["per_t"] = payload.pop("rows")
        return payload


def compare_run(
    state: QuantumState, marked: MarkedSet, t_max: int | None = None
) -> ComparisonReport:
    """Tabulate simulated against closed-form P(t) for t = 0, ..., ``t_max``.

    ``t_max`` defaults to 4 * tau and is checked, as ``evolve`` checks it,
    before the one moments pass the closed form needs.  The simulated P(t)
    sums |a_i(t)|^2 over the marked amplitudes that ``marked_cells`` steps
    with the register sum, one set of r cells, not the 2^n register; it
    equals the P(t) ``evolve`` records, bit for bit.
    """
    _check_compatible(state, marked)
    t_max = _as_step_count(4 * optimal_iterations(state.n, marked.r) if t_max is None else t_max)
    params = compute_params(state, marked)
    idx = marked.indices_array[None]
    rows = []
    for t, (cells,) in enumerate(_kernels.marked_cells(state.amplitudes, idx, t_max)):
        p_sim = float(_kernels.success(cells))
        p_analytic = analytic_success(params, t)
        rows.append(ComparisonRow(t, p_sim, p_analytic, abs(p_sim - p_analytic)))
    return ComparisonReport(
        n=state.n,
        r=marked.r,
        marked=marked.indices,
        tau=params.tau,
        tau_m=params.tau_m,
        p0=params.p0,
        delta_p=params.delta_p,
        k_const=params.k_const,
        omega=params.omega,
        rows=tuple(rows),
        max_abs_err=max(row.abs_err for row in rows),
    )


def write_json(path, payload: dict) -> None:
    """Deterministic JSON dump: sorted keys, fixed indentation."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

