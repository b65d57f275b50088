"""Shared constructions for the test suite, and the references it checks against.

``apply_oracle`` and ``apply_diffusion`` are the suite's independent Grover
step: they allocate a new state per half-step and take the mean with
``np.mean``, where the package's kernels update in place and carry the
register sum.  ``reference_load_state`` is the suite's independent
state-file loader: it decodes the whole document with ``json.load``.
``reference_grid_search_oracle`` finishes the Groverian grid oracle with
LAPACK's 2x2 SVD instead of the closed form.  ``reference_ascend`` is
the alternating ascent from one start at a time, written with
``np.linalg.norm`` and ``np.outer``, and ``reference_optimize_product``
runs the optimizer's starts through it one after another, each to its
end, and screens them afterwards from their per-sweep values.
``reference_marked_sets`` draws sampled marked sets one ``rng.choice``
call a set, where the package draws a block of sets a call.
"""

import itertools
import json
import math
import os
import tracemalloc

import numpy as np

from groverdyn import (
    AnalyticParams,
    MarkedSet,
    QuantumState,
    analytic_success,
    apply_local_unitaries,
    build_fixed_point,
    build_state,
    optimize_product,
)
from groverdyn import core, groverian
from groverdyn.core import STATE_FILE_NORM_ATOL, _as_qubit_count, _check_compatible


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


def reference_marked_sets(num_states: int, r: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct sorted r-subsets of range(num_states), drawn one at a time.

    Each set is one ``rng.choice(num_states, r, replace=False)`` call on a
    generator seeded with ``seed``, sorted and kept if it is new: the draws
    ``harness._marked_sets`` must make below half of C(N, r).
    """
    rng = np.random.default_rng(seed)
    sets = np.empty((count, r), dtype=np.intp)
    seen: set[bytes] = set()
    filled = 0
    while filled < count:
        pick = np.sort(rng.choice(num_states, size=r, replace=False))
        key = pick.tobytes()
        if key not in seen:
            seen.add(key)
            sets[filled] = pick
            filled += 1
    return sets


def traced_peak(call):
    """Run ``call()``; return the peak bytes ``tracemalloc`` saw it hold, and its result."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def split_writer(monkeypatch, parts: int) -> list:
    """Make ``core._write_pairs`` cut every list of 2 * ``parts`` or more amplitudes into ``parts``.

    Returns a list that gets the float count of each part this process
    formats itself, so a caller can tell the helpers' parts from its own.
    """
    monkeypatch.setattr(core, "_PART_AMPLITUDES", 2)
    monkeypatch.setattr(core, "_usable_cpus", lambda: parts)
    formatted = []
    format_part = core._format_part

    def counting(fh, floats, skip=0):
        formatted.append(len(floats))
        format_part(fh, floats, skip)

    monkeypatch.setattr(core, "_format_part", counting)
    return formatted


def assert_no_child() -> None:
    """Every child process this one started has been waited for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process was left running or unreaped")


def reference_load_state(path) -> QuantumState:
    """Load a state file as ``load_state`` did before it decoded in chunks.

    ``json.load`` decodes the whole document, then a Python loop checks
    the exact type of every [re, im] entry.  Every refusal is a
    ``ValueError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        # JSON true/false load as bool, which operator.index takes as 1 or 0.
        if payload["n"].__class__ is bool:
            raise ValueError(f"n must be an integer, got {payload['n']!r}")
        n = _as_qubit_count(payload["n"])
        pairs = payload["amplitudes"]
        for re, im in pairs:
            if (re.__class__ is not float and re.__class__ is not int) or (
                im.__class__ is not float and im.__class__ is not int
            ):
                raise ValueError(f"amplitudes must be [re, im] pairs of numbers, got {[re, im]!r}")
        flat = np.fromiter(itertools.chain.from_iterable(pairs), np.float64, 2 * len(pairs))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed state file {path}: {exc!r}") from exc
    amps = flat.view(np.complex128)
    if amps.size != 1 << n:
        raise ValueError(f"expected {1 << n} amplitudes for n={n}, found {amps.size}")
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm_sq - 1.0) <= STATE_FILE_NORM_ATOL:
        raise ValueError(f"norm^2 = {norm_sq!r}")
    return QuantumState.renormalized(n, amps)


def reference_grid_search_oracle(state: QuantumState, resolution: int) -> float:
    """``grid_search_oracle`` as it was with an SVD finish.

    Each 2x2 remainder's largest singular value squared, from one batched
    ``np.linalg.svd`` call over the whole grid.
    """
    resolution = groverian._oracle_arguments(state.n, resolution)
    amps = state.amplitudes
    if state.n == 1:
        return float(np.sum(np.abs(amps) ** 2))
    remainder = amps.reshape(2, -1)
    if state.n == 3:
        remainder = np.conj(groverian._angle_grid(resolution)) @ remainder
    singular = np.linalg.svd(remainder.reshape(-1, 2, 2), compute_uv=False)
    return float(np.max(singular[:, 0])) ** 2


def reference_ascend(psi_t: np.ndarray, factors: np.ndarray):
    """``groverian._ascend`` as it was, with ``np.linalg.norm`` and ``np.outer``."""
    n = psi_t.ndim
    factors = factors.copy()
    history = []
    value = 0.0
    converged = False
    for _ in range(groverian.MAX_SWEEPS):
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
        if value - previous < groverian.SWEEP_TOL:
            converged = True
            break
    return value, factors, converged, history


def reference_screened_value(history: list, n: int) -> float:
    """A start's screened value, from the per-update values ``reference_ascend`` returns.

    Its value after the first sweep that gains less than ``SCREEN_TOL``,
    or after its last sweep if none does.
    """
    sweeps = history[n - 1 :: n]
    previous = 0.0
    for value in sweeps:
        if value - previous < groverian.SCREEN_TOL:
            return value
        previous = value
    return sweeps[-1]


def reference_optimize_product(state: QuantumState, restarts: int = 32, seed: int = 0):
    """``optimize_product`` one whole ascent per start, each start drawn when it begins.

    Every start ascends to its end; its screened value comes from that
    ascent's sweeps.  The starts whose screened value is within
    ``SCREEN_MARGIN`` of the best are selected: the best value among them
    wins, ties keeping the earliest, and ``best_per_restart`` holds each
    selected start's value and every other start's screened value.
    """
    restarts, seed = groverian._optimizer_arguments(restarts, seed)
    n = state.n
    psi_t = state.amplitudes.reshape((2,) * n)
    rng = np.random.default_rng(seed)
    warm = groverian._basis_factors(n, int(np.argmax(np.abs(state.amplitudes))))
    runs = []
    for i in range(restarts + 1):
        if i == 0:
            factors = warm
        else:
            factors = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            factors = factors / np.linalg.norm(factors, axis=1, keepdims=True)
        value, out_factors, converged, history = reference_ascend(psi_t, factors)
        runs.append((reference_screened_value(history, n), value, out_factors, converged))
    floor = max(run[0] for run in runs) - groverian.SCREEN_MARGIN
    best_value = -1.0
    best_factors = warm
    best_converged = False
    per_restart = []
    for screened, value, out_factors, converged in runs:
        if screened < floor:
            per_restart.append(screened)
            continue
        per_restart.append(value)
        if value > best_value:
            best_value = value
            best_factors = out_factors
            best_converged = converged
    return groverian.GroverianResult(
        p_max=best_value,
        g=math.sqrt(max(0.0, 1.0 - best_value)),
        argmax=groverian.ProductState(best_factors),
        restarts_used=restarts + 1,
        converged=best_converged,
        best_per_restart=tuple(per_restart),
    )


def marked_split_cases() -> dict[str, tuple[QuantumState, MarkedSet]]:
    """(state, marked set) pairs at the edges of the marked/unmarked split.

    Haar states at several sizes, GHZ (mostly zero amplitudes), a class A
    fixed point (every unmarked amplitude exactly 0), a two-cycle state and
    r = N - 1 (a single unmarked amplitude).
    """
    rng = np.random.default_rng(61)
    cases = {}
    for n, r in ((3, 1), (6, 3), (10, 5)):
        cases[f"haar-n{n}-r{r}"] = (random_state(n, rng), random_marked_set(n, r, rng))
    cases["ghz-n4-r2"] = (build_state("ghz", 4), MarkedSet(16, (0, 9)))
    marked = random_marked_set(8, 3, rng)
    weights = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    weights -= weights.mean()
    cases["fixed-point-a"] = (build_fixed_point(marked, weights / np.linalg.norm(weights)), marked)
    marked = random_marked_set(4, 2, rng)
    cases["two-cycle"] = (two_cycle_state(marked), marked)
    unmarked = int(rng.integers(32))
    cases["r-equals-n-minus-1"] = (
        random_state(5, rng),
        MarkedSet(32, tuple(i for i in range(32) if i != unmarked)),
    )
    return cases


def two_cycle_state(marked: MarkedSet) -> QuantumState:
    """State with zero marked and unmarked means (hence a two-cycle).

    Supported on two marked and two unmarked indices with opposite
    amplitudes inside each group.
    """
    if marked.r < 2 or marked.num_states - marked.r < 2:
        raise ValueError("need at least two marked and two unmarked indices")
    amps = np.zeros(marked.num_states, dtype=complex)
    m_idx = marked.indices_array
    u_idx = np.flatnonzero(~marked.mask)
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
