"""Exact Grover iteration on a state vector and trajectory recording.

The oracle is applied as a phase flip on the register alone (the ancilla
never needs to be represented) and the diffusion step is the reflection
a_i -> 2*mean - a_i, computed in O(N) from the mean rather than through
an N x N operator.  One ``grover_iterate`` is the composition of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    MarkedSet,
    MomentSummary,
    QuantumState,
    _as_int_in,
    _check_compatible,
    _moments_from_array,
    _write_pairs,
)

# Most amplitudes ``evolve`` keeps as full snapshots over one trajectory:
# 2^22 complex128 amplitudes are 64 MiB, and the JSON side file written by
# ``simulate --full-snapshots`` takes several times that.
MAX_SNAPSHOT_AMPLITUDES = 1 << 22

# Most Grover iterations one trajectory records, or one ``compare`` tabulates.
# ``evolve`` keeps a ``TrajectoryStep`` of about 384 bytes a step and
# ``compare_run`` a ``ComparisonRow`` of about 210, so the limit is at most
# about 38 MB of records; it covers ``compare``'s default 4 * tau at n = 24,
# r = 1 (12,864 steps) several times over.
MAX_TRAJECTORY_STEPS = 100_000


def _as_step_count(t_max) -> int:
    """Validate a trajectory length: an integer in [0, MAX_TRAJECTORY_STEPS]."""
    return _as_int_in(t_max, "t_max", 0, MAX_TRAJECTORY_STEPS)


def _registers(state: QuantumState, marked: MarkedSet, t_max):
    """Yield the register after t = 0, 1, ..., t_max Grover iterations.

    The stepping loop of the two readers that need the whole register:
    ``evolve`` (moments, snapshots) and ``detect_cycle`` (overlaps).  P(t)
    alone needs only the marked cells (``_kernels.marked_cells``).  The
    arguments are checked when the first item is asked for, before any
    step.  Every item is the same array, a copy of ``state``'s amplitudes
    that one ``run_grover`` step updates in place between items: read it
    before asking for the next one, and copy what must outlive the step.
    Each step passes on the register sum the last one returned, so the
    register rounds as in one ``t_max``-step call.
    """
    _check_compatible(state, marked)
    t_max = _as_step_count(t_max)
    amps = state.amplitudes.copy()
    idx = marked.indices_array
    total = None
    yield amps
    for _ in range(t_max):
        total = _kernels.run_grover(amps, idx, 1, total)
        yield amps


def grover_iterate(state: QuantumState, marked: MarkedSet) -> QuantumState:
    """One full Grover iteration: oracle phase flip, then diffusion."""
    _check_compatible(state, marked)
    amps = state.amplitudes.copy()
    _kernels.run_grover(amps, marked.indices_array, 1)
    return QuantumState._wrap(state.n, amps)


def success_probability(state: QuantumState, marked: MarkedSet) -> float:
    """Probability that measuring the register yields a marked state."""
    _check_compatible(state, marked)
    return float(_kernels.success(state.amplitudes[marked.indices_array]))


@dataclass(frozen=True)
class TrajectoryStep:
    """State summary after ``t`` Grover iterations."""

    t: int
    p_marked: float
    moments: MomentSummary
    state: QuantumState | None = None


@dataclass(frozen=True)
class Trajectory:
    """Per-iteration record of an evolution under a fixed marked set."""

    n: int
    marked: MarkedSet
    steps: tuple[TrajectoryStep, ...]

    @property
    def t_max(self) -> int:
        return self.steps[-1].t

    def p_marked(self) -> np.ndarray:
        """Success probability at every recorded step, as an array."""
        return np.array([s.p_marked for s in self.steps])

    def write_csv(self, path) -> None:
        """Write one row per step with 17-significant-digit floats."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "t,p_marked,abar_m_re,abar_m_im,abar_u_re,abar_u_im,sigma_m,sigma_u\n"
            )
            for step in self.steps:
                m = step.moments
                cols = (
                    step.p_marked,
                    m.a_bar_m.real,
                    m.a_bar_m.imag,
                    m.a_bar_u.real,
                    m.a_bar_u.imag,
                    m.sigma_m,
                    m.sigma_u,
                )
                fh.write(str(step.t) + "," + ",".join(format(c, ".17g") for c in cols) + "\n")

    def write_snapshots(self, path) -> None:
        """Write the full snapshots as {"n": n, "states": [...]}.

        The bytes are those of ``json.dumps`` on that dict plus a newline: each
        snapshot is laid out as a state file's amplitude list, by ``_write_pairs``.
        """
        if self.steps[0].state is None:
            raise ValueError("the trajectory holds no snapshots; evolve with record_full_states")
        with open(path, "wb") as fh:
            fh.write(b'{"n": %d, "states": [' % self.n)
            for i, step in enumerate(self.steps):
                fh.write(b", " if i else b"")
                _write_pairs(fh, step.state.amplitudes)
            fh.write(b"]}\n")


def _evolve_arguments(n: int, t_max, record_full_states: bool) -> int:
    """``evolve``'s checks: ``t_max``, and the snapshots of ``n`` qubits within their limit."""
    t_max = _as_step_count(t_max)
    if record_full_states and (t_max + 1) << n > MAX_SNAPSHOT_AMPLITUDES:
        raise ValueError(
            f"full snapshots of {t_max + 1} steps at n={n} exceed "
            f"{MAX_SNAPSHOT_AMPLITUDES} amplitudes; record fewer steps or none"
        )
    return t_max


def evolve(
    state: QuantumState,
    marked: MarkedSet,
    t_max: int,
    record_full_states: bool = False,
) -> Trajectory:
    """Iterate the Grover operator ``t_max`` times, recording every step.

    The record at t=0 is the initial state.  By default only the success
    probability and the moment summary are stored per step; full state
    snapshots (2^n amplitudes per step) are kept only when
    ``record_full_states`` is set; more than ``MAX_SNAPSHOT_AMPLITUDES``
    snapshot amplitudes in all, (t_max + 1) * 2^n, is a ``ValueError``,
    and so is a ``t_max`` above ``MAX_TRAJECTORY_STEPS``.
    """
    t_max = _evolve_arguments(state.n, t_max, record_full_states)
    idx = marked.indices_array
    work = np.empty_like(state.amplitudes)
    steps = []
    for t, amps in enumerate(_registers(state, marked, t_max)):
        moments = _moments_from_array(amps, marked, work)
        snapshot = QuantumState._wrap(state.n, amps.copy()) if record_full_states else None
        steps.append(TrajectoryStep(t, float(_kernels.success(amps[idx])), moments, snapshot))
    return Trajectory(state.n, marked, tuple(steps))
