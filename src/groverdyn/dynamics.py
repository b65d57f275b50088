"""Classification of initial states by their behavior under Grover iteration.

A state can be a fixed point (two distinct classes), a two-cycle, a
constant-success-probability state, part of a periodic cycle when the
rotation frequency is a rational multiple of pi, or generic
(quasi-periodic).  When several conditions hold the most specific wins:
fixed point > two-cycle > constant-P > periodic cycle > generic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import compute_params
from .core import MarkedSet, QuantumState, _as_int_in
from .simulator import MAX_TRAJECTORY_STEPS, _registers

# Niven's theorem: cos(omega) = 1 - 2r/N is rational, so omega/pi is rational
# only at 4r/N = 1, 2, 3, and every exact cycle has period 1, 2, 3, 4 or 6.
_LONGEST_PERIOD = 6


class StateKind(Enum):
    FIXED_POINT_A = "FixedPointClassA"
    FIXED_POINT_B = "FixedPointClassB"
    TWO_CYCLE = "TwoCycle"
    CONSTANT_P = "ConstantP"
    PERIODIC_CYCLE = "PeriodicCycle"
    GENERIC = "Generic"


@dataclass(frozen=True)
class StateClass:
    """Classification verdict plus the moment values that produced it."""

    kind: StateKind
    period: int | None
    evidence: dict

    def __post_init__(self):
        if self.kind is StateKind.FIXED_POINT_A:
            assert self.period == 1
        elif self.kind in (StateKind.FIXED_POINT_B, StateKind.TWO_CYCLE):
            assert self.period == 2
        elif self.kind is StateKind.PERIODIC_CYCLE:
            assert self.period is not None and self.period >= 3


def _rational_pq(num_states: int, r: int) -> tuple[int, int] | None:
    """omega/pi as (p, q) when it is rational, read from the integers N and r."""
    quarters, rest = divmod(4 * r, num_states)
    return None if rest else {1: (1, 3), 2: (1, 2), 3: (2, 3)}[quarters]


def _as_tolerance(tol) -> float:
    """``classify``'s and ``detect_cycle``'s check of ``tol``: a positive finite number."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def classify(state: QuantumState, marked: MarkedSet, tol: float = 1e-9) -> StateClass:
    """Classify ``state`` under the Grover iteration with ``marked``.

    ``tol`` bounds the moment magnitudes treated as zero (default 1e-9,
    looser than fidelity tolerances because the moments accumulate
    N-term summation error).
    """
    tol = _as_tolerance(tol)
    params = compute_params(state, marked)
    abar_m_abs = abs(params.a_bar_m0)
    abar_u_abs = abs(params.a_bar_u0)
    # Magnitudes are >= 0, so zeroing the marked ones leaves the unmarked
    # maximum as it is, without gathering the N - r unmarked amplitudes.
    magnitudes = np.abs(state.amplitudes)
    idx = marked.indices_array
    max_marked_abs = float(np.max(magnitudes[idx]))
    magnitudes[idx] = 0.0
    max_unmarked_abs = float(np.max(magnitudes))
    constp_residual = params.constp_residual
    rational = _rational_pq(marked.num_states, marked.r)
    # At omega = p*pi/q the means return after 2q/gcd(p, 2) steps; unmarked
    # deviations alternate sign, forcing an even period when any are present.
    period = None if rational is None else 2 * rational[1] // math.gcd(rational[0], 2)
    if period is not None and period % 2 == 1 and params.sigma_u0 > tol:
        period *= 2

    evidence = {
        "abar_m": params.a_bar_m0,
        "abar_u": params.a_bar_u0,
        "abar_m_abs": abar_m_abs,
        "abar_u_abs": abar_u_abs,
        "max_marked_abs": max_marked_abs,
        "max_unmarked_abs": max_unmarked_abs,
        "constp_residual": constp_residual,
        "sigma_u": params.sigma_u0,
        "omega_over_pi": params.omega / math.pi,
        "rational_pq": rational,
        "tol": tol,
    }

    if abar_m_abs < tol and max_unmarked_abs < tol:
        return StateClass(StateKind.FIXED_POINT_A, 1, evidence)
    if max_marked_abs < tol and abar_u_abs < tol:
        # U_G maps a class B fixed point to minus itself: a fixed point of
        # the ray, but the amplitudes return only after two steps.
        return StateClass(StateKind.FIXED_POINT_B, 2, evidence)
    if abar_m_abs < tol and abar_u_abs < tol:
        return StateClass(StateKind.TWO_CYCLE, 2, evidence)
    if constp_residual < tol:
        return StateClass(StateKind.CONSTANT_P, period, evidence)
    if period is not None:
        return StateClass(StateKind.PERIODIC_CYCLE, period, evidence)
    return StateClass(StateKind.GENERIC, None, evidence)


def _as_max_period(max_period) -> int:
    """``detect_cycle``'s check of ``max_period``: in [1, ``MAX_TRAJECTORY_STEPS``]."""
    return _as_int_in(max_period, "max_period", 1, MAX_TRAJECTORY_STEPS)


def detect_cycle(
    state: QuantumState,
    marked: MarkedSet,
    max_period: int,
    tol: float = 1e-10,
    up_to_phase: bool = False,
) -> int | None:
    """Smallest k <= min(max_period, 6) with U_G^k returning the initial state.

    By default recurrence is exact (the overlap with the initial state
    must return to 1, phase included), which is the period of the
    amplitudes as a dynamical system.  With ``up_to_phase`` the criterion
    is the phase-insensitive fidelity |<phi|U_G^k|phi>|^2 >= 1 - tol;
    that can halve the reported period when an iterate is a global sign
    flip of the initial state.  No cycle is longer than 6 steps (Niven's
    theorem), so no later near-return within ``tol`` is reported.  Needs
    ``max_period`` in [1, ``MAX_TRAJECTORY_STEPS``] and a finite ``tol`` > 0.
    """
    max_period = _as_max_period(max_period)
    tol = _as_tolerance(tol)
    initial = state.amplitudes
    registers = _registers(state, marked, min(max_period, _LONGEST_PERIOD))
    next(registers)  # t = 0, the initial state; checks the arguments
    for k, amps in enumerate(registers, start=1):
        overlap = complex(np.vdot(initial, amps))
        if up_to_phase:
            if 1.0 - abs(overlap) ** 2 <= tol:
                return k
        elif abs(overlap - 1.0) <= tol:
            return k
    return None


def build_fixed_point(marked: MarkedSet, weights) -> QuantumState:
    """State supported on the marked indices with zero-mean unit weights.

    Any such state is an exact fixed point of the Grover iteration: the
    oracle negates it, the post-oracle mean vanishes, and the diffusion
    negates it back.
    """
    w = np.ascontiguousarray(weights, dtype=np.complex128)
    if w.ndim != 1 or w.size != marked.r:
        raise ValueError(
            f"expected {marked.r} weights (one per marked index), got shape {w.shape}"
        )
    if marked.r < 2:
        raise ValueError("a zero-mean fixed point needs at least 2 marked states")
    # A NaN passes both bounds below, and an inf makes the mean warn.
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if abs(np.mean(w)) > 1e-12:
        raise ValueError(f"weights must have zero mean, got mean {np.mean(w)!r}")
    if abs(float(np.sum(np.abs(w) ** 2)) - 1.0) > 1e-12:
        raise ValueError("weights must have unit norm")
    amps = np.zeros(marked.num_states, dtype=np.complex128)
    amps[marked.indices_array] = w
    return QuantumState(marked.num_states.bit_length() - 1, amps)
