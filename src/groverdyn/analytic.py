"""Closed-form solution of the Grover dynamics.

For a fixed marked set the marked/unmarked amplitude means follow a pure
rotation: in the variables

    z+ = abar_u + i*sqrt(r/(N-r))*abar_m
    z- = abar_u - i*sqrt(r/(N-r))*abar_m

one Grover iteration multiplies z+ by exp(i*omega) and z- by
exp(-i*omega), where cos(omega) = 1 - 2r/N.  This is the same solution
as the amplitude-phase form

    abar_m(t) = sqrt((N-r)/r) * alpha * sin(omega*t + delta)
    abar_u(t) =                 alpha * cos(omega*t + delta)

with alpha*exp(+/- i*delta) = z+/-, but it stays well defined when
alpha = 0 (z+ * z- = 0), where the phase delta degenerates.  Individual
amplitudes are the mean plus a deviation that is constant in time for
marked states and alternates sign each step for unmarked states, so the
success probability is the exact sinusoid

    P(t) = p0 - delta_p * cos^2(omega*t + Re(delta)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MarkedSet, QuantumState, _as_index, _as_int_in, _as_qubit_count, _check_compatible, moments
)

# Relative threshold below which the smaller of |z+|, |z-| is treated as
# zero and the phase delta is reported undefined.
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class AnalyticParams:
    """Coefficients of the solved dynamics for one (state, marked set) pair.

    ``delta`` is the (possibly complex) phase of the sinusoidal mean
    trajectory; when its scale alpha vanishes the phase is undefined and
    ``delta_defined`` is False, in which case the success probability is
    constant.  ``omega`` is the exact rotation frequency per iteration and
    ``z_plus``/``z_minus`` the rotating coordinates at t = 0.  ``tau`` is
    the standard iteration count floor(pi/4 * sqrt(N/r)); ``tau_m`` the
    state-dependent count floor(0.5*sqrt(N/r)*(pi/2 - Re(delta))).
    """

    n: int
    r: int
    delta: complex
    delta_defined: bool
    omega: float
    z_plus: complex
    z_minus: complex
    p0: float
    delta_p: float
    k_const: float
    tau: int
    tau_m: int
    a_bar_m0: complex
    a_bar_u0: complex
    sigma_u0: float

    @property
    def num_states(self) -> int:
        return 1 << self.n

    @property
    def constp_residual(self) -> float:
        """min |abar_m0 -/+ i*sqrt((N-r)/r)*abar_u0|: zero exactly when P(t) is constant.

        Computed as sqrt((N-r)/r) * min(|z+|, |z-|), so it vanishes with
        one rotating coordinate and is measured in units of the means.
        """
        ratio = math.sqrt((self.num_states - self.r) / self.r)
        return ratio * min(abs(self.z_plus), abs(self.z_minus))


def optimal_iterations(n: int, r: int) -> int:
    """Standard optimal iteration count floor(pi/4 * sqrt(N/r))."""
    num_states = 1 << _as_qubit_count(n)
    r = _as_int_in(r, "r", 1, num_states - 1)
    return math.floor(math.pi / 4.0 * math.sqrt(num_states / r))


def compute_params(state: QuantumState, marked: MarkedSet) -> AnalyticParams:
    """Solve the dynamics for ``state`` searched with ``marked``.

    Degenerate inputs (vanishing sinusoid scale, including states whose
    marked and unmarked means are both zero) produce flagged parameters
    rather than failures: ``delta_defined`` is False and ``delta_p`` = 0,
    so the predicted success probability is constant.
    """
    _check_compatible(state, marked)
    num_states, r = state.dim, marked.r
    mom = moments(state, marked)
    m_scaled = math.sqrt(r / (num_states - r)) * mom.a_bar_m
    z_plus, z_minus = mom.a_bar_u + 1j * m_scaled, mom.a_bar_u - 1j * m_scaled

    scale = max(abs(z_plus), abs(z_minus))
    degenerate = scale == 0.0 or min(abs(z_plus), abs(z_minus)) < _DEGENERATE_RTOL * scale
    if degenerate:
        delta = 0j
    else:
        delta = cmath.log(z_plus / z_minus) / 2j
        if delta.real >= math.pi / 2:  # principal branch gives Re in (-pi/2, pi/2]
            delta -= math.pi

    omega = 2.0 * math.asin(math.sqrt(r / num_states))  # == acos(1 - 2r/N), stable

    quad = (num_states - r) * mom.a_bar_u**2 + r * mom.a_bar_m**2
    delta_p = abs(quad)
    k_const = max(
        0.0,
        (num_states - r) * abs(mom.a_bar_u) ** 2
        + r * abs(mom.a_bar_m) ** 2
        - delta_p,
    )
    p0 = 1.0 - (num_states - r) * mom.sigma_u**2 - 0.5 * k_const

    tau = optimal_iterations(state.n, r)
    if degenerate:
        tau_m = tau
    else:
        tau_m = math.floor(
            0.5 * math.sqrt(num_states / r) * (math.pi / 2 - delta.real)
        )

    return AnalyticParams(
        n=state.n,
        r=r,
        delta=delta,
        delta_defined=not degenerate,
        omega=omega,
        z_plus=z_plus,
        z_minus=z_minus,
        p0=p0,
        delta_p=delta_p,
        k_const=k_const,
        tau=tau,
        tau_m=tau_m,
        a_bar_m0=mom.a_bar_m,
        a_bar_u0=mom.a_bar_u,
        sigma_u0=mom.sigma_u,
    )


def analytic_amplitude_means(params: AnalyticParams, t: int) -> tuple[complex, complex]:
    """Marked and unmarked amplitude means after ``t`` iterations.

    Evaluated through the rotating coordinates, which reproduce the
    sinusoidal form exactly where it is defined and return (0, 0) when
    both initial means vanish.
    """
    num_states, r = params.num_states, params.r
    rot = cmath.exp(1j * params.omega * t)
    zp_t = params.z_plus * rot
    zm_t = params.z_minus / rot
    a_bar_u_t = (zp_t + zm_t) / 2.0
    a_bar_m_t = math.sqrt((num_states - r) / r) * (zp_t - zm_t) / 2j
    return a_bar_m_t, a_bar_u_t


def analytic_amplitudes(state: QuantumState, marked: MarkedSet, t: int) -> QuantumState:
    """Closed-form register state after ``t`` iterations.

    Marked amplitudes are the marked mean plus a frozen deviation;
    unmarked amplitudes are the unmarked mean plus a deviation whose
    sign alternates each iteration.  The unmarked expression is evaluated
    in place over the whole register and the r marked entries are then
    overwritten, so no unmarked index list is built.
    """
    _check_compatible(state, marked)
    t = _as_index(t, "t")
    params = compute_params(state, marked)
    a_bar_m_t, a_bar_u_t = analytic_amplitude_means(params, t)

    amps0 = state.amplitudes
    sign = 1.0 if t % 2 == 0 else -1.0
    out = np.subtract(amps0, params.a_bar_u0)
    out *= sign
    out += a_bar_u_t
    m_idx = marked.indices_array
    out[m_idx] = a_bar_m_t + (amps0[m_idx] - params.a_bar_m0)
    return QuantumState._wrap(state.n, out)


def analytic_success(params: AnalyticParams, t: int) -> float:
    """Success probability P(t) = p0 - delta_p * cos^2(omega*t + Re(delta))."""
    return params.p0 - params.delta_p * math.cos(
        params.omega * t + params.delta.real
    ) ** 2


def averaged_success(state: QuantumState) -> float:
    """Marked-set-averaged success probability to leading order in r/N.

    Returns N * |mean amplitude|^2, the squared overlap with the equal
    superposition: the average's leading term for r << N, not the exact
    average.  An exhaustive sweep of a Haar state at n = 6, r = 3 averages
    0.036 where this gives 0.004; a zero-mean state at n = 8, r = 2
    averages 0.004 where this gives 0.
    """
    total = complex(np.sum(state.amplitudes))
    return float(abs(total) ** 2) / state.dim
