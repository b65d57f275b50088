"""The Grover iteration kernels.

``run_grover`` iterates one state vector.  It carries the register sum
from step to step instead of reducing the register again: a call reduces
the register once, when it starts, and a step then makes one
read-modify-write pass over the amplitudes.  ``marked_cells`` runs the
same arithmetic for many marked sets at once on their marked amplitudes
alone, the only entries that P(t) = sum over the marked set of |a_i(t)|^2
reads, so a step costs O(r) a set instead of O(N).  It is the one
simulator of P(t) for a marked set, read by the marked-set sweep and by
``compare``; ``success`` sums its P.  ``get_impl``, ``available_backends``
and ``backend_name`` name the numpy implementation for callers that
report or time the kernel.
"""

import sys

import numpy as np

NAME = "python"


def run_grover(
    amps: np.ndarray, marked: np.ndarray, steps: int, total: complex | None = None
) -> complex:
    """Apply ``steps`` Grover iterations to ``amps`` in place.

    One iteration flips the sign of every marked amplitude and then
    reflects all amplitudes about their mean (a_i -> 2*mean - a_i).  The
    mean is taken from the register sum S, which ``np.add.reduce`` gives
    once when the call starts and the loop then carries: the flip changes
    S by -2 * S_M, where S_M is the sum of the marked amplitudes, and the
    reflection keeps it.  So a step gathers the r marked amplitudes, sets
    S <- S - 2 * S_M, writes the flipped amplitudes back and subtracts
    2 * S / N from every amplitude: one pass over the register, with no
    reduction of it.

    The carried sum does not drift away from the register's.  Let d be the
    carried sum less the true one.  The reflection with the carried sum
    gives the register the true sum 2 * (S + d) - S = S + 2 * d while the
    carried one stays S + d, so d turns into -d.  The rounding of later
    steps therefore adds up like a random walk and is never amplified.

    S, S_M and 2 * S / N are numpy scalars here: an operation on them costs
    a fraction of a ufunc call with ``out=`` on a one-element array, which
    matters to callers that take one step a call.

    Parameters
    ----------
    amps : complex128 array, modified in place
    marked : intp array of marked basis-state indices
    steps : number of iterations to apply
    total : the sum of ``amps``, as a previous call returned it; reduced
        from ``amps`` when omitted.  A run split into calls that pass the
        sum on rounds exactly as one call does.

    Returns
    -------
    The register sum after the last iteration, carried, not reduced.
    """
    total = np.add.reduce(amps) if total is None else np.complex128(total)
    scale = np.complex128(2.0 / len(amps))
    for _ in range(steps):
        gathered = amps[marked]
        marked_sum = np.add.reduce(gathered)
        total = total - (marked_sum + marked_sum)
        amps[marked] = -gathered
        np.subtract(total * scale, amps, out=amps)
    return complex(total)


def marked_cells(amps: np.ndarray, marked: np.ndarray, steps: int):
    """Yield the marked amplitudes after t = 0, 1, ..., ``steps`` Grover iterations.

    Row b of the ``(B, r)`` intp array ``marked`` is a marked set, and each
    item is the ``(B, r)`` array of the sets' amplitudes.  A marked
    amplitude x steps as x <- 2 * S' / N + x, with S' = S - 2 * S_M the
    carried sum after the flip, so it reads only the marked amplitudes and
    S.  The loop steps those ``(B, r)`` cells and a ``(B, 1)`` column of
    sums, with ``run_grover``'s operations in its order (2 * S' / N - (-x)
    is 2 * S' / N + x exactly): each row equals the set's entries of a
    ``run_grover`` register, bit for bit.  Every item is a new array, and
    ``amps`` is only read.
    """
    cells = amps[marked]
    sums = np.full((len(cells), 1), np.add.reduce(amps))
    scale = np.complex128(2.0 / len(amps))
    yield cells
    for _ in range(steps):
        marked_sums = np.add.reduce(cells, axis=1, keepdims=True)
        sums = sums - (marked_sums + marked_sums)
        cells = sums * scale + cells
        yield cells


def success(cells: np.ndarray):
    """P = sum of |x|^2 over the last axis: one P a set of a ``(B, r)`` block.

    Every simulated P(t) is this sum, so ``compare``'s equals ``evolve``'s bit for bit.
    """
    return np.sum(np.abs(cells) ** 2, axis=-1)


def available_backends() -> tuple[str, ...]:
    """Names of the kernel implementations: the numpy kernel only."""
    return (NAME,)


def get_impl(name: str):
    """Return the kernel module registered under ``name``."""
    if name != NAME:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        )
    return sys.modules[__name__]


def backend_name() -> str:
    """Name of the kernel in use."""
    return NAME
