"""The Grover iteration kernel.

One numpy implementation of the hot loop.  ``get_impl``,
``available_backends`` and ``backend_name`` name it for callers that
report or time the kernel.
"""

import sys

import numpy as np

NAME = "python"


def run_grover(amps: np.ndarray, marked: np.ndarray, steps: int) -> None:
    """Apply ``steps`` Grover iterations to ``amps`` in place.

    One iteration flips the sign of every marked amplitude and then
    reflects all amplitudes about their mean (a_i -> 2*mean - a_i).

    Parameters
    ----------
    amps : complex128 array, modified in place
    marked : intp array of marked basis-state indices
    steps : number of iterations to apply
    """
    for _ in range(steps):
        amps[marked] = -amps[marked]
        np.subtract(2.0 * np.mean(amps), amps, out=amps)


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
