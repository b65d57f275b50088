"""The Grover iteration kernels.

``run_grover`` iterates one state vector; ``run_grover_block`` iterates a
block of rows, each with its own marked set, and rounds exactly as
``run_grover`` does on each row.  ``get_impl``, ``available_backends`` and
``backend_name`` name the numpy implementation for callers that report or
time the kernel.
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


def run_grover_block(block: np.ndarray, marked: np.ndarray, steps: int) -> None:
    """Apply ``steps`` Grover iterations to every row of ``block`` in place.

    Row b is searched with its own marked set ``marked[b]``.  Every row ends
    bit-identical to ``run_grover`` applied to that row alone: the flip is
    exact, and the reflection takes the row mean, doubles it and subtracts,
    in the same order and with the same reductions.

    Each row's doubled mean is subtracted from it as a scalar, one call per
    row.  One broadcast subtract of the ``(B, 1)`` means would go through
    numpy's buffered iterator, which copies rows shorter than its buffer
    (8192 elements) and so costs about twice as much per amplitude.  The
    call per row costs more than that below about 2^11 amplitudes a row.

    Parameters
    ----------
    block : C-contiguous (B, N) complex128 array, modified in place
    marked : (B, r) intp array; row b holds the marked indices of block
        row b, each in [0, N)
    steps : number of iterations to apply
    """
    if not block.flags.c_contiguous:
        raise ValueError("block must be C-contiguous")
    rows, num_states = block.shape
    if marked.shape[0] != rows:
        raise ValueError(f"marked has {marked.shape[0]} rows, block has {rows}")
    # A flat index outside its row would land in a neighbouring row.
    if marked.size and not (0 <= marked.min() and marked.max() < num_states):
        raise IndexError(f"marked indices must lie in [0, {num_states})")
    flat = block.reshape(-1)
    cells = (np.arange(rows, dtype=np.intp)[:, None] * num_states + marked).ravel()
    mean = np.empty((rows, 1), dtype=block.dtype)
    # Each (1,) view of ``mean`` is subtracted from its row as a scalar.
    row_means = list(zip(mean, block))
    for _ in range(steps):
        flat[cells] = -flat[cells]
        # The reductions np.mean runs, without its Python wrapper.
        np.add.reduce(block, axis=1, keepdims=True, out=mean)
        np.true_divide(mean, num_states, out=mean)
        mean *= 2.0
        for mean_b, row_b in row_means:
            np.subtract(mean_b, row_b, out=row_b)


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
