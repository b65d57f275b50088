"""The Grover iteration kernels.

``run_grover`` iterates one state vector; ``run_grover_block`` iterates a
block of rows, each with its own marked set, and rounds exactly as
``run_grover`` does on each row.  Both carry the register sum from step
to step instead of reducing the register again: a call reduces each row
once, when it starts, and a step then makes one read-modify-write pass
over the amplitudes.  ``get_impl``, ``available_backends`` and
``backend_name`` name the numpy implementation for callers that report or
time the kernel.
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


def run_grover_block(block: np.ndarray, marked: np.ndarray, steps: int) -> None:
    """Apply ``steps`` Grover iterations to every row of ``block`` in place.

    Row b is searched with its own marked set ``marked[b]``.  The kernel
    carries a ``(B, 1)`` column of row sums through the recurrence of
    ``run_grover``, with the same operations in the same order, so every
    row ends bit-identical to ``run_grover`` applied to that row alone.
    The column and the gathered ``(B, r)`` cells live in buffers allocated
    once per call.

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
    cells = np.arange(rows, dtype=np.intp)[:, None] * num_states + marked
    gathered = np.empty(cells.shape, dtype=block.dtype)
    sums = np.add.reduce(block, axis=1, keepdims=True)
    marked_sums, twice_marked, next_sums, twice_mean = np.empty((4, rows, 1), dtype=block.dtype)
    scale = np.array(2.0 / num_states, dtype=block.dtype)
    # Each (1,) view of ``twice_mean`` is subtracted from its row as a scalar.
    row_means = list(zip(twice_mean, block))
    for _ in range(steps):
        # mode="wrap" skips take's buffered bounds check; the indices were
        # checked above.
        flat.take(cells, out=gathered, mode="wrap")
        np.add.reduce(gathered, axis=1, keepdims=True, out=marked_sums)
        np.add(marked_sums, marked_sums, out=twice_marked)
        # A binary ufunc writing over one of its inputs pays for an overlap
        # check that costs more than this subtract, so the new sums go to
        # the other buffer.
        np.subtract(sums, twice_marked, out=next_sums)
        sums, next_sums = next_sums, sums
        np.negative(gathered, out=gathered)
        flat[cells] = gathered
        np.multiply(sums, scale, out=twice_mean)
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
