import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverdyn import MarkedSet, QuantumState
from groverdyn._kernels import (
    available_backends,
    backend_name,
    get_impl,
    run_grover,
    run_grover_block,
)
from helpers import apply_diffusion, apply_oracle


def random_problem(n, r, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    marked = np.sort(rng.choice(1 << n, size=r, replace=False)).astype(np.intp)
    return amps, marked


def test_active_backend_is_registered():
    assert backend_name() in available_backends()
    assert get_impl(backend_name()).run_grover is run_grover


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_impl("fortran")


@pytest.mark.parametrize("n, r, steps", [(4, 1, 7), (8, 5, 50), (10, 8, 200)])
def test_kernel_matches_oracle_then_diffusion(n, r, steps):
    amps, idx = random_problem(n, r, seed=n)
    marked = MarkedSet(1 << n, tuple(int(i) for i in idx))
    reference = QuantumState(n, amps)
    for _ in range(steps):
        reference = apply_diffusion(apply_oracle(reference, marked))
    run_grover(amps, idx, steps)
    assert np.max(np.abs(amps - reference.amplitudes)) < 1e-13


@pytest.mark.parametrize(
    "n, r, steps, rows",
    [
        (1, 1, 3, 1),
        (4, 1, 7, 1),
        (6, 2, 20, 5),
        (8, 5, 50, 3),
        (10, 8, 30, 4),
        (7, 9, 12, 16),
        # Full blocks of the sweep's default size (32 rows at n = 10, 8 at
        # n = 12), one row and a partial last block.
        (10, 3, 25, 32),
        (12, 1, 25, 1),
        (12, 2, 25, 8),
        (12, 4, 25, 3),
        # numpy sums more than 8 elements pairwise: the marked sums of
        # these rows take that path.
        (10, 12, 30, 4),
        (12, 17, 25, 8),
    ],
)
def test_block_kernel_matches_single_vector_kernel(n, r, steps, rows):
    amps, _ = random_problem(n, r, seed=n)
    rng = np.random.default_rng(n + r)
    marked = np.array(
        [np.sort(rng.choice(1 << n, size=r, replace=False)) for _ in range(rows)],
        dtype=np.intp,
    )
    # The block is the leading rows of a longer buffer, as a sweep's last
    # block is; the row past it must stay untouched.
    buffer = np.broadcast_to(amps, (rows + 1, 1 << n)).copy()
    block = buffer[:rows]
    run_grover_block(block, marked, steps)
    for row, indices in zip(block, marked):
        reference = amps.copy()
        run_grover(reference, indices, steps)
        assert np.max(np.abs(row - reference)) < 1e-13
        # Same operations in the same order: the rows are bit-identical.
        assert np.array_equal(row, reference)
    assert np.array_equal(buffer[rows], amps)


@pytest.mark.parametrize("bad", [-1, 16])
def test_block_kernel_rejects_index_outside_its_row(bad):
    block = np.full((2, 16), 0.25, dtype=np.complex128)
    with pytest.raises(IndexError, match="marked indices"):
        run_grover_block(block, np.array([[3], [bad]], dtype=np.intp), 1)
    assert np.all(block == 0.25)


@pytest.mark.parametrize(
    "block, marked, message",
    [
        (np.full((16, 2), 0.25, dtype=np.complex128).T, np.zeros((2, 1), np.intp), "C-contiguous"),
        (np.full((2, 16), 0.25, dtype=np.complex128), np.zeros((1, 1), np.intp), "1 rows"),
    ],
)
def test_block_kernel_rejects_malformed_block(block, marked, message):
    with pytest.raises(ValueError, match=message):
        run_grover_block(block, marked, 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    eta=st.booleans(),
    steps=st.integers(0, 300),
    data=st.data(),
)
def test_returned_sum_tracks_the_register(n, seed, eta, steps, data):
    num_states = 1 << n
    r = data.draw(st.integers(1, min(num_states - 1, 20)), label="r")
    amps, marked = random_problem(n, r, seed)
    if eta:
        amps[:] = 1 / np.sqrt(num_states)
    threaded = amps.copy()
    total = run_grover(amps, marked, steps)
    assert abs(total - np.add.reduce(amps)) <= 1e-13
    # Passed from call to call, the sum makes 1-step calls round as one call.
    carried = run_grover(threaded, marked, 0)
    assert carried == np.add.reduce(threaded)
    for _ in range(steps):
        carried = run_grover(threaded, marked, 1, carried)
    assert carried == total
    assert np.array_equal(threaded, amps)
