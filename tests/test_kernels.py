import numpy as np
import pytest

from groverdyn import MarkedSet, QuantumState, apply_diffusion, apply_oracle
from groverdyn._kernels import available_backends, backend_name, get_impl, run_grover


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
