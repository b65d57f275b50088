"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

import functools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from groverdyn import (
    MarkedSet,
    ProductState,
    analytic_success,
    averaged_success,
    build_fixed_point,
    build_state,
    compute_params,
    detect_cycle,
    evolve,
    grid_search_oracle,
    grover_iterate,
    inner_product,
    optimize_product,
    sweep_marked_sets,
)
from helpers import random_state, two_cycle_state


def criterion(num, description, budget_s=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {description}")
                raise
            elapsed = time.perf_counter() - start
            if budget_s is not None:
                assert elapsed < budget_s, (
                    f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
                )
            print(f"\n[PASS] criterion {num}: {description} ({elapsed:.1f}s)")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def randomized_pairs():
    """50 randomized (state, marked set) pairs with their trajectories."""
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    records = []
    for _ in range(50):
        n = int(rng.integers(4, 13))
        r = int(rng.integers(1, 9))
        state = random_state(n, rng)
        indices = rng.choice(1 << n, size=r, replace=False)
        marked = MarkedSet(1 << n, tuple(int(i) for i in indices))
        params = compute_params(state, marked)
        trajectory = evolve(state, marked, 4 * params.tau)
        records.append((params, trajectory))
    return records, time.perf_counter() - start


@criterion(1, "simulated vs closed-form P(t) within 1e-10 on 50 random pairs",
           budget_s=60)
def test_exact_dynamics_equivalence(randomized_pairs):
    records, build_time = randomized_pairs
    assert build_time < 55
    worst = 0.0
    for params, trajectory in records:
        for step in trajectory.steps:
            worst = max(worst, abs(step.p_marked - analytic_success(params, step.t)))
    print(f"  max |P_sim - P_analytic| = {worst:.3e}")
    assert worst < 1e-10


@criterion(2, "sigma_m and sigma_u constant along every trajectory within 1e-11")
def test_constants_of_motion(randomized_pairs):
    records, _ = randomized_pairs
    worst = 0.0
    for _, trajectory in records:
        first = trajectory.steps[0].moments
        for step in trajectory.steps:
            worst = max(
                worst,
                abs(step.moments.sigma_m - first.sigma_m),
                abs(step.moments.sigma_u - first.sigma_u),
            )
    print(f"  max sigma drift = {worst:.3e}")
    assert worst < 1e-11


@criterion(3, "original algorithm: P(tau=25) >= 1 - 5/sqrt(1024) at n=10, r=1")
def test_original_algorithm_performance():
    trajectory = evolve(build_state("eta", 10), MarkedSet(1024, (7,)), 25)
    p_tau = trajectory.steps[-1].p_marked
    print(f"  P(25) = {p_tau:.6f}")
    assert p_tau >= 1 - 5 / math.sqrt(1024)


@criterion(4, "exhaustive single-marked averages at n=10: GHZ 2/N, W n/N",
           budget_s=120)
def test_ghz_and_w_averaged_success():
    num_states = 1024
    slack = 10 / math.sqrt(num_states)
    ghz = sweep_marked_sets(build_state("ghz", 10), 1)
    assert ghz.exhaustive and ghz.num_sets == num_states
    print(f"  GHZ mean P(tau) = {ghz.mean_p:.6f}, prediction {2 / num_states:.6f}")
    assert abs(ghz.mean_p - 2 / num_states) < slack

    w = sweep_marked_sets(build_state("w", 10), 1)
    print(f"  W mean P(tau) = {w.mean_p:.6f}, prediction {10 / num_states:.6f}")
    assert abs(w.mean_p - 10 / num_states) < slack


@criterion(5, "P_s independent of r: means for r=1 and r=2 within 10/sqrt(N)")
def test_r_independence():
    num_states = 1024
    slack = 10 / math.sqrt(num_states)
    worst = 0.0
    for i in range(10):
        state = build_state("haar", 10, seed=i)
        one = sweep_marked_sets(state, 1, seed=i)
        assert one.exhaustive
        # the exhaustive simulated average also matches N*|mean amplitude|^2
        assert abs(one.mean_p - one.analytic_prediction) < slack
        two = sweep_marked_sets(state, 2, samples=2000, seed=i)
        assert two.num_sets >= 2000
        worst = max(worst, abs(one.mean_p - two.mean_p))
    print(f"  max |mean(r=1) - mean(r=2)| = {worst:.4f}"
          f" = {worst * math.sqrt(num_states):.2f}/sqrt(N)")
    assert worst < slack


@criterion(6, "zero-mean marked superpositions are fixed points to 1e-12")
def test_fixed_points():
    marked2 = MarkedSet(256, (11, 42))
    pair = build_fixed_point(marked2, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    fid = abs(inner_product(pair, grover_iterate(pair, marked2))) ** 2
    assert fid >= 1 - 1e-12

    marked3 = MarkedSet(256, (3, 77, 200))
    roots = np.exp(2j * np.pi * np.arange(3) / 3) / math.sqrt(3)
    triple = build_fixed_point(marked3, roots)
    fid3 = abs(inner_product(triple, grover_iterate(triple, marked3))) ** 2
    assert fid3 >= 1 - 1e-12


@criterion(7, "zero-mean states return after two iterations; detected period 2")
def test_two_cycle():
    marked = MarkedSet(64, (5, 20))
    state = two_cycle_state(marked)
    after_two = grover_iterate(grover_iterate(state, marked), marked)
    assert abs(inner_product(state, after_two)) ** 2 >= 1 - 1e-12
    assert detect_cycle(state, marked, 10) == 2


@criterion(8, "equal superposition with N/r = 4 cycles with period 6")
def test_period_six_cycle():
    state = build_state("eta", 4)
    marked = MarkedSet(16, (0, 1, 2, 3))
    assert detect_cycle(state, marked, 12, tol=1e-10) == 6


@criterion(9, "Groverian measure: product states, GHZ_3 vs oracle, 20 random states",
           budget_s=300)
def test_groverian_measure():
    rng = np.random.default_rng(99)
    factors = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    product = ProductState(factors).to_state()
    g_product = optimize_product(product, restarts=32, seed=0).g
    print(f"  G(product) = {g_product:.2e}")
    assert g_product < 1e-4

    ghz = build_state("ghz", 3)
    oracle_p = grid_search_oracle(ghz, 200)
    print(f"  oracle(GHZ_3, res 200) = {oracle_p:.6f}")
    assert 0.5 - 1e-3 <= oracle_p <= 0.5 + 1e-12
    g_ghz = optimize_product(ghz, restarts=32, seed=0).g
    assert abs(g_ghz - math.sqrt(0.5)) < 1e-4

    worst = 0.0
    for _ in range(20):
        state = random_state(3, rng)
        p_opt = optimize_product(state, restarts=32, seed=0).p_max
        p_oracle = grid_search_oracle(state, 100)
        worst = max(worst, abs(p_opt - p_oracle))
    print(f"  max |optimizer - oracle| over 20 states = {worst:.2e}")
    assert worst < 1e-3


@criterion(10, "zero-mean states: averaged success < 10/sqrt(N), matches sweep")
def test_zero_mean_states():
    num_states = 1024
    slack = 10 / math.sqrt(num_states)
    worst_gap = 0.0
    for i in range(10):
        state = build_state("zero_mean", 10, seed=i)
        predicted = averaged_success(state)
        assert predicted < slack
        summary = sweep_marked_sets(state, 1, seed=i)
        assert summary.exhaustive
        worst_gap = max(worst_gap, abs(summary.mean_p - predicted))
    print(f"  max |simulated mean - prediction| = {worst_gap:.4f}"
          f" = {worst_gap * math.sqrt(num_states):.2f}/sqrt(N)")
    assert worst_gap < slack


@criterion(11, "avg-success CLI runs with the same seed are byte-identical")
def test_cli_determinism(tmp_path):
    state_file = tmp_path / "state.json"
    make = [
        sys.executable, "-m", "groverdyn", "state", "make", "haar",
        "--n", "10", "--seed", "3", "--out", str(state_file),
    ]
    assert subprocess.run(make, capture_output=True).returncode == 0

    outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "groverdyn", "avg-success",
            "--state", str(state_file), "--n", "10", "--r", "2",
            "--samples", "2000", "--seed", "7", "--out", str(out),
        ]
        result = subprocess.run(cmd, capture_output=True)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["num_sets"] == 2000
