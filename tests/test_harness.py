import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverdyn import (
    ConfigurationError,
    QuantumState,
    averaged_success,
    build_state,
    compare_run,
    evolve,
    load_state,
    resolve_state,
    save_state,
    sweep_marked_sets,
)
from groverdyn import _kernels, core, harness, optimal_iterations, simulator
from groverdyn._kernels import run_grover
from groverdyn.harness import (
    _marked_sets,
    _sweep_plan,
    write_json,
)
from groverdyn.simulator import MAX_TRAJECTORY_STEPS
from helpers import (
    assert_no_child,
    random_marked_set,
    random_state,
    reference_marked_sets,
    split_writer,
    traced_peak,
    two_cycle_state,
)
from groverdyn import MarkedSet


def test_build_state_eta_and_basis():
    eta = build_state("eta", 3)
    assert np.allclose(eta.amplitudes, np.full(8, 1 / math.sqrt(8)))
    basis = build_state("basis", 3, k=5)
    assert basis.amplitudes[5] == 1.0
    assert np.sum(np.abs(basis.amplitudes)) == 1.0


def test_build_state_ghz():
    ghz = build_state("ghz", 3)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    assert np.allclose(ghz.amplitudes, expected)


def test_build_state_w():
    w = build_state("w", 3)
    expected = np.zeros(8, dtype=complex)
    expected[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(w.amplitudes, expected)


def test_build_state_zero_mean():
    state = build_state("zero_mean", 6, seed=9)
    assert abs(np.mean(state.amplitudes)) < 1e-16
    assert averaged_success(state) < 10 / math.sqrt(64)


def test_build_state_haar_is_seed_deterministic():
    a = build_state("haar", 5, seed=123)
    b = build_state("haar", 5, seed=123)
    c = build_state("haar", 5, seed=124)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_build_state_k_uniform():
    state = build_state("k_uniform", 4, k=5)
    assert np.allclose(state.amplitudes[:5], 1 / math.sqrt(5))
    assert np.all(state.amplitudes[5:] == 0)
    assert abs(averaged_success(state) - 5 / 16) < 1e-12


def test_build_state_errors():
    with pytest.raises(ValueError, match="unknown state builder"):
        build_state("bell", 2)
    with pytest.raises(ValueError, match="seed"):
        build_state("haar", 3)
    with pytest.raises(ValueError, match="k_uniform"):
        build_state("k_uniform", 3, k=0)
    with pytest.raises(ValueError, match="basis"):
        build_state("basis", 3, k=8)
    # A fractional k is refused by name, not as an IndexError or TypeError
    # from the indexing it reaches.
    for name in ("basis", "k_uniform"):
        with pytest.raises(ValueError, match="k must be an integer"):
            build_state(name, 3, k=2.5)
    with pytest.raises(ValueError):
        build_state("eta", 25)


def test_resolve_state_round_trip(tmp_path):
    path = tmp_path / "w.json"
    save_state(build_state("w", 4), path)
    state = resolve_state(str(path), 4)
    assert np.allclose(state.amplitudes, build_state("w", 4).amplitudes)
    with pytest.raises(ValueError, match="n="):
        resolve_state(str(path), 5)


def test_resolve_state_hints_for_parameterized_builders():
    with pytest.raises(ValueError, match="state make"):
        resolve_state("k_uniform", 4)


def test_config_validation():
    with pytest.raises(ValueError):
        resolve_state("eta", 0)
    # The sweep plan checks its arguments before any marked set is built.
    eta = build_state("eta", 3)
    with mock.patch.object(harness, "_marked_sets", side_effect=AssertionError("built")):
        with pytest.raises(ValueError):
            sweep_marked_sets(eta, 8)
        with pytest.raises(ValueError):
            sweep_marked_sets(eta, 1, samples=0)
        with pytest.raises(ValueError, match="seed"):
            sweep_marked_sets(eta, 1, samples=5, seed=None)


def test_sweep_reports_numpy_integer_arguments_as_ints(tmp_path):
    # r, samples and seed from numpy arithmetic are stored as Python ints,
    # so the summary writes as JSON.
    summary = sweep_marked_sets(
        build_state("eta", 4), np.int64(2), samples=np.int64(5), seed=np.int64(3)
    )
    assert type(summary.r) is int and type(summary.seed) is int
    out = tmp_path / "avg.json"
    write_json(out, summary.to_json_dict())
    assert json.loads(out.read_text())["r"] == 2


@pytest.mark.parametrize(
    "field, run",
    [
        ("samples", lambda: sweep_marked_sets(build_state("eta", 3), 1, samples=2.5)),
        ("t_max", lambda: compare_run(build_state("eta", 3), MarkedSet(8, (1,)), 2.5)),
    ],
    ids=["samples", "t_max"],
)
def test_config_rejects_non_integer_counts(field, run):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        run()


def test_config_bounds_t_max_like_evolve():
    eta, marked = build_state("eta", 1), MarkedSet(2, (0,))
    report = compare_run(eta, marked, MAX_TRAJECTORY_STEPS)
    assert report.rows[-1].t == MAX_TRAJECTORY_STEPS
    with pytest.raises(ValueError, match="t_max must be in"):
        compare_run(eta, marked, MAX_TRAJECTORY_STEPS + 1)
    with pytest.raises(ValueError, match="t_max must be in"):
        compare_run(eta, marked, -1)


def test_config_rejects_non_integer_marked_index():
    with pytest.raises(ValueError, match="marked index must be an integer"):
        MarkedSet(8, (1.7,))


def test_config_validates_marked_set_like_marked_set():
    # compare_run takes its marked set from MarkedSet, which refuses
    # repeated and out-of-range indices and sorts the rest.
    with pytest.raises(ValueError, match="distinct"):
        MarkedSet(8, (1, 1))
    with pytest.raises(ValueError, match=r"\[0, 8\)"):
        MarkedSet(8, (9,))
    assert compare_run(build_state("eta", 3), MarkedSet(8, (5, 1)), 0).marked == (1, 5)


def test_sweep_eta_exhaustive_single_marked():
    summary = sweep_marked_sets(build_state("eta", 8), 1)
    assert summary.exhaustive
    assert summary.num_sets == 256
    assert summary.mean_p >= 0.99
    assert abs(summary.analytic_prediction - 1.0) < 1e-12


def test_sweep_ghz_matches_prediction():
    summary = sweep_marked_sets(build_state("ghz", 8), 1)
    num_states = 256
    assert abs(summary.mean_p - 2 / num_states) < 10 / math.sqrt(num_states)
    assert abs(summary.analytic_prediction - 2 / num_states) < 1e-12


def test_sampled_sweep_is_deterministic_and_consistent():
    state = build_state("haar", 8, seed=5)
    first = sweep_marked_sets(state, 1, samples=120, seed=5)
    second = sweep_marked_sets(state, 1, samples=120, seed=5)
    assert first.p_values == second.p_values
    assert not first.exhaustive

    exhaustive = sweep_marked_sets(state, 1, seed=5)
    assert exhaustive.exhaustive
    spread = 3 * max(first.std_error, 1e-6)
    assert abs(first.mean_p - exhaustive.mean_p) <= spread


def per_set_p_values(state, r, samples, seed):
    """P(tau) of each selected set from its own single-vector kernel run."""
    tau = optimal_iterations(state.n, r)
    _, _, total, count, seed = _sweep_plan(state.n, r, samples, seed)
    p_values = []
    for indices in _marked_sets(state.dim, r, total, count, seed):
        idx = np.asarray(indices, dtype=np.intp)
        amps = state.amplitudes.copy()
        run_grover(amps, idx, tau)
        p_values.append(float(np.sum(np.abs(amps[idx]) ** 2)))
    return tuple(p_values)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    r=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    samples=st.one_of(st.none(), st.integers(1, 60)),
    rows=st.integers(1, 7),
)
def test_sweep_matches_per_set_loop(n, r, seed, samples, rows):
    # samples=None enumerates every set; a block of `rows` rows mostly
    # leaves a partial last block.
    r = min(r, (1 << n) - 1)
    if samples is None and math.comb(1 << n, r) > 2000:
        samples = 60
    state = build_state("haar", n, seed=seed)
    with mock.patch.object(harness, "_BLOCK_CELLS", rows * r):
        summary = sweep_marked_sets(state, r, samples, seed)
    assert summary.p_values == per_set_p_values(state, r, samples, seed)


@pytest.mark.parametrize(
    "n, r, samples",
    [(10, 1, 100), (11, 1, 40), (12, 2, 20), (3, 2, None), (12, 2047, 40)],
)
def test_sweep_matches_per_set_loop_at_default_block_size(n, r, samples):
    # A block holds 2^15 marked cells, 2^15 // r sets.  The first four
    # sweeps fit in one partial block (32768 sets a block at r = 1, 16384
    # at r = 2); 40 sets of r = 2047 take blocks of 16, 16 and a partial 8.
    state = build_state("haar", n, seed=11)
    summary = sweep_marked_sets(state, r, samples, 11)
    assert summary.p_values == per_set_p_values(state, r, samples, 11)


# _marked_sets(64, 2, 2016, 100, seed=3) as drawn one set at a time; the
# draws for counts up to half of C(N, r) must not change.
_PINNED_SAMPLE = [
    (5, 51), (11, 14), (37, 54), (5, 21), (30, 39), (10, 44), (2, 7), (24, 56), (26, 27),
    (11, 36), (47, 61), (17, 20), (40, 44), (18, 60), (4, 62), (8, 18), (2, 57), (15, 36),
    (11, 49), (1, 16), (23, 32), (5, 38), (32, 59), (13, 38), (15, 19), (18, 46), (13, 41),
    (52, 53), (0, 43), (51, 58), (48, 60), (24, 55), (24, 57), (9, 24), (44, 51), (39, 55),
    (17, 33), (25, 63), (38, 59), (11, 50), (11, 47), (20, 36), (30, 58), (15, 54), (10, 56),
    (39, 61), (32, 38), (38, 50), (49, 62), (23, 33), (5, 17), (13, 45), (31, 54), (4, 18),
    (19, 31), (35, 61), (1, 44), (34, 47), (44, 52), (18, 43), (10, 23), (5, 42), (4, 42),
    (19, 35), (2, 12), (8, 39), (30, 61), (45, 49), (24, 42), (33, 38), (24, 43), (19, 23),
    (5, 25), (21, 46), (30, 31), (5, 19), (4, 58), (35, 46), (0, 60), (53, 63), (8, 52),
    (30, 34), (21, 26), (30, 36), (20, 35), (10, 37), (6, 39), (24, 58), (44, 55), (6, 10),
    (32, 36), (42, 55), (12, 20), (53, 59), (15, 53), (8, 17), (17, 21), (34, 39), (59, 63),
    (26, 49),
]


def test_marked_sets_sampled_unique_and_seeded():
    sets = _marked_sets(64, 2, 2016, 100, seed=3)
    assert sets.dtype == np.intp and sets.shape == (100, 2)
    assert len(set(map(tuple, sets.tolist()))) == 100
    assert all(s[0] < s[1] for s in sets.tolist())
    assert np.array_equal(sets, _marked_sets(64, 2, 2016, 100, seed=3))
    assert [tuple(s) for s in sets.tolist()] == _PINNED_SAMPLE


class _CountingRng:
    """A numpy Generator that counts the draws made through it."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            self.draws += 1
            return method(*args, **kwargs)

        return draw


@pytest.mark.parametrize("num_states, r", [(64, 3), (16, 1), (10, 9)])
def test_marked_sets_above_half_takes_one_draw(num_states, r):
    # One set short of all C(N, r): drawing set by set until each is new
    # would be a coupon collector (C(64, 3) = 41664 sets, about 430,000
    # draws).
    total = math.comb(num_states, r)
    rngs = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        rngs.append(_CountingRng(default_rng(seed)))
        return rngs[-1]

    with mock.patch.object(np.random, "default_rng", counting_rng):
        sets = _marked_sets(num_states, r, total, total - 1, seed=8)
    assert [rng.draws for rng in rngs] == [1]
    assert sets.dtype == np.intp and sets.shape == (total - 1, r)
    assert len(set(map(tuple, sets.tolist()))) == total - 1
    assert all(
        s == sorted(s) and 0 <= s[0] and s[-1] < num_states for s in sets.tolist()
    )
    assert np.array_equal(sets, _marked_sets(num_states, r, total, total - 1, seed=8))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 20), seed=st.integers(0, 2**64))
def test_marked_sets_match_the_draw_by_draw_reference(data, n, seed):
    # r runs past _BLOCKED_DRAW_MAX_R, where each set is one choice call
    # again; counts reach half of C(N, r), where r = 1 repeats often.
    num_states = 1 << n
    r = data.draw(st.integers(1, min(num_states - 1, 2 * harness._BLOCKED_DRAW_MAX_R)), "r")
    total = harness._count_marked_sets(num_states, r)
    count = data.draw(st.integers(1, min(total // 2, 3000)), "count")
    sets = _marked_sets(num_states, r, total, count, seed)
    assert np.array_equal(sets, reference_marked_sets(num_states, r, count, seed))


@pytest.mark.parametrize(
    "n, r, count, seed",
    [(3, 1, 4, 0), (8, 1, 128, 2), (12, 1, 2048, 3), (12, 2, 2000, 11),
     (12, 64, 2000, 11), (12, 65, 300, 11), (20, 3, 5000, 1)],
)
def test_marked_sets_match_the_reference_at_the_edges(n, r, count, seed):
    # r = 1 at N/2 tops up many times; r = 64 and 65 sit on either side of
    # the cap.
    num_states = 1 << n
    total = harness._count_marked_sets(num_states, r)
    sets = _marked_sets(num_states, r, total, count, seed)
    assert np.array_equal(sets, reference_marked_sets(num_states, r, count, seed))


def test_marked_sets_draw_a_block_of_sets_a_call():
    # 2000 sets of r = 2 at N = 4096 are one block of 3 x 2000 draws, plus
    # a top-up call for any repeats, not one choice call a set.
    rngs = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        rngs.append(_CountingRng(default_rng(seed)))
        return rngs[-1]

    total = math.comb(4096, 2)
    with mock.patch.object(np.random, "default_rng", counting_rng):
        sets = _marked_sets(4096, 2, total, 2000, seed=11)
    assert len(rngs) == 1 and rngs[0].draws <= 3, [rng.draws for rng in rngs]
    assert np.array_equal(sets, reference_marked_sets(4096, 2, 2000, 11))


def test_blocked_sampler_peaks_no_higher_than_the_draw_by_draw_loop():
    # The blocked draws add one block of int64 at a time; keying repeats
    # on uint32 bytes saves more than that.  Both run once first, so that
    # neither peak counts what a first call allocates.
    num_states, r, count = 1 << 20, 3, 20_000
    total = harness._count_marked_sets(num_states, r)
    _marked_sets(num_states, r, total, 10, seed=0)
    reference_marked_sets(num_states, r, 10, seed=0)
    peak, sets = traced_peak(lambda: _marked_sets(num_states, r, total, count, seed=1))
    reference_peak, expected = traced_peak(
        lambda: reference_marked_sets(num_states, r, count, seed=1)
    )
    assert np.array_equal(sets, expected)
    assert peak <= reference_peak, (peak, reference_peak)


def test_forced_exhaustive_beyond_limit_is_configuration_error():
    # samples=C(N, r) forces an exhaustive sweep; C(1024, 2) = 523776 sets
    # is over the limit.
    with pytest.raises(ConfigurationError, match="exceeds"):
        sweep_marked_sets(build_state("eta", 10), 2, samples=math.comb(1024, 2))


def test_sample_count_beyond_limit_is_configuration_error():
    # Asking for at least all C(512, 2) = 130816 sets means enumerating them,
    # which is over the limit just as a forced exhaustive sweep is.
    with pytest.raises(ConfigurationError, match="exceeds"):
        sweep_marked_sets(build_state("eta", 9), 2, samples=200_000)


def test_sampled_sweep_beyond_limit_is_configuration_error():
    # The limit holds for sampled sweeps too, before any set is drawn.
    eta = build_state("eta", 12)
    with mock.patch.object(harness, "_marked_sets", side_effect=AssertionError("drew")):
        with pytest.raises(ConfigurationError, match="exceeds the limit"):
            sweep_marked_sets(eta, 2, samples=120_000, seed=1)


def test_sweep_index_limit_refuses_before_enumerating():
    # C(8192, 8191) = 8192 sets is under the set limit, but 8192 x 8191
    # indices are over MAX_SWEEP_INDICES: refused before any set is built.
    eta = build_state("eta", 13)
    with mock.patch.object(harness, "combinations", side_effect=AssertionError("enumerated")):
        with pytest.raises(ConfigurationError, match="MAX_SWEEP_INDICES"):
            sweep_marked_sets(eta, 8191)


class _Enumerated(Exception):
    """Raised by a stand-in for ``combinations`` once the selector calls it."""


def test_sweep_index_limit_admits_n12_r4095():
    # The plan passes the limits and the builder starts the one
    # enumeration; the stand-ins stop it there, before 128 MiB of indices
    # are built.
    assert 4096 * 4095 <= harness.MAX_SWEEP_INDICES < 8192 * 8191
    r, tau, total, count, seed = _sweep_plan(12, 4095, None, 0)
    assert (r, tau, total, count, seed) == (4095, optimal_iterations(12, 4095), 4096, 4096, 0)
    with mock.patch.object(harness, "combinations", side_effect=_Enumerated) as enumerate_sets:
        with pytest.raises(_Enumerated):
            _marked_sets(4096, r, total, count, seed)
    enumerate_sets.assert_called_once_with(range(4096), 4095)
    with mock.patch.object(harness, "_all_marked_sets", return_value="every set") as every:
        assert _marked_sets(4096, r, total, count, seed) == "every set"
    every.assert_called_once_with(4096, 4095, 4096)


@pytest.mark.parametrize("n", [22, 24])
@pytest.mark.parametrize(
    "samples, message",
    [(None, "MAX_SWEEP_INDICES"), (10, "MAX_SWEEP_INDICES"), (100_001, "exceeds the limit")],
)
def test_half_register_sweep_is_refused_without_the_exact_count(n, samples, message):
    # C(2^22, 2^21) alone took minutes to compute; the plan counts only
    # as far as its limits need.
    with mock.patch.object(harness.math, "comb", side_effect=AssertionError("exact count")):
        with pytest.raises(ConfigurationError, match=message):
            _sweep_plan(n, 1 << (n - 1), samples, 1)


@pytest.mark.parametrize(
    "num_states, r", [(6, 3), (20, 10), (64, 3), (1 << 12, 2), (1 << 12, 3), (1 << 12, 4093)]
)
def test_count_marked_sets_is_exact_up_to_the_cap(num_states, r):
    exact = math.comb(num_states, r)
    count = harness._count_marked_sets(num_states, r)
    if exact <= harness._COUNT_CAP:
        assert count == exact
    else:
        assert harness._COUNT_CAP < count <= exact


def test_sampler_holds_little_beyond_its_sets():
    # r = N - 1 drawn one set at a time: each draw is sorted and stored as
    # one intp row, and only the bytes of its indices are kept to spot
    # repeats.
    peak, sets = traced_peak(lambda: _marked_sets(1024, 1023, 1024, 200, seed=1))
    assert sets.shape == (200, 1023)
    assert peak <= 2.5 * sets.nbytes, peak / sets.nbytes


@pytest.mark.parametrize(
    "seed, message",
    [(-1, ">= 0, got -1"), (2.0, "an integer")],
    ids=["-1-a non-negative integer", "2.0-an integer"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda seed: sweep_marked_sets(build_state("eta", 3), 1, seed=seed),
        lambda seed: build_state("haar", 3, seed=seed),
        lambda seed: build_state("zero_mean", 3, seed=seed),
        lambda seed: build_state("eta", 3, seed=seed),
        lambda seed: build_state("basis", 3, k=2, seed=seed),
    ],
    ids=["config", "haar", "zero_mean", "eta", "basis"],
)
def test_seed_must_be_a_non_negative_integer(build, seed, message):
    with pytest.raises(ValueError, match=f"seed must be {message}"):
        build(seed)


def test_exhaustive_sweep_holds_its_sets_once():
    # r = N - 1 at n = 11: 2048 sets of 2047 indices, 32 MiB of intp, built
    # straight into one array.  Every set leaves eta at P = r/N (tau = 0).
    peak, summary = traced_peak(lambda: sweep_marked_sets(build_state("eta", 11), 2047))
    indices_bytes = 2048 * 2047 * np.dtype(np.intp).itemsize
    assert peak <= 1.25 * indices_bytes, peak / indices_bytes
    assert summary.exhaustive and summary.num_sets == 2048
    assert abs(summary.mean_p - 2047 / 2048) <= 1e-12


def test_sweep_holds_no_register_copy():
    # A sweep steps only the marked amplitudes: 200 sets of r = 1 at
    # n = 16 hold far less than the 1 MiB register they are drawn from.
    state = build_state("haar", 16, seed=3)
    peak, summary = traced_peak(lambda: sweep_marked_sets(state, 1, samples=200))
    assert summary.num_sets == 200
    assert peak < state.amplitudes.nbytes / 8, peak


def test_sample_count_capped_at_population():
    summary = sweep_marked_sets(build_state("eta", 4), 1, samples=1000, seed=1)
    assert summary.num_sets == 16
    assert summary.exhaustive


def test_compare_run_eta():
    report = compare_run(build_state("eta", 10), MarkedSet(1024, (7,)), 100)
    assert report.tau == 25
    assert len(report.rows) == 101
    assert report.max_abs_err < 1e-10


def test_compare_run_ghz_default_horizon():
    report = compare_run(build_state("ghz", 8), MarkedSet(256, (0,)))
    assert report.rows[-1].t == 4 * report.tau
    assert report.max_abs_err < 1e-10


def test_compare_run_two_cycle_state(tmp_path):
    marked = MarkedSet(16, (0, 5))
    state = two_cycle_state(marked)
    path = tmp_path / "twocycle.json"
    save_state(state, path)
    report = compare_run(load_state(path), marked, 40)
    assert report.delta_p < 1e-12
    p_values = [row.p_sim for row in report.rows]
    assert max(p_values) - min(p_values) < 1e-12
    assert report.max_abs_err < 1e-12


@pytest.mark.parametrize("t_max", [None, 0, 1, 37])
@pytest.mark.parametrize(
    "spec, n, marked",
    [("haar", 9, (3, 77, 400)), ("ghz", 10, (0, 5)), ("eta", 10, (7,)), ("two_cycle", 4, (0, 5))],
)
def test_compare_run_p_sim_is_evolve_p_marked(tmp_path, spec, n, marked, t_max):
    # compare_run steps only the marked cells; its P(t) column must be the
    # one evolve records from the whole register, bit for bit, at the
    # default horizon (4 tau) and at explicit ones.
    if spec == "two_cycle":
        spec = str(tmp_path / "two_cycle.json")
        save_state(two_cycle_state(MarkedSet(1 << n, marked)), spec)
    state = resolve_state(spec, n, seed=4)
    marked = MarkedSet(1 << n, marked)
    report = compare_run(state, marked, t_max)
    expected = evolve(state, marked, report.rows[-1].t)
    assert report.rows[-1].t == (4 * report.tau if t_max is None else t_max)
    assert [row.t for row in report.rows] == [step.t for step in expected.steps]
    assert np.array_equal(np.array([row.p_sim for row in report.rows]), expected.p_marked())


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 10),
    spec=st.sampled_from(["haar", "zero_mean", "eta"]),
    t_max=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_compare_run_p_sim_is_evolve_p_marked_at_every_step(data, n, spec, t_max, seed):
    r = data.draw(st.integers(1, (1 << n) - 1), label="r")
    rng = np.random.default_rng(seed)
    state = resolve_state(spec, n, seed=seed)
    marked = random_marked_set(n, r, rng)
    report = compare_run(state, marked, t_max)
    expected = evolve(state, marked, t_max).p_marked()
    assert np.array_equal(np.array([row.p_sim for row in report.rows]), expected)


def test_compare_run_checks_t_max_before_the_moments_pass():
    def refuse(*args, **kwargs):
        raise AssertionError("moments computed before t_max was checked")

    state, marked = build_state("haar", 8, seed=2), MarkedSet(256, (1, 200))
    with mock.patch.object(core, "_moments_from_array", refuse):
        with pytest.raises(ValueError, match="t_max must be in"):
            compare_run(state, marked, -1)
        with pytest.raises(ValueError, match="t_max must be an integer"):
            compare_run(state, marked, 2.5)


def test_compare_run_refuses_a_marked_set_of_another_register_first():
    # The default horizon reads r from the marked set: r = 5 is out of
    # range for 4 states, but the error names the mismatch.
    with pytest.raises(ValueError, match="defined over 8 states but the register has 4"):
        compare_run(build_state("eta", 2), MarkedSet(8, (0, 1, 2, 3, 4)))


def test_compare_run_steps_no_register():
    # P(t) needs only the marked cells: the register kernel is never called.
    state, marked = build_state("haar", 8, seed=2), MarkedSet(256, (1, 200))
    expected = compare_run(state, marked, 30)

    def refuse(*args, **kwargs):
        raise AssertionError("compare_run stepped the whole register")

    with mock.patch.object(_kernels, "run_grover", refuse):
        assert compare_run(state, marked, 30) == expected


def test_compare_run_computes_moments_once():
    # The closed form's parameters need one moments pass; the stepping
    # loop reads only P(t).
    calls = []
    moments_from_array = core._moments_from_array

    def counting(*args, **kwargs):
        calls.append(1)
        return moments_from_array(*args, **kwargs)

    state = build_state("haar", 8, seed=2)
    with mock.patch.object(core, "_moments_from_array", counting), \
            mock.patch.object(simulator, "_moments_from_array", counting):
        report = compare_run(state, MarkedSet(256, (1, 200)), 30)
    assert len(report.rows) == 31
    assert len(calls) == 1


def _snapshot_bytes_both_ways(trajectory):
    with tempfile.TemporaryDirectory() as tmp:
        chunked = Path(tmp, "chunked.json")
        trajectory.write_snapshots(chunked)
        reference = json.dumps({
            "n": trajectory.n,
            "states": [
                [[float(a.real), float(a.imag)] for a in step.state.amplitudes]
                for step in trajectory.steps
            ],
        }) + "\n"
        return chunked.read_bytes(), reference.encode()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    steps=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    signed_zeros=st.booleans(),
    data=st.data(),
)
def test_write_snapshots_matches_json_dumps(n, steps, seed, signed_zeros, data):
    # A chunk of 1 to 2^n + 1 amplitudes: most snapshots span several.
    chunk = data.draw(st.integers(1, (1 << n) + 1), label="chunk")
    rng = np.random.default_rng(seed)
    amps = random_state(n, rng).amplitudes.copy()
    if signed_zeros:
        amps[::2] = complex(-0.0, -0.0)
    state = QuantumState.renormalized(n, amps)
    marked = random_marked_set(n, int(rng.integers(1, 1 << n)), rng)
    trajectory = evolve(state, marked, steps, record_full_states=True)
    with mock.patch.object(core, "_SAVE_CHUNK", chunk):
        chunked, reference = _snapshot_bytes_both_ways(trajectory)
    assert chunked == reference


def test_write_snapshots_matches_json_dumps_at_default_chunk():
    # 2^15 amplitudes per snapshot: two chunks of the default size each.
    state = random_state(15, np.random.default_rng(3))
    trajectory = evolve(state, MarkedSet(1 << 15, (9, 30000)), 1, record_full_states=True)
    chunked, reference = _snapshot_bytes_both_ways(trajectory)
    assert chunked == reference


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
def test_write_snapshots_in_parts_matches_json_dumps(monkeypatch, parts):
    # 3 snapshots of 2^6 amplitudes, each cut into parts of uneven length.
    state = random_state(6, np.random.default_rng(4))
    trajectory = evolve(state, MarkedSet(64, (5, 40)), 2, record_full_states=True)
    formatted = split_writer(monkeypatch, parts)
    monkeypatch.setattr(core, "_SAVE_CHUNK", 7)
    chunked, reference = _snapshot_bytes_both_ways(trajectory)
    assert chunked == reference
    # This process formats the first part of each snapshot.
    assert formatted == [2 * (64 // parts)] * 3
    assert_no_child()


def test_write_snapshots_needs_snapshots(tmp_path):
    trajectory = evolve(build_state("eta", 2), MarkedSet(4, (1,)), 1)
    with pytest.raises(ValueError, match="no snapshots"):
        trajectory.write_snapshots(tmp_path / "s.json")
