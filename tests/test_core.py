import gc
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import groverdyn
from groverdyn import (
    MarkedSet,
    ProductState,
    QuantumState,
    apply_local_unitaries,
    build_fixed_point,
    build_state,
    classify,
    inner_product,
    load_state,
    moments,
    optimize_product,
    save_state,
)
from groverdyn import core
from groverdyn.core import _SAVE_CHUNK, _moments_from_array
from helpers import (
    assert_no_child,
    random_marked_set,
    random_state,
    reference_load_state,
    split_writer,
    traced_peak,
)


@pytest.mark.parametrize(
    "call, message",
    [
        # Squares and means of these weights overflow; the norm test,
        # made first, refuses them.
        (lambda: build_fixed_point(MarkedSet(4, (0, 1)), [1e200, -1e200]), "unit norm"),
        (lambda: build_fixed_point(MarkedSet(8, (0, 1, 2, 3)), [1e308, 1e308, -1e308, -1e308]),
         "unit norm"),
        (lambda: apply_local_unitaries(build_state("eta", 1), [[[1e200, 0], [0, 1]]]),
         "not unitary"),
        (lambda: ProductState(np.array([[1e200, 0]])), "unit norm"),
        (lambda: ProductState(np.array([[math.nan, 0]])), "unit norm"),
        # operator.index takes a bool as 0 or 1; the integer checker does not.
        (lambda: build_state("eta", True), "n must be an integer, got True"),
        (lambda: MarkedSet(4, (True,)), "marked index must be an integer, got True"),
        (lambda: optimize_product(build_state("eta", 2), restarts=True),
         "restarts must be an integer, got True"),
        (lambda: classify(build_state("eta", 3), MarkedSet(8, (1,)), tol=True),
         "tol must be positive and finite, got True"),
    ],
    ids=["fixed-point-square", "fixed-point-mean", "unitary", "factor-inf", "factor-nan",
         "bool-n", "bool-index", "bool-restarts", "bool-tol"],
)
def test_library_refuses_without_a_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_state_requires_power_of_two_length():
    with pytest.raises(ValueError):
        QuantumState(2, np.ones(3, dtype=complex) / np.sqrt(3))


def test_state_rejects_bad_norm():
    with pytest.raises(ValueError, match="renormalized"):
        QuantumState(1, np.array([1.0, 1.0], dtype=complex))
    # abs(nan - 1) > tol is False, so a NaN norm needs its own failing test.
    with pytest.raises(ValueError, match="nan"):
        QuantumState(1, np.array([np.nan, 0.5], dtype=complex))


@pytest.mark.filterwarnings("error")
def test_state_with_an_entry_too_large_to_square_is_refused_without_a_warning():
    # 1e200 squares to inf: the norm check refuses it, and numpy warns of nothing.
    with pytest.raises(ValueError, match="norm\\^2 = inf"):
        QuantumState(1, np.array([1e200, 0.0]))


def test_state_rejects_n_zero():
    with pytest.raises(ValueError):
        QuantumState(0, np.array([1.0], dtype=complex))
    for n in (25, 10**8):
        with pytest.raises(ValueError, match=r"n must be in \[1, 24\]"):
            QuantumState(n, np.array([1.0], dtype=complex))


def test_renormalized_scales_to_unit_norm():
    state = QuantumState.renormalized(2, np.array([3.0, 0, 0, 4.0]))
    assert np.allclose(state.amplitudes, [0.6, 0, 0, 0.8])
    with pytest.raises(ValueError):
        QuantumState.renormalized(1, np.zeros(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="cannot normalize amplitudes with norm"):
            QuantumState.renormalized(1, np.array([bad, 0.5]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "amps, flow",
    [
        ([1e-200, 0.0], "underflows to 0"),
        ([1e-170, 1e-170], "underflows to 0"),
        ([1e200, 0.0], "overflows to inf"),
        ([1e200, 1e-200], "overflows to inf"),
    ],
)
def test_renormalized_names_a_norm_that_under_or_overflows_without_a_warning(amps, flow):
    # No entry is zero or infinite, but the sum of squares leaves float64.
    with pytest.raises(ValueError, match=f"sum of their squares {flow}"):
        QuantumState.renormalized(1, np.array(amps))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amps", [[1e-160, 0.0], [3e-155, 0.0], [1e-155, 1e-155]])
def test_renormalized_scales_amplitudes_whose_squares_are_subnormal(amps):
    # The sum of squares is below the smallest normal float64.
    state = QuantumState.renormalized(1, np.array(amps))
    assert abs(state.norm_sq() - 1.0) <= 1e-15


@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_renormalized_leaves_a_unit_norm_state_as_it_is(n, seed):
    state = random_state(n, np.random.default_rng(seed))
    again = QuantumState.renormalized(n, state.amplitudes)
    assert again.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_amplitudes_are_read_only():
    state = build_state("eta", 3)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_marked_set_validation():
    with pytest.raises(ValueError):
        MarkedSet(8, (1, 1))
    with pytest.raises(ValueError):
        MarkedSet(8, (8,))
    with pytest.raises(ValueError):
        MarkedSet(8, ())
    with pytest.raises(ValueError):
        MarkedSet(8, tuple(range(8)))  # nothing left unmarked
    ms = MarkedSet(8, (5, 1, 3))
    assert ms.indices == (1, 3, 5)
    assert ms.r == 3
    assert MarkedSet(2, (1,)).num_states == 2
    assert MarkedSet(1 << 24, (0,)).num_states == 1 << 24


@pytest.mark.parametrize(
    "num_states, message",
    [
        (12, "num_states must be a power of two, got 12"),
        (0, "num_states must be a power of two, got 0"),
        (-8, "num_states must be a power of two, got -8"),
        (1, r"n must be in \[1, 24\], got 0"),
        (1 << 25, r"n must be in \[1, 24\], got 25"),
        # Its mask would be 1 TiB of bools.
        (1 << 40, r"n must be in \[1, 24\], got 40"),
    ],
    ids=["12", "0", "-8", "1", "2^25", "2^40"],
)
def test_marked_set_owns_the_register_size(num_states, message):
    with pytest.raises(ValueError, match=message):
        MarkedSet(num_states, (0,))


def test_moments_equal_superposition():
    state = build_state("eta", 3)
    mom = moments(state, MarkedSet(8, (5,)))
    assert abs(mom.a_bar_m - 1 / math.sqrt(8)) < 1e-15
    assert abs(mom.a_bar_u - 1 / math.sqrt(8)) < 1e-15
    assert mom.sigma_m < 1e-15
    assert mom.sigma_u < 1e-15


def test_moments_single_basis_state():
    state = build_state("basis", 2, k=0)
    mom = moments(state, MarkedSet(4, (0,)))
    assert mom.a_bar_m == 1.0
    assert mom.a_bar_u == 0.0
    assert mom.sigma_m == 0.0
    assert mom.sigma_u == 0.0


def test_moments_ghz_against_brute_force():
    state = build_state("ghz", 3)
    marked = MarkedSet(8, (1,))
    mom = moments(state, marked)

    # brute-force summation oracle
    amps = state.amplitudes
    want_u = sum(amps[i] for i in range(8) if i != 1) / 7
    want_sigma_u = math.sqrt(sum(abs(amps[i] - want_u) ** 2 for i in range(8) if i != 1) / 7)
    assert abs(mom.a_bar_m - 0.0) < 1e-15
    assert abs(mom.a_bar_u - want_u) < 1e-15
    assert mom.sigma_m == 0.0
    assert abs(mom.sigma_u - want_sigma_u) < 1e-15
    # and the closed constants those sums equal
    assert abs(mom.a_bar_u - math.sqrt(2) / 7) < 1e-15


def test_moments_dimension_mismatch():
    with pytest.raises(ValueError, match="marked set"):
        moments(build_state("eta", 3), MarkedSet(4, (1,)))


def test_variance_identity_random_states():
    # sum |a_i|^2 = 1 split over the two groups:
    # r (sigma_m^2 + |abar_m|^2) + (N - r)(sigma_u^2 + |abar_u|^2) = 1.
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        state = random_state(n, rng)
        r = int(rng.integers(1, 1 << n))
        marked = random_marked_set(n, r, rng)
        mom = moments(state, marked)
        norm_sq = r * (mom.sigma_m**2 + abs(mom.a_bar_m) ** 2) + (state.dim - r) * (
            mom.sigma_u**2 + abs(mom.a_bar_u) ** 2
        )
        assert abs(norm_sq - 1.0) < 1e-12


def test_mean_decomposition_random_states():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        state = random_state(n, rng)
        r = int(rng.integers(1, 1 << n))
        marked = random_marked_set(n, r, rng)
        mom = moments(state, marked)
        lhs = state.dim * np.mean(state.amplitudes)
        rhs = r * mom.a_bar_m + (state.dim - r) * mom.a_bar_u
        assert abs(lhs - rhs) < 1e-12


def test_moments_invariant_under_within_group_permutation():
    rng = np.random.default_rng(13)
    n = 4
    state = random_state(n, rng)
    marked = MarkedSet(16, (2, 5, 11))
    mom = moments(state, marked)

    # swap amplitudes inside M and separately inside the complement
    amps = state.amplitudes.copy()
    amps[[2, 11]] = amps[[11, 2]]
    amps[[0, 7]] = amps[[7, 0]]
    mom2 = moments(QuantumState(n, amps), marked)
    for field in ("a_bar_m", "a_bar_u", "sigma_m", "sigma_u"):
        assert abs(getattr(mom, field) - getattr(mom2, field)) < 1e-15



def _reference_moments(amps, mask):
    # Brute force: boolean-mask gathers, then the two-pass mean and spread.
    groups = []
    for part in (amps[mask], amps[~mask]):
        mean = part.mean()
        groups.append((complex(mean), math.sqrt(float(np.mean(np.abs(part - mean) ** 2)))))
    (a_bar_m, sigma_m), (a_bar_u, sigma_u) = groups
    return a_bar_m, a_bar_u, sigma_m, sigma_u


@st.composite
def _states_and_marked_sets(draw):
    n = draw(st.integers(1, 10))
    num_states = 1 << n
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["haar", "zero_mean", "ghz", "w", "eta"]))
    if kind == "haar":
        state = random_state(n, np.random.default_rng(seed))
    else:
        state = build_state(kind, n, seed=seed if kind == "zero_mean" else None)
    r = draw(st.one_of(st.just(1), st.just(num_states - 1), st.integers(1, num_states - 1)))
    return state, random_marked_set(n, r, np.random.default_rng(seed + 1))


@settings(max_examples=200, deadline=None)
@given(case=_states_and_marked_sets())
# eta with r = N - 1: the total less the marked sum alone is off by 2.5e-15.
@example(case=(build_state("eta", 7), MarkedSet(128, tuple(range(1, 128)))))
def test_moments_match_brute_force_reference(case):
    state, marked = case
    # state.amplitudes is read-only: a write into the input would raise.
    got = _moments_from_array(state.amplitudes, marked)
    want = _reference_moments(state.amplitudes, marked.mask)
    for g, w in zip((got.a_bar_m, got.a_bar_u, got.sigma_m, got.sigma_u), want):
        assert abs(g - w) <= 1e-15
    # A work buffer left over from another state's call gives the same
    # values, and a writable input comes back unchanged.
    rng = np.random.default_rng(0)
    work = np.empty(state.dim, dtype=np.complex128)
    _moments_from_array(random_state(state.n, rng).amplitudes,
                        random_marked_set(state.n, marked.r, rng), work)
    amps = state.amplitudes.copy()
    assert _moments_from_array(amps, marked, work) == got
    assert _moments_from_array(amps, marked, work) == got
    assert np.array_equal(amps, state.amplitudes)

def test_inner_product_examples():
    eta = build_state("eta", 3)
    assert abs(inner_product(eta, eta) - 1.0) < 1e-14

    zero = build_state("basis", 1, k=0)
    one = build_state("basis", 1, k=1)
    assert inner_product(zero, one) == 0.0

    ghz = build_state("ghz", 3)
    # brute force: two nonzero terms, each (1/sqrt 8)(1/sqrt 2)
    assert abs(inner_product(eta, ghz) - 0.5) < 1e-14


def test_inner_product_bounded_for_random_states():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a, b = random_state(n, rng), random_state(n, rng)
        assert abs(inner_product(a, b)) ** 2 <= 1 + 1e-12


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(build_state("eta", 2), build_state("eta", 3))


def test_all_lists_every_public_name_once():
    exported = groverdyn.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(groverdyn, name), name
    public = {
        name
        for name, value in vars(groverdyn).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert sorted(public - set(exported)) == []


# The files of one example are overwritten by the next, so sharing
# tmp_path between examples is safe.
_FILE_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FILE_SETTINGS
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_state_file_round_trip(tmp_path, n, seed):
    state = random_state(n, np.random.default_rng(seed))
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.n == n
    assert loaded.amplitudes.tobytes() == state.amplitudes.tobytes()


def _reference_save_state(state, path):
    # The byte reference: json.dump of the whole payload, then a newline.
    payload = {
        "n": state.n,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


# Float values written among the amplitudes of a unit-norm state: signed
# zeros, subnormals down to 5e-324, the smallest normal, and values whose
# repr takes an exponent.  All are small enough that a few thousand of
# them leave the norm within QuantumState's tolerance.
_TINY_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308,
    1e-20, -3.0000000000000004e-10, 1.5e-9,
]
# Unit-norm leading floats (the interleaved re, im of the first amplitudes):
# exact integers and halves, and a 17-digit value.
_HEADS = {
    "one": [1.0],
    "minus_one_imag": [0.0, -1.0],
    "halves": [0.5, -0.5, -0.5, 0.5],
    "root_half": [math.sqrt(0.5), -math.sqrt(0.5)],
}


@st.composite
def _states_to_write(draw):
    # n runs to two chunks of save_state's encoder.
    n = draw(st.integers(1, _SAVE_CHUNK.bit_length()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["haar", *_HEADS]))
    if kind == "haar":
        return random_state(n, rng)
    floats = np.zeros(2 << n)
    if draw(st.booleans()):
        # Random magnitudes between 1e-320 and 1e-9: most reprs have an exponent.
        floats = rng.standard_normal(2 << n) * 10.0 ** rng.uniform(-320, -9, 2 << n)
    for pos, value in draw(st.lists(
            st.tuples(st.integers(0, 2**16 - 1), st.sampled_from(_TINY_FLOATS)), max_size=20)):
        floats[pos % floats.size] = value
    head = _HEADS[kind]
    floats[:len(head)] = head
    return QuantumState(n, floats.view(np.complex128))


@_FILE_SETTINGS
@given(state=_states_to_write())
@example(state=build_state("ghz", _SAVE_CHUNK.bit_length() - 1))
@example(state=build_state("zero_mean", _SAVE_CHUNK.bit_length(), seed=3))
def test_save_state_writes_the_reference_bytes(tmp_path, state):
    _reference_save_state(state, tmp_path / "reference.json")
    expected = (tmp_path / "reference.json").read_bytes()
    # At the default chunk size a power-of-two register never leaves a
    # partial last chunk; these sizes do.
    for chunk in (_SAVE_CHUNK, 1, 3, state.dim - 1, state.dim + 1):
        with mock.patch.object(core, "_SAVE_CHUNK", chunk):
            save_state(state, tmp_path / "state.json")
        assert (tmp_path / "state.json").read_bytes() == expected, chunk


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
def test_save_state_in_parts_writes_the_reference_bytes(tmp_path, monkeypatch, parts):
    # 2^7 amplitudes: 3 parts of 42 or 43, 5 of 25 or 26, each over several
    # chunks of 5 with a partial last one.
    state = build_state("haar", 7, seed=2)
    _reference_save_state(state, tmp_path / "reference.json")
    formatted = split_writer(monkeypatch, parts)
    monkeypatch.setattr(core, "_SAVE_CHUNK", 5)
    save_state(state, tmp_path / "state.json")
    assert (tmp_path / "state.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    # This process formats its own part; helpers formatted the others.
    assert formatted == [2 * (state.dim // parts)]
    assert_no_child()


@pytest.mark.parametrize("helper", [
    "missing", "exits 3", "stops short", "garbled length line", "writes past its length",
])
def test_save_state_formats_the_part_of_a_helper_that_fails(tmp_path, monkeypatch, helper):
    # 2^14 amplitudes in 3 parts: a helper's 85 KiB of floats overfill its
    # pipe, so one that exits without reading refuses the write.
    state = build_state("haar", 14, seed=3)
    _reference_save_state(state, tmp_path / "reference.json")
    formatted = split_writer(monkeypatch, 3)
    interpreter = tmp_path / "python"
    if helper == "exits 3":
        interpreter.write_text("#!/bin/sh\nexit 3\n")
    elif helper == "stops short":
        # The real helper, cut after 5000 bytes of its output; head exits 0.
        interpreter.write_text(f'#!/bin/sh\n"{sys.executable}" "$@" | head -c 5000\n')
    elif helper == "garbled length line":
        interpreter.write_text(f'#!/bin/sh\necho notanumber\nexec "{sys.executable}" "$@"\n')
    elif helper == "writes past its length":
        # The real helper, then bytes its length line does not count.  The
        # writer may have closed the pipe by then, so the echo may fail;
        # the helper still exits 0 and its text is used.
        interpreter.write_text(
            f'#!/bin/sh\ntrap "" PIPE\n"{sys.executable}" "$@"\necho extra\nexit 0\n')
    if helper != "missing":
        interpreter.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(interpreter))
    save_state(state, tmp_path / "state.json")
    assert (tmp_path / "state.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    # This process formats its own part, and the part of each helper that failed.
    assert len(formatted) == (1 if helper == "writes past its length" else 3)
    assert_no_child()


def test_a_one_part_save_does_not_import_subprocess(tmp_path):
    # perfbench times one-part saves in a fresh interpreter, which must
    # not pay for the import that only a split list needs.
    src = os.path.dirname(os.path.dirname(groverdyn.__file__))
    script = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from groverdyn import build_state, save_state; "
        f"save_state(build_state('haar', 17, seed=1), {str(tmp_path / 'state.json')!r}); "
        "assert 'subprocess' not in sys.modules, 'subprocess was imported'"
    )
    result = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "state.json").stat().st_size > 0


def test_write_pairs_kills_its_helpers_when_a_write_fails(tmp_path, monkeypatch):
    # Helpers that would sleep for a minute: the writer kills them, so it
    # raises at once, and waits for them, so none is left behind.
    split_writer(monkeypatch, 3)
    interpreter = tmp_path / "python"
    interpreter.write_text("#!/bin/sh\nexec sleep 60\n")
    interpreter.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(interpreter))

    class FullDisk:
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:  # after "[" and this process's part
                raise OSError(28, "No space left on device")

    start = time.monotonic()
    with pytest.raises(OSError, match="No space left"):
        core._write_pairs(FullDisk(), build_state("haar", 7, seed=3).amplitudes)
    assert time.monotonic() - start < 30
    assert_no_child()


def test_save_state_peaks_below_the_file_it_writes(tmp_path):
    # Encoding a chunk as [re, im] lists peaked near twice the file.
    state = build_state("haar", 16, seed=1)
    save_state(state, tmp_path / "warm-up.json")
    peak, _ = traced_peak(lambda: save_state(state, tmp_path / "state.json"))
    assert peak < (tmp_path / "state.json").stat().st_size, peak


@pytest.mark.parametrize("payload", [
    {"n": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
    {"n": 1, "amplitudes": [[True, False], [False, False]]},
    {"n": 1, "amplitudes": [[1.0, 0.0], [0.0, False]]},
    {"n": 1, "amplitudes": [[1.0, 0.0], [False, 0.0]]},
    {"n": 1, "amplitudes": [[1.0, 0.0], ["0.0", 0.0]]},
    {"n": 1, "amplitudes": [[1.0, 0.0], [0.0, None]]},
    {"n": 1, "amplitudes": [[1.0, 0.0], [0.0]]},
    {"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0, 0.0]]},
    # Too large for a float: this used to escape as OverflowError.
    {"n": 1, "amplitudes": [[10**400, 0.0], [0.0, 0.0]]},
], ids=[
    "bool_n", "bool_pairs", "bool_imag", "bool_real", "string", "null",
    "short_pair", "long_pair", "huge_integer",
])
def test_state_file_rejects_entries_that_are_not_numbers(tmp_path, payload):
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="malformed state file"):
        load_state(path)


# Amplitude values and list items that are no [re, im] pair, and the item
# the refusal names.  These escaped with Python's unpacking messages.
_NOT_PAIRS = {
    "long_pair": ([1, 0, 0], "[1, 0, 0]"),
    "short_pair": ([1], "[1]"),
    "bare_float": (1.0, "1.0"),
    "string": ("ab", "'ab'"),
}
_NOT_LISTS = {"object": ({"a": 1}, "{'a': 1}"), "number": (5, "5")}


def _refused_with(path, item, chunk):
    message = f"malformed state file {path}: amplitudes must be [re, im] pairs of numbers, got {item}"
    with mock.patch.object(core, "_LOAD_CHUNK", chunk):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_state(path)


@pytest.mark.parametrize("chunk", [core._LOAD_CHUNK, 64], ids=["one_chunk", "many_chunks"])
@pytest.mark.parametrize("bad, item", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
def test_state_file_names_the_item_that_is_no_pair(tmp_path, bad, item, chunk):
    # First in a two-item list, and last in a list of 4096 items that
    # a chunk of 64 characters cuts at every pair gap.
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"n": 1, "amplitudes": [bad, [0, 0]]}))
    _refused_with(short, item, chunk)
    long = tmp_path / "long.json"
    long.write_text(json.dumps({"n": 12, "amplitudes": [[0.0, 0.0]] * 4095 + [bad]}))
    _refused_with(long, item, chunk)


@pytest.mark.parametrize("bad, item", _NOT_LISTS.values(), ids=_NOT_LISTS.keys())
def test_state_file_names_an_amplitude_value_that_is_no_list(tmp_path, bad, item):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "amplitudes": bad}))
    _refused_with(path, item, core._LOAD_CHUNK)


def test_state_file_refusal_cuts_a_long_item_short(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "amplitudes": [[0.0] * 100_000, [0, 0]]}))
    _refused_with(path, "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]", core._LOAD_CHUNK)



_DEEP_NESTING = {
    # json's decoder recursed until this escaped as RecursionError.
    "bare_lists": "[" * 100_000 + "]" * 100_000,
    "nested_amplitudes": '{"n": 1, "amplitudes": ' + "[" * 5000 + "]" * 5000 + "}",
}


@pytest.mark.parametrize("text", _DEEP_NESTING.values(), ids=_DEEP_NESTING.keys())
def test_state_file_rejects_deep_nesting(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="malformed state file"):
        load_state(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
def test_load_state_leaves_gc_as_it_found_it(tmp_path, enabled):
    good = tmp_path / "good.json"
    save_state(build_state("ghz", 4), good)
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP_NESTING["bare_lists"])
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"n": 1, "amplitudes": [[1.0, 0.0], [0.0')
    was_enabled = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        load_state(good)
        assert gc.isenabled() is enabled
        for bad in (deep, truncated):
            with pytest.raises(ValueError):
                load_state(bad)
            assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

def test_state_file_rejects_bad_norm(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"n": 1, "amplitudes": [[1.0, 0.0], [0.1, 0.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="norm"):
        load_state(path)
    # json reads the NaN literal that json.dumps writes for float("nan").
    path.write_text(json.dumps({"n": 1, "amplitudes": [[math.nan, 0.0], [0.5, 0.0]]}))
    with pytest.raises(ValueError, match="norm\\^2 = nan"):
        load_state(path)


@pytest.mark.filterwarnings("error")
def test_state_file_with_an_entry_too_large_to_square_is_refused_without_a_warning(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "amplitudes": [[1.0, 0.0], [1e200, 0.0]]}')
    with pytest.raises(ValueError, match="norm\\^2 = inf"):
        load_state(path)


def test_state_file_renormalizes_small_deviation(tmp_path):
    # deviation below 1e-9 is accepted and explicitly renormalized
    path = tmp_path / "close.json"
    eps = 1e-10
    payload = {"n": 1, "amplitudes": [[math.sqrt(1 + eps), 0.0], [0.0, 0.0]]}
    path.write_text(json.dumps(payload))
    state = load_state(path)
    assert abs(state.norm_sq() - 1.0) < 1e-14


@pytest.mark.parametrize("n, deviation", [(12, 0.0), (1, 1e-10)])
def test_load_state_sums_the_squares_once(tmp_path, n, deviation):
    # The file check's sum serves the unit-norm test and the state; a sum
    # over amplitudes scaled to unit norm is the constructor's check.
    state = build_state("haar", n, seed=4)
    path = tmp_path / "state.json"
    save_state(QuantumState._wrap(n, state.amplitudes * math.sqrt(1 + deviation)), path)
    norm_sq = core._norm_sq
    sums = []

    def counting(amps, axis=None):
        sums.append(amps.size)
        return norm_sq(amps, axis)

    with mock.patch.object(core, "_norm_sq", counting):
        loaded = load_state(path)
    assert sums == [state.dim] * (1 if deviation == 0.0 else 2)
    assert abs(loaded.norm_sq() - 1.0) <= core.NORM_ATOL


@pytest.mark.parametrize("n", [3.7, 25, 10**9])
def test_state_file_rejects_bad_qubit_count(tmp_path, n):
    # n is checked before 1 << n is evaluated, so a huge n costs nothing.
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}))
    with pytest.raises(ValueError, match="n must be"):
        load_state(path)


def test_state_file_rejects_wrong_count(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(ValueError, match="amplitudes"):
        load_state(path)


def _assert_loads_as_the_reference(path):
    """``load_state`` gives the reference's amplitudes bit for bit, or both refuse."""
    try:
        expected = reference_load_state(path)
    except ValueError:
        with pytest.raises(ValueError, match="state file"):
            load_state(path)
        return
    loaded = load_state(path)
    assert loaded.n == expected.n
    assert loaded.amplitudes.tobytes() == expected.amplitudes.tobytes()


# Values of the members the differential test adds: some hold the brackets
# the loader cuts an amplitude list at, some are amplitude lists, valid or
# not, that a repeated "amplitudes" key replaces or is replaced by.
_MEMBER_VALUES = [
    None, True, 3, -1.5e300, 10**400, "]]", "], [", "[[", {"a": [[1, 2]]}, [], [[]],
    [[1.0, 0.0], [0.0, 0.0]], [[1, 0], [0, 0]], [[[0.0, 1.0]], [0.0, 0.0]],
    [[True, False], [False, False]], [[1.0], [0.0, 0.0]], [1.0, 0.0, 0.0, 0.0],
    [[1.0, 0.0], [10**400, 0.0]], [[1.0, 0.0], ["0", 0.0]],
]
# (member separator, key-value separator) around the top-level members.
_SEPARATORS = [(",", ":"), (", ", ": "), (",\n  ", ": "), ("\r\n,\t", " :\n")]


@st.composite
def _state_documents(draw):
    """The text of a state document in one of many layouts json.loads accepts."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        state = random_state(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        pairs = state.amplitudes.view(np.float64).reshape(-1, 2).tolist()
    else:  # a basis state written with integers
        pairs = [[1, 0]] + [[0, 0]] * ((1 << n) - 1)
    amplitudes = json.dumps(
        pairs, indent=draw(st.sampled_from([None, 0, 2])),
        separators=draw(st.sampled_from([None, (",", ":")])))
    space = draw(st.sampled_from(["", " ", "\t", "\n  ", " \r\n "]))
    amplitudes = re.sub(r"([\[,])", r"\g<1>" + space, amplitudes).replace("]", space + "]")
    members = [("n", json.dumps(n)), ("amplitudes", amplitudes)]
    if draw(st.booleans()):
        members.reverse()
    for key, value in draw(st.lists(st.tuples(
            st.sampled_from(["n", "amplitudes", "note"]), st.sampled_from(_MEMBER_VALUES)),
            max_size=3)):
        members.insert(draw(st.integers(0, len(members))), (key, json.dumps(value)))
    comma, colon = draw(st.sampled_from(_SEPARATORS))
    body = comma.join(f"{json.dumps(key)}{colon}{value}" for key, value in members)
    return draw(st.sampled_from(["", " \n"])) + "{" + body + "}" + draw(st.sampled_from(["", "\n"]))


# A few pairs a chunk, and the default, under which these lists fit one chunk.
_CHUNK_SIZES = st.one_of(st.integers(1, 200), st.just(core._LOAD_CHUNK))


_PAIRS = '[[1.0, 0.0], [0.0, 0.0]]'
# Longer than the default chunk, so it is chunk-decoded at every chunk size.
_LONG_PAIRS = json.dumps([[0.5, -0.25]] * 12000)
# Documents at the edges of the object grammar that json.decoder.JSONObject
# walks, and long pair lists kept by members load_state never reads.
_GRAMMAR_EDGES = {
    "empty_object": "{}",
    "top_level_list": "[]",
    "top_level_string": '"x"',
    "top_level_number": "1",
    "trailing_comma": f'{{"n": 1, "amplitudes": {_PAIRS},}}',
    "missing_colon": f'{{"n" 1, "amplitudes": {_PAIRS}}}',
    "missing_comma": f'{{"amplitudes": {_PAIRS} "n": 1}}',
    "unterminated": f'{{"n": 1, "amplitudes": {_PAIRS}',
    "leading_bom": f'\ufeff{{"n": 1, "amplitudes": {_PAIRS}}}',
    "extra_data": f'{{"n": 1, "amplitudes": {_PAIRS}}} {{}}',
    "long_note_first": f'{{"n": 1, "note": {_LONG_PAIRS}, "amplitudes": {_PAIRS}}}',
    "long_list_as_n": f'{{"n": {_LONG_PAIRS}, "amplitudes": {_PAIRS}}}',
}


def _with_grammar_edges(test):
    """Add each of ``_GRAMMAR_EDGES`` as an example, at chunk 1 and the default."""
    for text in _GRAMMAR_EDGES.values():
        for chunk in (1, core._LOAD_CHUNK):
            test = example(text=text, chunk=chunk)(test)
    return test


@pytest.mark.filterwarnings("error")
@settings(_FILE_SETTINGS, max_examples=300)
@given(text=_state_documents(), chunk=_CHUNK_SIZES)
@_with_grammar_edges
# An earlier "amplitudes" that json.loads drops, and brackets in a string.
@example(text='{"amplitudes": [[true, 0]], "note": "]], [[", "amplitudes": '
              '[[0.6, 0.0], [0.0, 0.8]], "n": 1}', chunk=1)
@example(text='{"n": 1, "amplitudes": [[0.6, 0.0], [0.0, 0.8]], "amplitudes": '
              '[[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]}', chunk=1)
def test_load_state_matches_the_reference_decoder(tmp_path, text, chunk):
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(core, "_LOAD_CHUNK", chunk):
        _assert_loads_as_the_reference(path)


def test_json_object_takes_the_arguments_the_loader_passes():
    # _decode_document calls json.decoder.JSONObject positionally.
    names = list(inspect.signature(json.decoder.JSONObject).parameters)[:5]
    assert names == ["s_and_end", "strict", "scan_once", "object_hook", "object_pairs_hook"]


# Bytes a flip writes: the JSON punctuation and whitespace, digits, letters
# of the literals, and bytes that are no UTF-8 on their own.
_FLIP_BYTES = st.one_of(
    st.sampled_from(list(b'[]{},:" \t\r\n0123456789.-+eEntrufalsNI\\')),
    st.integers(0, 255))


@pytest.mark.filterwarnings("error")
@settings(_FILE_SETTINGS, max_examples=300)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), where=st.integers(0, 2**16),
       byte=_FLIP_BYTES, chunk=_CHUNK_SIZES)
def test_load_state_refuses_a_flipped_byte_where_the_reference_does(
        tmp_path, n, seed, where, byte, chunk):
    path = tmp_path / "state.json"
    save_state(random_state(n, np.random.default_rng(seed)), path)
    data = bytearray(path.read_bytes())
    data[where % len(data)] = byte
    path.write_bytes(bytes(data))
    with mock.patch.object(core, "_LOAD_CHUNK", chunk):
        _assert_loads_as_the_reference(path)


def test_load_state_peak_stays_near_the_text(tmp_path, monkeypatch):
    # The whole-document decode peaked at the file plus about 9 registers.
    n = 16
    path = tmp_path / "state.json"
    save_state(random_state(n, np.random.default_rng(5)), path)
    monkeypatch.setattr(core, "_LOAD_CHUNK", 1 << 12)
    peak, state = traced_peak(lambda: load_state(path))
    assert state.n == n
    assert peak <= path.stat().st_size + 4 * 16 * (1 << n)


def test_load_state_of_a_one_chunk_file_peaks_no_higher_than_the_reference(
        tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    save_state(random_state(14, np.random.default_rng(6)), path)
    monkeypatch.setattr(core, "_LOAD_CHUNK", path.stat().st_size)
    reference_peak, _ = traced_peak(lambda: reference_load_state(path))
    peak, _ = traced_peak(lambda: load_state(path))
    # 1% covers small objects that differ between Python versions; a copy
    # of the list's text would add about 25%.
    assert peak <= 1.01 * reference_peak
