import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groverdyn.cli
from groverdyn import MarkedSet, _kernels, build_state, evolve, load_state, save_state
from groverdyn.cli import main
from groverdyn.harness import _marked_sets


def test_state_make_ghz(tmp_path):
    out = tmp_path / "ghz.json"
    assert main(["state", "make", "ghz", "--n", "3", "--out", str(out)]) == 0
    state = load_state(out)
    assert abs(state.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15


def test_state_make_haar_requires_seed(tmp_path, capsys):
    out = tmp_path / "haar.json"
    code = main(["state", "make", "haar", "--n", "3", "--out", str(out)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_state_make_with_seed_round_trips(tmp_path):
    out = tmp_path / "haar.json"
    assert main(
        ["state", "make", "haar", "--n", "4", "--seed", "3", "--out", str(out)]
    ) == 0
    assert load_state(out).n == 4


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "simulate", "--state", "eta", "--n", "6",
        "--marked", "3,5", "--steps", "10", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,p_marked,abar_m_re")
    assert len(lines) == 12


def test_simulate_full_snapshots_side_file(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "simulate", "--state", "eta", "--n", "3", "--marked", "1",
        "--steps", "2", "--full-snapshots", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "traj.csv.states.json").read_text())
    assert payload["n"] == 3
    assert len(payload["states"]) == 3
    assert len(payload["states"][0]) == 8


def test_simulate_full_snapshots_writes_the_reference_bytes(tmp_path):
    spec = tmp_path / "haar.json"
    assert main(["state", "make", "haar", "--n", "4", "--seed", "5", "--out", str(spec)]) == 0
    out = tmp_path / "traj.csv"
    assert main([
        "simulate", "--state", str(spec), "--n", "4", "--marked", "2,11",
        "--steps", "6", "--full-snapshots", "--out", str(out),
    ]) == 0
    trajectory = evolve(load_state(spec), MarkedSet(16, (2, 11)), 6, record_full_states=True)
    reference = json.dumps({
        "n": 4,
        "states": [
            [[float(a.real), float(a.imag)] for a in step.state.amplitudes]
            for step in trajectory.steps
        ],
    }) + "\n"
    assert (tmp_path / "traj.csv.states.json").read_text() == reference


def test_simulate_full_snapshots_beyond_limit_exits_2(tmp_path, capsys):
    # 1001 snapshots of 2^20 amplitudes would be 16 GB before the JSON.
    out = tmp_path / "traj.csv"
    code = main([
        "simulate", "--state", "eta", "--n", "20", "--marked", "1",
        "--steps", "1000", "--full-snapshots", "--out", str(out),
    ])
    assert code == 2
    assert "snapshots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_steps_beyond_trajectory_limit_exit_2(tmp_path, capsys, command):
    # 100,001 steps are one more than a trajectory may record; nothing is
    # iterated and no file is written.
    out = tmp_path / "out"
    with mock.patch.object(_kernels, "run_grover", side_effect=AssertionError("iterated")):
        code = main([
            command, "--state", "eta", "--n", "1", "--marked", "0",
            "--steps", "100001", "--out", str(out),
        ])
    assert code == 2
    assert "t_max must be in [0, 100000]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, expected, message",
    [
        (["simulate", "--marked", "0", "--steps", "100001"], 2, "t_max must be in"),
        (["compare", "--marked", "0", "--steps", "100001"], 2, "t_max must be in"),
        (["compare", "--marked", "8", "--steps", "3"], 2, "must lie in [0, 8)"),
        (["classify", "--marked", "0,0"], 2, "must be distinct"),
        (["avg-success", "--r", "8"], 2, "r must be in [1, 7], got 8"),
        (["avg-success", "--r", "1", "--samples", "0"], 2, "samples must be >= 1"),
        (["avg-success", "--r", "1", "--seed", "-1"], 2, "seed must be >= 0, got -1"),
        (["avg-success", "--n", "12", "--r", "2", "--samples", "100001"], 3,
         "exceeds the limit"),
        (["avg-success", "--n", "22", "--r", "2097152"], 3, "MAX_SWEEP_INDICES"),
        (["classify", "--marked", "0", "--tol", "-1"], 2, "tol must be positive and finite"),
        (["classify", "--marked", "0", "--max-period", "100001"], 2,
         "max_period must be in [1, 100000], got 100001"),
        (["classify", "--marked", "0", "--max-period", "0"], 2,
         "max_period must be in [1, 100000], got 0"),
        (["groverian", "--restarts", "0"], 2, "restarts must be in [1, 10000], got 0"),
        (["groverian", "--restarts", "10001"], 2,
         "restarts must be in [1, 10000], got 10001"),
        (["groverian", "--seed", "-1"], 2, "seed must be >= 0, got -1"),
        (["groverian", "--n", "4", "--oracle-check"], 2, "supports n <= 3"),
        (["simulate", "--n", "20", "--marked", "1", "--steps", "1000", "--full-snapshots"], 2,
         "snapshots"),
    ],
    ids=["simulate-steps", "compare-steps", "compare-marked", "classify-marked",
         "avg-success-r", "avg-success-samples", "avg-success-seed",
         "avg-success-set-limit", "avg-success-index-limit", "classify-tol",
         "classify-max-period", "classify-max-period-0", "groverian-restarts",
         "groverian-restarts-limit",
         "groverian-seed", "groverian-oracle-check", "simulate-full-snapshots"],
)
def test_arguments_are_refused_before_the_state_is_loaded(
    tmp_path, capsys, argv, expected, message
):
    # A state file can be large; nothing that can be checked without it
    # waits for it to load.  A case without its own --n runs on n = 3.
    stored = tmp_path / "eta.json"
    save_state(build_state("eta", 3), stored)
    if argv[0] not in ("classify", "groverian"):
        argv = argv + ["--out", str(tmp_path / "out")]
    if "--n" not in argv:
        argv = argv + ["--n", "3"]
    with mock.patch.object(groverdyn.cli, "resolve_state", side_effect=AssertionError("loaded")):
        code = main(argv + ["--state", str(stored)])
    assert code == expected
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["avg-success", "--state", "eta", "--n", "3", "--r", "1"],
        ["avg-success", "--state", "eta", "--n", "6", "--r", "2", "--samples", "10"],
        ["state", "make", "haar", "--n", "3"],
        ["state", "make", "zero_mean", "--n", "3"],
        ["groverian", "--state", "eta", "--n", "3", "--restarts", "2"],
        ["state", "make", "eta", "--n", "3"],
        ["state", "make", "ghz", "--n", "3"],
        ["state", "make", "basis", "--n", "3", "--k", "2"],
    ],
    ids=["avg-success-exhaustive", "avg-success-sampled", "haar", "zero_mean", "groverian",
         "eta", "ghz", "basis"],
)
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, argv):
    # Exhaustive sweeps and the eta, GHZ and basis builders draw no random
    # numbers, so only the input check can refuse the seed there; elsewhere
    # it must be refused before numpy is.
    out = tmp_path / "out.json"
    if argv[0] != "groverian":
        argv = argv + ["--out", str(out)]
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0, got -1" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_classify_max_period_beyond_trajectory_limit_exit_2(capsys):
    # --max-period keeps the trajectory limit as its range.
    with mock.patch.object(_kernels, "run_grover", side_effect=AssertionError("iterated")):
        code = main(["classify", "--state", "eta", "--n", "4", "--marked", "1",
                     "--max-period", "100001"])
    assert code == 2
    captured = capsys.readouterr()
    assert "max_period must be in [1, 100000]" in captured.err
    assert captured.out == ""


def test_simulate_rejects_bad_marked(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main([
        "simulate", "--state", "eta", "--n", "3",
        "--marked", "9", "--steps", "1", "--out", str(out),
    ])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_simulate_rejects_missing_state_file(tmp_path, capsys):
    code = main([
        "simulate", "--state", str(tmp_path / "nope.json"), "--n", "3",
        "--marked", "1", "--steps", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_simulate_rejects_nan_state_file(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"n": 1, "amplitudes": [[float("nan"), 0.0], [0.5, 0.0]]}))
    out = tmp_path / "x.csv"
    code = main([
        "simulate", "--state", str(path), "--n", "1",
        "--marked", "1", "--steps", "1", "--out", str(out),
    ])
    assert code == 2
    assert "norm^2 = nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [3.7, 25, 10**9])
def test_simulate_rejects_bad_qubit_count_in_state_file(tmp_path, capsys, n):
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}))
    code = main([
        "simulate", "--state", str(path), "--n", "3",
        "--marked", "1", "--steps", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "n must be" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    # json reads true/false as bool, which used to load as the state |0>.
    '{"n": true, "amplitudes": [[true, false], [false, false]]}',
    '{"n": 1, "amplitudes": [[1' + '0' * 400 + ', 0.0], [0.0, 0.0]]}',
], ids=["booleans", "huge_integer"])
def test_classify_rejects_state_file_entries_that_are_not_numbers(tmp_path, capsys, text):
    path = tmp_path / "bad_entry.json"
    path.write_text(text)
    code = main(["classify", "--state", str(path), "--n", "1", "--marked", "1"])
    assert code == 2
    assert "malformed state file" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b'{"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0\xff]]}',
    "\ufeff".encode() + json.dumps({"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}).encode(),
], ids=["not_utf8", "utf8_bom"])
def test_classify_names_a_state_file_it_cannot_read(tmp_path, capsys, data):
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    code = main(["classify", "--state", str(path), "--n", "1", "--marked", "1"])
    assert code == 2
    assert f"malformed state file {path}" in capsys.readouterr().err


def test_classify_rejects_deeply_nested_state_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["classify", "--state", str(path), "--n", "2", "--marked", "0"])
    assert code == 2
    assert "malformed state file" in capsys.readouterr().err


def test_classify_class_b_fixed_point_period(tmp_path, capsys):
    path = tmp_path / "class_b.json"
    h = 0.5 ** 0.5
    path.write_text(json.dumps({"n": 2, "amplitudes": [[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, 0.0]]}))
    code = main(["classify", "--state", str(path), "--n", "2", "--marked", "0",
                 "--max-period", "4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "FixedPointClassB"
    assert payload["period"] == payload["detected_period"] == 2


def test_classify_rejects_nan_tol(capsys):
    code = main(["classify", "--state", "eta", "--n", "3",
                 "--marked", "0,1", "--tol", "nan"])
    assert code == 2
    assert "tol" in capsys.readouterr().err


def test_avg_success_enumeration_beyond_limit_exits_3(tmp_path, capsys):
    code = main(["avg-success", "--state", "eta", "--n", "9", "--r", "2",
                 "--samples", "200000", "--seed", "0", "--out", str(tmp_path / "a.json")])
    assert code == 3
    assert "exceeds" in capsys.readouterr().err


def test_avg_success_sampling_beyond_limit_exits_3(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = main(["avg-success", "--state", "eta", "--n", "12", "--r", "2",
                 "--samples", "100001", "--seed", "0", "--out", str(out)])
    assert code == 3
    assert "exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


def test_avg_success_index_limit_exits_3(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = main(["avg-success", "--state", "eta", "--n", "13", "--r", "8191",
                 "--out", str(out)])
    assert code == 3
    assert "MAX_SWEEP_INDICES" in capsys.readouterr().err
    assert not out.exists()


def test_compare_report_keys(tmp_path):
    out = tmp_path / "cmp.json"
    code = main([
        "compare", "--state", "eta", "--n", "8",
        "--marked", "7", "--steps", "30", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    for key in ("n", "r", "marked", "tau", "tau_m", "p0", "delta_p",
                "k_const", "omega", "per_t", "max_abs_err"):
        assert key in payload
    assert len(payload["per_t"]) == 31
    assert payload["max_abs_err"] < 1e-10


def test_avg_success_deterministic_output(tmp_path):
    args_template = [
        "avg-success", "--state", "ghz", "--n", "8", "--r", "2",
        "--samples", "200", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args_template + ["--out", str(out1)]) == 0
    assert main(args_template + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_avg_success_sampled_output_is_pinned(tmp_path):
    # The sampled avg-success command the benchmark times, for one seed:
    # 2000 of C(4096, 2) sets are drawn one at a time, as they always were.
    # The GHZ state lives on {0, 4095}; how many drawn sets hit it 0, 1 and
    # 2 times pins the sampler's choice exactly, apart from the kernel's
    # rounding, which moves mean_p in its last digits.
    sets = _marked_sets(4096, 2, 4096 * 4095 // 2, 2000, seed=11)
    hits = [sum(i in (0, 4095) for i in s) for s in sets]
    assert [hits.count(k) for k in range(3)] == [1998, 2, 0]
    out = tmp_path / "avg.json"
    assert main(["avg-success", "--state", "ghz", "--n", "12", "--r", "2",
                 "--samples", "2000", "--seed", "11", "--out", str(out)]) == 0
    assert out.read_text() == (
        '{\n'
        '  "analytic_prediction": 0.0004882812499999999,\n'
        '  "exhaustive": false,\n'
        '  "mean_p": 0.0007382814182108645,\n'
        '  "n": 12,\n'
        '  "num_sets": 2000,\n'
        '  "r": 2,\n'
        '  "seed": 11,\n'
        '  "std_error": 0.00017676077096664356,\n'
        '  "tau": 35\n'
        '}\n'
    )


def test_classify_output(capsys):
    code = main(["classify", "--state", "eta", "--n", "4",
                 "--marked", "0,1,2,3", "--max-period", "12"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "PeriodicCycle"
    assert payload["period"] == 6
    assert payload["detected_period"] == 6
    assert payload["tol"] == 1e-9
    assert len(payload["abar_m"]) == 2


def test_groverian_output(capsys):
    code = main(["groverian", "--state", "ghz", "--n", "3",
                 "--restarts", "8", "--seed", "1", "--oracle-check"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["p_max"] - 0.5) < 1e-6
    assert abs(payload["g"] - np.sqrt(0.5)) < 1e-6
    assert payload["converged"] is True
    assert len(payload["argmax"]) == 3
    assert payload["oracle"]["consistent"] is True


def test_groverian_oracle_check_refuses_n4_before_optimizing(capsys, monkeypatch):
    def optimizer_must_not_run(*args, **kwargs):
        raise AssertionError("optimize_product ran before the oracle refused n = 4")

    monkeypatch.setattr(groverdyn.cli, "optimize_product", optimizer_must_not_run)
    code = main(["groverian", "--state", "eta", "--n", "4", "--oracle-check"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n <= 3" in captured.err


# Argument values for the exit-code property: valid ones are bounded so that
# every command runs in milliseconds, invalid ones reach every input check.
# Three draws in four are valid, so that whole commands often succeed.
# "@name" stands for the file ``name`` in the fixture's directory.
def _mixed(valid, invalid):
    return st.one_of(valid, valid, valid, st.sampled_from(invalid))


def _ints(low, high):
    return st.integers(low, high).map(str)


_STATE_SPECS = _mixed(
    st.sampled_from(["eta", "ghz", "w", "@eta2", "@haar3"]),
    ["haar", "zero_mean", "basis", "bogus", "@missing", "@dir", "@short_pair",
     "@triple", "@null", "@dict", "@string", "@unnormalised"],
)
_QUBITS = _mixed(_ints(1, 3), ["0", "-1", "25", "x", "2.5"])
_MARKED = _mixed(
    st.sampled_from(["0", "1", "3", "1,2", "0,3", "0,1,2", "0,1,2,3"]),
    ["", "8", "-1", "1,1", "0,1,2,3,4,5,6,7", "a", "1,,2"],
)
_STEPS = _mixed(_ints(0, 30), ["100001", "-1", "x", "1.5"])
_SEED = _mixed(_ints(0, 5), ["-1", "-7", "x"])
_OUT = _mixed(st.just("@out"), ["@dir"])
_OPTIONS = {
    # command: (required options, optional options, flags)
    "state make": (
        {"--n": _QUBITS, "--out": _OUT},
        {"--k": _mixed(_ints(0, 8), ["-1", "100", "x"]), "--seed": _SEED},
        [],
    ),
    "simulate": (
        {"--state": _STATE_SPECS, "--n": _QUBITS, "--marked": _MARKED,
         "--steps": _STEPS, "--out": _OUT},
        {},
        ["--full-snapshots"],
    ),
    "compare": (
        {"--state": _STATE_SPECS, "--n": _QUBITS, "--marked": _MARKED,
         "--steps": _STEPS, "--out": _OUT},
        {},
        [],
    ),
    "avg-success": (
        {"--state": _STATE_SPECS, "--n": _QUBITS,
         "--r": _mixed(st.sampled_from(["1", "2", "3", "7"]), ["0", "-1", "8", "x"]), "--out": _OUT},
        {"--samples": _mixed(_ints(1, 20), ["0", "-3", "x"]), "--seed": _SEED},
        [],
    ),
    "classify": (
        {"--state": _STATE_SPECS, "--n": _QUBITS, "--marked": _MARKED},
        {"--tol": _mixed(st.sampled_from(["1e-9", "1e-3"]), ["0", "-1", "nan", "inf", "x"]),
         "--max-period": _mixed(_ints(0, 20), ["100001", "-1", "x"])},
        [],
    ),
    "groverian": (
        {"--state": _STATE_SPECS, "--n": _QUBITS},
        {"--restarts": _mixed(_ints(1, 3), ["0", "-1", "x"]), "--seed": _SEED},
        ["--oracle-check"],
    ),
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional, flags = _OPTIONS[command]
    argv = command.split()
    if command == "state make":
        argv.append(draw(_mixed(
            st.sampled_from(["eta", "basis", "ghz", "w", "zero_mean", "haar", "k_uniform"]),
            ["bogus"],
        )))
    # One command in eight leaves out a required option, which argparse refuses.
    dropped = draw(st.sampled_from(sorted(required))) if draw(st.integers(0, 7)) == 7 else None
    for option, values in required.items():
        if option != dropped:
            argv += [option, draw(values)]
    for option, values in optional.items():
        if draw(st.booleans()):
            argv += [option, draw(values)]
    for flag in flags:
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    save_state(build_state("eta", 2), root / "eta2")
    save_state(build_state("haar", 3, seed=1), root / "haar3")
    (root / "dir").mkdir()
    malformed = {
        "short_pair": {"n": 1, "amplitudes": [[1.0], [0.0, 0.0]]},
        "triple": {"n": 1, "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0]]},
        "null": None,
        "dict": {"n": 1, "amplitudes": {"re": 1.0, "im": 0.0}},
        "string": "eta",
        "unnormalised": {"n": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]},
    }
    for name, payload in malformed.items():
        (root / name).write_text(json.dumps(payload))
    return root


@settings(max_examples=300, deadline=None)
@given(argv=_cli_argv())
def test_cli_exit_codes_on_arbitrary_arguments(cli_files, argv):
    argv = [str(cli_files / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv


def test_module_entry_point(tmp_path):
    out = tmp_path / "traj.csv"
    result = subprocess.run(
        [sys.executable, "-m", "groverdyn", "simulate", "--state", "eta",
         "--n", "4", "--marked", "2", "--steps", "3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert out.exists()


def test_parser_is_built_once_per_process(tmp_path, capsys):
    # Every command runs on the parser built at import.
    with mock.patch.object(groverdyn.cli, "_build_parser", side_effect=AssertionError("built")):
        assert main(["classify", "--state", "eta", "--n", "3", "--marked", "1"]) == 0
        assert main(["state", "make", "ghz", "--n", "3", "--out", str(tmp_path / "g.json")]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "Generic"
    assert load_state(tmp_path / "g.json").n == 3


def test_help_names_the_state_builders(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["state", "make", "--help"])
    assert exc.value.code == 0
    assert "eta|basis|ghz|w|zero_mean|haar|k_uniform" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "state file or eta|ghz|w" in capsys.readouterr().out
