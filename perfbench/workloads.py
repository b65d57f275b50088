"""The benchmark's workloads: inputs made from the seed, commands, checks.

A workload is a cycle of CLI commands that the runner repeats.  Cycle
``k`` draws its inputs from ``numpy.random.default_rng([seed, k])``, so
every timed command in a run gets a state seed or marked set of its own
and no cache kept across calls can serve one command from another's
work.  Inputs are built outside the timed region; each command is
checked after it ran (see ``checks``).  The seeded-rerun checks, which
repeat a command untimed, run in the first cycle only.

Why each workload (see README.md for the layer map and the sizes):

- ``trajectory_n18``: a 2^18-amplitude register, where the large-vector
  layers do the work: the kernel, moments and JSON state-file I/O.
- ``sweep_n12``: thousands of tiny kernel calls, marked-set enumeration
  and sampling, and classification; no large I/O.
- ``groverian_mix``: the Groverian optimizer and grid oracle; the kernel
  and simulator are bypassed, so a kernel change must not move it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import groverdyn.cli
from groverdyn import (
    MarkedSet,
    ProductState,
    QuantumState,
    analytic_success,
    apply_local_unitaries,
    build_fixed_point,
    build_state,
    compute_params,
    load_state,
    optimal_iterations,
    product_overlap,
    save_state,
)

import checks


@dataclass(frozen=True)
class Command:
    """One timed CLI call, reported under ``slot``.

    ``check`` receives the captured stdout after a zero exit and returns
    a reason when the output is wrong.  ``prepare`` runs untimed first.
    The calls of one slot and ``batch`` in a cycle add up to one sample.
    """

    slot: str
    argv: list[str]
    check: Callable[[str], str | None]
    prepare: Callable[[], object] | None = None
    batch: int = 0


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; return exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = groverdyn.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _marked(rng: np.random.Generator, num_states: int, r: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(num_states, size=r, replace=False))


def _csv(ints: list[int]) -> str:
    return ",".join(map(str, ints))


def _rerun_identical(argv: list[str], stdout: str, what: str) -> str | None:
    code, rerun, err = call_cli(argv)
    if code != 0:
        return f"rerun of {what} exited {code}: {err.strip()}"
    return checks.check_identical(stdout.encode(), rerun.encode(), what)


def trajectory_cycle(sizes: dict, work: Path, rng: np.random.Generator, k: int) -> list[Command]:
    """state make haar, then simulate and compare on it with a seeded marked set.

    simulate and compare share the state and marked set so that compare's
    p_sim can be checked against simulate's CSV; compare reads a copy of
    the file so a cache keyed on the path cannot serve it.  Both commands
    load the made file, so their exit code 0 also shows it passes the
    loader's 1e-9 norm check.
    """
    n, steps = sizes["n"], sizes["steps"]
    marked = _marked(rng, 1 << n, sizes["r"])
    made, copy = work / "state.json", work / "state-copy.json"
    traj_csv, report = work / "traj.csv", work / "compare.json"
    make = ["state", "make", "haar", "--n", str(n), "--seed", str(_seed(rng)), "--out"]

    def check_make(_stdout: str) -> str | None:
        if k > 0:
            return None  # simulate and compare load the file
        rerun = work / "state-rerun.json"
        code, _, err = call_cli(make + [str(rerun)])
        if code != 0:
            return f"rerun of state make exited {code}: {err.strip()}"
        reason = checks.check_identical(made.read_bytes(), rerun.read_bytes(), "state make")
        rerun.unlink()
        return reason

    def check_compare(_stdout: str) -> str | None:
        return checks.check_compare(
            json.loads(report.read_text()), traj_csv.read_text(), marked, steps
        )

    common = ["--n", str(n), "--marked", _csv(marked), "--steps", str(steps)]
    return [
        Command("state_make_s", make + [str(made)], check_make),
        Command(
            "simulate_s",
            ["simulate", "--state", str(made), *common, "--out", str(traj_csv)],
            lambda _: checks.check_csv_rows(traj_csv.read_text(), steps),
        ),
        Command(
            "compare_s",
            ["compare", "--state", str(copy), *common, "--out", str(report)],
            check_compare,
            prepare=lambda: shutil.copyfile(made, copy),
        ),
    ]


def _closed_form_mean(state: QuantumState, r: int) -> float:
    tau = optimal_iterations(state.n, r)
    return float(np.mean([
        analytic_success(compute_params(state, MarkedSet(state.dim, m)), tau)
        for m in combinations(range(state.dim), r)
    ]))


def _classify_batch(n: int, work: Path, rng: np.random.Generator, batch: int) -> list[Command]:
    # Four states whose class is known by construction.  The four differ in
    # cost, so they are one sample: a median over single calls would fall
    # in the gap between the cheaper two and the dearer two.
    num_states = 1 << n
    cases = []
    marked = MarkedSet(num_states, _marked(rng, num_states, 3))
    weights = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    weights -= weights.mean()
    fixed = build_fixed_point(marked, weights / np.linalg.norm(weights))
    cases.append(("fixed", fixed, marked, "FixedPointClassA", 1))

    marked = MarkedSet(num_states, _marked(rng, num_states, 3))
    amps = rng.standard_normal(num_states) + 1j * rng.standard_normal(num_states)
    amps[marked.mask] -= amps[marked.mask].mean()
    amps[~marked.mask] -= amps[~marked.mask].mean()
    cases.append(("two-cycle", QuantumState.renormalized(n, amps), marked, "TwoCycle", 2))

    # N/r = 4 gives omega = pi/3, so eta returns after 6 steps.
    marked = MarkedSet(num_states, _marked(rng, num_states, num_states // 4))
    cases.append(("eta", None, marked, "PeriodicCycle", 6))

    marked = MarkedSet(num_states, _marked(rng, num_states, 3))
    cases.append(("haar", build_state("haar", n, seed=_seed(rng)), marked, "Generic", None))

    commands = []
    for label, state, marked, kind, period in cases:
        spec = "eta"
        if state is not None:
            spec = str(work / f"classify-{label}-{batch}.json")
            save_state(state, spec)
        argv = ["classify", "--state", spec, "--n", str(n),
                "--marked", _csv(list(marked.indices)), "--max-period", "64"]
        commands.append(Command(
            "classify_s", argv,
            lambda out, kind=kind, period=period: checks.check_classify(
                json.loads(out), kind, period),
            batch=batch,
        ))
    return commands


def sweep_cycle(sizes: dict, work: Path, rng: np.random.Generator, k: int) -> list[Command]:
    """Exhaustive r=1 and sampled r=2 avg-success, then classify batches."""
    n, samples = sizes["n"], sizes["samples"]
    num_states = 1 << n
    haar = work / "haar.json"
    save_state(build_state("haar", n, seed=_seed(rng)), haar)
    exhaustive, sampled = work / "avg-exhaustive.json", work / "avg-sampled.json"
    sample_seed = _seed(rng)

    def check_exhaustive(_stdout: str) -> str | None:
        expected = _closed_form_mean(load_state(haar), 1)
        return checks.check_exhaustive_average(
            json.loads(exhaustive.read_text()), num_states, expected)

    def check_sampled(_stdout: str) -> str | None:
        ghz, tau = build_state("ghz", n), optimal_iterations(n, 2)
        p_by_hits = tuple(
            analytic_success(compute_params(ghz, MarkedSet(num_states, m)), tau)
            for m in ((1, 2), (0, 1), (0, num_states - 1))
        )
        return checks.check_sampled_ghz_average(
            json.loads(sampled.read_text()), samples, sample_seed, p_by_hits)

    return [
        Command(
            "avg_success_exhaustive_s",
            ["avg-success", "--state", str(haar), "--n", str(n), "--r", "1",
             "--out", str(exhaustive)],
            check_exhaustive,
        ),
        Command(
            "avg_success_sampled_s",
            ["avg-success", "--state", "ghz", "--n", str(n), "--r", "2",
             "--samples", str(samples), "--seed", str(sample_seed), "--out", str(sampled)],
            check_sampled,
        ),
        *(command for batch in range(sizes["classify_batches"])
          for command in _classify_batch(sizes["classify_n"], work, rng, batch)),
    ]


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _groverian_command(slot, path, state, restarts, rng, expected, oracle, rerun):
    argv = ["groverian", "--state", str(path), "--n", str(state.n),
            "--restarts", str(restarts), "--seed", str(_seed(rng))]
    if oracle:
        argv.append("--oracle-check")

    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        factors = np.array([[complex(a, b), complex(c, d)] for a, b, c, d in payload["argmax"]])
        overlap = product_overlap(load_state(path), ProductState(factors))
        reason = checks.check_groverian(payload, overlap, expected, oracle)
        if reason is None and rerun:
            reason = _rerun_identical(argv, stdout, "groverian")
        return reason

    return Command(slot, argv, check)


def groverian_cycle(sizes: dict, work: Path, rng: np.random.Generator, k: int) -> list[Command]:
    """groverian on Haar states of two sizes, then one oracle check on n=3.

    The oracle state rotates through GHZ, W and Haar with the cycle.  GHZ
    and W are turned by seeded local unitaries, which leave P_max at 1/2
    and 4/9 but give every cycle new inputs.
    """
    commands = []
    for slot, n in (("groverian_n10_s", sizes["small_n"]), ("groverian_n11_s", sizes["large_n"])):
        state, path = build_state("haar", n, seed=_seed(rng)), work / f"haar{n}.json"
        save_state(state, path)
        commands.append(_groverian_command(
            slot, path, state, sizes["restarts"], rng, None, False, k == 0))
    name, expected = (("ghz", 0.5), ("w", 4.0 / 9.0), ("haar", None))[k % 3]
    if name == "haar":
        state = build_state("haar", 3, seed=_seed(rng))
    else:
        unitaries = [_random_unitary(rng) for _ in range(3)]
        state = apply_local_unitaries(build_state(name, 3), unitaries)
    path = work / f"oracle-{name}.json"
    save_state(state, path)
    commands.append(_groverian_command(
        "oracle_check_s", path, state, sizes["oracle_restarts"], rng, expected, True, k == 0))
    return commands


@dataclass(frozen=True)
class Workload:
    """``slots`` name the command kinds in the order of cmd1_s..cmd3_s.

    ``sizes["n"]``, where present, is the register the kernel runs on.
    """

    name: str
    slots: tuple[str, str, str]
    sizes: dict
    tiny_sizes: dict
    cycle: Callable[[dict, Path, np.random.Generator, int], list[Command]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trajectory_n18",
            ("state_make_s", "simulate_s", "compare_s"),
            {"n": 18, "steps": 100, "r": 3},
            {"n": 6, "steps": 10, "r": 3},
            trajectory_cycle,
        ),
        Workload(
            "sweep_n12",
            ("avg_success_exhaustive_s", "avg_success_sampled_s", "classify_s"),
            {"n": 12, "samples": 2000, "classify_n": 10, "classify_batches": 4},
            {"n": 5, "samples": 50, "classify_n": 4, "classify_batches": 1},
            sweep_cycle,
        ),
        Workload(
            "groverian_mix",
            ("groverian_n10_s", "groverian_n11_s", "oracle_check_s"),
            {"small_n": 10, "large_n": 11, "restarts": 8, "oracle_restarts": 32},
            {"small_n": 4, "large_n": 6, "restarts": 2, "oracle_restarts": 4},
            groverian_cycle,
        ),
    )
}


def build_cycle(workload: Workload, sizes: dict, work: Path, seed: int, k: int) -> list[Command]:
    """Make cycle ``k``'s input files under ``work`` and return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    return workload.cycle(sizes, work, np.random.default_rng([seed, k]), k)


def kernel_us_per_step(n: int, seed: int) -> dict[str, float]:
    """Median microseconds per run_grover step for every importable backend."""
    from groverdyn._kernels import available_backends, get_impl

    rng = np.random.default_rng(seed)
    base = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    base /= np.linalg.norm(base)
    marked = np.asarray(_marked(rng, 1 << n, 3), dtype=np.intp)
    steps = max(32, (1 << 20) >> n)
    rates = {}
    for name in available_backends():
        times = []
        for _ in range(4):  # the first call warms the allocator and is dropped
            amps = base.copy()
            start = perf_counter()
            get_impl(name).run_grover(amps, marked, steps)
            times.append(perf_counter() - start)
        rates[name] = float(np.median(times[1:])) / steps * 1e6
    return rates
