"""Command-line interface.

Subcommands: ``state make``, ``simulate``, ``compare``, ``avg-success``,
``classify``, ``groverian``.  Exit codes: 0 success, 2 invalid input,
3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import MarkedSet, save_state
from .dynamics import classify, detect_cycle
from .groverian import grid_search_oracle, optimize_product
from .harness import (
    ConfigurationError,
    ExperimentConfig,
    build_state,
    compare_run,
    resolve_state,
    sweep_marked_sets,
    write_json,
    write_snapshots,
)
from .simulator import evolve

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CONFIG_ERROR = 3


def _parse_marked(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--marked expects comma-separated integers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverdyn",
        description="Exact Grover-search dynamics, closed-form analysis and "
        "the Groverian entanglement measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="state-file utilities")
    state_sub = state.add_subparsers(dest="state_command", required=True)
    make = state_sub.add_parser("make", help="build a named state and save it")
    make.add_argument("name", help="eta|basis|ghz|w|zero_mean|haar|k_uniform")
    make.add_argument("--n", type=int, required=True)
    make.add_argument("--k", type=int, default=None,
                      help="basis index or k_uniform amplitude count")
    make.add_argument("--seed", type=int, default=None)
    make.add_argument("--out", required=True)

    simulate = sub.add_parser("simulate", help="evolve a state, write trajectory CSV")
    simulate.add_argument("--state", required=True, help="state file or eta|ghz|w")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--marked", required=True, help="comma-separated indices")
    simulate.add_argument("--steps", type=int, required=True)
    simulate.add_argument("--full-snapshots", action="store_true",
                          help="also write per-step amplitudes to <out>.states.json "
                               "((steps + 1) * 2^n must not exceed 2^22)")
    simulate.add_argument("--out", required=True)

    compare = sub.add_parser("compare", help="simulator vs closed form, JSON report")
    compare.add_argument("--state", required=True)
    compare.add_argument("--n", type=int, required=True)
    compare.add_argument("--marked", required=True)
    compare.add_argument("--steps", type=int, required=True)
    compare.add_argument("--out", required=True)

    avg = sub.add_parser("avg-success", help="average P(tau) over marked sets")
    avg.add_argument("--state", required=True)
    avg.add_argument("--n", type=int, required=True)
    avg.add_argument("--r", type=int, required=True)
    avg.add_argument("--samples", type=int, default=None)
    avg.add_argument("--seed", type=int, default=0)
    avg.add_argument("--out", required=True)

    cls = sub.add_parser("classify", help="fixed-point / cycle classification")
    cls.add_argument("--state", required=True)
    cls.add_argument("--n", type=int, required=True)
    cls.add_argument("--marked", required=True)
    cls.add_argument("--tol", type=float, default=1e-9)
    cls.add_argument("--max-period", type=int, default=None,
                     help="also search for an exact cycle up to this period")

    grov = sub.add_parser("groverian", help="Groverian entanglement of a state")
    grov.add_argument("--state", required=True)
    grov.add_argument("--n", type=int, required=True)
    grov.add_argument("--restarts", type=int, default=32)
    grov.add_argument("--seed", type=int, default=0)
    grov.add_argument("--oracle-check", action="store_true",
                      help="cross-check P_max with the n<=3 grid oracle")
    return parser


def _cmd_state_make(args) -> int:
    state = build_state(args.name, args.n, k=args.k, seed=args.seed)
    save_state(state, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    state = resolve_state(args.state, args.n)
    marked = MarkedSet(1 << args.n, _parse_marked(args.marked))
    trajectory = evolve(state, marked, args.steps, record_full_states=args.full_snapshots)
    trajectory.write_csv(args.out)
    if args.full_snapshots:
        write_snapshots(args.out + ".states.json", trajectory)
    return EXIT_OK


def _cmd_compare(args) -> int:
    marked = _parse_marked(args.marked)
    config = ExperimentConfig(
        n=args.n, r=len(marked), state_spec=args.state, marked=marked, t_max=args.steps
    )
    report = compare_run(config)
    write_json(args.out, report.to_json_dict())
    return EXIT_OK


def _cmd_avg_success(args) -> int:
    config = ExperimentConfig(
        n=args.n, r=args.r, state_spec=args.state, samples=args.samples, seed=args.seed
    )
    summary = sweep_marked_sets(config)
    write_json(args.out, summary.to_json_dict())
    return EXIT_OK


def _cmd_classify(args) -> int:
    state = resolve_state(args.state, args.n)
    marked = MarkedSet(1 << args.n, _parse_marked(args.marked))
    verdict = classify(state, marked, tol=args.tol)
    abar_m, abar_u = verdict.evidence["abar_m"], verdict.evidence["abar_u"]
    payload = {
        "kind": verdict.kind.value,
        "period": verdict.period,
        "abar_m": [abar_m.real, abar_m.imag],
        "abar_u": [abar_u.real, abar_u.imag],
        "tol": args.tol,
    }
    if args.max_period is not None:
        payload["detected_period"] = detect_cycle(state, marked, args.max_period)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_groverian(args) -> int:
    state = resolve_state(args.state, args.n)
    # The oracle runs first, so that it refuses n > 3 before the optimizer
    # spends any time; it draws no random numbers.
    oracle_p = grid_search_oracle(state, 100) if args.oracle_check else None
    result = optimize_product(state, restarts=args.restarts, seed=args.seed)
    payload = {
        "n": args.n,
        "p_max": result.p_max,
        "g": result.g,
        "restarts": result.restarts_used,
        "converged": result.converged,
        "argmax": [
            [c0.real, c0.imag, c1.real, c1.imag]
            for c0, c1 in result.argmax.qubit_states
        ],
    }
    if args.oracle_check:
        payload["oracle"] = {
            "resolution": 100,
            "p_max": oracle_p,
            "consistent": bool(result.p_max >= oracle_p - 1e-3),
        }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "avg-success": _cmd_avg_success,
    "classify": _cmd_classify,
    "groverian": _cmd_groverian,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "state":
            return _cmd_state_make(args)
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
