"""Command-line interface.

Subcommands: ``state make``, ``simulate``, ``compare``, ``avg-success``,
``classify``, ``groverian``.  Exit codes: 0 success, 2 invalid input,
3 configuration error.  Each command checks the arguments it can check
without a state before it loads or builds one.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import MarkedSet, _as_qubit_count, save_state
from .dynamics import _as_max_period, _as_tolerance, classify, detect_cycle
from .groverian import (
    _optimizer_arguments,
    _oracle_arguments,
    grid_search_oracle,
    optimize_product,
)
from .harness import (
    PARAMETER_FREE_BUILDERS,
    STATE_BUILDERS,
    ConfigurationError,
    build_state,
    compare_run,
    resolve_state,
    sweep_marked_sets,
    write_json,
    write_snapshots,
    _sweep_plan,
)
from .simulator import _as_step_count, _evolve_arguments, evolve

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CONFIG_ERROR = 3

# Grid points per angle of ``groverian --oracle-check``.
ORACLE_RESOLUTION = 100


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
    make.set_defaults(run=_cmd_state_make)
    make.add_argument("name", help="|".join(STATE_BUILDERS))
    make.add_argument("--n", type=int, required=True)
    make.add_argument("--k", type=int, default=None,
                      help="basis index or k_uniform amplitude count")
    make.add_argument("--seed", type=int, default=None)
    make.add_argument("--out", required=True)

    simulate = sub.add_parser("simulate", help="evolve a state, write trajectory CSV")
    simulate.set_defaults(run=_cmd_simulate)
    simulate.add_argument("--state", required=True,
                          help="state file or " + "|".join(PARAMETER_FREE_BUILDERS))
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--marked", required=True, help="comma-separated indices")
    simulate.add_argument("--steps", type=int, required=True)
    simulate.add_argument("--full-snapshots", action="store_true",
                          help="also write per-step amplitudes to <out>.states.json "
                               "((steps + 1) * 2^n must not exceed 2^22)")
    simulate.add_argument("--out", required=True)

    compare = sub.add_parser("compare", help="simulator vs closed form, JSON report")
    compare.set_defaults(run=_cmd_compare)
    compare.add_argument("--state", required=True)
    compare.add_argument("--n", type=int, required=True)
    compare.add_argument("--marked", required=True)
    compare.add_argument("--steps", type=int, required=True)
    compare.add_argument("--out", required=True)

    avg = sub.add_parser("avg-success", help="average P(tau) over marked sets")
    avg.set_defaults(run=_cmd_avg_success)
    avg.add_argument("--state", required=True)
    avg.add_argument("--n", type=int, required=True)
    avg.add_argument("--r", type=int, required=True)
    avg.add_argument("--samples", type=int, default=None)
    avg.add_argument("--seed", type=int, default=0)
    avg.add_argument("--out", required=True)

    cls = sub.add_parser("classify", help="fixed-point / cycle classification")
    cls.set_defaults(run=_cmd_classify)
    cls.add_argument("--state", required=True)
    cls.add_argument("--n", type=int, required=True)
    cls.add_argument("--marked", required=True)
    cls.add_argument("--tol", type=float, default=1e-9)
    cls.add_argument("--max-period", type=int, default=None,
                     help="also search for an exact cycle up to this period; none exceeds 6")

    grov = sub.add_parser("groverian", help="Groverian entanglement of a state")
    grov.set_defaults(run=_cmd_groverian)
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


def _marked_set(args) -> MarkedSet:
    """The ``--marked`` set on ``--n`` qubits, checked without building a state."""
    try:
        indices = tuple(int(part) for part in args.marked.split(","))
    except ValueError as exc:
        raise ValueError(
            f"--marked expects comma-separated integers, got {args.marked!r}"
        ) from exc
    return MarkedSet(1 << _as_qubit_count(args.n), indices)


def _cmd_simulate(args) -> int:
    marked = _marked_set(args)
    _evolve_arguments(args.n, args.steps, args.full_snapshots)
    state = resolve_state(args.state, args.n)
    trajectory = evolve(state, marked, args.steps, record_full_states=args.full_snapshots)
    trajectory.write_csv(args.out)
    if args.full_snapshots:
        write_snapshots(args.out + ".states.json", trajectory)
    return EXIT_OK


def _cmd_compare(args) -> int:
    marked = _marked_set(args)
    _as_step_count(args.steps)
    state = resolve_state(args.state, args.n)
    report = compare_run(state, marked, args.steps)
    write_json(args.out, report.to_json_dict())
    return EXIT_OK


def _cmd_avg_success(args) -> int:
    _sweep_plan(args.n, args.r, args.samples, args.seed)
    state = resolve_state(args.state, args.n, seed=args.seed)
    summary = sweep_marked_sets(state, args.r, samples=args.samples, seed=args.seed)
    write_json(args.out, summary.to_json_dict())
    return EXIT_OK


def _cmd_classify(args) -> int:
    marked = _marked_set(args)
    _as_tolerance(args.tol)
    if args.max_period is not None:
        _as_max_period(args.max_period)
    state = resolve_state(args.state, args.n)
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
    if args.oracle_check:
        _oracle_arguments(_as_qubit_count(args.n), ORACLE_RESOLUTION)
    _optimizer_arguments(args.restarts, args.seed)
    state = resolve_state(args.state, args.n)
    oracle_p = grid_search_oracle(state, ORACLE_RESOLUTION) if args.oracle_check else None
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
            "resolution": ORACLE_RESOLUTION,
            "p_max": oracle_p,
            "consistent": bool(result.p_max >= oracle_p - 1e-3),
        }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# Built once per process, after the handlers it binds.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
