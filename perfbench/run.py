#!/usr/bin/env python3
"""groverdyn benchmark: CLI end-to-end times and per-layer spans.

Run from the root of a groverdyn checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The run calls ``groverdyn.cli.main(argv)`` in-process with stdout
captured, repeating the workload's cycle of commands while the next
cycle is predicted to end within ``--seconds`` (at least one cycle; two
when tracing, one untraced and one traced).  Every command is checked;
a failed check counts as a failed operation.

The machine this was written on changes speed by 10-30% over tens of
seconds.  So a fixed pure-Python reference loop is timed before every
untraced command and set-up probe, outside their timed regions, and each
end-to-end time is reported at the reference speed: its raw median times
``REFERENCE_LOOP_S`` over the run's median loop time.  The report line
keeps the raw medians and the loop's median.

The last stdout line is the result: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics and the tracing
overhead.  The line before it is a report with the per-command medians
under their own names, the environment and any failure or missing span.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
SLOT_METRICS = ("cmd1_s", "cmd2_s", "cmd3_s")
# The reference loop: REFERENCE_LOOP_N additions of squares, timed
# REFERENCE_REPS times before each command.  REFERENCE_LOOP_S is its median
# on the 2-core Xeon VM the benchmark was written on (Python 3.11); it only
# scales the figures to seconds and is the same for every commit.
REFERENCE_LOOP_N = 60_000
REFERENCE_REPS = 4
REFERENCE_LOOP_S = 0.0042
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_commit(root: Path) -> str | None:
    # The checkout may not be a git repository; read .git without git.
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment(root: Path) -> dict:
    import numpy
    import groverdyn

    return {
        "backend": groverdyn.backend_name(),
        "available_backends": list(groverdyn.available_backends()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
    }


def _time_reference(samples: list[float]) -> None:
    """Append REFERENCE_REPS timings of the reference loop to ``samples``."""
    for _ in range(REFERENCE_REPS):
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP_N):
            total += i * i
        samples.append(perf_counter() - start)


def _setup_seconds(root: Path, workload: str, seed: int, sizes: dict, work: Path,
                   reference: list[float]) -> list[float]:
    """Wall times of fresh interpreters that import groverdyn and build inputs."""
    times = []
    for i in range(SETUP_PROBES):
        _time_reference(reference)
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(root), workload, str(seed),
                json.dumps(sizes), str(work / f"probe{i}")]
        start = perf_counter()
        subprocess.run(argv, check=True)
        times.append(perf_counter() - start)
    return times


def _run_command(cmd, tracer, reference: list[float]) -> tuple[float, str | None]:
    from workloads import call_cli

    if cmd.prepare is not None:
        cmd.prepare()
    gc.collect()  # a fresh CLI process starts without the last command's garbage
    if tracer is None:
        _time_reference(reference)
    else:
        tracer.install()
    try:
        start = perf_counter()
        code, stdout, stderr = call_cli(cmd.argv)
        elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if code != 0:
        return elapsed, f"exit code {code}: {stderr.strip()[-300:]}"
    try:
        return elapsed, cmd.check(stdout)
    except Exception as exc:  # a malformed output fails the check, not the run
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload from checkout ``root``; return (result line, report line)."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    sizes = workload.sizes if sizes is None else sizes
    times = {slot: [] for slot in workload.slots}
    traced_times = {slot: [] for slot in workload.slots}
    failures: list[str] = []
    reference: list[float] = []
    attempted = 0
    tracer = spans.Tracer() if trace else None
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "environment": _environment(root),
    }

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        work = Path(tmp)
        if trace and "n" in sizes:
            report["kernel_us_per_step_by_backend"] = workloads.kernel_us_per_step(
                sizes["n"], seed)
        if not trace:
            report["setup_probes_s"] = _setup_seconds(
                root, workload_name, seed, sizes, work, reference)

        start, cycle = perf_counter(), 0
        while True:
            traced = trace and cycle % 2 == 1
            cycle_start = perf_counter()
            cycle_dir = work / f"cycle{cycle}"
            samples: dict[tuple[str, int], float] = {}
            for cmd in workloads.build_cycle(workload, sizes, cycle_dir, seed, cycle):
                elapsed, reason = _run_command(cmd, tracer if traced else None, reference)
                key = (cmd.slot, cmd.batch)
                samples[key] = samples.get(key, 0.0) + elapsed
                attempted += 1
                if reason is not None:
                    failures.append(f"cycle {cycle} {cmd.slot}: {reason}")
            for (slot, _), elapsed in samples.items():
                (traced_times if traced else times)[slot].append(elapsed)
            shutil.rmtree(cycle_dir)
            cycle += 1
            last = perf_counter() - cycle_start
            if cycle >= (2 if trace else 1) and perf_counter() - start + last > seconds:
                break

    report["cycles"] = cycle
    report["commands"] = {
        slot: {"median": statistics.median(times[slot]), "unit": "s", "count": len(times[slot]),
               "samples": times[slot]}
        for slot in workload.slots
    }
    report["failures"] = failures
    if trace:
        metrics = spans.layer_metrics(tracer, cycles=cycle // 2)
        overhead = sum(
            statistics.median(traced_times[s]) - statistics.median(times[s])
            for s in workload.slots
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        report["missing_spans"] = tracer.missing
    else:
        # Seconds at the reference speed: raw median * REFERENCE_LOOP_S / loop median.
        report["reference_loop_median_s"] = statistics.median(reference)
        scale = REFERENCE_LOOP_S / report["reference_loop_median_s"]
        metrics = {
            "setup_s": (statistics.median(report["setup_probes_s"]) * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for name, slot in zip(SLOT_METRICS, workload.slots):
            metrics[name] = (report["commands"][slot]["median"] * scale, "s")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread: on a few shared cores a second thread's speed depends
    # on the neighbours' load, which made matmul-heavy commands bimodal.
    # Set before numpy is first imported; setup probes inherit it.
    os.environ.update(BLAS_THREADS)

    root = Path.cwd()
    if not (root / "src" / "groverdyn" / "__init__.py").is_file():
        print("perfbench: no src/groverdyn here; run from the root of a groverdyn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
