"""Correctness checks for the outputs of timed CLI commands.

Each check returns ``None`` when the output is right and a one-line
reason when it is not; the runner counts a reason as a failed operation.
The checks read only the command's outputs and references computed
outside the timed region.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Acceptance bound between simulation and closed form, as in the test suite.
SIM_VS_CLOSED_FORM_TOL = 1e-10
GROVERIAN_TOL = 1e-9


def check_csv_rows(csv_text: str, steps: int) -> str | None:
    """A simulate CSV has one row per step t = 0..steps with 0 <= p <= 1."""
    rows = list(csv.DictReader(csv_text.splitlines()))
    if [int(row["t"]) for row in rows] != list(range(steps + 1)):
        return f"simulate CSV does not hold t = 0..{steps}"
    if not all(0.0 <= float(row["p_marked"]) <= 1.0 + 1e-12 for row in rows):
        return "simulate CSV has p_marked outside [0, 1]"
    return None


def check_compare(report: dict, csv_text: str, marked: list[int], steps: int) -> str | None:
    """The compare report agrees with the closed form and with simulate's CSV."""
    if report["marked"] != marked:
        return f"compare reports marked set {report['marked']}, expected {marked}"
    if not report["max_abs_err"] <= SIM_VS_CLOSED_FORM_TOL:
        return f"compare max_abs_err {report['max_abs_err']!r} > {SIM_VS_CLOSED_FORM_TOL}"
    p_sim = [row["p_sim"] for row in report["per_t"]]
    p_csv = [float(row["p_marked"]) for row in csv.DictReader(csv_text.splitlines())]
    if len(p_sim) != steps + 1 or p_sim != p_csv:
        return "compare p_sim differs from the simulate CSV's p_marked"
    return None


def check_identical(first: bytes, second: bytes, what: str) -> str | None:
    """A seeded rerun reproduced the output byte for byte."""
    if first != second:
        return f"seeded rerun of {what} is not byte-identical"
    return None


def check_exhaustive_average(report: dict, num_sets: int, expected_mean: float) -> str | None:
    """An exhaustive avg-success covers every set and matches the closed-form mean."""
    if report["num_sets"] != num_sets or report["exhaustive"] is not True:
        return f"avg-success covered {report['num_sets']} sets, expected all {num_sets}"
    if not abs(report["mean_p"] - expected_mean) <= SIM_VS_CLOSED_FORM_TOL:
        return f"avg-success mean_p {report['mean_p']!r} != closed form {expected_mean!r}"
    return None


def check_sampled_ghz_average(
    report: dict, samples: int, seed: int, p_by_hits: tuple[float, float, float]
) -> str | None:
    """A sampled r=2 average over a GHZ state is a mix of three known values.

    P(tau) for GHZ depends only on how many of the two marked indices hit
    the GHZ support (0, 1 or 2), so samples * mean_p must equal
    c0*p0 + c1*p1 + c2*p2 for whole counts c0 + c1 + c2 = samples.
    """
    if report["num_sets"] != samples or report["exhaustive"] is not False:
        return f"sampled avg-success covered {report['num_sets']} sets, expected {samples}"
    if report["seed"] != seed:
        return f"sampled avg-success reports seed {report['seed']}, expected {seed}"
    p0, p1, p2 = p_by_hits
    c1 = np.arange(samples + 1)[:, None]
    c2 = np.arange(samples + 1)[None, :]
    totals = (samples - c1 - c2) * p0 + c1 * p1 + c2 * p2
    feasible = c1 + c2 <= samples
    gap = np.min(np.abs(totals - samples * report["mean_p"])[feasible])
    if not gap <= samples * SIM_VS_CLOSED_FORM_TOL:
        return f"sampled avg-success mean_p {report['mean_p']!r} is no mix of {p_by_hits}"
    return None


def check_classify(payload: dict, kind: str, period: int | None) -> str | None:
    """classify gives the class and cycle period known from construction."""
    if payload["kind"] != kind or payload.get("detected_period") != period:
        return (
            f"classify gave {payload['kind']} / period {payload.get('detected_period')}, "
            f"expected {kind} / {period}"
        )
    return None


def check_groverian(
    payload: dict, argmax_overlap: float, expected_p_max: float | None, oracle: bool
) -> str | None:
    """groverian's p_max is attained by its argmax and, where known, exact.

    ``argmax_overlap`` is product_overlap of the state with the reported
    argmax, computed outside the timed region.
    """
    p_max = payload["p_max"]
    if not abs(argmax_overlap - p_max) <= GROVERIAN_TOL:
        return f"groverian argmax overlap {argmax_overlap!r} != p_max {p_max!r}"
    if expected_p_max is not None and not abs(p_max - expected_p_max) <= GROVERIAN_TOL:
        return f"groverian p_max {p_max!r}, expected {expected_p_max!r}"
    if not math.isclose(payload["g"], math.sqrt(max(0.0, 1.0 - p_max)), abs_tol=1e-12):
        return f"groverian g {payload['g']!r} != sqrt(1 - p_max)"
    if oracle and payload.get("oracle", {}).get("consistent") is not True:
        return f"groverian oracle check is not consistent: {payload.get('oracle')}"
    return None
