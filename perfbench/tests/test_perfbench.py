"""Self-test of the benchmark at tiny sizes.

Run from the checkout root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import groverdyn.cli  # noqa: E402
import groverdyn.core  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, trace: bool, seed: int = 7) -> tuple[dict, dict]:
    sizes = workloads.WORKLOADS[name].tiny_sizes
    return run.run(name, seed, 0.01, trace, ROOT, sizes=sizes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_declared_metric(name, trace):
    result, report = _tiny(name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in declared}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert list(report["commands"]) == list(workloads.WORKLOADS[name].slots)
    assert report["environment"]["backend"] == groverdyn.backend_name()


def test_times_are_raw_medians_at_the_reference_speed():
    result, report = _tiny("sweep_n12", False)
    scale = run.REFERENCE_LOOP_S / report["reference_loop_median_s"]
    for metric, slot in zip(run.SLOT_METRICS, workloads.WORKLOADS["sweep_n12"].slots):
        raw = report["commands"][slot]["median"]
        assert result["metrics"][metric]["value"] == pytest.approx(raw * scale)
    # A batch of four classify calls is one sample.
    assert report["commands"]["classify_s"]["count"] == report["cycles"]
    assert result["attempted"] == 6 * report["cycles"]


def test_declared_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert per_layer == {**spans.metric_units(), "trace.overhead_s": "s"}


def test_traced_run_restores_the_package():
    originals = (groverdyn.core.load_state, groverdyn.cli.main, groverdyn.cli.save_state)
    _tiny("trajectory_n18", True)
    assert (groverdyn.core.load_state, groverdyn.cli.main, groverdyn.cli.save_state) == originals


def test_compare_check_flags_an_error_above_the_bound():
    csv_text = "t,p_marked\n0,0.25\n1,0.5\n"
    report = {"marked": [3], "max_abs_err": 1e-6,
              "per_t": [{"p_sim": 0.25}, {"p_sim": 0.5}]}
    assert checks.check_compare(report, csv_text, [3], 1) is not None
    assert checks.check_compare({**report, "max_abs_err": 1e-12}, csv_text, [3], 1) is None
    bad_row = {**report, "max_abs_err": 1e-12, "per_t": [{"p_sim": 0.25}, {"p_sim": 0.51}]}
    assert checks.check_compare(bad_row, csv_text, [3], 1) is not None


def test_corrupted_compare_report_counts_as_failed(monkeypatch):
    honest = groverdyn.cli.compare_run

    def corrupted(config):
        return dataclasses.replace(honest(config), max_abs_err=1e-6)

    monkeypatch.setattr(groverdyn.cli, "compare_run", corrupted)
    result, report = _tiny("trajectory_n18", False)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 3
    assert "compare_s" in report["failures"][0] and "max_abs_err" in report["failures"][0]


def test_other_checks_flag_wrong_outputs():
    assert checks.check_classify({"kind": "Generic", "detected_period": None}, "TwoCycle", 2)
    assert checks.check_identical(b"a", b"b", "state make")
    assert checks.check_exhaustive_average(
        {"num_sets": 16, "exhaustive": True, "mean_p": 0.5}, 16, 0.5 + 1e-8)
    payload = {"p_max": 0.5, "g": 0.5 ** 0.5, "oracle": {"consistent": True}}
    assert checks.check_groverian(payload, 0.5, 0.5, True) is None
    assert checks.check_groverian(payload, 0.5, 4.0 / 9.0, True)
    assert checks.check_groverian(payload, 0.4, None, False)
    report = {"num_sets": 10, "exhaustive": False, "seed": 1, "mean_p": 0.3}
    assert checks.check_sampled_ghz_average(report, 10, 1, (0.1, 0.5, 0.9)) is None
    assert checks.check_sampled_ghz_average({**report, "mean_p": 0.31}, 10, 1, (0.1, 0.5, 0.9))


def test_missing_span_is_reported_and_never_zero():
    renamed = spans.Target("core.load_state", "groverdyn.core", "load_state_v2")
    tracer = spans.Tracer(spans.TARGETS + (renamed,))
    assert tracer.missing == ["core.load_state (groverdyn.core.load_state_v2)"]
    metrics = spans.layer_metrics(tracer, cycles=1)
    assert "core.load_state.s" not in metrics and "core.load_state.bytes" not in metrics
    assert "cli.self_s" not in metrics  # self times would absorb the lost span
    assert "core.save_state.s" in metrics


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "sweep_n12", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
