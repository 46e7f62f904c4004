"""Smoke test of the benchmark harness on tiny grids; no timing bounds.

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import PER_LAYER, layer_metrics, self_times  # noqa: E402


def tiny(seed: int) -> wl.Workload:
    common = ("--symbol", f"elementary:seed={seed},J=3", "--grid", "32",
              "--mode", f"random:band=0.4,seed={seed}")
    return wl.Workload(
        steps=(
            wl.Step(
                ("experiment", "counterexample", "--config", "../ce.json", "--out", "ce.json"),
                wl._expect_verdicts("ce.json", {"identity": True}),
            ),
            wl.Step(("paradiff", *common, "--report", "corona", "--out", "pd.json"),
                    wl._PARADIFF_OK),
            wl.Step(("pointwise", "factorize", *common, "--out", "pf.csv"), wl._FACTORIZE_OK),
        ),
        configs={"ce.json": {"grid": {"n": 1, "N": 2048}, "params": {"N_list": [2, 3]}}},
    )


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    out = run.benchmark(tiny(3), 3, 0, False, tmp_path)
    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == 3 + len(wl.REFERENCE_CASES)
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = out["record"]["environment"]
    assert env["nproc"] >= 1 and env["src_lines"] > 0 and env["numpy"]


def test_traced_run_reports_every_layer_metric(tmp_path):
    out = run.benchmark(tiny(4), 4, 0, True, tmp_path)
    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["cli.main.calls"] == 3
    assert metrics["operators.paradiff_split.busy_s"] > 0
    assert metrics["operators.paradiff_split.peak_mb"] > 0
    assert metrics["symbols.table.max_mb"] > 0
    assert metrics["operators.apply_auto.fft_x"] > 0
    assert metrics["threads.pmap.calls"] > 0


def test_failed_check_is_counted_not_fatal(tmp_path):
    bad = wl.Workload(
        steps=(
            wl.Step(("norms", "--space", "L:p=2", "--mode", "single:eta=1", "--grid", "16",
                     "--json"), lambda stdout, d: ["always wrong"]),
            wl.Step(("norms", "--space", "nonsense", "--mode", "single:eta=1"), wl._NORM_OK),
            wl.Step(("norms", "--space", "L:p=2", "--mode", "single:eta=1", "--grid", "16",
                     "--json"), wl._NORM_OK),
        ),
        configs={},
    )
    out = run.benchmark(bad, 0, 0, False, tmp_path)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == 2
    assert result["attempted"] == 3 + len(wl.REFERENCE_CASES)


def test_self_time_and_pmap_nesting_from_spans():
    # span: id, name, start, end, parent, thread, extra
    spans = [
        [0, "_threads.pmap", 0.0, 10.0, None, 1, None],
        [1, "pointwise.peetre_maximal", 1.0, 6.0, 0, 2, None],
        [2, "pointwise.peetre_maximal", 2.0, 7.0, 0, 3, None],
        [3, "_threads.pmap", 3.0, 4.0, 1, 2, None],
        [4, "operators.apply_auto", 8.0, 9.0, None, 1, {"grid": "1x64"}],
        [5, "grid.fft_forward", 8.0, 8.5, 4, 1, None],
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0)  # children cover [1, 7]
    assert own[1] == pytest.approx(4.0)
    assert own[4] == pytest.approx(0.5)
    metrics, by_grid = layer_metrics(spans, {"1x64": 0.25}, 5)
    assert metrics["threads.pmap.calls"] == 2
    assert metrics["threads.pmap.nested_calls"] == 1
    assert metrics["threads.pmap.max_live_threads"] == 5
    assert metrics["pointwise.peetre_maximal.busy_s"] == pytest.approx(4.0 + 5.0)
    assert metrics["operators.apply_auto.fft_x"] == pytest.approx(1.0 / 0.25)
    assert by_grid["1x64"]["fft_x_self"] == pytest.approx(0.5 / 0.25)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "small-grids", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
