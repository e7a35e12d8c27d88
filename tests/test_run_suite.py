"""Smoke tests for the canonical perf suite (`benchmarks/run_suite.py`)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SUITE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "run_suite.py"


@pytest.fixture(scope="module")
def run_suite():
    spec = importlib.util.spec_from_file_location("run_suite", _SUITE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["run_suite"] = module
    spec.loader.exec_module(module)
    return module


def test_grid_covers_all_cells(run_suite):
    grid = run_suite.build_grid("small", list(run_suite.MODELS), list(run_suite.PROBLEMS))
    assert len(grid) == 16
    assert len({s.scenario_id for s in grid}) == 16


def test_scenario_seed_is_process_stable(run_suite):
    # Would fail with salted hash(): the seed must be a pure function of the key.
    assert run_suite._scenario_seed("lp", "streaming", 2000) == run_suite._scenario_seed(
        "lp", "streaming", 2000
    )
    assert run_suite._scenario_seed("lp", "streaming", 2000) != run_suite._scenario_seed(
        "svm", "streaming", 2000
    )


def test_single_scenario_emits_schema(run_suite, tmp_path):
    # The true small tier: large enough that the sampling path (and with it
    # the oracle counter) is exercised, small enough to stay fast.
    out = tmp_path / "BENCH.json"
    code = run_suite.main(
        [
            "--tier", "small", "--repeats", "1",
            "--problems", "qp", "--models", "sequential",
            "-o", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == run_suite.SCHEMA
    assert report["geomean_wall_time_s"] > 0
    (scenario,) = report["scenarios"]
    assert scenario["id"] == "qp:sequential:small"
    assert scenario["wall_time_s"] > 0
    assert scenario["iterations"] >= 1
    assert scenario["oracle_calls"] >= 1
    assert scenario["peak_bytes"] > 0
    assert not {"cache_hits", "cache_misses", "cache_hit_rate"} & set(scenario)


def test_transport_only_run_reports_no_geomean(run_suite, tmp_path, capsys):
    # No solve scenario runs, so there is no wall time to average.
    out = tmp_path / "BENCH-transport.json"
    code = run_suite.main(
        [
            "--transport-only", "--transport-n", "500",
            "--transport-workers", "1", "--transport-rounds", "1",
            "--transport-repeats", "1", "-o", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scenarios"] == []
    assert report["geomean_wall_time_s"] is None
    assert [cell["wire"] for cell in report["transport_bench"]["cells"]] == [
        "pickle", "shm", "tcp",
    ]
    assert "geomean wall time" not in capsys.readouterr().out


def test_baseline_gate_passes_and_fails(run_suite, tmp_path):
    report = {
        "scenarios": [
            {"id": "qp:sequential:small", "wall_time_s": 0.10},
            {"id": "lp:streaming:small", "wall_time_s": 0.05},
        ]
    }
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "scenarios": [
                    {"id": "qp:sequential:small", "wall_time_s": 0.08},
                    {"id": "lp:streaming:small", "wall_time_s": 0.06},
                ]
            }
        )
    )
    assert run_suite.compare_to_baseline(report, str(baseline_path), 2.0) == 0
    report["scenarios"][0]["wall_time_s"] = 0.50  # > 2x of 0.08
    assert run_suite.compare_to_baseline(report, str(baseline_path), 2.0) == 1


def test_missing_baseline_entry_fails_the_gate(run_suite, tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps({"scenarios": [{"id": "a", "wall_time_s": 0.10}]})
    )
    report = {
        "scenarios": [
            {"id": "a", "wall_time_s": 0.10},
            {"id": "brand-new-cell", "wall_time_s": 0.10},
        ]
    }
    assert run_suite.compare_to_baseline(report, str(baseline_path), 2.0) == 1


def test_noise_floor_exempts_tiny_scenarios(run_suite, tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps({"scenarios": [{"id": "a", "wall_time_s": 0.001}]})
    )
    # 4x of a 1 ms baseline is still under the 15 ms floor's 2x budget.
    report = {"scenarios": [{"id": "a", "wall_time_s": 0.004}]}
    assert run_suite.compare_to_baseline(report, str(baseline_path), 2.0) == 0
    # ... but blowing past the floor-adjusted budget still fails.
    report = {"scenarios": [{"id": "a", "wall_time_s": 0.200}]}
    assert run_suite.compare_to_baseline(report, str(baseline_path), 2.0) == 1


def test_scenario_emits_communication_columns(run_suite, tmp_path):
    out = tmp_path / "BENCH.json"
    code = run_suite.main(
        [
            "--tier", "small", "--repeats", "1",
            "--problems", "lp", "--models", "coordinator",
            "-o", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    (scenario,) = report["scenarios"]
    assert scenario["rounds"] >= 1
    assert scenario["total_comm_bits"] > 0
    assert scenario["max_message_bits"] > 0
    assert scenario["max_load_bits"] > 0
    assert report["total_comm_bits"] == scenario["total_comm_bits"]


def test_communication_gate_bits_and_rounds(run_suite, tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "scenarios": [
                    {
                        "id": "a",
                        "wall_time_s": 0.10,
                        "rounds": 6,
                        "total_comm_bits": 1000,
                    }
                ]
            }
        )
    )
    ok = {
        "scenarios": [
            {"id": "a", "wall_time_s": 0.10, "rounds": 7, "total_comm_bits": 1900}
        ]
    }
    assert run_suite.compare_to_baseline(ok, str(baseline_path), 2.0) == 0
    # > 2x the baseline's measured bits fails even at identical wall time.
    too_many_bits = {
        "scenarios": [
            {"id": "a", "wall_time_s": 0.10, "rounds": 6, "total_comm_bits": 2100}
        ]
    }
    assert run_suite.compare_to_baseline(too_many_bits, str(baseline_path), 2.0) == 1
    # More than one extra round fails too.
    too_many_rounds = {
        "scenarios": [
            {"id": "a", "wall_time_s": 0.10, "rounds": 8, "total_comm_bits": 1000}
        ]
    }
    assert run_suite.compare_to_baseline(too_many_rounds, str(baseline_path), 2.0) == 1


def test_communication_gate_skips_schema_v1_baselines(run_suite, tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps({"scenarios": [{"id": "a", "wall_time_s": 0.10}]})
    )
    report = {
        "scenarios": [
            {"id": "a", "wall_time_s": 0.10, "rounds": 99, "total_comm_bits": 10**9}
        ]
    }
    assert run_suite.compare_to_baseline(report, str(baseline_path), 2.0) == 0
