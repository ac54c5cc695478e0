"""Self-test of the benchmark at a tiny size: every workload, with and
without tracing, plus the output checks on deliberately bad outputs and
the timing corrections.

    python3 -m pytest benchmarks/test_selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and v == v for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, str(tmp_path / "benchmarks" / "run.py"),
                           "--workload", "dataset", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_oracle_check_passes_and_catches_one_changed_bit(tmp_path, monkeypatch):
    ctx = harness.Ctx(ref=harness.load_reference(), size=harness.TINY_SIZE,
                      work=tmp_path, seed=0)
    assert harness.oracle_mismatches(ctx) == 0
    bound = harness.covert.transmit_power_bound
    monkeypatch.setattr(harness.covert, "transmit_power_bound",
                        lambda *args: harness.np.nextafter(bound(*args), 0.0))
    assert harness.oracle_mismatches(ctx) == 16


def test_dataset_check_rejects_an_asymmetric_adjacency(tmp_path):
    ctx = harness.Ctx(ref={}, size=harness.TINY_SIZE, work=tmp_path, seed=0,
                      state={"frames": 3, "L": 2})
    seq = harness.graphs.sequence_from_positions(
        harness.np.zeros((3, 2, 3)), 100.0, 0.1)
    seq.snapshots[1].adjacency[0, 1] = 0
    for k in range(harness.TINY_SIZE.dataset_n):
        split = "train" if k < int(0.8 * harness.TINY_SIZE.dataset_n) else "test"
        (tmp_path / split).mkdir(exist_ok=True)
        harness.graphs.save_sequence_json(seq, tmp_path / split / f"seq_{k:04d}.json")
    errors, _ = harness.WORKLOADS["dataset"].check(ctx, tmp_path)
    assert len(errors) == harness.TINY_SIZE.dataset_n
    assert all("symmetric" in e for e in errors)


def test_timing_clears_steal_and_scales_to_the_reference_speed():
    # (wall, steal, active): the larger lower bound of unstolen time wins.
    assert harness.unstolen_seconds((0.0, 5.0, 1.0), (10.0, 6.0, 7.0)) == 9.0
    assert harness.unstolen_seconds((0.0, 5.0, 1.0), (10.0, 8.0, 9.5)) == 8.5
    assert harness.Timing(wall=10.0, unstolen=8.0, speed=0.5).seconds == 4.0
    _, t = harness.timed(sum, [1, 2])
    assert t.wall > 0 and t.unstolen >= 0 and t.speed > 0
